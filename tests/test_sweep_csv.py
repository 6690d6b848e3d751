"""The sweep CSV against the emitter it replaced.

``sweep`` writes its lines one compression at a time, formats each
amplitude magnitude once and puts the signs of a row and of its sign
image in front of that text by a line template.
The reference below is the emitter before that: one list per row, every
row sorted by ``(beta, branch_id)``, then :func:`jsonio.csv_text`, with
the bands and amplitudes of the scalar reference of
``unimodal_reference``, one mode at a time.  The two must agree byte for
byte, on, next to and within roundoff of the thresholds ``lam_n``,
``mu_n`` and ``nu_n`` where the band collapse decides which families a
row reports.
"""

import contextlib
import io
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from beamforge import cli, jsonio
from beamforge.bimodal import _pair_table, branch_rows, count_general_bimodal, pair_table
from beamforge.core import Params
from beamforge.jsonio import csv_text
from beamforge.modesets import count_ee_families, ee_family_thresholds, mu_value, nu_value
from beamforge.spectrum import Spectrum
from unimodal_reference import FAMILIES, GAMMA_PARTNER, amplitude_curves, effective_modes

HEADER = [
    "beta", "branch_id", "modes", "alpha_1", "gamma_1", "alpha_2", "gamma_2",
    "count_unimodal", "count_ee_families", "count_general_bimodal",
]
TOL_COND = 1e-9


def reference_sweep(spectrum, k, varrho, grid, track, pairs) -> str:
    spec = Spectrum.from_token(spectrum)
    top = Params(beta=-max(grid), varrho=varrho, k=k)
    tracked = sorted(set(track)) if track else list(effective_modes(top, spec).E) or [1]
    minus_betas = set(grid)
    for n in tracked:
        lam = spec.eigenvalue(n)
        for boundary in (lam, mu_value(lam, k), nu_value(lam, k)):
            if min(grid) <= boundary <= max(grid):
                minus_betas.add(boundary)
    ee_thresholds = ee_family_thresholds(top, spec, TOL_COND)
    bimodal_table = pair_table(top, spec, effective_modes(top, spec).n_star)
    rows = []
    for mb in minus_betas:
        p = Params(beta=-mb, varrho=varrho, k=k)
        part = effective_modes(p, spec)
        counts = (
            2 * len(part.E1) + 4 * len(part.E2) + 8 * len(part.E3),
            count_ee_families(ee_thresholds, p.beta),
            count_general_bimodal(bimodal_table, p.beta, part.n_star),
        )
        carried = {n: FAMILIES[band] for band in FAMILIES for n in getattr(part, band)}
        for n in tracked:
            curves = amplitude_curves(p, spec, n)
            lam = spec.eigenvalue(n)
            thresholds = {1: lam, 2: mu_value(lam, k), 3: nu_value(lam, k), 4: nu_value(lam, k)}
            for i in (1, 2, 3, 4):
                a = curves[i]
                if a is None or (i not in carried.get(n, ()) and mb != thresholds[i]):
                    continue
                partner, partner_sign = GAMMA_PARTNER[i]
                gamma_mag = partner_sign * curves[partner]
                for sign, sig in ((+1, "+"), (-1, "-")):
                    rows.append(
                        [p.beta, f"n{n}:alpha{i}{sig}", str(n), sign * a, sign * gamma_mag,
                         None, None, *counts]
                    )
        for n1, n2 in pairs:
            for _, kind, (a1, g1), (a2, g2) in branch_rows(_pair_table(p, spec, [(n1, n2)]), p.beta):
                sig = ("+" if a1 > 0 else "-") + ("+" if a2 > 0 else "-")
                rows.append(
                    [p.beta, f"b{n1}-{n2}:{kind}{sig}", f"{n1};{n2}", a1, g1, a2, g2, *counts]
                )
    rows.sort(key=lambda r: (r[0], r[1]))
    return csv_text(HEADER, rows)


@st.composite
def sweeps(draw):
    spectrum = draw(st.sampled_from(["scaled", "dirichlet", "power:2"]))
    k = draw(st.one_of(st.sampled_from([1.0, 3.0, 72.0]), st.floats(min_value=0.05, max_value=100.0)))
    varrho = draw(st.sampled_from([1.0, 0.5, 3.0]))
    spec = Spectrum.from_token(spectrum)

    def near_threshold():
        # on a threshold, a few ulps off it, within the band collapse
        # tolerance of it, or well clear of it (possibly below zero)
        lam = spec.eigenvalue(draw(st.integers(min_value=1, max_value=12)))
        x = draw(st.sampled_from([lam, mu_value(lam, k), nu_value(lam, k)]))
        x *= 1.0 + draw(st.sampled_from([0.0, 0.0, -4e-13, 4e-13, 1e-6, -0.3, 0.5, -2.0]))
        ulps = draw(st.integers(min_value=-2, max_value=2))
        for _ in range(abs(ulps)):
            x = math.nextafter(x, math.copysign(math.inf, ulps))
        return x

    lo = near_threshold()
    hi = lo if draw(st.booleans()) else near_threshold()
    count = 1 if hi == lo else draw(st.integers(min_value=1, max_value=6))
    track = None
    if draw(st.booleans()):
        track = draw(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4))
        # a mode whose ids sort before those of mode 1
        track.append(draw(st.integers(min_value=10, max_value=12)))
    # low pairs, which have branches at more of the grid; possibly repeated
    pairs = draw(
        st.lists(
            st.integers(min_value=1, max_value=5).flatmap(
                lambda n1: st.tuples(st.just(n1), st.integers(min_value=n1 + 1, max_value=6))
            ),
            max_size=4,
        )
    )
    return spectrum, k, varrho, f"{lo!r}:{hi!r}:{count}", track, pairs


@settings(max_examples=100, deadline=None)
@given(sweeps())
def test_sweep_csv_matches_the_row_list_emitter(sweep):
    spectrum, k, varrho, grid, track, pairs = sweep
    argv = ["sweep", "--spectrum", spectrum, f"--k={k!r}", f"--varrho={varrho!r}", f"--grid={grid}"]
    if track is not None:
        argv.append("--track=" + ",".join(map(str, track)))
    argv += [f"--pairs={n1},{n2}" for n1, n2 in pairs]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert out.getvalue() == reference_sweep(spectrum, k, varrho, cli._parse_grid(grid), track, pairs)


# on `scaled` with k = 3 no threshold of mode 1 (1, 7 and 10) lies in
# 20..30, so each grid below has as many compressions as points; five
# modes are effective at the top, so a block holds 1024 // 5 = 204
BLOCK_MULTIPLES = [f"--grid=20:30:{count}" for count in (203, 204, 205, 407, 408, 409)]


@pytest.mark.parametrize(
    "argv",
    [
        ("--grid=0:40:21", "--pairs=1,2", "--pairs=2,3", "--pairs=1,2"),
        ("--grid=0:40:21", "--track=1,2,10", "--pairs=1,2"),
        ("--grid=0:40:0",),
        ("--grid=0:40:0", "--pairs=1,2"),
        ("--grid=15.5:15.5:1", "--pairs=1,2"),
        *((grid, "--track=1") for grid in BLOCK_MULTIPLES),
    ],
    ids=" ".join,
)
def test_sweep_bytes_do_not_depend_on_the_block_size(monkeypatch, tmp_path, argv):
    # the compressions are checked, counted and written in blocks of
    # about jsonio._BLOCK_ROWS mode-table rows; one compression per block
    # and the whole grid as one block write the same bytes
    def sweep(name):
        out = tmp_path / name
        assert cli.main(["sweep", "--spectrum=scaled", "--k=3", *argv, "--out", str(out)]) == 0
        return out.read_bytes()

    written = sweep("default.csv")
    for rows in (1, 10**9):
        monkeypatch.setattr(jsonio, "_BLOCK_ROWS", rows)
        assert sweep(f"{rows}.csv") == written


def test_sweep_memory_does_not_grow_with_the_grid(tmp_path):
    # only the count cells are kept per compression: from 201 to 4,001
    # grid points the traced peak grows by about 0.5 MB (it grew by 23 MB
    # when the mode states of the whole grid were held)
    def peak(count):
        tracemalloc.start()
        try:
            argv = ["sweep", "--spectrum=dirichlet", f"--grid=0:45000:{count}", "--track=1"]
            assert cli.main([*argv, "--out", str(tmp_path / "sweep.csv")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(201), peak(4001)
    assert large - small < 4_000_000, (small, large)
