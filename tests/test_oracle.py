import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from beamforge import (
    ModalSolution,
    Params,
    Spectrum,
    ValidationError,
    enumerate_ee_families,
    enumerate_general_bimodal,
    enumerate_unimodal,
    galerkin_solve,
    match_against,
    modal_residual,
)
from beamforge import kernels, oracle
from beamforge.core import solution_sort_key
from beamforge.modesets import trimodal_candidates
from beamforge.oracle import DEDUP_RTOL, _dedup_merge


def closed_inventory(p, spec):
    return sorted(
        enumerate_unimodal(p, spec) + enumerate_general_bimodal(p, spec),
        key=solution_sort_key,
    )


def test_trivial_only_when_uncompressed(scaled):
    p = Params(beta=-0.5, varrho=1.0, k=3.0)
    result = galerkin_solve(p, scaled, 4, 500, seed=0)
    assert len(result.found) == 1
    assert result.found[0].is_trivial
    assert result.converged_count > 0


def test_finds_full_inventory_small(scaled):
    # two effective modes: 16 unimodal + 8 general bimodal + trivial
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    spec = Spectrum.scaled(n_max=8)
    result = galerkin_solve(p, spec, 2, 4000, seed=1)
    closed = closed_inventory_for_modes(p, spec, 2)
    report = match_against(closed, [], result.found)
    assert len(result.found) == len(closed) + 1  # plus the trivial root
    assert not report.unmatched
    assert not report.missed_closed
    for sol in result.found:
        assert modal_residual(sol, p, spec).max_abs < result.newton_tol


def closed_inventory_for_modes(p, spec, n_modes):
    return [
        s
        for s in closed_inventory(p, spec)
        if all(n <= n_modes for n in s.active)
    ]


def test_family_roots_classified_on_family(scaled):
    p = Params(beta=-10.0, varrho=1.0, k=2.0)
    result = galerkin_solve(p, scaled, 2, 600, seed=2)
    closed = closed_inventory_for_modes(p, scaled, 2)
    families = enumerate_ee_families(p, scaled)
    report = match_against(closed, families, result.found)
    assert not report.unmatched
    bimodal_roots = [s for s in result.found if len(s.active) == 2]
    assert bimodal_roots, "expected points on the EE continuum"
    fam = families[0]
    for sol in bimodal_roots:
        coords = [sol.modes[n][0] for n in fam.modes]
        assert abs(fam.quadric_residual(coords)) < 1e-6


def test_no_root_has_more_than_three_active_modes(scaled):
    for beta, k, n_modes in ((-15.5, 3.0, 4), (-30.0, 72.0, 5)):
        p = Params(beta=beta, varrho=1.0, k=k)
        spec = Spectrum.scaled(n_max=8)
        result = galerkin_solve(p, spec, n_modes, 800, seed=3)
        for sol in result.found:
            assert len(sol.active) <= 3


def test_fermat_scan_finds_no_trimodal_roots():
    # cubic and quartic spectra admit no trimodal states; try the
    # resonance-matched couplings for a few leading triples
    for pexp in (2, 3):
        spec = Spectrum.power(pexp, n_max=6)
        for triple in ((1, 2, 3), (2, 3, 4)):
            lam1 = spec.eigenvalue(triple[0])
            lam3 = spec.eigenvalue(triple[2])
            k = lam1 * (lam3 - lam1) / 2.0
            p = Params(beta=-1.3 * lam3, varrho=1.0, k=k)
            result = galerkin_solve(p, spec, triple[2], 300, seed=4)
            assert trimodal_candidates(spec, 20) == []
            for sol in result.found:
                assert len(sol.active) < 3


def test_match_against_empty_oracle(scaled):
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    report = match_against(closed_inventory(p, scaled), [], [])
    assert report.matched == 0
    assert report.on_family == 0
    assert report.unmatched == []
    assert len(report.missed_closed) == 48


def test_match_against_flags_unknown_root(scaled):
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    fake = ModalSolution({1: (0.123, 0.456)}, tag="oracle")
    report = match_against(closed_inventory(p, scaled), [], [fake])
    assert report.unmatched == [fake]
    assert report.labels == ["unmatched"]


def test_deduplication(scaled):
    p = Params(beta=-5.0, varrho=1.0, k=3.0)
    result = galerkin_solve(p, scaled, 1, 200, seed=5)
    # mode 1 in the two-branch band: trivial + 2 in-phase solutions
    assert len(result.found) == 3
    tags = [s.tag for s in result.found]
    assert all(t == "oracle" for t in tags)


@pytest.mark.parametrize("seed", range(8))
def test_paper_case_full_inventory_every_seed(scaled, seed):
    # all 48 isolated states plus the trivial one on every seed, not
    # just on a lucky one
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    result = galerkin_solve(p, scaled, 3, 3000, seed=seed)
    report = match_against(closed_inventory(p, scaled), [], result.found)
    assert report.missed_closed == []
    assert report.unmatched == []
    assert len(result.found) == 49


@pytest.mark.parametrize("seed", range(8))
def test_paper_case_full_inventory_at_1000_starts(scaled, seed):
    # a third of the budget above already finds every state
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    result = galerkin_solve(p, scaled, 3, 1000, seed=seed)
    report = match_against(closed_inventory(p, scaled), [], result.found)
    assert report.missed_closed == []
    assert report.unmatched == []
    assert len(result.found) == 49


def test_fixed_seed_is_repeatable(scaled):
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    a = galerkin_solve(p, scaled, 3, 1000, seed=9)
    b = galerkin_solve(p, scaled, 3, 1000, seed=9)
    assert a.converged_count == b.converged_count
    assert [s.modes for s in a.found] == [s.modes for s in b.found]


def test_starts_validation(scaled):
    p = Params(beta=-5.0, varrho=1.0, k=3.0)
    for starts in (0, -3):
        with pytest.raises(ValidationError):
            galerkin_solve(p, scaled, 1, starts)


@pytest.mark.parametrize("seed", range(4))
def test_trimodal_case_full_inventory_every_seed(seed):
    # near the junctions of the EE continua the Jacobian is nearly rank
    # deficient; without the rank-cut polish some roots stay too far off
    # the manifold to match and are reported as unmatched, and the rest
    # keep the search's residual (1e-11 of the system scale)
    p = Params(beta=-30.0, varrho=1.0, k=72.0)
    spec = Spectrum.scaled(n_max=8)
    result = galerkin_solve(p, spec, 5, 5000, seed=seed)
    closed = closed_inventory_for_modes(p, spec, 5)
    families = [f for f in enumerate_ee_families(p, spec) if max(f.modes) <= 5]
    report = match_against(closed, families, result.found)
    assert report.unmatched == []
    assert report.missed_closed == []
    assert max(modal_residual(s, p, spec).relative for s in result.found) <= 1e-14


def _dedup_merge_row_by_row(known, roots, radius):
    """The greedy merge as a loop over the new roots, each compared with
    every representative kept so far: the reference for the peeling
    merge."""
    tol = DEDUP_RTOL * radius
    reps = np.empty((known.shape[0] + roots.shape[0], roots.shape[1]))
    count = known.shape[0]
    reps[:count] = known
    for row in roots:
        if count and (np.abs(reps[:count] - row).max(axis=1) <= tol).any():
            continue
        reps[count] = row
        count += 1
    return reps[:count].copy()


def _rows(count, width, values):
    shape = st.tuples(count, st.just(width))
    return hnp.arrays(np.float64, shape, elements=st.sampled_from(values))


@st.composite
def dedup_cases(draw):
    # coefficients on multiples of tol, so that distances fall exactly on
    # tol (0 to tol, tol to 2 tol), one ulp past it, or chain (0 ~ tol ~
    # 2 tol, but 0 and 2 tol differ); plus values far apart
    radius = draw(st.sampled_from([1.0, 2.5, 40.0]))
    tol = DEDUP_RTOL * radius
    past = np.nextafter(tol, np.inf)
    values = [0.0, tol, past, 2.0 * tol, -tol, -past, 0.5 * tol, 0.3 * radius, -0.7 * radius]
    width = draw(st.sampled_from([2, 4, 6]))
    known = draw(_rows(st.integers(0, 4), width, values))
    roots = draw(_rows(st.integers(0, 16), width, values))
    if known.shape[0] and draw(st.booleans()):
        # a root within tol, or one ulp past it, of a known representative
        near = known[draw(st.integers(0, known.shape[0] - 1))] + draw(st.sampled_from([tol, past]))
        roots = np.insert(roots, draw(st.integers(0, roots.shape[0])), near, axis=0)
    return known, roots, radius


_TOL = DEDUP_RTOL * 1.0
_PAST = np.nextafter(_TOL, np.inf)


@settings(max_examples=300, deadline=None)
@given(dedup_cases())
@example((np.zeros((0, 2)), np.array([[0.0, 0.0], [_TOL, 0.0], [2 * _TOL, 0.0], [2 * _PAST, 0]]), 1.0))
@example((np.array([[0.0, 0.0], [0.3, 0.0]]), np.zeros((0, 2)), 1.0))
@example((np.array([[0.0, 0.0]]), np.array([[_TOL, -_TOL], [_PAST, 0.0], [_PAST, _TOL]]), 1.0))
def test_dedup_merge_matches_row_by_row_merge(case):
    known, roots, radius = case
    got = _dedup_merge(known, roots, radius)
    want = _dedup_merge_row_by_row(known, roots, radius)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _per_block_search(newton_batch, p, spec, n_modes, starts, seed):
    """The search as one ``newton_batch`` call per mode-support block,
    each on the restricted system of its own support, the reference for
    the one zero-padded batch.  Returns the starts embedded in the full
    layout, and the roots, flags and iterations in the same row order."""
    lams = spec.eigenvalues(n_modes)
    tol = oracle.NEWTON_TOL_FACTOR * oracle.newton_scale(p, spec, n_modes)
    radius = oracle.start_box_radius(p, spec)
    rng = np.random.default_rng(seed)
    subsets = oracle._mode_subsets(n_modes)
    proper = subsets[:-1]
    share = (starts // 2) // len(proper) if proper else 0
    x0 = np.zeros((starts, 2 * n_modes))
    roots = np.zeros((starts, 2 * n_modes))
    converged = np.zeros(starts, dtype=bool)
    iterations = np.zeros(starts, dtype=np.int64)
    row = 0
    for subset in subsets:
        budget = share if subset in proper else starts - share * len(proper)
        if budget < 1:
            continue
        cols = oracle._columns_for(subset, n_modes)
        block = slice(row, row + budget)
        x0[block, cols] = rng.uniform(-radius, radius, size=(budget, 2 * len(subset)))
        roots[block, cols], converged[block], iterations[block] = newton_batch(
            lams[[n - 1 for n in subset]], p.beta, p.varrho, p.k, x0[block, cols], tol
        )
        row += budget
    return x0, roots, converged, iterations


def _as_array(found, n_modes):
    out = np.zeros((len(found), 2 * n_modes))
    for i, sol in enumerate(found):
        for n, (a, g) in sol.modes.items():
            out[i, [n - 1, n_modes + n - 1]] = a, g
    return out


@pytest.mark.parametrize(
    "case,seed",
    [("paper", s) for s in range(4)] + [("b1", 1)],
)
def test_one_batch_reproduces_the_per_block_search(monkeypatch, case, seed):
    # a zero mode pair stays exactly zero under the full system's Newton
    # steps, so the blocks can share one batch; only the rounding of the
    # coupling sums may differ, never a root, a count or a label
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    spec = Spectrum.scaled() if case == "paper" else Spectrum.scaled(n_max=8)
    n_modes, starts = (3, 3000) if case == "paper" else (2, 4000)
    batched = galerkin_solve(p, spec, n_modes, starts, seed=seed)

    newton_batch = kernels.newton_batch

    def per_block(lams, beta, varrho, k, x0, tol):
        want, *out = _per_block_search(newton_batch, p, spec, n_modes, starts, seed)
        assert x0.tobytes() == want.tobytes()  # same draws, same rows
        return out

    monkeypatch.setattr(kernels, "newton_batch", per_block)
    reference = galerkin_solve(p, spec, n_modes, starts, seed=seed)

    assert batched.converged_count == reference.converged_count
    assert len(batched.found) == len(reference.found)
    radius = oracle.start_box_radius(p, spec)
    a = _as_array(batched.found, n_modes)
    b = _as_array(reference.found, n_modes)
    close = np.abs(a[:, None] - b[None]).max(axis=2) <= DEDUP_RTOL * radius
    assert (close.sum(axis=0) == 1).all() and (close.sum(axis=1) == 1).all()
    closed = closed_inventory_for_modes(p, spec, n_modes)
    labels = match_against(closed, [], batched.found).labels
    assert labels == match_against(closed, [], reference.found).labels
