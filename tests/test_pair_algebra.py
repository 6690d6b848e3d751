"""The array pair algebra against the scalar reference, bit for bit."""

import dataclasses
import itertools
import math

from hypothesis import given, settings, strategies as st

import pair_reference as reference
from beamforge import Params, Spectrum
from beamforge.bimodal import _pair_table
from beamforge.errors import VerificationError
from beamforge.modesets import ee_family_thresholds, effective_modes

SPECTRA = [
    Spectrum.scaled(10),
    Spectrum.dirichlet(10),
    Spectrum.power(2, 10),
    # lam1 lam2 = 2 and lam1 (lam2 - lam1) = 2 - 2e-12: one pair on both
    # equalities at k = 1
    Spectrum.explicit([1e-6, 2e6]),
]


def ulps_around(x):
    """``x`` and the two floats either side of it, in increasing order."""
    down, up = [x], [x]
    for _ in range(2):
        down.insert(0, math.nextafter(down[0], -math.inf))
        up.append(math.nextafter(up[-1], math.inf))
    return down + up[1:]


@st.composite
def near_resonances(draw):
    """A spectrum, a tolerance, a target ``lam1 lam2``, ``lam1 lam2 / 2``
    or ``lam1 (lam2 - lam1) / 2`` of one of its pairs, ``k`` within 1e-12
    or the tolerance relative of it, and ``-beta`` near an EE threshold or
    anywhere up to the spectrum's top, one or two ulps off or on."""
    spec = draw(st.sampled_from(SPECTRA))
    n1, n2 = sorted(draw(st.lists(st.integers(1, spec.n_max), min_size=2, max_size=2, unique=True)))
    lam1, lam2 = spec.eigenvalue(n1), spec.eigenvalue(n2)
    tol = draw(st.sampled_from([1e-12, 1e-9, 1e-6, 3e-2]))
    target = draw(st.sampled_from([lam1 * lam2, lam1 * lam2 / 2.0, lam1 * (lam2 - lam1) / 2.0]))
    k = target * (1.0 + draw(st.sampled_from([1e-12, tol])) * draw(st.floats(min_value=-2.0, max_value=2.0)))
    top = spec.eigenvalue(spec.n_max)
    mb = draw(st.one_of(st.sampled_from([lam2, lam1 + lam2, top]), st.floats(min_value=0.0, max_value=2.5 * top)))
    varrho = draw(st.floats(min_value=0.1, max_value=10.0))
    return spec, (n1, n2), -draw(st.sampled_from(ulps_around(mb))), varrho, target, k, tol


def hexes(values):
    return [x.hex() if isinstance(x, float) else x for x in values]


def outcome(scan):
    try:
        return scan()
    except VerificationError as exc:  # the lam1 + lam2 == lam3 cross-check
        return type(exc)


def check_pair(p, spec, pair, tol):
    """The invariants and the EE pair kind of one pair."""
    inv, _ = reference._pair_algebra(spec, p.k, pair)
    got = reference.program_invariants(p, spec, pair)
    assert (got is None) == (inv is None)
    if inv is not None:
        assert hexes(dataclasses.astuple(got)) == hexes(dataclasses.astuple(inv))
    kind = outcome(lambda: dict(reference.program_ee(p, spec, tol)[0]).get(pair))
    # a scan stopped by the lam1 + lam2 == lam3 cross-check is held to the
    # reference by check_tables at the same parameters
    if kind is not VerificationError:
        assert kind == reference.ee_bimodal_membership(p, spec, pair, tol)


def check_tables(p, spec, tol):
    """The pair table of every pair and the EE scans."""
    pairs = list(itertools.combinations(range(1, spec.n_max + 1), 2))
    table = _pair_table(p, spec, pairs)
    want = reference.pair_table_columns(p, spec, pairs)
    assert [hexes(row) for row in zip(*(column.tolist() for column in table[:1] + table[3:13]))] == [
        hexes(row) for row in want
    ]
    assert [table.n1.tolist(), table.n2.tolist()] == [list(n) for n in zip(*pairs)]
    squares = [hexes(x * x for x in row[-4:]) for row in want]
    assert [hexes(row) for row in zip(*(column.tolist() for column in table[13:]))] == squares
    E = effective_modes(p, spec).E
    assert outcome(lambda: reference.program_ee(p, spec, tol)) == outcome(
        lambda: (reference.bimodal_ee_pairs(p, spec, E, tol), reference.trimodal_ee_triples(p, spec, E, tol))
    )
    assert outcome(lambda: hexes(ee_family_thresholds(p, spec, tol).tolist())) == outcome(
        lambda: hexes(reference.ee_family_thresholds(p, spec, E, tol))
    )


@settings(max_examples=60, deadline=None)
@given(near_resonances())
def test_pair_algebra_matches_the_scalar_reference(case):
    # the pair table's columns, the invariants, the EE scans and the pair
    # kinds equal the scalar reference bit for bit: at k on the
    # target and exactly 1e-12 or the tolerance relative off it either
    # side, where an equality at that tolerance changes its answer, each
    # one or two ulps off or on; and at a k within those tolerances
    spec, pair, beta, varrho, target, k, tol = case
    for rel in (0.0, 1e-12, -1e-12, tol, -tol):
        for k_edge in ulps_around(target * (1.0 + rel)):
            p = Params(beta, varrho, k_edge)
            check_tables(p, spec, tol)
            check_pair(p, spec, pair, tol)
    p = Params(beta, varrho, k)
    check_tables(p, spec, tol)
    for other in itertools.combinations(range(1, spec.n_max + 1), 2):
        check_pair(p, spec, other, tol)
