"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance
and prints a single pass/fail line (run ``pytest -s`` to see them live).
The oracle-backed criteria share their solver runs through module-scoped
fixtures; every oracle result produced here also feeds the global
structure check of criterion 7.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from beamforge import (
    Params,
    Spectrum,
    axial_coefficients,
    cubic_check,
    dirichlet_mode_count,
    enumerate_ee_families,
    enumerate_foundation,
    enumerate_general_bimodal,
    enumerate_plain,
    enumerate_unimodal,
    effective_modes,
    galerkin_solve,
    match_against,
    modal_residual,
    sample_family,
)
from beamforge.core import solution_sort_key
from pair_reference import program_invariants, trimodal_candidates

S3 = math.sqrt(3.0)
S7 = math.sqrt(7.0)
ORACLE_SEED = 0

_all_oracle_results = []


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {description}")
        raise
    print(f"criterion {num}: PASS - {description}")


def _solve(p, spec, n_modes, starts, seed=ORACLE_SEED):
    result = galerkin_solve(p, spec, n_modes, starts, seed=seed)
    _all_oracle_results.append(result)
    return result


def closed_inventory(p, spec):
    return sorted(
        enumerate_unimodal(p, spec) + enumerate_general_bimodal(p, spec),
        key=solution_sort_key,
    )


@pytest.fixture(scope="module")
def scaled():
    return Spectrum.scaled()


@pytest.fixture(scope="module")
def paper_run(scaled):
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    return p, _solve(p, scaled, 3, 6000)


@pytest.fixture(scope="module")
def b1_run(scaled):
    p = Params(beta=-10.0, varrho=1.0, k=2.0)
    return p, _solve(p, scaled, 2, 4000)


@pytest.fixture(scope="module")
def trivial_run(scaled):
    p = Params(beta=-0.5, varrho=1.0, k=3.0)
    return p, _solve(p, scaled, 4, 500)


@pytest.fixture(scope="module")
def trimodal_run():
    spec = Spectrum.scaled(n_max=8)
    p = Params(beta=-30.0, varrho=1.0, k=72.0)
    return p, spec, _solve(p, spec, 5, 5000)


def test_criterion_1_first_paper_example(scaled):
    with criterion(1, "first worked example: ratios, thresholds, amplitudes"):
        p = Params(beta=-15.5, varrho=1.0, k=3.0)
        inv = program_invariants(p, scaled, (1, 2))
        assert abs(inv.X - (-2.0 + S3)) < 1e-12
        assert abs(inv.Y - (-2.0 - S3)) < 1e-12
        assert abs(inv.W - (-7.0 + 4.0 * S3)) < 1e-12
        assert abs(inv.Z - (-7.0 - 4.0 * S3)) < 1e-12
        assert abs(inv.m_small - 15.25) < 1e-12
        assert abs(inv.m_big - 16.0) < 1e-12
        sols = enumerate_general_bimodal(p, scaled, pairs=[(1, 2)])
        assert len(sols) == 8
        xw = [s for s in sols if s.tag == "general-bimodal(XW)"]
        yz = [s for s in sols if s.tag == "general-bimodal(YZ)"]
        assert len(xw) == 4 and len(yz) == 4
        for s in xw:
            assert abs(abs(s.modes[1][0]) - 1.93185) < 1e-5
            assert abs(abs(s.modes[2][0]) - 1.31948) < 1e-5
        for s in yz:
            assert abs(abs(s.modes[1][0]) - 0.51763) < 1e-5
            assert abs(abs(s.modes[2][0]) - 0.09473) < 1e-5


def test_criterion_2_second_paper_example(scaled):
    with criterion(2, "second worked example: ratios, threshold, amplitudes"):
        p = Params(beta=-5.0, varrho=1.0, k=1.0)
        inv = program_invariants(p, scaled, (1, 2))
        assert abs(inv.X - (-4.0 + S7) / 3.0) < 1e-12
        assert abs(inv.W - (11.0 + 4.0 * S7) / 3.0) < 1e-12
        assert abs(inv.m_big - 14.0 / 3.0) < 1e-12
        sols = enumerate_general_bimodal(p, scaled, pairs=[(1, 2)])
        assert len(sols) == 8
        for s in sols:
            a1, a2 = abs(s.modes[1][0]), abs(s.modes[2][0])
            if s.tag == "general-bimodal(XW)":
                assert abs(a1 - 1.59482) < 1e-5
                assert abs(a2 - 0.03587) < 1e-5
            else:
                assert abs(a1 - 0.71992) < 1e-5
                assert abs(a2 - 0.25809) < 1e-5


def test_criterion_3_counting_laws():
    with criterion(3, "unimodal counting law and closed-form mode count on the grid"):
        scaled20 = Spectrum.scaled(n_max=20)
        for beta in range(-1, -201, -1):
            for k in (1.0, 3.0, 10.0):
                p = Params(beta=float(beta), varrho=1.0, k=k)
                part = effective_modes(p, scaled20)
                expected = 2 * len(part.E1) + 4 * len(part.E2) + 8 * len(part.E3)
                assert len(enumerate_unimodal(p, scaled20)) == expected
        dirichlet20 = Spectrum.dirichlet(n_max=20)
        for beta in range(-1, -201, -1):
            p = Params(beta=float(beta), varrho=1.0, k=1.0)
            assert len(effective_modes(p, dirichlet20).E) == dirichlet_mode_count(
                float(beta)
            )


SCENARIOS = (
    ("scaled", 3.0, -15.5),
    ("scaled", 1.0, -5.0),
    ("scaled", 2.0, -10.0),
    ("scaled", 1.5, -10.0),
    ("scaled8", 72.0, -30.0),
    ("dirichlet", 3.0, -50.0),
    ("power2", 200.0, -900.0),
    ("explicit", 3.0, -25.0),
)


def _scenario_spectrum(name):
    if name == "scaled":
        return Spectrum.scaled()
    if name == "scaled8":
        return Spectrum.scaled(n_max=8)
    if name == "dirichlet":
        return Spectrum.dirichlet()
    if name == "power2":
        return Spectrum.power(2, n_max=8)
    return Spectrum.explicit([2.5, 7.1, 13.4, 21.0])


def test_criterion_4_residual_soundness():
    with criterion(4, "all emitted solutions and family samples verify"):
        checked = 0
        for name, k, beta in SCENARIOS:
            spec = _scenario_spectrum(name)
            p = Params(beta=beta, varrho=1.0, k=k)
            emitted = list(enumerate_unimodal(p, spec))
            emitted += enumerate_general_bimodal(p, spec)
            for fi, fam in enumerate(enumerate_ee_families(p, spec)):
                emitted += sample_family(fam, 100, seed=fi)
            for sol in emitted:
                assert modal_residual(sol, p, spec).relative < 1e-10
                assert cubic_check(sol, p, spec).max_relative < 1e-9
            checked += len(emitted)
        assert checked > 500  # the scenario list is far from vacuous


def _random_admissible(rng):
    lam1 = rng.uniform(0.5, 20.0)
    lam2 = lam1 * rng.uniform(1.05, 8.0)
    if rng.uniform() < 0.5:
        u = rng.uniform(0.05, 1.95)
        while abs(u - 1.0) < 0.05:
            u = rng.uniform(0.05, 1.95)
        k = lam1 * lam2 / u
    else:
        k = rng.uniform(0.05, 0.95) * lam1 * (lam2 - lam1) / 2.0
    return k, lam1, lam2


def test_criterion_5_algebraic_identity_suite():
    with criterion(5, "ratio and threshold identities on 10000 random triples"):
        rng = np.random.default_rng(2024)
        tol = 1e-11

        def close(a, b):
            assert abs(a - b) <= tol * max(1.0, abs(a), abs(b))

        for _ in range(10_000):
            k, lam1, lam2 = _random_admissible(rng)
            p = Params(beta=-1.0, varrho=1.0, k=k)
            spec = Spectrum.explicit([lam1, lam2])
            inv = program_invariants(p, spec, (1, 2))
            assert inv is not None
            close(inv.X * inv.Y, 1.0)
            close(inv.W * inv.Z, 1.0)
            close(inv.X + inv.Y, inv.Phi)
            close(inv.W + inv.Z, inv.Psi)
            close(inv.zeta * inv.X - inv.W, (inv.zeta - 1.0) * inv.sigma)
            close(inv.zeta * inv.Y - inv.Z, (inv.zeta - 1.0) * inv.sigma)
            close(inv.Phi**2 * inv.zeta**2 - inv.Psi**2, 4.0 * (inv.zeta**2 - 1.0))
            close(inv.f, (k * inv.W - lam2 * lam2 - k) / lam2)
            close(inv.g, (k * inv.Z - lam2 * lam2 - k) / lam2)
            close(
                inv.m_small,
                -inv.g - k * inv.W**2 * (inv.X - inv.Y) / (lam1 * (inv.W**2 - 1.0)),
            )
            close(
                inv.m_small,
                -inv.g - k * (inv.X - inv.Y) / (lam1 * (1.0 - inv.Z**2)),
            )
            close(
                inv.m_big,
                -inv.g - k * inv.X**2 * (inv.X - inv.Y) / (lam1 * (inv.X**2 - 1.0)),
            )
            close(
                inv.m_big,
                -inv.g - k * (inv.X - inv.Y) / (lam1 * (1.0 - inv.Y**2)),
            )


def test_criterion_6_oracle_equivalence(scaled, paper_run, b1_run):
    with criterion(6, "oracle reproduces the closed-form inventory exactly"):
        p, result = paper_run
        closed = closed_inventory(p, scaled)
        families = enumerate_ee_families(p, scaled)
        assert families == []
        report = match_against(closed, families, result.found)
        # the full inventory: 24 unimodal + 24 general bimodal (8 per
        # qualifying pair; (1,2) in the product window plus (1,3) and
        # (2,3) in the gap window) + the trivial state
        assert len(closed) == 48
        assert len(result.found) == len(closed) + 1
        assert report.matched == len(result.found)
        assert report.unmatched == []
        assert report.missed_closed == []
        pair_12 = [s for s in closed if s.active == (1, 2)]
        assert len(pair_12) == 8
        # B1 configuration: every bimodal root sits on the quadric
        pb, resb = b1_run
        families_b = enumerate_ee_families(pb, scaled)
        (fam,) = [f for f in families_b if f.kind == "B1"]
        bimodal_roots = [s for s in resb.found if len(s.active) == 2]
        assert bimodal_roots
        for sol in bimodal_roots:
            coords = [sol.modes[n][0] for n in fam.modes]
            assert abs(fam.quadric_residual(coords)) < 1e-6
        reportb = match_against(
            [s for s in closed_inventory(pb, scaled) if max(s.active) <= 2],
            families_b,
            resb.found,
        )
        assert reportb.unmatched == []
        assert reportb.missed_closed == []


def test_criterion_7_triviality_and_structure(trivial_run):
    with criterion(7, "uncompressed system is trivial; never four active modes"):
        _, result = trivial_run
        assert len(result.found) == 1
        assert result.found[0].is_trivial
        assert result.converged_count > 0
        for res in _all_oracle_results:
            for sol in res.found:
                assert len(sol.active) <= 3


def test_criterion_8_trimodal_properties(trimodal_run):
    with criterion(8, "trimodal roots are EE on modes (3,4,5); power scan empty"):
        p, spec, result = trimodal_run
        trimodal = [s for s in result.found if len(s.active) == 3]
        assert trimodal, "expected points on the trimodal continuum"
        for sol in trimodal:
            cu, cv = axial_coefficients(sol, p, spec)
            assert abs(cu - cv) < 1e-8
            assert sol.active == (3, 4, 5)
        assert spec.eigenvalue(3) + spec.eigenvalue(4) == spec.eigenvalue(5)
        for pexp in (2, 3):
            assert trimodal_candidates(Spectrum.power(pexp, n_max=50), 50) == []


def test_criterion_9_single_beam():
    with criterion(9, "single-beam counts and foundation amplitude"):
        scaled20 = Spectrum.scaled(n_max=20)
        for beta in range(-1, -201, -1):
            for k in (1.0, 3.0, 10.0):
                p = Params(beta=float(beta), varrho=1.0, k=k)
                assert len(enumerate_plain(p, scaled20).unimodal) == 2 * len(
                    effective_modes(p, scaled20).E
                )
        p = Params(beta=-15.5, varrho=1.0, k=3.0)
        result = enumerate_foundation(p, Spectrum.scaled())
        amp = max(a for n, a in result.unimodal if n == 1)
        assert abs(amp - math.sqrt(11.5)) < 1e-12
