import itertools

import pytest
from hypothesis import given, settings, strategies as st

import pair_reference as reference
from beamforge import (
    Params,
    Spectrum,
    ValidationError,
    VerificationError,
    dirichlet_mode_count,
    effective_modes,
    enumerate_ee_families,
)
from beamforge import modesets
from beamforge.modesets import mu_value, nu_value
from pair_reference import required_k, trimodal_candidates


def test_dirichlet_count_example(dirichlet):
    p = Params(beta=-50.0, varrho=1.0, k=1.0)
    part = effective_modes(p, dirichlet)
    assert len(part.E) == 2
    assert dirichlet_mode_count(-50.0) == 2


def test_dirichlet_count_at_subnormal_compression(dirichlet):
    # -beta / pi^2 underflows to 0 here
    p = Params(beta=-5e-324, varrho=1.0, k=1.0)
    assert dirichlet_mode_count(p.beta) == 0
    assert effective_modes(p, dirichlet).E == ()


def test_scaled_all_deep_compression(scaled):
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    part = effective_modes(p, scaled)
    assert part.E == (1, 2, 3)
    assert part.E3 == (1, 2, 3)
    assert part.E1 == () and part.E2 == ()
    assert nu_value(1.0, 3.0) == 10.0
    assert nu_value(4.0, 3.0) == 6.25
    assert nu_value(9.0, 3.0) == 10.0


def test_no_compression_empty(scaled):
    p = Params(beta=0.0, varrho=1.0, k=1.0)
    part = effective_modes(p, scaled)
    assert part.E == ()
    assert part.n_star == 0


def test_partition_boundary_exactness(scaled):
    # mu_1 = 7 and nu_1 = 10 are exact in floating point for k=3
    k = 3.0
    assert mu_value(1.0, k) == 7.0
    p = Params(beta=-7.0, varrho=1.0, k=k)
    assert 1 in effective_modes(p, scaled).E1
    p = Params(beta=-10.0, varrho=1.0, k=k)
    assert 1 in effective_modes(p, scaled).E2


def ee_kinds(p, spec):
    """The kind of each EE family at ``p``, by its modes."""
    return {f.modes: f.kind for f in enumerate_ee_families(p, spec)}


def test_ee_bimodal_membership_examples(scaled):
    assert ee_kinds(Params(-10.0, 1.0, 2.0), scaled).get((1, 2)) == "B1"
    assert ee_kinds(Params(-10.0, 1.0, 1.5), scaled).get((1, 2)) == "B2"
    assert ee_kinds(Params(-10.0, 1.0, 3.0), scaled).get((1, 2)) is None
    # B1 also needs lam1 + lam2 < -beta
    assert ee_kinds(Params(-4.5, 1.0, 2.0), scaled).get((1, 2)) is None


def test_ee_trimodal_membership_examples(scaled):
    assert ee_kinds(Params(-30.0, 1.0, 72.0), scaled).get((3, 4, 5)) == "T"
    assert (3, 4, 5) not in ee_kinds(Params(-20.0, 1.0, 72.0), scaled)
    assert (3, 4, 5) not in ee_kinds(Params(-30.0, 1.0, 71.0), scaled)


def test_power_spectrum_has_no_trimodal_triples():
    for pexp in (2, 3):
        spec = Spectrum.power(pexp, n_max=50)
        assert trimodal_candidates(spec, 50) == []


def test_scaled_trimodal_candidates_are_pythagorean():
    spec = Spectrum.scaled(n_max=12)
    triples = [t for t, _k in trimodal_candidates(spec)]
    assert (3, 4, 5) in triples
    assert (6, 8, 10) in triples
    for n1, n2, n3 in triples:
        assert n1 * n1 + n2 * n2 == n3 * n3


def test_required_k(scaled):
    assert required_k(scaled, (1, 2), "B1") == 2.0
    assert required_k(scaled, (3, 4, 5), "T") == 72.0
    assert required_k(scaled, (1, 2, 3), "T") is None
    assert required_k(scaled, (1, 2), "B2") == 1.5
    with pytest.raises(ValueError):
        required_k(scaled, (1, 2), "Q")


def test_scan_helpers(scaled):
    p = Params(beta=-10.0, varrho=1.0, k=2.0)
    assert [(f.modes, f.kind) for f in enumerate_ee_families(p, scaled)] == [((1, 2), "B1")]
    p = Params(beta=-30.0, varrho=1.0, k=72.0)
    spec = Spectrum.scaled(n_max=8)
    assert [f.modes for f in enumerate_ee_families(p, spec) if f.kind == "T"] == [(3, 4, 5)]


@given(
    st.floats(min_value=-180.0, max_value=-0.5),
    st.floats(min_value=0.1, max_value=60.0),
    st.floats(min_value=0.1, max_value=20.0),
)
def test_effective_sets_grow_with_compression(beta, extra, k):
    spec = Spectrum.scaled(n_max=20)
    p_weak = Params(beta=beta, varrho=1.0, k=k)
    p_strong = Params(beta=beta - extra, varrho=1.0, k=k)
    weak = effective_modes(p_weak, spec)
    strong = effective_modes(p_strong, spec)
    assert set(weak.E) <= set(strong.E)
    assert set(weak.E2) | set(weak.E3) <= set(strong.E2) | set(strong.E3)
    assert set(weak.E3) <= set(strong.E3)


@given(st.floats(min_value=-400.0, max_value=-0.01))
def test_dirichlet_count_formula_on_random_betas(beta):
    spec = Spectrum.dirichlet(n_max=20)
    p = Params(beta=beta, varrho=1.0, k=1.0)
    part = effective_modes(p, spec)  # raises internally on a count mismatch
    assert len(part.E) == dirichlet_mode_count(beta)


def test_truncation_at_n_max_is_flagged(dirichlet):
    # lam_65 = (65 pi)^2 < 45000: three effective modes lie above n_max
    part = effective_modes(Params(beta=-45000.0, varrho=1.0, k=1.0), dirichlet)
    assert len(part.E) == 64 < dirichlet_mode_count(-45000.0) == 67
    assert part.truncated
    # every effective mode fits under the cap, the last one exactly
    assert not effective_modes(Params(beta=-15.5, varrho=1.0, k=3.0), Spectrum.scaled(3)).truncated
    assert effective_modes(Params(beta=-15.5, varrho=1.0, k=3.0), Spectrum.scaled(2)).truncated
    assert "truncated" not in part.describe()


def test_explicit_spectrum_truncated_only_past_its_list():
    p = Params(beta=-100.0, varrho=1.0, k=1.0)
    values = [1.0, 4.0, 9.0]
    assert effective_modes(p, Spectrum.explicit(values, n_max=2)).truncated
    assert not effective_modes(p, Spectrum.explicit(values, n_max=3)).truncated
    assert not effective_modes(p, Spectrum.explicit(values, n_max=64)).truncated


def test_mode_thresholds_ordering(scaled):
    for n in range(1, 10):
        lam = scaled.eigenvalue(n)
        for k in (0.5, 3.0, 72.0):
            assert lam < mu_value(lam, k) < nu_value(lam, k)


def test_effective_modes_evaluates_few_eigenvalues(monkeypatch):
    # |E| = 3 at beta = -100; the boundary cross-check must not walk all
    # 10**6 eigenvalues up to n_max
    calls = []
    real = Spectrum.eigenvalue

    def counted(self, n):
        calls.append(n)
        return real(self, n)

    monkeypatch.setattr(Spectrum, "eigenvalue", counted)
    part = effective_modes(Params(-100, 1, 1), Spectrum.dirichlet(10**6))
    assert part.E == (1, 2, 3)
    assert len(calls) <= 6


def test_effective_modes_up_to_the_bound():
    # lam_n = n^2: at -beta = (B + 0.5)^2 the first B modes are effective,
    # at (B + 1.5)^2 one more, which is past the bound; the scan stops there
    bound = modesets.MAX_EFFECTIVE_MODES
    spec = Spectrum.scaled(10**160)
    part = effective_modes(Params(-((bound + 0.5) ** 2), 1.0, 1.0), spec)
    assert part.n_star == bound
    assert not part.truncated
    with pytest.raises(ValidationError, match=f"more than {bound} effective modes"):
        effective_modes(Params(-((bound + 1.5) ** 2), 1.0, 1.0), spec)
    with pytest.raises(ValidationError, match=f"lam_{bound + 1} = "):
        effective_modes(Params(-1e300, 1.0, 1.0), spec)
    # capped at the bound by n_max, the partition is truncated instead
    assert effective_modes(Params(-1e300, 1.0, 1.0), Spectrum.scaled(bound)).truncated


def test_effective_mode_count_mismatch_raises(monkeypatch):
    monkeypatch.setattr(modesets, "dirichlet_mode_count", lambda beta: -1)
    with pytest.raises(VerificationError):
        effective_modes(Params(-100.0, 1.0, 1.0), Spectrum.dirichlet())


SCALED30 = Spectrum.scaled(n_max=30)
RESONANT_K = sorted({k for _triple, k in trimodal_candidates(SCALED30)})


def _outcome(scan):
    try:
        return scan()
    except RuntimeError as exc:  # the lam1 + lam2 == lam3 cross-check
        return type(exc)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(RESONANT_K),
    st.floats(min_value=-1000.0, max_value=-1.0),
    st.sampled_from([1e-9, 1e-3, 3e-2]),
)
def test_trimodal_scan_matches_brute_force(k, beta, tol):
    # loose tolerances can trip the lam1 + lam2 == lam3 cross-check, so
    # raised errors are compared too
    p = Params(beta=beta, varrho=1.0, k=k)
    E = effective_modes(p, SCALED30).E
    brute = _outcome(
        lambda: [t for t in itertools.combinations(E, 3) if reference.ee_trimodal_membership(p, SCALED30, t, tol)]
    )
    assert _outcome(lambda: reference.program_ee(p, SCALED30, tol)[1]) == brute

