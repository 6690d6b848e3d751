import math

import pytest
from hypothesis import given, settings, strategies as st

import unimodal_reference as reference
from beamforge import Params, Spectrum, cubic_check, modal_residual
from beamforge.modesets import _mode_states, _mode_table, effective_modes, mu_value, nu_value
from beamforge.oracle import newton_scale
from beamforge.unimodal import enumerate_unimodal, unimodal_inventory
from unimodal_reference import FAMILIES, GAMMA_PARTNER, amplitude_curves, band_of

# frozen via the closed forms and confirmed by residual substitution below
E3_AMPLITUDES = {
    1: 3.8078865529319543,
    2: 2.9154759474226504,
    3: 3.264254006291046,
    4: 0.9190461263793315,
}


def signed_amplitudes(p, spec, n):
    """Band of mode ``n`` and its signed u-amplitudes keyed by
    ``(family, sign)``: the ``alpha`` of the unimodal rows on mode ``n``."""
    band = band_of(effective_modes(p, spec), n)
    curves = amplitude_curves(p, spec, n)
    amps = {(i, sign): sign * curves[i] for i in FAMILIES.get(band, ()) for sign in (+1, -1)}
    rows = [s.modes[n][0] for s in enumerate_unimodal(p, spec) if s.active == (n,)]
    assert sorted(rows) == sorted(amps.values())
    return band, amps


def test_e1_amplitudes(scaled):
    p = Params(beta=-5.0, varrho=1.0, k=3.0)
    band, amps = signed_amplitudes(p, scaled, 1)
    assert band == "E1"
    assert sorted(amps) == [(1, -1), (1, 1)]
    assert amps[1, +1] == pytest.approx(2.0, abs=1e-14)
    assert amps[1, -1] == pytest.approx(-2.0, abs=1e-14)


def test_e3_amplitudes_frozen_values(scaled):
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    band, amps = signed_amplitudes(p, scaled, 1)
    assert band == "E3"
    assert len(amps) == 8
    for i, expected in E3_AMPLITUDES.items():
        assert amps[i, +1] == pytest.approx(expected, abs=1e-12)
        assert amps[i, -1] == pytest.approx(-expected, abs=1e-12)
    # printed five-digit values
    assert amps[1, +1] == pytest.approx(3.80789, abs=1e-5)
    assert amps[2, +1] == pytest.approx(2.91548, abs=1e-5)
    assert amps[3, +1] == pytest.approx(3.26426, abs=1e-5)
    assert amps[4, +1] == pytest.approx(0.91905, abs=1e-5)
    # inner radicand is the signed product (beta+lam+mu-nu)(beta+nu) = 96.25
    lam = 1.0
    mu, nu = mu_value(lam, 3.0), nu_value(lam, 3.0)
    assert (p.beta + lam + mu - nu) * (p.beta + nu) == pytest.approx(96.25, abs=1e-12)


@pytest.mark.parametrize("varrho,beta", [(1e300, -1e300), (1.0, -1e200), (1e-100, -1e160)])
def test_radicand_overflow_keeps_the_e3_amplitudes(varrho, beta):
    # the radicand (beta+lam+mu-nu)(beta+nu) overflows past |beta| ~ 1e154
    # although the roots it gives are representable: at such a load a3 is
    # a1 to rounding, and a3 a4 = k / (varrho lam^2)
    spec, k = Spectrum.dirichlet(4), 1.0
    p = Params(beta=beta, varrho=varrho, k=k)
    lam = spec.eigenvalues()
    states = _mode_states(_mode_table(lam, k), beta, varrho, k)
    for m, n in enumerate(range(1, 5)):
        curves = amplitude_curves(p, spec, n)
        assert [x.hex() for x in states.amplitude[m].tolist()] == [x.hex() for x in curves.values()]
        a1, _, a3, a4 = curves.values()
        assert a3 == pytest.approx(a1, rel=1e-12)
        assert a3 * a4 == pytest.approx(k / (varrho * lam[m] ** 2), rel=1e-12)


def test_outside_effective_set_empty(scaled):
    p = Params(beta=-0.5, varrho=1.0, k=3.0)
    band, amps = signed_amplitudes(p, scaled, 1)
    assert band == "outside"
    assert amps == {}


def test_enumeration_count_and_residuals(scaled):
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    sols = enumerate_unimodal(p, scaled)
    assert len(sols) == 24  # three modes, all in the eight-branch band
    for sol in sols:
        report = modal_residual(sol, p, scaled)
        assert report.relative < 1e-10
        assert report.max_abs < 1e-10 * newton_scale(p, scaled, max(sol.active))
        assert cubic_check(sol, p, scaled).max_relative < 1e-9


def test_no_compression_no_solutions(scaled):
    assert enumerate_unimodal(Params(-0.5, 1.0, 3.0), scaled) == []


def test_e1_solutions_in_phase(scaled):
    # at this depth both effective modes are in the two-branch band
    p = Params(beta=-5.0, varrho=1.0, k=3.0)
    sols = enumerate_unimodal(p, scaled)
    mode1 = [s for s in sols if s.active == (1,)]
    assert len(mode1) == 2
    assert len(sols) == 4
    for sol in sols:
        (a, g), = sol.modes.values()
        assert a == g


def test_counting_law(scaled):
    for beta in (-3.0, -7.5, -11.0, -40.0):
        for k in (1.0, 3.0, 10.0):
            p = Params(beta=beta, varrho=1.0, k=k)
            part = effective_modes(p, scaled)
            expected = 2 * len(part.E1) + 4 * len(part.E2) + 8 * len(part.E3)
            assert len(enumerate_unimodal(p, scaled)) == expected


def test_gamma_follows_coupling_relation(scaled):
    # gamma = omega * alpha * (eta + varrho alpha^2) must reproduce the
    # partner amplitude for every assembled solution
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    for sol in enumerate_unimodal(p, scaled):
        (n, (a, g)), = sol.modes.items()
        lam = scaled.eigenvalue(n)
        eta = 1.0 + p.beta / lam + p.k / (lam * lam)
        omega = lam * lam / p.k
        assert g == pytest.approx(omega * a * (eta + p.varrho * a * a), rel=1e-10)


def test_axial_balance_relation(scaled):
    # whenever alpha + gamma != 0, lam = -(C_u a + C_v g)/(a + g)
    from beamforge import axial_coefficients

    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    for sol in enumerate_unimodal(p, scaled):
        (n, (a, g)), = sol.modes.items()
        if abs(a + g) < 1e-12:
            continue
        cu, cv = axial_coefficients(sol, p, scaled)
        lam = scaled.eigenvalue(n)
        assert -(cu * a + cv * g) / (a + g) == pytest.approx(lam, rel=1e-9)


@given(
    st.floats(min_value=0.2, max_value=50.0),
    st.floats(min_value=0.05, max_value=40.0),
    st.floats(min_value=0.01, max_value=30.0),
)
def test_auxiliary_identities(lam_scale, k, depth):
    # omega*eta and omega^2 eta^2 - 4 expressed through the band edges;
    # tolerances are relative to the cancelling term magnitudes
    lam = lam_scale
    beta = -(nu_value(lam, k) + depth)
    eta = 1.0 + beta / lam + k / (lam * lam)
    omega = lam * lam / k
    mu, nu = mu_value(lam, k), nu_value(lam, k)
    lhs1 = omega * eta
    rhs1 = -(lam / k) * (-beta + mu - nu - lam)
    scale1 = max(1.0, abs(lhs1), abs(rhs1), (lam / k) * (abs(beta) + mu + nu + lam))
    assert abs(lhs1 - rhs1) <= 1e-12 * scale1
    lhs2 = omega * omega * eta * eta - 4.0
    rhs2 = (lam * lam / (k * k)) * (beta + lam + mu - nu) * (beta + nu)
    scale2 = max(
        1.0,
        abs(lhs2),
        abs(rhs2),
        (lam * lam / (k * k)) * (abs(beta) + lam + mu + nu) * (abs(beta) + nu),
    )
    assert abs(lhs2 - rhs2) <= 1e-12 * scale2


def test_boundary_collapse(scaled):
    k = 3.0
    # exactly on mu_1 = 7: two branches only
    band, amps = signed_amplitudes(Params(-7.0, 1.0, k), scaled, 1)
    assert band == "E1" and len(amps) == 2
    # exactly on nu_1 = 10: four branches
    band, amps = signed_amplitudes(Params(-10.0, 1.0, k), scaled, 1)
    assert band == "E2" and len(amps) == 4
    # a hair above nu_1 within 1e-12 relative: still collapsed
    band, amps = signed_amplitudes(Params(-10.0 * (1 + 1e-13), 1.0, k), scaled, 1)
    assert band == "E2" and len(amps) == 4
    # clearly above: full set
    band, amps = signed_amplitudes(Params(-10.1, 1.0, k), scaled, 1)
    assert band == "E3" and len(amps) == 8


def test_amplitude_curves_for_sweeps(scaled):
    p = Params(beta=-8.0, varrho=1.0, k=3.0)  # between mu_1=7 and nu_1=10
    curves = amplitude_curves(p, scaled, 1)
    assert curves[1] == pytest.approx(math.sqrt(7.0))
    assert curves[2] == pytest.approx(1.0)
    assert curves[3] is None and curves[4] is None
    # at the boundary the new branch appears with value zero
    curves = amplitude_curves(Params(-7.0, 1.0, 3.0), scaled, 1)
    assert curves[2] == 0.0


def test_mode_class_thresholds(scaled):
    k = 3.0
    assert band_of(effective_modes(Params(-0.5, 1.0, k), scaled), 1) == "outside"
    assert band_of(effective_modes(Params(-5.0, 1.0, k), scaled), 1) == "E1"
    assert band_of(effective_modes(Params(-8.0, 1.0, k), scaled), 1) == "E2"
    assert band_of(effective_modes(Params(-15.5, 1.0, k), scaled), 1) == "E3"


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.sampled_from([mu_value, nu_value]),
    st.sampled_from([0.0, -4e-13, 4e-13, -1e-3, 1e-3]),
    st.floats(min_value=0.05, max_value=50.0),
)
def test_count_matches_enumeration(n, threshold, nudge, k):
    # the counting law on the bands effective_modes reports equals the
    # enumeration, on and within roundoff of a band boundary, where the
    # boundary collapse decides the band
    spec = Spectrum.scaled(20)
    mb = threshold(spec.eigenvalue(n), k) * (1.0 + nudge)
    p = Params(beta=-mb, varrho=1.0, k=k)
    part = effective_modes(p, spec)
    law = 2 * len(part.E1) + 4 * len(part.E2) + 8 * len(part.E3)
    assert law == len(enumerate_unimodal(p, spec))


@st.composite
def near_thresholds(draw):
    """A spectrum, ``k``, ``varrho`` and compressions ``-beta`` on, one or
    two ulps off, or within 4e-13 relative of ``lam_n``, ``mu_n`` and
    ``nu_n`` of modes 1..12."""
    spec = Spectrum.from_token(draw(st.sampled_from(["scaled", "dirichlet", "power:2"])), n_max=12)
    k = draw(st.one_of(st.sampled_from([1.0, 3.0, 72.0]), st.floats(min_value=0.05, max_value=100.0)))
    varrho = draw(st.one_of(st.sampled_from([1.0, 0.5, 3.0]), st.floats(min_value=0.01, max_value=10.0)))

    def minus_beta():
        lam = spec.eigenvalue(draw(st.integers(min_value=1, max_value=12)))
        x = draw(st.sampled_from(reference.thresholds(lam, k)))
        x *= 1.0 + draw(st.sampled_from([0.0, 0.0, -4e-13, 4e-13, -1e-13, 1e-13]))
        ulps = draw(st.integers(min_value=-2, max_value=2))
        for _ in range(abs(ulps)):
            x = math.nextafter(x, math.copysign(math.inf, ulps))
        return x

    return spec, k, varrho, [minus_beta() for _ in range(draw(st.integers(min_value=1, max_value=5)))]


def hexes(values):
    return [None if x is None else x.hex() for x in values]


@settings(max_examples=150, deadline=None)
@given(near_thresholds())
def test_mode_table_matches_the_scalar_reference(case):
    # the bands and amplitudes of the mode table, evaluated at a grid of
    # compressions at once and for one mode at one compression, and the
    # partition and the inventory read from it, equal the scalar
    # reference bit for bit
    spec, k, varrho, minus_betas = case
    modes = range(1, spec.n_max + 1)
    table = _mode_table(spec.eigenvalues(), k)
    states = _mode_states(table, [-mb for mb in minus_betas], varrho, k)
    for c, mb in enumerate(minus_betas):
        p = Params(beta=-mb, varrho=varrho, k=k)
        part = reference.effective_modes(p, spec)
        program = effective_modes(p, spec)
        assert (program.E, program.E1, program.E2, program.E3, program.n_star) == (
            part.E, part.E1, part.E2, part.E3, part.n_star
        )
        rows, tags = [], []
        for m, n in enumerate(modes):
            band = band_of(part, n)
            assert states.band[c, m] == ("outside", "E1", "E2", "E3").index(band)
            curves = amplitude_curves(p, spec, n)
            # an amplitude is defined where -beta is at or above its
            # family's threshold (lam, mu, nu, nu)
            defined = [mb >= x for x in table[[0, 1, 2, 2], m].tolist()]
            table_curves = [a if ok else None for a, ok in zip(states.amplitude[c, m].tolist(), defined)]
            assert hexes(table_curves) == hexes(curves.values())
            one_table = _mode_table([spec.eigenvalue(n)], k)
            one = _mode_states(one_table, p.beta, varrho, k)
            one_defined = [-p.beta >= x for x in one_table[[0, 1, 2, 2], 0].tolist()]
            one_curves = [a if ok else None for a, ok in zip(one.amplitude[0].tolist(), one_defined)]
            assert hexes(one_curves) == hexes(curves.values())
            for i in FAMILIES.get(band, ()):
                partner, sign = GAMMA_PARTNER[i]
                a, g = curves[i], sign * curves[partner]
                rows += [(n, a, g), (n, -a, -g)]
                tags += [f"unimodal({i},+)", f"unimodal({i},-)"]
        inv = unimodal_inventory(p, spec)
        assert inv.tags == tags
        assert inv.n[:, 0].tolist() == [n for n, _, _ in rows]
        assert hexes(inv.alpha[:, 0].tolist()) == hexes(a for _, a, _ in rows)
        assert hexes(inv.gamma[:, 0].tolist()) == hexes(g for _, _, g in rows)
