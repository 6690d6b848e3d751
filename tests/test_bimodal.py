import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamforge import (
    Params,
    Spectrum,
    enumerate_ee_families,
    enumerate_general_bimodal,
    modal_residual,
)
from beamforge.bimodal import (
    _pair_table,
    branch_rows,
    bstar_pairs,
    count_general_bimodal,
    pair_table,
)
from beamforge.modesets import (
    count_ee_families,
    ee_family_thresholds,
    effective_modes,
)
from pair_reference import _pair_algebra, _window, is_ee, program_invariants

S3 = math.sqrt(3.0)
S7 = math.sqrt(7.0)


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def circle_ellipse_roots(p, spec, pair, kind):
    """The ``(r, t)`` roots of one circle-ellipse system, in row order:
    the u-amplitudes ``(a1, a2)`` of the ``branch_rows`` of the pair of
    kind ``"XW"`` (SIS1) or ``"YZ"`` (SIS2)."""
    rows = branch_rows(_pair_table(p, spec, [pair]), p.beta)
    return [(a1, a2) for _, row_kind, (a1, _g1), (a2, _g2) in rows if row_kind == kind]


def scalar_branches(p, spec, pair):
    """The ``branch_rows`` of one pair, less their pair column, solved
    with Python floats: the window test, ``F, G -> r^2, s^2`` and the
    positivity test in the float operations of the array evaluation,
    which must equal this reference bit for bit."""
    inv, on_seam = _pair_algebra(spec, p.k, pair)
    window = None if inv is None or on_seam else _window(inv, p.k)
    mb = -p.beta
    if not ((window == "B1*" and inv.m_small < mb < inv.m_big) or (window == "B2*" and inv.m_big < mb)):
        return []
    scale = p.varrho * inv.lam1
    F = (inv.f - p.beta) / scale
    G = (inv.g - p.beta) / scale
    X2, Y2, W2, Z2 = inv.X * inv.X, inv.Y * inv.Y, inv.W * inv.W, inv.Z * inv.Z
    rows = []
    for kind, r2, s2, x, w in (
        ("XW", (W2 * F - G) / (W2 - X2), (G - X2 * F) / (W2 - X2), inv.X, inv.W),
        ("YZ", (Z2 * G - F) / (Z2 - Y2), (F - Y2 * G) / (Z2 - Y2), inv.Y, inv.Z),
    ):
        if r2 > 0.0 and s2 > 0.0:
            r, t = math.sqrt(r2), math.sqrt(s2 / inv.zeta)
            rows += [(kind, (a1, a1 * x), (a2, a2 * w)) for a1 in (r, -r) for a2 in (t, -t)]
    return rows


def random_admissible(rng):
    """Draw (k, lam1, lam2) with real coefficient ratios, away from the
    degeneracy seams so the identity checks stay meaningful in doubles."""
    lam1 = rng.uniform(0.5, 20.0)
    zeta = rng.uniform(1.05, 8.0)
    lam2 = lam1 * zeta
    if rng.uniform() < 0.5:
        u = rng.uniform(0.05, 1.95)
        while abs(u - 1.0) < 0.05:
            u = rng.uniform(0.05, 1.95)
        k = lam1 * lam2 / u  # product window: lam1 lam2 = u k
    else:
        w = rng.uniform(0.05, 0.95)
        k = w * lam1 * (lam2 - lam1) / 2.0  # gap window: lam1(lam2-lam1) >= 2k
    return k, lam1, lam2


def test_paper_pair_invariants_first(scaled):
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    inv = program_invariants(p, scaled, (1, 2))
    assert inv.X == pytest.approx(-2.0 + S3, abs=1e-12)
    assert inv.Y == pytest.approx(-2.0 - S3, abs=1e-12)
    assert inv.W == pytest.approx(-7.0 + 4.0 * S3, abs=1e-12)
    assert inv.Z == pytest.approx(-7.0 - 4.0 * S3, abs=1e-12)
    assert inv.m_small == pytest.approx(15.25, abs=1e-12)
    assert inv.m_big == pytest.approx(16.0, abs=1e-12)


def test_paper_pair_invariants_second(scaled):
    p = Params(beta=-5.0, varrho=1.0, k=1.0)
    inv = program_invariants(p, scaled, (1, 2))
    assert inv.X == pytest.approx((-4.0 + S7) / 3.0, abs=1e-12)
    assert inv.W == pytest.approx((11.0 + 4.0 * S7) / 3.0, abs=1e-12)
    assert inv.m_big == pytest.approx(14.0 / 3.0, abs=1e-12)


def test_unreal_pair_is_none(scaled):
    # product 4 above 2k=3.5 and gap 3 below 2k: the ratio quadratics
    # have negative discriminant
    k = 1.75
    p = Params(beta=-10.0, varrho=1.0, k=k)
    assert program_invariants(p, scaled, (1, 2)) is None
    zeta, sigma = 4.0, (k - 4.0) / k
    phi = ((zeta + 1.0) + (zeta - 1.0) * sigma**2) / (sigma * zeta)
    assert phi * phi - 4.0 < 0.0


def test_product_below_k_is_real_but_unsolvable(scaled):
    # product 4 below k=5 keeps the ratios real (first ordering case)
    # yet the circle-ellipse windows never open
    p = Params(beta=-10.0, varrho=1.0, k=5.0)
    inv = program_invariants(p, scaled, (1, 2))
    assert inv is not None
    assert inv.Phi**2 - 4.0 > 0.0
    assert inv.W > inv.X > 1.0 > inv.Y > inv.Z > 0.0
    for kind in ("XW", "YZ"):
        assert circle_ellipse_roots(p, scaled, (1, 2), kind) == []


def test_sigma_zero_seam_is_none(scaled):
    p = Params(beta=-10.0, varrho=1.0, k=4.0)  # lam1*lam2 == k
    assert program_invariants(p, scaled, (1, 2)) is None


def test_circle_ellipse_first_example(scaled):
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    sols1 = circle_ellipse_roots(p, scaled, (1, 2), "XW")
    # exact radicals worked out by rationalizing the printed closed forms
    r_exact = math.sqrt(2.0 + S3)
    t_exact = math.sqrt((7.0 + 4.0 * S3) / 8.0)
    assert len(sols1) == 4
    r, t = sols1[0]
    assert abs(r) == pytest.approx(r_exact, abs=1e-12)
    assert abs(t) == pytest.approx(t_exact, abs=1e-12)
    assert abs(r) == pytest.approx(1.93185, abs=1e-5)
    assert abs(t) == pytest.approx(1.31948, abs=1e-5)
    sols2 = circle_ellipse_roots(p, scaled, (1, 2), "YZ")
    r, t = sols2[0]
    assert abs(r) == pytest.approx(math.sqrt(2.0 - S3), abs=1e-12)
    assert abs(t) == pytest.approx(math.sqrt((7.0 - 4.0 * S3) / 8.0), abs=1e-12)
    assert abs(r) == pytest.approx(0.51763, abs=1e-5)
    assert abs(t) == pytest.approx(0.09473, abs=1e-5)
    # sign quadruple
    expected = sorted((x, y) for x in (-r_exact, r_exact) for y in (-t_exact, t_exact))
    for (ra, ta), (rb, tb) in zip(sorted(sols1), expected):
        assert ra == pytest.approx(rb, abs=1e-12)
        assert ta == pytest.approx(tb, abs=1e-12)


def test_circle_ellipse_roots_satisfy_own_system_only(scaled):
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    inv = program_invariants(p, scaled, (1, 2))

    def sis1_residual(r, t):
        lhs1 = p.varrho * r * r * inv.lam1 + p.varrho * t * t * inv.lam2 + p.beta
        lhs2 = (
            p.varrho * r * r * inv.lam1 * inv.X**2
            + p.varrho * t * t * inv.lam2 * inv.W**2
            + p.beta
        )
        return max(abs(lhs1 - inv.f), abs(lhs2 - inv.g))

    def sis2_residual(r, t):
        lhs1 = p.varrho * r * r * inv.lam1 + p.varrho * t * t * inv.lam2 + p.beta
        lhs2 = (
            p.varrho * r * r * inv.lam1 * inv.Y**2
            + p.varrho * t * t * inv.lam2 * inv.Z**2
            + p.beta
        )
        return max(abs(lhs1 - inv.g), abs(lhs2 - inv.f))

    scale = max(abs(inv.f), abs(inv.g), abs(p.beta))
    for r, t in circle_ellipse_roots(p, scaled, (1, 2), "XW"):
        assert sis1_residual(r, t) < 1e-12 * scale
        assert sis2_residual(r, t) > 1e-2
    for r, t in circle_ellipse_roots(p, scaled, (1, 2), "YZ"):
        assert sis2_residual(r, t) < 1e-12 * scale
        assert sis1_residual(r, t) > 1e-2


def test_solvability_window(scaled):
    # compression above m_big = 16 closes the product window for (1, 2)
    assert circle_ellipse_roots(Params(-17.0, 1.0, 3.0), scaled, (1, 2), "XW") == []
    # compression below m_small = 15.25 closes it too
    assert circle_ellipse_roots(Params(-10.0, 1.0, 3.0), scaled, (1, 2), "XW") == []
    assert enumerate_general_bimodal(Params(-10.0, 1.0, 3.0), scaled, pairs=[(1, 2)]) == []
    # yet the pair (2, 3) has its gap window open at the same parameters
    sols = enumerate_general_bimodal(Params(-10.0, 1.0, 3.0), scaled)
    assert {tuple(s.active) for s in sols} == {(2, 3)}
    assert len(sols) == 8
    for sol in sols:
        assert modal_residual(sol, Params(-10.0, 1.0, 3.0), scaled).relative < 1e-10


def test_ee_seam_reported(scaled):
    # lam1*lam2 = 4 = 2k: the ratio roots coincide and the pair belongs
    # to the EE family machinery
    p = Params(beta=-10.0, varrho=1.0, k=2.0)
    assert program_invariants(p, scaled, (1, 2)) is not None
    assert branch_rows(_pair_table(p, scaled, [(1, 2)]), p.beta) == []
    assert (1, 2) not in [pair for pair, _kind in bstar_pairs(p, scaled)]
    assert [f.kind for f in enumerate_ee_families(p, scaled) if f.modes == (1, 2)] == ["B1"]


def test_enumerate_first_example(scaled):
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    sols = enumerate_general_bimodal(p, scaled, pairs=[(1, 2)])
    assert len(sols) == 8
    for sol in sols:
        assert modal_residual(sol, p, scaled).relative < 1e-10
        assert not is_ee(sol, p, scaled, 1e-9)
        from beamforge import axial_coefficients

        cu, cv = axial_coefficients(sol, p, scaled)
        assert abs(cu - cv) > 1e-6


def test_enumerate_second_example(scaled):
    p = Params(beta=-5.0, varrho=1.0, k=1.0)
    sols = enumerate_general_bimodal(p, scaled)
    assert len(sols) == 8  # only pair (1, 2) qualifies here
    xw = sorted({abs(sol.modes[1][0]) for sol in sols if sol.tag.endswith("(XW)")})
    yz = sorted({abs(sol.modes[1][0]) for sol in sols if sol.tag.endswith("(YZ)")})
    assert xw[0] == pytest.approx(1.59482, abs=1e-5)
    assert yz[0] == pytest.approx(0.71992, abs=1e-5)
    t_xw = sorted({abs(sol.modes[2][0]) for sol in sols if sol.tag.endswith("(XW)")})
    t_yz = sorted({abs(sol.modes[2][0]) for sol in sols if sol.tag.endswith("(YZ)")})
    assert t_xw[0] == pytest.approx(0.03587, abs=1e-5)
    assert t_yz[0] == pytest.approx(0.25809, abs=1e-5)
    for sol in sols:
        assert modal_residual(sol, p, scaled).relative < 1e-10


def test_deep_compression_has_three_qualifying_pairs(scaled):
    # (1,2) sits in the product window; (1,3) and (2,3) in the gap window
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    assert bstar_pairs(p, scaled) == [
        ((1, 2), "B1*"),
        ((1, 3), "B2*"),
        ((2, 3), "B2*"),
    ]
    sols = enumerate_general_bimodal(p, scaled)
    assert len(sols) == 24
    for sol in sols:
        assert modal_residual(sol, p, scaled).relative < 1e-10
        assert not is_ee(sol, p, scaled, 1e-9)


def test_bstar_pairs_are_effective(scaled):
    for beta, k in ((-15.5, 3.0), (-40.0, 7.0), (-9.0, 1.0)):
        p = Params(beta=beta, varrho=1.0, k=k)
        E = set(effective_modes(p, scaled).E)
        for (n1, n2), _kind in bstar_pairs(p, scaled):
            assert n1 in E and n2 in E


def check_identities(k, lam1, lam2, tol=1e-11):
    p = Params(beta=-1.0, varrho=1.0, k=k)
    spec = Spectrum.explicit([lam1, lam2])
    inv = program_invariants(p, spec, (1, 2))
    assert inv is not None
    zeta, sigma = inv.zeta, inv.sigma
    assert rel_close(inv.X * inv.Y, 1.0, tol)
    assert rel_close(inv.W * inv.Z, 1.0, tol)
    assert rel_close(inv.X + inv.Y, inv.Phi, tol)
    assert rel_close(inv.W + inv.Z, inv.Psi, tol)
    assert rel_close(zeta * inv.X - inv.W, (zeta - 1.0) * sigma, tol)
    assert rel_close(zeta * inv.Y - inv.Z, (zeta - 1.0) * sigma, tol)
    assert rel_close(
        inv.Phi**2 * zeta**2 - inv.Psi**2, 4.0 * (zeta**2 - 1.0), tol
    )
    # the two tensions from either mode agree
    assert rel_close(inv.f, (k * inv.W - lam2 * lam2 - k) / lam2, tol)
    assert rel_close(inv.g, (k * inv.Z - lam2 * lam2 - k) / lam2, tol)
    # circle/ellipse offset: (f - g)/(varrho lam1) equals k (X - Y)/(varrho lam1^2)
    nu_shift = k * (inv.X - inv.Y) / (p.varrho * lam1 * lam1)
    assert rel_close((inv.f - inv.g) / (p.varrho * lam1), nu_shift, tol)
    assert nu_shift >= 0.0
    # threshold forms through the ratio roots match the closed forms
    m_small_alt = -inv.g - k * inv.W**2 * (inv.X - inv.Y) / (lam1 * (inv.W**2 - 1.0))
    m_small_alt2 = -inv.g - k * (inv.X - inv.Y) / (lam1 * (1.0 - inv.Z**2))
    m_big_alt = -inv.g - k * inv.X**2 * (inv.X - inv.Y) / (lam1 * (inv.X**2 - 1.0))
    m_big_alt2 = -inv.g - k * (inv.X - inv.Y) / (lam1 * (1.0 - inv.Y**2))
    assert rel_close(inv.m_small, m_small_alt, tol)
    assert rel_close(inv.m_small, m_small_alt2, tol)
    assert rel_close(inv.m_big, m_big_alt, tol)
    assert rel_close(inv.m_big, m_big_alt2, tol)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000_000))
def test_identities_random(seed):
    rng = np.random.default_rng(seed)
    check_identities(*random_admissible(rng))


def test_case_sign_patterns():
    rng = np.random.default_rng(42)
    seen = {"below": 0, "window": 0, "gap": 0}
    while min(seen.values()) < 50:
        k, lam1, lam2 = random_admissible(rng)
        p = Params(beta=-1.0, varrho=1.0, k=k)
        spec = Spectrum.explicit([lam1, lam2])
        inv = program_invariants(p, spec, (1, 2))
        if inv is None:
            continue
        prod, gap = lam1 * lam2, lam1 * (lam2 - lam1)
        if 0 < prod < k:
            seen["below"] += 1
            assert inv.W > inv.X > 1.0 > inv.Y > inv.Z > 0.0
        elif k < prod < 2.0 * k:
            seen["window"] += 1
            assert inv.Z < inv.Y < -1.0 < inv.X < inv.W < 0.0
        elif gap > 2.0 * k:
            seen["gap"] += 1
            assert inv.Y < -1.0 < inv.X < 0.0 < inv.Z < 1.0 < inv.W


def count_tables(spec, k, varrho):
    """The sweep's count tables, built at a compression where every mode
    up to ``n_max`` is effective, so they serve every compression."""
    top = Params(beta=-(2.0 * spec.eigenvalue(spec.n_max) + 1.0), varrho=varrho, k=k)
    return pair_table(top, spec, spec.n_max), ee_family_thresholds(top, spec)


def count_edges(table, ee_thresholds):
    """The positive compressions at which a table count can step."""
    edges = {*table.m_small[table.window == 1], *table.m_big[table.window > 0], *ee_thresholds}
    return sorted(e for e in edges if e > 0.0)


def ulps_from(x, steps):
    toward = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        x = math.nextafter(x, toward)
    return x


@st.composite
def count_cases(draw):
    """A random case, half the time with ``-beta`` on, or within 1..3
    ulps of, a window edge ``m_small``/``m_big`` or an EE threshold."""
    spec = draw(st.sampled_from([Spectrum.scaled(20), Spectrum.dirichlet(12)]))
    # 72 and 2 make scaled pairs and a triple resonant
    k = draw(st.one_of(st.floats(min_value=0.05, max_value=200.0), st.sampled_from([72.0, 2.0])))
    varrho = draw(st.floats(min_value=0.1, max_value=10.0))
    beta = draw(st.floats(min_value=-600.0, max_value=0.0))
    if draw(st.booleans()):
        edges = count_edges(*count_tables(spec, k, varrho))
        if edges:
            beta = -ulps_from(draw(st.sampled_from(edges)), draw(st.integers(-3, 3)))
    return spec, beta, k, varrho


@settings(max_examples=160, deadline=None)
@given(count_cases())
def test_count_matches_enumeration(case):
    # the sweep's table counts equal the scalar enumerators' lengths
    spec, beta, k, varrho = case
    p = Params(beta=beta, varrho=varrho, k=k)
    table, ee_thresholds = count_tables(spec, k, varrho)
    n_star = effective_modes(p, spec).n_star
    assert count_general_bimodal(table, beta, n_star) == len(enumerate_general_bimodal(p, spec))
    assert count_ee_families(ee_thresholds, beta) == len(enumerate_ee_families(p, spec))


@settings(max_examples=160, deadline=None)
@given(count_cases())
def test_branch_rows_match_scalar_reference(case):
    # every pair up to n_max, effective or not, in (n1, n2) order
    spec, beta, k, varrho = case
    p = Params(beta=beta, varrho=varrho, k=k)
    pairs = [(n1, n2) for n1 in range(1, spec.n_max) for n2 in range(n1 + 1, spec.n_max + 1)]
    want = [(pair, *row) for pair in pairs for row in scalar_branches(p, spec, pair)]
    assert branch_rows(_pair_table(p, spec, pairs), beta) == want


@pytest.mark.parametrize(
    "spec,k",
    [
        (Spectrum.scaled(12), 72.0),
        (Spectrum.scaled(12), 2.0),
        (Spectrum.dirichlet(8), 300.0),
        # lam1 lam2 = 2 and lam1 (lam2 - lam1) = 2 - 2e-12: (1, 2) is on
        # both equalities, B2 above lam2 and B1 above lam1 + lam2
        (Spectrum.explicit([1e-6, 2e6]), 1.0),
    ],
    ids=["scaled-k72", "scaled-k2", "dirichlet-k300", "explicit-both-k1"],
)
def test_count_matches_enumeration_at_every_edge(spec, k):
    # within a few ulps of a window edge the scalar path drops systems by
    # roundoff, and the EE counts step exactly on their thresholds
    table, ee_thresholds = count_tables(spec, k, 0.7)
    for edge in count_edges(table, ee_thresholds):
        for steps in range(-3, 4):
            beta = -ulps_from(edge, steps)
            p = Params(beta=beta, varrho=0.7, k=k)
            n_star = effective_modes(p, spec).n_star
            assert count_general_bimodal(table, beta, n_star) == len(enumerate_general_bimodal(p, spec))
            assert count_ee_families(ee_thresholds, beta) == len(enumerate_ee_families(p, spec))
