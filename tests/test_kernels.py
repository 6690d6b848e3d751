from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamforge import Params, Spectrum
from beamforge import kernels
from beamforge.oracle import newton_scale, start_box_radius


def _problem(p, spec, n_starts):
    """Three modes of ``spec``: the oracle's Newton tolerance and
    ``n_starts`` starts drawn from its start box."""
    lams = spec.eigenvalues(3)
    tol = 1e-11 * newton_scale(p, spec, 3)
    radius = start_box_radius(p, spec)
    rng = np.random.default_rng(123)
    starts = rng.uniform(-radius, radius, (n_starts, 6))
    return p, lams, tol, starts


@pytest.fixture(scope="module")
def problem():
    return _problem(Params(beta=-15.5, varrho=1.0, k=3.0), Spectrum.scaled(), 400)


def _max_residual(lams, p, roots):
    F = kernels.residual(lams, p.beta, p.varrho, p.k, roots)
    return np.abs(F).max(axis=1)


def _mode_1_in_phase(p, lams, stretch):
    """``stretch`` times the in-phase mode-1 amplitude at the fold of
    ``(lam^2 + beta lam) s + varrho lam^2 s^3``, where the Jacobian is
    singular along the in-phase direction and the merit is stationary."""
    lam = lams[0]
    s = np.sqrt(-(lam + p.beta) / (3.0 * p.varrho * lam)) * stretch
    x = np.zeros((1, 2 * lams.size))
    x[0, 0] = x[0, lams.size] = s
    return x


def _newton_step(lams, p, x):
    F = kernels.residual(lams, p.beta, p.varrho, p.k, x)
    d = kernels._solve_batch(kernels.jacobian(lams, p.beta, p.varrho, p.k, x), -F)
    return d, np.einsum("ij,ij->i", F, F)


def _line_search_one_halving_per_call(lams, beta, varrho, k, xg, d, f2):
    """The Armijo backtracking as a loop of one residual call per halving,
    the reference for the batched search.  Returns ``(x_next, accepted,
    t)`` with ``t`` the step each accepted row took."""
    t = np.ones(xg.shape[0])
    accepted = np.zeros(xg.shape[0], dtype=bool)
    x_next = xg.copy()
    for _ in range(kernels.DEFAULT_MAX_BACKTRACK):
        rem = np.flatnonzero(~accepted)
        if rem.size == 0:
            break
        trial = xg[rem] + t[rem, None] * d[rem]
        Ft = kernels.residual(lams, beta, varrho, k, trial)
        ft2 = np.einsum("ij,ij->i", Ft, Ft)
        ok = ft2 <= f2[rem] * (1.0 - kernels.ARMIJO_SLOPE * t[rem])
        ok &= np.isfinite(trial).all(axis=1)
        x_next[rem[ok]] = trial[ok]
        accepted[rem[ok]] = True
        t[rem[~ok]] *= 0.5
    return x_next, accepted, t


def _kernel_line_search(lams, p, x, d):
    """``kernels._line_search`` from the row layout of ``x`` and ``d``;
    returns ``(x_next, accepted)`` with ``x_next`` as rows."""
    xc = kernels._columns(x)
    c = kernels._loads(lams, p.beta, p.varrho, xc)
    F = kernels._residual(lams, p.k, xc, c)
    x_next, accepted = kernels._line_search(lams, p.varrho, p.k, xc, kernels._columns(d), c, F)
    return np.ascontiguousarray(kernels._rows(x_next)), accepted


def _one_halving_per_call_in_columns(beta):
    """The reference search behind the kernel's calling convention:
    states, steps and residuals as ``(2, N, S)`` columns."""

    def search(lams, varrho, k, x, d, c, F):
        rows = kernels._rows(F)
        f2 = np.einsum("ij,ij->i", rows, rows)
        x_next, accepted, _ = _line_search_one_halving_per_call(
            lams, beta, varrho, k, kernels._rows(x), kernels._rows(d), f2
        )
        return kernels._columns(x_next), accepted

    return search


def _mixed_batch(p, lams, starts):
    """Random starts that converge in a few or many steps and that stall,
    plus a start that no halving moves and two whose first accepted
    steps are 2^-12 and 2^-19."""
    fold = [_mode_1_in_phase(p, lams, 1.0 + e) for e in (0.0, 1e-4, 1e-6)]
    return np.vstack([starts[:397], *fold])


def test_converged_roots_have_small_residual(problem):
    p, lams, tol, starts = problem
    roots, conv, iters = kernels.newton_batch(lams, p.beta, p.varrho, p.k, starts, tol)
    assert conv.sum() > 350
    assert (_max_residual(lams, p, roots[conv]) < tol).all()
    assert (iters[conv] <= kernels.DEFAULT_MAX_ITER).all()


@pytest.mark.parametrize("cap", [8, 12, 25])
def test_iteration_cap_only_truncates(problem, monkeypatch, cap):
    # a start that converges within the cap, or stops before it, keeps
    # its bytes; every other start is retired unconverged at the cap
    p, lams, tol, starts = problem
    roots, conv, iters = kernels.newton_batch(lams, p.beta, p.varrho, p.k, starts, tol)
    assert iters.max() > cap
    monkeypatch.setattr(kernels, "DEFAULT_MAX_ITER", cap)
    c_roots, c_conv, c_iters = kernels.newton_batch(lams, p.beta, p.varrho, p.k, starts, tol)
    kept = (iters < cap) | (conv & (iters <= cap))
    assert kept.any() and not kept.all()
    assert c_roots[kept].tobytes() == roots[kept].tobytes()
    assert (c_conv[kept] == conv[kept]).all()
    assert (c_iters[kept] == iters[kept]).all()
    assert not c_conv[~kept].any()
    assert (c_iters[~kept] == cap).all()


def test_zero_start_is_the_trivial_root(problem):
    p, lams, tol, _ = problem
    roots, conv, iters = kernels.newton_batch(lams, p.beta, p.varrho, p.k, np.zeros((1, 6)), tol)
    assert conv[0] and iters[0] == 0
    assert np.all(roots[0] == 0.0)


@pytest.mark.parametrize(
    "support", [s for size in (1, 2) for s in combinations((1, 2, 3), size)], ids=str
)
def test_zero_mode_pairs_stay_zero(problem, support):
    # every term of the mode-j equations carries alpha_j or gamma_j, so a
    # zero mode pair has zero residual rows and an exactly zero step: a
    # start on a support solves the restricted system in the full one
    p, lams, tol, starts = problem
    on = np.array([n - 1 for n in support] + [3 + n - 1 for n in support])
    off = np.setdiff1d(np.arange(6), on)
    x0 = starts.copy()
    x0[:, off] = 0.0
    roots, conv, _ = kernels.newton_batch(lams, p.beta, p.varrho, p.k, x0, tol)
    assert (roots[:, off] == 0.0).all()
    assert conv.any()
    restricted = _max_residual(lams[[n - 1 for n in support]], p, roots[conv][:, on])
    assert (restricted < tol).all()


def _solve_row_by_row(J, rhs):
    """The singular-batch fallback as a loop of one solve per row, the
    reference for the batched fallback."""
    out = np.full_like(rhs, np.nan)
    for i in range(J.shape[0]):
        try:
            out[i] = np.linalg.solve(J[i], rhs[i])
        except np.linalg.LinAlgError:
            pass
    return out


def test_solve_batch_marks_singular_rows_nan(problem):
    # at the trivial root with beta = -lam_1 the mode-1 block is
    # [[k, -k], [-k, k]] exactly; a repeated row and a zero column are
    # singular too
    p, lams, _, starts = problem
    x = starts[:50].copy()
    J = kernels.jacobian(lams, p.beta, p.varrho, p.k, x)
    J[7] = kernels.jacobian(lams, -lams[0], p.varrho, p.k, np.zeros((1, 6)))[0]
    J[21, 4] = J[21, 1]
    J[40, :, 2] = 0.0
    rhs = -kernels.residual(lams, p.beta, p.varrho, p.k, x)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(J, rhs[:, :, None])
    got = kernels._solve_batch(J, rhs)
    assert np.isnan(got[[7, 21, 40]]).all()
    assert np.isfinite(np.delete(got, [7, 21, 40], axis=0)).all()
    assert got.tobytes() == _solve_row_by_row(J, rhs).tobytes()


def test_shape_validation():
    with pytest.raises(ValueError):
        kernels.newton_batch(np.array([1.0, 4.0]), 0.0, 1.0, 1.0, np.zeros((3, 3)), 1e-9)
    with pytest.raises(ValueError):
        kernels.newton_batch(np.array([1.0]), 0.0, 1.0, 1.0, np.zeros(2), 1e-9)
    with pytest.raises(ValueError):
        kernels.newton_batch(np.zeros(0), 0.0, 1.0, 1.0, np.zeros((3, 0)), 1e-9)


# loads past the third threshold, with couplings at which some starts stall
_ROW_PROBLEMS = {
    "dirichlet": (Params(beta=-200.0, varrho=1.0, k=72.0), Spectrum.dirichlet()),
    "power:2": (Params(beta=-2000.0, varrho=1.0, k=1000.0), Spectrum.power(2)),
}


@pytest.mark.parametrize("spectrum", ["scaled", "dirichlet", "power:2"])
def test_batch_rows_match_rows_solved_alone(problem, spectrum):
    # the integer eigenvalues of ``scaled`` make most products exact, so a
    # sum whose rounding depends on the batch shows only on the others
    if spectrum == "scaled":
        p, lams, tol, starts = problem
        batch = _mixed_batch(p, lams, starts)
    else:
        p, lams, tol, batch = _problem(*_ROW_PROBLEMS[spectrum], 200)
    roots, conv, iters = kernels.newton_batch(lams, p.beta, p.varrho, p.k, batch, tol)
    assert conv.any() and not conv.all()
    for i, row in enumerate(batch):
        r1, c1, i1 = kernels.newton_batch(lams, p.beta, p.varrho, p.k, row[None], tol)
        assert r1[0].tobytes() == roots[i].tobytes(), i
        assert (c1[0], i1[0]) == (conv[i], iters[i]), i


def test_iterates_match_one_halving_per_call(problem, monkeypatch):
    p, lams, tol, starts = problem
    batch = _mixed_batch(p, lams, starts)
    batched = kernels.newton_batch(lams, p.beta, p.varrho, p.k, batch, tol)
    monkeypatch.setattr(kernels, "_line_search", _one_halving_per_call_in_columns(p.beta))
    reference = kernels.newton_batch(lams, p.beta, p.varrho, p.k, batch, tol)
    for got, want in zip(batched, reference):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("offset,j", [(1e-3, 9), (1e-4, 12), (1e-6, 19)])
def test_late_halving_matches_one_halving_per_call(problem, offset, j):
    # just off the fold the Newton step overshoots by a factor of about
    # 1 / offset; the merit polynomial must take the very halving that a
    # search of one halving per residual call takes
    p, lams, _, _ = problem
    x = _mode_1_in_phase(p, lams, 1.0 + offset)
    d, f2 = _newton_step(lams, p, x)
    want, accepted, t = _line_search_one_halving_per_call(lams, p.beta, p.varrho, p.k, x, d, f2)
    assert accepted[0] and t[0] == 2.0**-j
    got, accepted = _kernel_line_search(lams, p, x, d)
    assert accepted[0]
    assert got.tobytes() == want.tobytes()


def test_start_that_no_halving_accepts_stops_unconverged(problem):
    # at the fold the step is finite but about 1e16 long, and even its
    # 2^-39 part raises the merit
    p, lams, tol, _ = problem
    x = _mode_1_in_phase(p, lams, 1.0)
    d, f2 = _newton_step(lams, p, x)
    assert np.isfinite(d).all() and np.abs(d).max() > 1e15
    assert not _line_search_one_halving_per_call(lams, p.beta, p.varrho, p.k, x, d, f2)[1][0]
    assert not _kernel_line_search(lams, p, x, d)[1][0]
    roots, conv, iters = kernels.newton_batch(lams, p.beta, p.varrho, p.k, x, tol)
    assert not conv[0] and iters[0] == 0
    assert roots.tobytes() == x.tobytes()


EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny  # an absolute floor for values that underflow
_STEP = 2.0**-14  # central-difference step


@st.composite
def _systems(draw):
    """A truncated system of 1-4 modes, with three states ``x`` and three
    steps ``d`` as rows."""
    n = draw(st.integers(1, 4))

    def floats(lo, hi, size=None):
        values = st.floats(lo, hi, allow_nan=False)
        if size is None:
            return draw(values)
        return np.array(draw(st.lists(values, min_size=size, max_size=size)))

    lams = np.cumsum(floats(0.25, 60.0, n))
    beta, varrho, k = floats(-400.0, 100.0), floats(0.05, 5.0), floats(0.0, 100.0)
    x = floats(-6.0, 6.0, 6 * n).reshape(3, 2 * n)
    d = floats(-50.0, 50.0, 6 * n).reshape(3, 2 * n)
    return lams, beta, varrho, k, x, d


def _energy_terms(lams, beta, varrho, k, x):
    """The bending, load, stretching and coupling terms of the modal energy
    ``E`` of every row of ``x``, whose gradient the residual is."""
    n = lams.size
    a, g = x[:, :n], x[:, n:]
    su, sv = (lams * a * a).sum(axis=1), (lams * g * g).sum(axis=1)
    return np.stack(
        [
            (lams**2 / 2 * (a * a + g * g)).sum(axis=1),
            beta / 2 * (su + sv),
            varrho / 4 * (su * su + sv * sv),
            k / 2 * ((a - g) ** 2).sum(axis=1),
        ]
    )


def _term_scale(lams, beta, varrho, k, z):
    """Per component of every row, the summed magnitudes of the residual's
    terms at ``|z|``: the scale of its rounding."""
    n = lams.size
    z = np.abs(z)
    lam = np.tile(lams, 2)
    sums = np.stack([(lams * z[:, :n] ** 2).sum(axis=1), (lams * z[:, n:] ** 2).sum(axis=1)])
    load = abs(beta) + varrho * np.repeat(sums, n, axis=0).T
    return lam * lam * z + load * lam * z + k * (z + np.roll(z, n, axis=1))


def _central_differences(f, x):
    """``(f(x + h e_j) - f(x - h e_j)) / 2h`` for every unit vector
    ``e_j``, stacked on a new last axis."""
    steps = np.eye(x.shape[1]) * _STEP
    return np.stack([(f(x + e) - f(x - e)) / (2 * _STEP) for e in steps], axis=-1)


@given(_systems())
@settings(max_examples=100, deadline=None)
def test_jacobian_is_symmetric_bit_for_bit(system):
    lams, beta, varrho, k, x, _ = system
    J = kernels.jacobian(lams, beta, varrho, k, x)
    assert J.tobytes() == np.ascontiguousarray(J.transpose(0, 2, 1)).tobytes()


@given(_systems())
@settings(max_examples=100, deadline=None)
def test_residual_is_the_gradient_of_the_modal_energy(system):
    # E is quartic, so the central difference is off by exactly
    # h^2 E''' / 6 = h^2 varrho lam^2 x, besides the rounding of E over 2h
    lams, beta, varrho, k, x, _ = system
    # the summed magnitudes of E's terms, at least those at every x +- h e_j:
    # the gamma block is negated so that the coupling term reads (|a| + |g|)^2
    n = lams.size
    z = (np.abs(x) + _STEP) * np.repeat([1.0, -1.0], n)
    magnitude = np.abs(_energy_terms(lams, beta, varrho, k, z)).sum(axis=0)
    gradient = _central_differences(
        lambda y: _energy_terms(lams, beta, varrho, k, y).sum(axis=0), x
    )
    lam = np.tile(lams, 2)
    bound = (
        1.01 * _STEP**2 * varrho * lam**2 * np.abs(x)
        + 16 * EPS * magnitude[:, None] / _STEP
        + 16 * EPS * _term_scale(lams, beta, varrho, k, x)
        + TINY
    )
    assert (np.abs(kernels.residual(lams, beta, varrho, k, x) - gradient) <= bound).all()


@given(_systems())
@settings(max_examples=100, deadline=None)
def test_jacobian_is_the_derivative_of_the_residual(system):
    # F is cubic, so the central difference is off by exactly
    # h^2 F''' / 6, which is h^2 varrho lam_j^2 on the diagonal and 0 off it
    lams, beta, varrho, k, x, _ = system
    derivative = _central_differences(lambda y: kernels.residual(lams, beta, varrho, k, y), x)
    lam = np.tile(lams, 2)
    J = kernels.jacobian(lams, beta, varrho, k, x)
    bound = (
        1.01 * _STEP**2 * varrho * np.diag(lam**2)
        + 16 * EPS * _term_scale(lams, beta, varrho, k, np.abs(x) + _STEP)[:, :, None] / _STEP
        + 16 * EPS * np.abs(J)
        + TINY
    )
    assert (np.abs(J - derivative) <= bound).all()


@given(_systems(), st.integers(0, kernels.DEFAULT_MAX_BACKTRACK - 1))
@settings(max_examples=200, deadline=None)
def test_merit_polynomial_is_the_residual_along_the_step(system, j):
    # F(x + t d) = F + t F1 + t^2 F2 + t^3 F3 and its squared norm is
    # |F|^2 + t h(t), to the rounding of the residual's terms at |x| + t|d|
    lams, beta, varrho, k, x, d = system
    t = 2.0**-j
    xc = kernels._columns(x)
    c = kernels._loads(lams, beta, varrho, xc)
    F = kernels._residual(lams, k, xc, c)
    f1, f2, f3 = kernels._step_terms(lams, varrho, k, xc, kernels._columns(d), c)
    along = kernels.residual(lams, beta, varrho, k, x + t * d)
    scale = _term_scale(lams, beta, varrho, k, np.abs(x) + t * np.abs(d))
    poly = kernels._rows(F + t * (f1 + t * (f2 + t * f3)))
    assert (np.abs(poly - along) <= 64 * EPS * scale + TINY).all()
    coef, merit_at_x = kernels._merit_coefficients(F, f1, f2, f3)
    merit = merit_at_x + t * kernels._difference_quotient(coef, t)
    bound = 64 * EPS * (scale * scale).sum(axis=1) + TINY
    assert (np.abs(merit - (along * along).sum(axis=1)) <= bound).all()
