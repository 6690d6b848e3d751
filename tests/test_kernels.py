from itertools import combinations

import numpy as np
import pytest

from beamforge import Params, Spectrum
from beamforge import kernels
from beamforge.oracle import newton_scale, start_box_radius


@pytest.fixture(scope="module")
def problem():
    p = Params(beta=-15.5, varrho=1.0, k=3.0)
    spec = Spectrum.scaled()
    lams = spec.eigenvalues(3)
    tol = 1e-11 * newton_scale(p, spec, 3)
    radius = start_box_radius(p, spec)
    rng = np.random.default_rng(123)
    starts = rng.uniform(-radius, radius, (400, 6))
    return p, lams, tol, starts


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


def test_batch_rows_match_rows_solved_alone(problem):
    p, lams, tol, starts = problem
    batch = _mixed_batch(p, lams, starts)
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
    monkeypatch.setattr(
        kernels, "_line_search", lambda *args: _line_search_one_halving_per_call(*args)[:2]
    )
    reference = kernels.newton_batch(lams, p.beta, p.varrho, p.k, batch, tol)
    for got, want in zip(batched, reference):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("offset,j", [(1e-3, 9), (1e-4, 12), (1e-6, 19)])
def test_line_search_takes_a_halving_past_the_first_chunk(problem, offset, j):
    # just off the fold the Newton step overshoots by a factor of about
    # 1 / offset; the batched search must take the very halving that a
    # search of one halving per residual call takes
    p, lams, _, _ = problem
    x = _mode_1_in_phase(p, lams, 1.0 + offset)
    d, f2 = _newton_step(lams, p, x)
    want, accepted, t = _line_search_one_halving_per_call(lams, p.beta, p.varrho, p.k, x, d, f2)
    assert accepted[0] and t[0] == 2.0**-j
    got, accepted = kernels._line_search(lams, p.beta, p.varrho, p.k, x, d, f2)
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
    assert not kernels._line_search(lams, p.beta, p.varrho, p.k, x, d, f2)[1][0]
    roots, conv, iters = kernels.newton_batch(lams, p.beta, p.varrho, p.k, x, tol)
    assert not conv[0] and iters[0] == 0
    assert roots.tobytes() == x.tobytes()
