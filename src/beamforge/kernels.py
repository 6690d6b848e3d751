"""Damped-Newton kernel for the truncated modal system.

This is the hot path of the brute-force verifier: thousands of random
starts, each iterated with an analytic Jacobian and Armijo backtracking
on the squared-residual merit ``|F|^2``.  The kernel is vectorized
across starts: every iteration evaluates the residual, Jacobian and
line search for all live starts at once, and a start leaves the batch
when it converges, stalls or exhausts ``DEFAULT_MAX_ITER`` steps.

The cap of 60 steps retires the straggler tail.  On the paper case 99%
of the converging starts take at most 26 steps, and on the trimodal
case (``k = 72``, ``beta = -30``) every one takes at most 51.  The few
slowest starts of a solve crawl on with steps near ``2^-29``, and up to
200 steps they kept the whole batch loop running for a handful of rows.
A capped start ends unconverged with ``iterations == DEFAULT_MAX_ITER``;
every start that converges within the cap keeps its iterates bit for
bit.

The unknown vector packs the two coefficient blocks as
``x = (alpha_1..alpha_N, gamma_1..gamma_N)`` and the residual is

    F_m     = lam_m^2 a_m + C_u lam_m a_m + k (a_m - g_m)
    F_{N+m} = lam_m^2 g_m + C_v lam_m g_m - k (a_m - g_m)

with ``C_u = beta + varrho sum(lam_j a_j^2)`` and ``C_v`` alike.  The
Jacobian is the block-diagonal linear part plus one rank-one coupling
term per block.

The line search evaluates no residual.  ``F`` is cubic, so along a
Newton step ``d`` it is exactly ``F + t F1 + t^2 F2 + t^3 F3``, and
``|F(x + t d)|^2 - |F|^2 = t h(t)`` for a quintic ``h`` whose
coefficients come from the Gram matrix of ``F..F3``.  The Armijo test
``|F(x + t d)|^2 <= |F|^2 (1 - ARMIJO_SLOPE t)`` reads
``h(t) <= -ARMIJO_SLOPE |F|^2``.  Every start tests ``t = 1``; those that
fail test all later halvings ``t = 2^-j``, ``j < DEFAULT_MAX_BACKTRACK``,
at once, and each takes the first that passes.  The next iterate
``x + t d`` is the same float expression as the trial point of a search
that evaluates the residual at each halving.  A start stops when no
halving passes or its next iterate is not finite.

Inside ``newton_batch`` the live starts are columns of shape
``(2, N, S)`` (beam, mode, start), so each elementwise operation runs
over contiguous rows of starts; a start that stops is written back to
its row once.  Sums over modes and components are chains of
elementwise adds in index order, not BLAS products or pairwise
reductions, whose rounding varies with the batch, so a start's
iterates are the same bits in any batch, alone included.  ``residual``
and ``jacobian`` wrap the column formulas in the row layout ``(S, 2N)``.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

ARMIJO_SLOPE = 1e-4
DEFAULT_MAX_ITER = 60
DEFAULT_MAX_BACKTRACK = 40


# an overflow reports nothing here: a NaN merit fails the Armijo test, and a
# start whose next iterate is not finite stops
@np.errstate(over="ignore", invalid="ignore")
def newton_batch(
    lams,
    beta: float,
    varrho: float,
    k: float,
    starts,
    tol: float,
):
    """Run damped Newton from every row of ``starts``.

    Returns ``(roots, converged, iterations)``: final iterates of shape
    ``(S, 2N)``, a flag per start (max-abs residual below ``tol``), and
    accepted Newton steps taken.  A start stops early when its Jacobian
    is singular or no backtracked step decreases the merit.
    """
    lams = np.ascontiguousarray(lams, dtype=np.float64)
    starts = np.ascontiguousarray(starts, dtype=np.float64)
    if lams.size == 0 or starts.ndim != 2 or starts.shape[1] != 2 * lams.size:
        raise ValueError("starts must have shape (S, 2N) with N >= 1")
    beta, varrho, k, tol = float(beta), float(varrho), float(k), float(tol)
    roots = starts.copy()
    converged = np.zeros(starts.shape[0], dtype=bool)
    iterations = np.zeros(starts.shape[0], dtype=np.int64)
    x = _columns(starts)
    live = np.arange(starts.shape[0])
    # every live start has taken ``it`` steps
    for it in range(DEFAULT_MAX_ITER + 1):
        c = _loads(lams, beta, varrho, x)
        F = _residual(lams, k, x, c)
        hit = np.abs(F).max(axis=(0, 1)) < tol
        converged[live[hit]] = True
        moved = ~hit if it < DEFAULT_MAX_ITER else np.zeros_like(hit)
        if moved.any():
            xm, Fm, cm = x, F, c
            if not moved.all():
                xm, Fm, cm = (np.compress(moved, a, axis=-1) for a in (x, F, c))
            d = _columns(_solve_batch(_jacobian(lams, varrho, k, xm, cm), -_rows(Fm)))
            x_next, accepted = _line_search(lams, varrho, k, xm, d, cm, Fm)
            moved[moved] = accepted
        stop = ~moved
        roots[live[stop]] = _rows(np.compress(stop, x, axis=-1))
        iterations[live[stop]] = it
        if not moved.any():
            break
        x = np.compress(accepted, x_next, axis=-1)
        live = live[moved]
    return roots, converged, iterations


def _line_search(lams, varrho, k, x, d, c, F):
    """Armijo backtracking from every column of ``x`` along ``d``.

    ``c`` and ``F`` are the loads and the residual at ``x``.  Each
    column takes the first step ``t = 2^-j``, ``j < DEFAULT_MAX_BACKTRACK``,
    that the merit polynomial accepts, ``t = 1`` tested alone and the
    later halvings all at once.  Returns ``(x_next, accepted)``;
    ``x_next`` holds the next iterate of each accepted column, which is
    finite.
    """
    coef, merit = _merit_coefficients(F, *_step_terms(lams, varrho, k, x, d, c))
    bound = -ARMIJO_SLOPE * merit
    accepted = _difference_quotient(coef, 1.0) <= bound  # False for NaN
    t = np.ones(merit.size)
    failed = ~accepted
    if failed.any():
        halvings = np.ldexp(1.0, -np.arange(1, DEFAULT_MAX_BACKTRACK))[:, None]
        ok = _difference_quotient(np.compress(failed, coef, axis=-1), halvings) <= bound[failed]
        t[failed] = halvings[ok.argmax(axis=0), 0]
        accepted[failed] = ok.any(axis=0)
    x_next = x + t * d
    accepted &= np.isfinite(x_next).all(axis=(0, 1))
    return x_next, accepted


def _step_terms(lams, varrho, k, x, d, c):
    """``F1, F2, F3`` of ``F(x + t d) = F(x) + t F1 + t^2 F2 + t^3 F3``
    for columns ``x`` with loads ``c``; the loads along the step are
    ``c + t c1 + t^2 c2``."""
    lam = lams[:, None]
    ld = lam * d
    c1 = 2.0 * varrho * _ordered_sum((ld * x).swapaxes(0, 1))[:, None]
    c2 = varrho * _ordered_sum((ld * d).swapaxes(0, 1))[:, None]
    f1 = d * (lam * lam) + c[:, None] * ld + c1 * (lam * x) + k * (d - d[::-1])
    f2 = lam * (c1 * d + c2 * x)
    f3 = c2 * ld
    return f1, f2, f3


def _merit_coefficients(F, f1, f2, f3):
    """Coefficients ``h_0..h_5``, shape ``(6, S)``, of
    ``h(t) = (|F(x + t d)|^2 - |F|^2) / t``, and ``|F|^2``, from the
    Gram matrix of ``F, f1, f2, f3``."""
    terms = [f.reshape(-1, F.shape[-1]) for f in (F, f1, f2, f3)]
    g = {(p, q): _ordered_sum(terms[p] * terms[q]) for p in range(4) for q in range(p, 4)}
    h = [2.0 * g[0, 1], 2.0 * g[0, 2] + g[1, 1], 2.0 * (g[0, 3] + g[1, 2])]
    h += [2.0 * g[1, 3] + g[2, 2], 2.0 * g[2, 3], g[3, 3]]
    return np.stack(h), g[0, 0]


def _difference_quotient(coef, t):
    """``h(t)``, the merit's difference quotient, by Horner's rule; ``t``
    a scalar or a column of steps."""
    h = coef[5] * t
    for c in coef[4:0:-1]:
        h += c
        h *= t
    h += coef[0]
    return h


def residual(lams, beta, varrho, k, x):
    """Modal residual of every row of ``x``, shape ``(S, 2N)``."""
    x = _columns(x)
    return np.ascontiguousarray(_rows(_residual(lams, k, x, _loads(lams, beta, varrho, x))))


def jacobian(lams, beta, varrho, k, x):
    """Analytic Jacobian of every row of ``x``, shape ``(S, 2N, 2N)``."""
    x = _columns(x)
    return np.ascontiguousarray(_jacobian(lams, varrho, k, x, _loads(lams, beta, varrho, x)))


def _columns(x):
    """Rows ``(S, 2N)`` as contiguous columns ``(2, N, S)``."""
    return np.ascontiguousarray(x.T).reshape(2, x.shape[1] // 2, x.shape[0])


def _rows(x):
    """Columns ``(2, N, S)`` as a row view ``(S, 2N)``."""
    return x.reshape(2 * x.shape[1], x.shape[2]).T


def _ordered_sum(terms):
    """Sum of ``terms`` over axis 0, one elementwise add at a time in index
    order, so a column's bits do not depend on its batch."""
    return reduce(np.add, terms)


def _loads(lams, beta, varrho, x):
    """``C_u`` and ``C_v`` of every column of ``x``, shape ``(2, S)``."""
    return beta + varrho * _ordered_sum(((x * x) * lams[:, None]).swapaxes(0, 1))


def _residual(lams, k, x, c):
    """Modal residual of columns ``x`` with loads ``c``, shape ``(2, N, S)``."""
    lam = lams[:, None]
    return x * (lam * lam) + c[:, None] * (x * lam) + k * (x - x[::-1])


def _jacobian(lams, varrho, k, x, c):
    """Analytic Jacobian of columns ``x`` with loads ``c``, shape
    ``(S, 2N, 2N)``, as a view in which ``J[:, i, j]`` is contiguous."""
    n, S = lams.size, x.shape[-1]
    lam = lams[:, None]
    lx = lam * x
    blocks = lx[:, :, None] * lx[:, None]
    blocks *= 2.0 * varrho
    J = np.zeros((2, n, 2, n, S))
    J[0, :, 0] = blocks[0]
    J[1, :, 1] = blocks[1]
    flat = J.reshape(4 * n * n, S)  # the diagonal, then the couplings (i, n + i) and (n + i, i)
    flat[:: 2 * n + 1] += ((lam * lam + c[:, None] * lam) + k).reshape(2 * n, S)
    flat[n : 2 * n * n : 2 * n + 1] = -k
    flat[2 * n * n :: 2 * n + 1] = -k
    return J.reshape(2 * n, 2 * n, S).transpose(2, 0, 1)


def _solve_batch(J, rhs):
    """Batched solve; rows whose system is singular come back as NaN.

    ``slogdet`` runs the same LU factorization as ``solve`` and reports
    sign 0 exactly when it meets a zero pivot, so the rows it flags are
    the ones that make ``solve`` raise, and the rest are solved in one
    call.
    """
    try:
        return np.linalg.solve(J, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full_like(rhs, np.nan)
        ok = np.linalg.slogdet(J)[0] != 0
        out[ok] = np.linalg.solve(J[ok], rhs[ok, :, None])[:, :, 0]
        return out
