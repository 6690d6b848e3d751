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

The line search tries the full Newton step for every live start in one
residual call.  The starts that fail the Armijo test evaluate their next
halvings in chunks of ``_HALVINGS_PER_PASS``, one residual call per
chunk over all of them, and each takes the first halving that passes;
a start that no halving up to ``DEFAULT_MAX_BACKTRACK`` accepts stops.
The slow starts accept steps near ``2^-29`` for many iterations, so one
call per halving would be almost all per-call overhead.  Grouping the
halvings changes no trial point, so the iterates are those of the
one-halving-per-call search, bit for bit.

The unknown vector packs the two coefficient blocks as
``x = (alpha_1..alpha_N, gamma_1..gamma_N)`` and the residual is

    F_m     = lam_m^2 a_m + C_u lam_m a_m + k (a_m - g_m)
    F_{N+m} = lam_m^2 g_m + C_v lam_m g_m - k (a_m - g_m)

with ``C_u = beta + varrho sum(lam_j a_j^2)`` and ``C_v`` alike.  The
Jacobian is the block-diagonal linear part plus one rank-one coupling
term per block.
"""

from __future__ import annotations

import numpy as np

ARMIJO_SLOPE = 1e-4
DEFAULT_MAX_ITER = 60
DEFAULT_MAX_BACKTRACK = 40
# halvings per residual call once the full step fails; all 39 in one call
# raised the oracle's peak RSS by about 10%, since the first iterations
# backtrack on most of a block of starts
_HALVINGS_PER_PASS = 8


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
    if starts.ndim != 2 or starts.shape[1] != 2 * lams.size:
        raise ValueError("starts must have shape (S, 2N)")
    beta, varrho, k, tol = float(beta), float(varrho), float(k), float(tol)
    x = starts.copy()
    S = x.shape[0]
    converged = np.zeros(S, dtype=bool)
    done = np.zeros(S, dtype=bool)
    iterations = np.zeros(S, dtype=np.int64)
    while True:
        act = np.flatnonzero(~done)
        if act.size == 0:
            break
        xa = x[act]
        F = residual(lams, beta, varrho, k, xa)
        max_f = np.abs(F).max(axis=1)
        hit = max_f < tol
        converged[act[hit]] = True
        done[act[hit]] = True
        over = ~hit & (iterations[act] >= DEFAULT_MAX_ITER)
        done[act[over]] = True
        live = ~hit & ~over
        li = act[live]
        if li.size == 0:
            continue
        xl = xa[live]
        Fl = F[live]
        step = _solve_batch(jacobian(lams, beta, varrho, k, xl), -Fl)
        bad = ~np.isfinite(step).all(axis=1)
        done[li[bad]] = True
        gi = li[~bad]
        if gi.size == 0:
            continue
        xg = xl[~bad]
        d = step[~bad]
        f2 = np.einsum("ij,ij->i", Fl[~bad], Fl[~bad])
        x_next, accepted = _line_search(lams, beta, varrho, k, xg, d, f2)
        done[gi[~accepted]] = True
        upd = gi[accepted]
        x[upd] = x_next[accepted]
        iterations[upd] += 1
    return x, converged, iterations


def _line_search(lams, beta, varrho, k, xg, d, f2):
    """Armijo backtracking from every row of ``xg`` along ``d``.

    Each row takes the first step ``t = 2^-j``, ``j < DEFAULT_MAX_BACKTRACK``,
    whose trial point is finite and satisfies
    ``|F(xg + t d)|^2 <= f2 (1 - ARMIJO_SLOPE t)``; ``t = 1`` is tried
    alone, the later halvings ``_HALVINGS_PER_PASS`` to a residual call.
    Returns ``(x_next, accepted)``; ``x_next`` holds the accepted trial
    point of each accepted row.
    """
    x_next = np.empty_like(xg)
    accepted = np.zeros(xg.shape[0], dtype=bool)
    edges = (0, *range(1, DEFAULT_MAX_BACKTRACK, _HALVINGS_PER_PASS), DEFAULT_MAX_BACKTRACK)
    for first, last in zip(edges, edges[1:]):
        rem = np.flatnonzero(~accepted)
        if rem.size == 0:
            break
        t = np.ldexp(1.0, -np.arange(first, last))  # exact powers of two
        trial = xg[rem, None] + t[None, :, None] * d[rem, None]
        Ft = residual(lams, beta, varrho, k, trial.reshape(-1, xg.shape[1]))
        ft2 = np.einsum("ij,ij->i", Ft, Ft).reshape(rem.size, t.size)
        ok = ft2 <= f2[rem, None] * (1.0 - ARMIJO_SLOPE * t)
        ok &= np.isfinite(trial).all(axis=2)
        hit = ok.any(axis=1)
        x_next[rem[hit]] = trial[hit, ok[hit].argmax(axis=1)]
        accepted[rem[hit]] = True
    return x_next, accepted


def residual(lams, beta, varrho, k, x):
    """Modal residual of every row of ``x``, shape ``(S, 2N)``."""
    n = lams.size
    a = x[:, :n]
    g = x[:, n:]
    cu = beta + varrho * (a * a) @ lams
    cv = beta + varrho * (g * g) @ lams
    lam2 = lams * lams
    out = np.empty_like(x)
    out[:, :n] = a * lam2 + cu[:, None] * (a * lams) + k * (a - g)
    out[:, n:] = g * lam2 + cv[:, None] * (g * lams) + k * (g - a)
    return out


def jacobian(lams, beta, varrho, k, x):
    """Analytic Jacobian of every row of ``x``, shape ``(S, 2N, 2N)``."""
    S, two_n = x.shape
    n = lams.size
    a = x[:, :n]
    g = x[:, n:]
    cu = beta + varrho * (a * a) @ lams
    cv = beta + varrho * (g * g) @ lams
    J = np.zeros((S, two_n, two_n))
    idx = np.arange(n)
    J[:, idx, idx] = lams * lams + cu[:, None] * lams + k
    J[:, n + idx, n + idx] = lams * lams + cv[:, None] * lams + k
    J[:, idx, n + idx] = -k
    J[:, n + idx, idx] = -k
    lam_a = lams * a
    lam_g = lams * g
    J[:, :n, :n] += lam_a[:, :, None] * (2.0 * varrho * lam_a)[:, None, :]
    J[:, n:, n:] += lam_g[:, :, None] * (2.0 * varrho * lam_g)[:, None, :]
    return J


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
