"""Brute-force verifier: solve the truncated modal system from many
random starts and reconcile the roots with the closed-form inventory.

The oracle knows nothing about branch structure.  It draws starts
uniformly from the amplitude box, runs damped Newton (see
:mod:`beamforge.kernels`), deduplicates converged roots, polishes them
and reports every distinct solution found.  The polish is one vectorized
stage of rank-cut Newton steps (a pseudo-inverse that drops singular
values below ``1e-10`` of the largest): near junctions of solution
continua the Jacobian is nearly rank deficient, and the search's
full-rank solves leave such roots too far off the manifold to match.
``match_against`` then classifies each root as a known isolated
solution, a point on an EE family, or unmatched; unmatched roots
indicate a bug somewhere.

Two generic properties of the modal system, not of its closed forms,
make plain multistart complete at desk scale:

* support decomposition: every term of the mode-``j`` equations carries
  ``alpha_j`` or ``gamma_j``, so zeroing a mode pair satisfies its two
  equations identically, and any root supported on a subset of modes is
  a root of the restricted system on that subset.  Half the start budget
  is spread over the coordinate subproblems, where small-support roots
  have fat basins; the other half probes the full-dimensional system.
  Every block writes its starts into its own columns of one array, zero
  elsewhere, and one Newton batch on the full system solves them all: a
  zero mode pair has zero residual rows and an exactly zero Newton step,
  so it stays zero.
* symmetry: the residual is odd in each mode pair ``(alpha_j, gamma_j)``
  and symmetric under swapping the two beams, so the images of a root
  under these maps are roots, exactly in floating point.  Each found
  root contributes its whole orbit; a state is missed only when every
  state of its orbit is.

Deflating known roots away (Farrell, Birkisson & Funke, SIAM J. Sci.
Comput. 37, 2015) pays off when a solve is expensive.  With at most
``2N`` unknowns per solve it took about 20 times as long here, and the
symmetry closure gives the same completeness at the same budget, so the
search does not use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import jsonio, kernels
from .core import Inventory, ModalSolution, Params, check_inventory, solution_sort_key
from .ee_families import EEFamily
from .errors import ValidationError, VerificationError
from .spectrum import Spectrum

NEWTON_TOL_FACTOR = 1e-11
DEDUP_RTOL = 1e-8
ACTIVE_AMPLITUDE_TOL = 1e-7
MATCH_RTOL = 1e-6


def newton_scale(p: Params, spec: Spectrum, n_modes: int) -> float:
    """Residual scale ``max(1, lam_N^2, k, |beta| lam_N)`` of the
    truncated system."""
    lam_max = spec.eigenvalue(n_modes)
    return max(1.0, lam_max * lam_max, p.k, abs(p.beta) * lam_max)


def start_box_radius(p: Params, spec: Spectrum) -> float:
    """Half-width ``sqrt(max(1, -beta) / (varrho lam_1))`` of the start
    box; buckled amplitudes always fall inside it."""
    return float(np.sqrt(max(1.0, -p.beta) / (p.varrho * spec.eigenvalue(1))))


@dataclass
class MatchReport:
    matched: int
    on_family: int
    unmatched: list[ModalSolution]
    labels: list[str]  # per found root: trivial | isolated | family | unmatched
    missed_closed: list[ModalSolution]

    def describe(self) -> dict:
        return {
            "matched": self.matched,
            "on_family": self.on_family,
            "unmatched_count": len(self.unmatched),
            "missed_closed_count": len(self.missed_closed),
            "labels": list(self.labels),
        }


@dataclass
class OracleResult:
    found: list[ModalSolution]
    starts_used: int
    converged_count: int
    n_modes: int
    newton_tol: float
    box_radius: float
    backend: str = "numpy"  # kept so the oracle JSON keeps its keys
    matched: int = 0
    on_family: int = 0
    unmatched: list[ModalSolution] = field(default_factory=list)

    def attach_match(self, report: MatchReport) -> "OracleResult":
        self.matched = report.matched
        self.on_family = report.on_family
        self.unmatched = list(report.unmatched)
        return self

    def describe(self, p: Params, spec: Spectrum) -> dict:
        return {
            "n_modes": self.n_modes,
            "starts_used": self.starts_used,
            "converged_count": self.converged_count,
            "newton_tol": self.newton_tol,
            "box_radius": self.box_radius,
            "backend": self.backend,
            "found_count": len(self.found),
            "matched": self.matched,
            "on_family": self.on_family,
            "unmatched_count": len(self.unmatched),
            "found": _records(self.found, p, spec),
            "unmatched": _records(self.unmatched, p, spec),
        }


def _records(sols: list[ModalSolution], p: Params, spec: Spectrum) -> jsonio.SolutionRecords:
    inv = Inventory.from_solutions(sols)
    return jsonio.SolutionRecords(inv, check_inventory(inv, p, spec))


def _accurate_polish(lams, p: Params, roots: np.ndarray) -> np.ndarray:
    """Polish every root at once with a rank-cut Newton step.

    Near junctions of solution continua an extra near-null Jacobian
    direction lets the search park iterates ~sqrt(tol) off the manifold,
    where a full-rank solve amplifies noise along that direction.  The
    step here drops singular values below ``1e-10`` of the largest
    (``pinv``).  A step is accepted when one of 8 halvings strictly lowers
    the max-abs residual; a root stops at the first step that none does,
    or after 60 steps.
    """
    x = roots.copy()
    live = np.arange(x.shape[0])
    for _ in range(60):
        if live.size == 0:
            break
        xl = x[live]
        F = kernels.residual(lams, p.beta, p.varrho, p.k, xl)
        best = np.abs(F).max(axis=1)
        J = kernels.jacobian(lams, p.beta, p.varrho, p.k, xl)
        step = -(np.linalg.pinv(J, rcond=1e-10) @ F[:, :, None])[:, :, 0]
        improved = np.zeros(live.size, dtype=bool)
        for halvings in range(8):
            rem = np.flatnonzero(~improved)
            if rem.size == 0:
                break
            trial = xl[rem] + 0.5 ** halvings * step[rem]
            mag = np.abs(kernels.residual(lams, p.beta, p.varrho, p.k, trial)).max(axis=1)
            ok = mag < best[rem]  # False for NaN
            x[live[rem[ok]]] = trial[ok]
            improved[rem[ok]] = True
        live = live[improved]
    return x


def _settled(lams, p: Params, spec: Spectrum, roots: np.ndarray) -> np.ndarray:
    """Flag the roots whose max-abs residual is below the tolerance of
    their own support: ``NEWTON_TOL_FACTOR`` times the scale of their
    highest active mode.

    The search holds a root to the scale of the highest mode of the
    whole system, which can be 100 times looser than that of the root's
    own equations.  Just past a pitchfork, points on the flat arc
    between two nearby roots then pass as converged, and the polish
    moves them too slowly to settle.  Roots active in the highest mode
    were held to their own tolerance by the search and are not checked
    again.
    """
    n_modes = lams.size
    amplitude = np.maximum(np.abs(roots[:, :n_modes]), np.abs(roots[:, n_modes:]))
    active = amplitude > ACTIVE_AMPLITUDE_TOL
    top = np.where(active.any(axis=1), n_modes - active[:, ::-1].argmax(axis=1), 1)
    low = np.flatnonzero(top < n_modes)
    tol = NEWTON_TOL_FACTOR * np.array([newton_scale(p, spec, n) for n in range(1, n_modes)])
    residual = np.abs(kernels.residual(lams, p.beta, p.varrho, p.k, roots[low])).max(axis=1)
    settled = np.ones(roots.shape[0], dtype=bool)
    settled[low] = residual < tol[top[low] - 1]
    return settled


def _dedup_merge(known: np.ndarray, roots: np.ndarray, radius: float) -> np.ndarray:
    """Greedy merge in arrival order; two roots are the same solution
    when every coefficient agrees within ``DEDUP_RTOL`` of the box
    radius.

    Each pass peels off every root within tol of one representative:
    first of each known one, then of the first root left, which no
    earlier root matched and is therefore new.  This keeps the roots a
    row-by-row greedy loop keeps, since ``|a - b| == |b - a|`` exactly,
    with one pass per distinct root instead of one per root.
    """
    tol = DEDUP_RTOL * radius

    def unlike(rows, rep):
        # not ``> tol``: a NaN distance matches nothing, as in the greedy loop
        return rows[~(np.abs(rows - rep).max(axis=1) <= tol)]

    for rep in known:
        if roots.shape[0] == 0:
            break
        roots = unlike(roots, rep)
    reps = [known]
    while roots.shape[0]:
        reps.append(roots[:1])
        roots = unlike(roots[1:], roots[0])
    return np.concatenate(reps)


def _orbit_closure(known: np.ndarray, n_modes: int, radius: float) -> np.ndarray:
    """Add the images of every root under the sign flip of each mode
    pair and under the beam swap ``alpha <-> gamma``, deduplicated."""
    for j in range(n_modes):
        flipped = known.copy()
        flipped[:, [j, n_modes + j]] *= -1.0
        known = _dedup_merge(known, flipped, radius)
    swapped = np.concatenate([known[:, n_modes:], known[:, :n_modes]], axis=1)
    return _dedup_merge(known, swapped, radius)


def _mode_subsets(n_modes: int) -> list[tuple[int, ...]]:
    """All nonempty mode subsets, smallest supports first; the full
    support comes last."""
    out: list[tuple[int, ...]] = []
    for size in range(1, n_modes + 1):
        out.extend(combinations(range(1, n_modes + 1), size))
    return out


def _columns_for(subset: tuple[int, ...], n_modes: int) -> np.ndarray:
    """Full-layout column indices of a support's alpha and gamma blocks."""
    alpha = [n - 1 for n in subset]
    gamma = [n_modes + n - 1 for n in subset]
    return np.array(alpha + gamma, dtype=np.intp)


def galerkin_solve(
    p: Params,
    spec: Spectrum,
    n_modes: int,
    starts: int,
    seed: int = 0,
) -> OracleResult:
    """Solve the ``2 * n_modes``-unknown modal system from ``starts``
    uniform random starts and return the deduplicated roots.

    Half the budget is split evenly over the proper mode-support
    subproblems (smallest supports first), each one drawing its starts
    from its own box ``[-R, R]^(2|S|)`` with every other mode pair zero;
    the remaining budget probes the full-dimensional system.  Budgets too
    small to cover the subproblems fall back to full-dimensional
    multistart.  All starts run as one damped-Newton batch on the full
    system, whose zero mode pairs stay exactly zero, and the converged
    roots are deduplicated in start order.  The polished roots are closed
    under the system's symmetries.

    Convergence demands a max-abs residual below ``1e-11`` times the
    system scale.  Starts that stall are discarded (counted via
    ``converged_count``), and so are polished roots above ``1e-11`` times
    the scale of their own highest active mode.  Roots keep only modes
    with amplitude above ``1e-7``; more than three such modes would
    contradict the structure theory and raises :class:`VerificationError`.
    """
    if starts < 1:
        raise ValidationError(f"starts must be positive, got {starts}")
    lams = spec.eigenvalues(n_modes)
    tol = NEWTON_TOL_FACTOR * newton_scale(p, spec, n_modes)
    radius = start_box_radius(p, spec)
    rng = np.random.default_rng(seed)
    subsets = _mode_subsets(n_modes)
    proper = len(subsets) - 1
    share = (starts // 2) // proper if proper else 0
    budgets = [share] * proper + [starts - share * proper]
    x0 = np.zeros((starts, 2 * n_modes))
    row = 0
    for subset, budget in zip(subsets, budgets):
        cols = _columns_for(subset, n_modes)
        x0[row : row + budget, cols] = rng.uniform(-radius, radius, size=(budget, cols.size))
        row += budget
    roots, converged, _ = kernels.newton_batch(lams, p.beta, p.varrho, p.k, x0, tol)
    known = _dedup_merge(np.zeros((0, 2 * n_modes)), roots[converged], radius)

    if known.shape[0]:
        polished = _accurate_polish(lams, p, known)
        polished = polished[_settled(lams, p, spec, polished)]
        known = _dedup_merge(np.zeros((0, 2 * n_modes)), polished, radius)
        known = _orbit_closure(known, n_modes, radius)

    found: list[ModalSolution] = []
    for row in known:
        alphas = row[:n_modes]
        gammas = row[n_modes:]
        active = [
            j
            for j in range(n_modes)
            if max(abs(alphas[j]), abs(gammas[j])) > ACTIVE_AMPLITUDE_TOL
        ]
        if len(active) > 3:
            raise VerificationError(
                f"oracle root with {len(active)} active modes contradicts the "
                f"three-mode bound: {row.tolist()}"
            )
        modes = {j + 1: (float(alphas[j]), float(gammas[j])) for j in active}
        found.append(ModalSolution(modes, tag="oracle"))
    found.sort(key=solution_sort_key)
    return OracleResult(
        found=found,
        starts_used=starts,
        converged_count=int(converged.sum()),
        n_modes=n_modes,
        newton_tol=tol,
        box_radius=radius,
    )


def _coeffs_match(root: ModalSolution, closed: ModalSolution, tol: float) -> bool:
    if root.active != closed.active:
        return False
    for n in closed.active:
        ra, rg = root.modes[n]
        ca, cg = closed.modes[n]
        if abs(ra - ca) > tol * max(1.0, abs(ca)):
            return False
        if abs(rg - cg) > tol * max(1.0, abs(cg)):
            return False
    return True


def match_against(
    closed: list[ModalSolution],
    families: list[EEFamily],
    oracle_found: list[ModalSolution],
    tol: float = MATCH_RTOL,
) -> MatchReport:
    """Classify every oracle root against the closed-form inventory.

    A root is *matched* when each coefficient agrees with an isolated
    closed-form solution to ``tol`` relative (the trivial root always
    matches), *on_family* when its u-part sits on an EE quadric with the
    family's sign pattern, and *unmatched* otherwise.  ``missed_closed``
    lists isolated solutions no root landed on.
    """
    matched = 0
    on_family = 0
    unmatched: list[ModalSolution] = []
    labels: list[str] = []
    hit_closed = [False] * len(closed)
    for root in oracle_found:
        if root.is_trivial:
            matched += 1
            labels.append("trivial")
            continue
        hit = None
        for i, sol in enumerate(closed):
            if _coeffs_match(root, sol, tol):
                hit = i
                break
        if hit is not None:
            matched += 1
            hit_closed[hit] = True
            labels.append("isolated")
            continue
        if any(fam.contains(root, tol) for fam in families):
            on_family += 1
            labels.append("family")
            continue
        unmatched.append(root)
        labels.append("unmatched")
    missed = [
        sol for i, sol in enumerate(closed) if not hit_closed[i] and not sol.is_trivial
    ]
    return MatchReport(matched, on_family, unmatched, labels, missed)
