"""Brute-force verifier: solve the truncated modal system from many
random starts and reconcile the roots with the closed-form inventory.

The oracle knows nothing about branch structure.  It draws starts
uniformly from the amplitude box with the standard library's
``random.Random(seed)``, whose ``random()`` sequence for a given seed
Python keeps the same across versions (NumPy promises no such thing for
its generators), runs damped Newton (see
:mod:`beamforge.kernels`), deduplicates converged roots, polishes them
and reports every distinct solution found.  The polish is one loop of
rank-cut Newton steps (a pseudo-inverse that drops singular values below
``1e-10`` of the largest): near junctions of solution continua the
Jacobian is nearly rank deficient, and the search's full-rank solves
leave such roots too far off the manifold to match.  A root stops when
its residual stops falling, after 60 steps, or when its step moves
nothing that can merge; it is kept only if its full-rank step there is
small.  ``match_against`` then classifies each root as a known isolated
solution, a point on an EE family, or unmatched (a bug somewhere), on
arrays: support signatures and coefficients, compared per support.

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
  under these maps are roots, exactly in floating point.  The oracle
  flips every mode pair with ``alpha_j < 0``, merges and polishes these
  representatives alone, and reports each one with its exact images; a
  state is missed only when every state of its orbit is.

Deflating known roots away (Farrell, Birkisson & Funke, SIAM J. Sci.
Comput. 37, 2015) pays off when a solve is expensive.  With at most
``2N`` unknowns per solve it took about 20 times as long here, and the
symmetry orbits give the same completeness at the same budget, so the
search does not use it.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from itertools import combinations, product, repeat
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .core import MAX_ACTIVE_MODES, Inventory, ModalSolution, Params, solution_sort_key, verified_records
from .errors import ValidationError, VerificationError
from .spectrum import Spectrum

if TYPE_CHECKING:  # the oracle checks the closed forms, so it loads none of them
    from .ee_families import EEFamily

NEWTON_TOL_FACTOR = 1e-11
DEDUP_RTOL = 1e-8
ACTIVE_AMPLITUDE_TOL = 1e-7
MATCH_RTOL = 1e-6
# rcond of the step test: it must drop the tangent of an EE family, along
# which every point is a root (sigma_min / sigma_max about 1e-17), and keep
# the near-null direction of spurious roots at a band threshold (5e-11 to
# 1e-10), which the polish's own 1e-10 cut would drop
STEP_RCOND = 1e-15


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

    def describe(self, p: Params, spec: Spectrum, report: MatchReport) -> dict:
        return {
            "n_modes": self.n_modes,
            "starts_used": self.starts_used,
            "converged_count": self.converged_count,
            "newton_tol": self.newton_tol,
            "box_radius": self.box_radius,
            "found_count": len(self.found),
            "matched": report.matched,
            "on_family": report.on_family,
            "unmatched_count": len(report.unmatched),
            "found": verified_records(Inventory.from_solutions(self.found), p, spec),
            "unmatched": verified_records(Inventory.from_solutions(report.unmatched), p, spec),
        }


def _accurate_polish(lams, p: Params, roots: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Polish every root at once with rank-cut Newton steps; return ``(roots, settled)``.

    Near junctions of solution continua an extra near-null Jacobian
    direction lets the search park iterates ~sqrt(tol) off the manifold,
    where a full-rank solve amplifies noise along it, so a step drops
    singular values below ``1e-10`` of the largest (``pinv``).  All 8
    halvings of a step are tried at once; the first that strictly lowers
    the max-abs residual is chosen.  A root stops, taking no step, where
    none does, after 60 steps, or where the chosen step moves no
    coordinate that is or would be larger than the merge distance
    ``DEDUP_RTOL * radius``: it would only shrink mode pairs far below it
    toward underflow.  There it is settled when its full-rank Newton step
    (Dennis & Schnabel, 1983, section 7.2) from the residual and Jacobian
    held there is at most the merge distance in max-abs; a non-finite
    step fails.  A residual test would pass points where the residual is
    flat: at a band threshold, where it is cubic in the amplitude of the
    branch leaving the trivial state, and just past a pitchfork, on the
    arc between two close roots.
    """
    tol = DEDUP_RTOL * radius
    x, settled = roots.copy(), np.zeros(roots.shape[0], dtype=bool)
    live = np.arange(x.shape[0])
    for steps in range(61):
        if live.size == 0:
            break
        xl = x[live]
        F = kernels.residual(lams, p.beta, p.varrho, p.k, xl)
        best = np.abs(F).max(axis=1)
        J = kernels.jacobian(lams, p.beta, p.varrho, p.k, xl)
        step = -(np.linalg.pinv(J, rcond=1e-10) @ F[:, :, None])[:, :, 0]
        trial = xl[:, None] + 0.5 ** np.arange(8)[:, None] * step[:, None]
        F_trial = kernels.residual(lams, p.beta, p.varrho, p.k, trial.reshape(-1, xl.shape[1]))
        ok = np.abs(F_trial).max(axis=1).reshape(live.size, 8) < best[:, None]  # False for NaN
        chosen = trial[np.arange(live.size), ok.argmax(axis=1)]
        mergeable = np.maximum(np.abs(xl), np.abs(chosen)) > tol
        moves = ok.any(axis=1) & ((chosen != xl) & mergeable).any(axis=1) & (steps < 60)
        full = (np.linalg.pinv(J[~moves], rcond=STEP_RCOND) @ F[~moves, :, None])[:, :, 0]
        settled[live[~moves]] = np.abs(full).max(axis=1) <= tol  # False for NaN
        x[live[moves]] = chosen[moves]
        live = live[moves]
    return x, settled


def _active_modes(roots: np.ndarray) -> np.ndarray:
    """Mask of the mode pairs with amplitude above ``1e-7``."""
    n_modes = roots.shape[1] // 2
    return np.maximum(np.abs(roots[:, :n_modes]), np.abs(roots[:, n_modes:])) > ACTIVE_AMPLITUDE_TOL


def _dedup_merge(roots: np.ndarray, radius: float) -> np.ndarray:
    """Greedy merge in arrival order; two roots are the same solution
    when every coefficient agrees within ``DEDUP_RTOL`` of the box
    radius.

    Each pass keeps the first root left, which no earlier root matched,
    and peels off every root within tol of it.  This keeps the roots a
    row-by-row greedy loop keeps, since ``|a - b| == |b - a|`` exactly,
    with one pass per distinct root instead of one per root.
    """
    tol = DEDUP_RTOL * radius
    reps = [roots[:0]]
    while roots.shape[0]:
        reps.append(roots[:1])
        rest = roots[1:]
        # not ``> tol``: a NaN distance matches nothing, as in the greedy loop
        roots = rest[~(np.abs(rest - roots[0]).max(axis=1) <= tol)]
    return np.concatenate(reps)


def _orbits(reps: np.ndarray) -> np.ndarray:
    """Each representative followed by its images: the sign flips of
    every subset of its active mode pairs, identity first, each followed
    by its beam swap ``alpha <-> gamma``.  Negation is exact, so every
    image is a root exactly when its representative is."""
    n_modes = reps.shape[1] // 2
    orbits = [reps[:0]]
    for row, on in zip(reps, _active_modes(reps)):
        signs = np.ones((2 ** on.sum(), n_modes))
        signs[:, on] = list(product((1.0, -1.0), repeat=on.sum()))
        flips = row * np.tile(signs, 2)
        swaps = np.roll(flips, n_modes, axis=1)
        orbits.append(np.stack((flips, swaps), axis=1).reshape(-1, reps.shape[1]))
    return np.concatenate(orbits)


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
    system, whose zero mode pairs stay exactly zero.  Each converged root
    has every mode pair with ``alpha_j < 0`` flipped; these sign
    representatives are deduplicated in start order and polished, and
    ``found`` is each one with its exact images under the sign flips of
    its active mode pairs and the beam swap, deduplicated once more.

    The starts come from ``random.Random(seed)``: block by block and row
    by row, each coordinate is ``-R + 2R u`` for the next ``u =
    rng.random()``.  ``seed`` is any nonnegative integer that
    ``operator.index`` accepts, NumPy integers included; a negative one
    raises :class:`ValidationError`.

    Convergence demands a max-abs residual below ``1e-11`` times the
    system scale.  Starts that stall are discarded (counted via
    ``converged_count``), and so are polished representatives whose
    full-rank Newton step exceeds ``DEDUP_RTOL`` times the box radius in
    max-abs.  Roots keep only modes with amplitude above ``1e-7``; more
    than three such modes would contradict the structure theory and
    raises :class:`VerificationError`.
    """
    if starts < 1:
        raise ValidationError(f"starts must be positive, got {starts}")
    seed = operator.index(seed)
    if seed < 0:  # Random(-n) would draw the stream of Random(n)
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    lams = spec.eigenvalues(n_modes)
    tol = NEWTON_TOL_FACTOR * newton_scale(p, spec, n_modes)
    radius = start_box_radius(p, spec)
    if not np.isfinite(radius):
        raise ValidationError(f"start box radius overflows at beta = {p.beta}, varrho = {p.varrho}")
    try:
        x0 = np.zeros((starts, 2 * n_modes))
    except ValueError as exc:  # more bytes than an array can address
        raise MemoryError(str(exc)) from None
    rng = random.Random(seed)
    proper = 2**n_modes - 2
    share = (starts // 2) // proper if proper else 0
    # the 2^N - 1 subsets are listed only when each proper one gets starts
    subsets = _mode_subsets(n_modes) if share else [tuple(range(1, n_modes + 1))]
    budgets = [share] * (len(subsets) - 1) + [starts - share * (len(subsets) - 1)]
    row = 0
    for subset, budget in zip(subsets, budgets):
        cols = _columns_for(subset, n_modes)
        # low + (high - low) * u on [-R, R), u the next rng.random() values, row-major
        size = budget * cols.size
        u = np.fromiter(map(random.Random.random, repeat(rng, size)), float, size)
        x0[row : row + budget, cols] = -radius + 2.0 * radius * u.reshape(budget, cols.size)
        row += budget
    roots, converged, _ = kernels.newton_batch(lams, p.beta, p.varrho, p.k, x0, tol)
    reps = roots[converged]
    reps *= np.tile(np.where(reps[:, :n_modes] < 0.0, -1.0, 1.0), 2)
    reps, settled = _accurate_polish(lams, p, _dedup_merge(reps, radius), radius)
    reps = reps[settled]
    # checked before the images are formed, 2^m of a root with m active modes
    active = _active_modes(reps)
    crowded = np.flatnonzero(active.sum(axis=1) > MAX_ACTIVE_MODES)
    if crowded.size:
        raise VerificationError(
            f"oracle root with {int(active[crowded[0]].sum())} active modes contradicts the "
            f"three-mode bound: {reps[crowded[0]].tolist()}"
        )
    known = _dedup_merge(_orbits(reps), radius)
    found = [
        ModalSolution({j + 1: (row[j], row[n_modes + j]) for j in np.flatnonzero(on)}, tag="oracle")
        for row, on in zip(known.tolist(), _active_modes(known))
    ]
    found.sort(key=solution_sort_key)
    return OracleResult(
        found=found,
        starts_used=starts,
        converged_count=int(converged.sum()),
        n_modes=n_modes,
        newton_tol=tol,
        box_radius=radius,
    )


def _supports(sols: list[ModalSolution]):
    """Each solution's active modes moved to the front in increasing
    ``n``: the zero-padded support ``(S, 3)`` and the coefficients
    ``alpha`` then ``gamma`` on it, ``(S, 6)``."""
    inv = Inventory.from_solutions(sols)
    active = inv.stored & ~((inv.alpha == 0.0) & (inv.gamma == 0.0))
    front = np.argsort(~active, axis=1, kind="stable")[:, :MAX_ACTIVE_MODES]
    n, alpha, gamma = (np.take_along_axis(x, front, axis=1) for x in (inv.n, inv.alpha, inv.gamma))
    return np.where(np.take_along_axis(active, front, axis=1), n, 0), np.hstack((alpha, gamma))


def _within(x, ref, tol: float):
    # not ``<=``: a NaN passes, as it fails no ``>`` test
    return ~(np.abs(x - ref) > tol * np.maximum(1.0, np.abs(ref)))


def match_against(
    closed: list[ModalSolution],
    families: list[EEFamily],
    oracle_found: list[ModalSolution],
    tol: float = MATCH_RTOL,
) -> MatchReport:
    """Classify every oracle root against the closed-form inventory, on
    the support and coefficient arrays of both lists.

    A root is *matched* when it has the support of an isolated closed-form
    solution, the first in ``closed`` order whose coefficients all agree to
    ``tol`` relative (the trivial root always matches), *on_family* when
    it has a family's support, its u-part sits on the family's quadric and
    its v-part follows the sign pattern, and *unmatched* otherwise.
    ``missed_closed`` lists isolated solutions no root landed on.
    """
    n, coeffs = _supports(oracle_found)
    closed_n, closed_coeffs = _supports(closed)
    hit = np.full(len(oracle_found), -1)
    for support in np.unique(closed_n[closed_n[:, 0] > 0], axis=0):
        rows = np.flatnonzero((n == support).all(axis=1))
        cols = np.flatnonzero((closed_n == support).all(axis=1))
        agree = _within(coeffs[rows, None], closed_coeffs[cols], tol).all(axis=2)
        hit[rows] = np.where(agree.any(axis=1), cols[agree.argmax(axis=1)], -1)
    on_family = np.zeros(len(oracle_found), dtype=bool)
    for fam in families:
        m = len(fam.modes)
        x, v = coeffs[:, :m], coeffs[:, MAX_ACTIVE_MODES : MAX_ACTIVE_MODES + m]
        quadric = fam.quadric_residual(x.T)
        on_family |= (
            (n == fam.modes + (0,) * (MAX_ACTIVE_MODES - m)).all(axis=1)
            & ~(np.abs(quadric) > tol * max(1.0, abs(fam.constant)))
            & _within(v, np.array(fam.sign_pattern) * x, tol).all(axis=1)
        )
    labels = np.select(
        [n[:, 0] == 0, hit >= 0, on_family], ["trivial", "isolated", "family"], "unmatched"
    ).tolist()
    unmatched = [sol for sol, label in zip(oracle_found, labels) if label == "unmatched"]
    missed = np.flatnonzero(~np.isin(np.arange(len(closed)), hit) & (closed_n[:, 0] > 0))
    matched = labels.count("trivial") + labels.count("isolated")
    return MatchReport(matched, labels.count("family"), unmatched, labels, [closed[i] for i in missed])
