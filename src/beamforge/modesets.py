"""Effective modes and the resonant index sets carrying EE families.

The compression threshold for mode ``n`` is its eigenvalue: ``n`` is
effective when ``lam_n < -beta``.  Two further thresholds
``mu_n = 2k/lam_n + lam_n`` and ``nu_n = 3k/lam_n + lam_n`` split the
effective set into the three bands that control how many unimodal
branches exist.  The band rule lives here and nowhere else: a compression
on, or within ``BOUNDARY_RTOL`` relative of, ``mu_n`` (or ``nu_n``) puts
mode ``n`` in the lower band, so near-coincident branches are never
reported twice.  The unimodal closed form, bands and amplitudes, is
evaluated in one place, :func:`_mode_states`, on a mode table: the rows
``lam``, ``mu`` and ``nu`` of a list of modes.

The resonance equalities depend on the spectrum and ``k`` only, never on
``beta``.  They are evaluated in one place, :func:`_resonance`, on the
eigenvalue columns of a list of pairs.  For the EE families one scan,
:func:`_ee_scan`, evaluates them once on the pairs of the effective
modes: it holds the pairs on B1 or B2, the triples their B2 pairs make
(:func:`trimodal_ee_triples`), and the one compression above which each
family exists.  ``enumerate_ee_families`` and the thresholds are views
of it, so a sweep over compressions collects the thresholds once
(:func:`ee_family_thresholds`) and counts the families at each
compression by bisection.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Params
from .errors import ValidationError, VerificationError
from .spectrum import Spectrum

BOUNDARY_RTOL = 1e-12

# The most effective modes a partition holds; past it, the input is
# rejected.  The pair scans are quadratic in the mode count: at this bound
# (`dirichlet`, `-beta` just past `lam_1000`) `sets` peaks at 281 MB RSS
# in 10-13 s, and `enumerate` at 695 MB in 12-14 s with 3,996,000
# records (fresh processes on a 2-vCPU Xeon).
MAX_EFFECTIVE_MODES = 1000


def mu_value(lam: float, k: float) -> float:
    return 2.0 * k / lam + lam


def nu_value(lam: float, k: float) -> float:
    return 3.0 * k / lam + lam


# the amplitude families each band carries
_FAMILIES = {"E1": (1,), "E2": (1, 2), "E3": (1, 2, 3, 4)}
# _CARRIED[code, i - 1]: band E<code> carries family i; code 0 is no band
_CARRIED = np.array([[i in _FAMILIES.get(f"E{code}", ()) for i in (1, 2, 3, 4)] for code in range(4)])


def _mode_table(lam, k: float) -> np.ndarray:
    """The mode table of eigenvalues ``lam``: rows ``lam``, ``mu``, ``nu``."""
    lam = np.array(lam, dtype=float)
    with np.errstate(over="ignore"):
        return np.array([lam, mu_value(lam, k), nu_value(lam, k)])


class _ModeStates(NamedTuple):
    """The closed form of a mode table at one ``beta``, shape ``(M,)``, or
    at ``G`` of them, ``(G, M)``, with a last axis for families 1-4."""

    band: np.ndarray  # an index of _CARRIED
    amplitude: np.ndarray  # raw positive amplitude, valid where -beta is at or above the family's own threshold
    carried: np.ndarray  # the families of the band
    reported: np.ndarray  # carried, or -beta exactly on the family's threshold


def _bands(table: np.ndarray, mb) -> np.ndarray:
    """The band of every mode of ``table`` at the compression ``mb =
    -beta``, an index of ``_CARRIED``, with the boundary collapse."""
    lam, mu, nu = table
    at_mu, at_nu = ((mb <= x) | _rel_eqs(mb, x, BOUNDARY_RTOL) for x in (mu, nu))
    return np.where(lam < mb, np.where(at_mu, 1, np.where(at_nu, 2, 3)), 0)


def _mode_states(table: np.ndarray, beta, varrho: float, k: float) -> _ModeStates:
    """The closed form of every mode of ``table`` at ``beta``, a float or
    a 1-d array.  The band takes the boundary collapse; each amplitude is
    gated on ``-beta`` against its own threshold without it, so
    boundary-degenerate values (zeros and coincident roots) stay in."""
    lam, mu, nu = table
    beta = np.asarray(beta, dtype=float)[..., None]
    mb = -beta
    band = _bands(table, mb)
    with np.errstate(all="ignore"):
        # radicand kept as a product of signed factors; both are negative
        # strictly inside E3, so the product is positive there.  Where it
        # overflows, its root is the product of the factors' roots
        below, above = beta + lam + mu - nu, beta + nu
        inner = below * above
        root = np.sqrt(np.maximum(inner, 0.0))
        overflow = ~np.isfinite(inner)
        if overflow.any():
            root[overflow] = (np.sqrt(-below) * np.sqrt(-above))[overflow]
        a3 = np.sqrt(((mb + mu - nu - lam) + root) / (2.0 * varrho * lam))
        # smaller root via the product of roots: a3^2 a4^2 = (k/(varrho lam^2))^2
        a4 = np.where(a3 > 0.0, k / (varrho * lam * lam * a3), 0.0)
        a1, a2 = (np.sqrt((mb - x) / (varrho * lam)) for x in (lam, mu))
    thresholds = np.stack([lam, mu, nu, nu], axis=-1)
    carried = _CARRIED[band]
    on_threshold = mb[..., None] == thresholds
    return _ModeStates(band, np.stack([a1, a2, a3, a4], -1), carried, carried | on_threshold)


@dataclass(frozen=True)
class ModeSetPartition:
    E: tuple[int, ...]
    E1: tuple[int, ...]
    E2: tuple[int, ...]
    E3: tuple[int, ...]
    n_star: int
    # effective modes exist above ``n_max`` (not part of ``describe``)
    truncated: bool = False

    def describe(self) -> dict:
        return {
            "E": list(self.E),
            "E1": list(self.E1),
            "E2": list(self.E2),
            "E3": list(self.E3),
            "n_star": self.n_star,
        }


def dirichlet_mode_count(beta: float) -> int:
    """Closed-form effective-mode count for the hinged-beam spectrum,
    ``ceil(sqrt(-beta/pi^2)) - 1``, valid for ``beta < 0``."""
    if beta >= 0.0:
        return 0
    # a subnormal -beta/pi^2 underflows to 0, where ceil() - 1 would be -1
    return max(0, math.ceil(math.sqrt(-beta / math.pi ** 2)) - 1)


def effective_modes(p: Params, spec: Spectrum) -> ModeSetPartition:
    """Partition ``{n <= n_max : lam_n < -beta}`` into the three bands.

    The scan stops at ``spec.n_max``; membership requires ``lam_n <
    -beta`` so the sets are finite regardless.  When the generator's
    ``lam_{n_max+1}`` is below ``-beta`` too (for an explicit spectrum:
    its list is longer than ``n_max``), effective modes were cut off and
    ``truncated`` is set.  More than ``MAX_EFFECTIVE_MODES`` effective
    modes raise :class:`ValidationError`, after at most one eigenvalue
    more is read.
    """
    mb = -p.beta
    # eigenvalues increase strictly, so E is 1..n*, read up to lam_{n*+1}
    # and past the bound no further
    reads = range(1, min(spec.n_max, MAX_EFFECTIVE_MODES + 1) + 1)
    lam = list(itertools.takewhile(lambda x: x < mb, map(spec.eigenvalue, reads)))
    if len(lam) > MAX_EFFECTIVE_MODES:
        raise ValidationError(
            f"more than {MAX_EFFECTIVE_MODES} effective modes at beta={p.beta!r} "
            f"(lam_{len(lam)} = {lam[-1]!r} < -beta), past the bound of {MAX_EFFECTIVE_MODES}; "
            f"lower the load or cap the modes with n_max <= {MAX_EFFECTIVE_MODES}"
        )
    E = tuple(range(1, len(lam) + 1))
    band = _bands(_mode_table(lam, p.k), float(mb))
    E1, E2, E3 = (tuple((np.flatnonzero(band == code) + 1).tolist()) for code in (1, 2, 3))
    past_cap = spec.eigenvalue_past_cap() if len(E) == spec.n_max else None
    truncated = past_cap is not None and past_cap < mb
    _check_mode_count(spec, p.beta, len(E))
    return ModeSetPartition(E, E1, E2, E3, len(E), truncated)


def _check_mode_count(spec: Spectrum, beta: float, n_star: int) -> None:
    """Cross-check ``n_star``, the effective-mode count at ``beta``, with
    the closed-form count of the Dirichlet spectrum."""
    if spec.generator == "dirichlet" and beta < 0.0 and n_star < spec.n_max:
        expected = dirichlet_mode_count(beta)
        if n_star == expected:
            return
        # skipped within roundoff of an eigenvalue boundary where ceil() is
        # unstable.  Eigenvalues increase strictly, so only lam_{n*} and
        # lam_{n*+1} can be that close to -beta.
        near = np.array([spec.eigenvalue(n) for n in (n_star, n_star + 1) if n >= 1])
        if not _rel_eqs(-beta, near, 1e-12).any():
            raise VerificationError(
                f"effective-mode count {n_star} disagrees with closed form {expected} at beta={beta}"
            )


def _rel_eqs(a, b, tol: float) -> np.ndarray:
    """``|a - b| <= tol * max(1, |a|, |b|)`` elementwise; an equality with
    a non-finite side is false, so an overflowed value equals nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        close = np.abs(a - b) <= tol * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))
    return np.isfinite(a) & np.isfinite(b) & close


def _resonance(lam1, lam2, k: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The beta-independent B1 and B2 equalities of the pairs with
    eigenvalues ``lam1 < lam2`` (arrays): ``lam1*lam2 == 2k`` and
    ``lam1*(lam2-lam1) == 2k`` within relative ``tol``."""
    with np.errstate(over="ignore"):
        return _rel_eqs(lam1 * lam2, 2.0 * k, tol), _rel_eqs(lam1 * (lam2 - lam1), 2.0 * k, tol)


def trimodal_ee_triples(lam: np.ndarray, n1: np.ndarray, n3: np.ndarray, tol: float) -> np.ndarray:
    """The triples ``n1 < n2 < n3`` made of the B2 pairs ``(n1, n3)``
    (index arrays, in lexicographic order): those whose pairs ``(n1, n3)``
    and ``(n2, n3)`` are both among them, as the columns of a ``(3, T)``
    array in lexicographic order; ``lam[n - 1]`` is ``lam_n``.  A member
    must also satisfy ``lam1 + lam2 == lam3``; one that does not raises
    :class:`VerificationError`."""
    # the B2 pairs by top mode; each pairs up with the later ones of its
    # top mode, the next `later` entries
    order = np.argsort(n3, kind="stable")
    low, top = n1[order], n3[order]
    later = np.searchsorted(top, top, "right") - np.arange(len(top)) - 1
    first = np.repeat(np.arange(len(top)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    triples = np.array([low[first], low[second], top[first]])
    triples = triples[:, np.lexsort(triples[::-1])]
    lam1, lam2, lam3 = lam[triples - 1]
    with np.errstate(over="ignore"):
        bad = ~_rel_eqs(lam1 + lam2, lam3, tol)
    if bad.any():
        # the first one a scan by (n1, n3, n2) meets
        n1, n3, n2 = min(zip(*triples[:, bad][[0, 2, 1]].tolist()))
        raise VerificationError(
            f"triple {(n1, n2, n3)} passes the membership equalities but violates lam1 + lam2 == lam3"
        )
    return triples


def _pairs_of(n_star: int) -> np.ndarray:
    """The pairs ``n1 < n2`` of ``E = (1..n_star)`` in lexicographic
    order, the columns of a ``(2, P)`` array."""
    return np.array(np.triu_indices(n_star, 1)) + 1


class _EEScan(NamedTuple):
    """The pairs and triples of effective modes that carry EE families,
    each with the compression above which its family exists."""

    pairs: np.ndarray  # (2, P): the pairs n1 < n2 on B1 or B2, in lexicographic order
    on_b1: np.ndarray  # the pair is on B1
    sums: np.ndarray  # lam1 + lam2
    thresholds: np.ndarray  # lam2 on B2, else lam1 + lam2
    triples: np.ndarray  # (3, T): the member triples n1 < n2 < n3, in lexicographic order
    lam3: np.ndarray  # the triple's threshold


def _ee_scan(p: Params, spec: Spectrum, tol: float) -> _EEScan:
    """The EE equalities of every pair of effective modes at ``p``,
    evaluated once: the pairs on B1 or B2, and the triples their B2
    pairs make.  A family exists exactly when its threshold is strictly
    below ``-beta``; a pair on both equalities is a member once ``lam2 <
    -beta``."""
    lam = spec.eigenvalues(effective_modes(p, spec).n_star)
    n1, n2 = _pairs_of(len(lam))
    on_b1, on_b2 = _resonance(lam[n1 - 1], lam[n2 - 1], p.k, tol)
    on = on_b1 | on_b2
    n1, n2, on_b1, on_b2 = n1[on], n2[on], on_b1[on], on_b2[on]
    lam1, lam2 = lam[n1 - 1], lam[n2 - 1]
    with np.errstate(over="ignore"):
        sums = lam1 + lam2
    triples = trimodal_ee_triples(lam, n1[on_b2], n2[on_b2], tol)
    return _EEScan(np.array([n1, n2]), on_b1, sums, np.where(on_b2, lam2, sums), triples, lam[triples[2] - 1])


def ee_family_thresholds(p: Params, spec: Spectrum, tol: float = 1e-9) -> np.ndarray:
    """Sorted compressions above which each EE family exists, for every
    family whose modes are effective at ``p``: the thresholds of the EE
    scan, so :func:`count_ee_families` equals the length of
    ``enumerate_ee_families`` at any ``beta >= p.beta``."""
    scan = _ee_scan(p, spec, tol)
    return np.sort(np.concatenate([scan.thresholds, scan.lam3]))


def count_ee_families(thresholds: np.ndarray, beta: float) -> int:
    """The number of EE families at ``beta``, from the thresholds of
    :func:`ee_family_thresholds` built at a compression ``>= -beta``."""
    return int(np.searchsorted(thresholds, -beta, "left"))
