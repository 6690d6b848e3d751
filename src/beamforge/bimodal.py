"""Isolated bimodal solutions with unevenly distributed energy.

For a mode pair ``(n1, n2)`` the v/u coefficient ratios on each mode are
roots of unit-product quadratics derived from

    zeta = lam2 / lam1,    sigma = (k - lam1*lam2) / k,
    Phi = ((zeta+1) + (zeta-1) sigma^2) / (sigma zeta),
    Psi = ((zeta+1) - (zeta-1) sigma^2) / sigma.

``X, Y`` are the roots of ``q^2 - Phi q + 1 = 0`` (``X`` on the ``+sqrt``
branch) and ``W, Z`` the roots of ``q^2 - Psi q + 1 = 0``.  The axial
tensions of a solution are then pinned to

    f = (k X - lam1^2 - k) / lam1 = (k W - lam2^2 - k) / lam2,
    g = (k Y - lam1^2 - k) / lam1 = (k Z - lam2^2 - k) / lam2,

and the u-amplitudes ``(r, t)`` solve one of two circle-ellipse systems.
Solvability is gated by the thresholds ``m_small`` and ``m_big``:
four sign-symmetric roots exist per system exactly when

* ``lam1*lam2 in (k, 2k)``      and ``m_small < -beta < m_big``, or
* ``lam1*(lam2-lam1) > 2k``     and ``m_big < -beta``.

The equality seams ``lam1*lam2 == 2k`` and ``lam1*(lam2-lam1) == 2k``
collapse ``X == Y``; there the solutions merge into the EE continua of
:mod:`beamforge.ee_families`, and :func:`pair_branches` gives no rows.

Everything above except the window test and ``(r, t)`` is independent
of ``beta``: the invariants and the seam flag are memoized per
``(spectrum, k, varrho, pair)``.  :func:`pair_branches` turns one pair
into its branch rows; the solution list and the sweep's pair rows read
them.  A compression sweep counts solutions from a :class:`PairTable`
instead: the window kind, the window thresholds and the beta-free terms
of ``F, G -> r^2, s^2`` of every pair, built once per sweep, so that
:func:`count_general_bimodal` takes each compression's count in one
array pass.  It evaluates the window test, ``F, G -> r^2, s^2`` and the
positivity test with the same float expressions as the scalar path, so
the two agree bit for bit, also within a few ulps of a window edge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Inventory, ModalSolution, Params
from .modesets import PAIR_CACHE_SIZE, _partition, _rel_eq
from .spectrum import Spectrum

SEAM_RTOL = 1e-12
# one shared tag string per kind, not one per solution
_TAGS = {"XW": "general-bimodal(XW)", "YZ": "general-bimodal(YZ)"}


@dataclass(frozen=True)
class BimodalInvariants:
    pair: tuple[int, int]
    lam1: float
    lam2: float
    zeta: float
    sigma: float
    Phi: float
    Psi: float
    X: float
    Y: float
    W: float
    Z: float
    f: float
    g: float
    m_small: float
    m_big: float
    nu_shift: float  # k (X - Y) / (varrho lam1^2), the circle/ellipse offset


def _unit_product_roots(s: float) -> tuple[float, float] | None:
    """Real roots of ``q^2 - s q + 1 = 0`` as (plus-branch, minus-branch).

    The larger-magnitude root is computed first and its partner recovered
    via the unit product, avoiding cancellation; a discriminant within
    ``-1e-12`` of zero (relative) is clamped to zero.
    """
    disc = s * s - 4.0
    if disc < 0.0:
        if disc > -1e-12 * max(1.0, s * s):
            disc = 0.0
        else:
            return None
    root = math.sqrt(disc)
    if s >= 0.0:
        big = 0.5 * (s + root)
        return big, 1.0 / big
    big = 0.5 * (s - root)
    return 1.0 / big, big


def compute_invariants(p: Params, spec: Spectrum, pair: tuple[int, int]) -> BimodalInvariants | None:
    """Derived algebra for a mode pair, or ``None`` when it cannot carry
    real coefficient ratios (product in ``(0, k)`` without the gap
    alternative, or the degenerate ``lam1*lam2 == k``)."""
    return _pair_algebra(spec, p.k, p.varrho, tuple(pair))[0]


@functools.lru_cache(maxsize=PAIR_CACHE_SIZE, typed=True)
def _pair_algebra(
    spec: Spectrum, k: float, varrho: float, pair: tuple[int, int]
) -> tuple[BimodalInvariants | None, bool]:
    """The beta-independent part of a pair: its invariants and whether
    it sits on an EE seam."""
    n1, n2 = pair
    if not n1 < n2:
        raise ValueError("pair must be strictly increasing")
    lam1 = spec.eigenvalue(n1)
    lam2 = spec.eigenvalue(n2)
    prod = lam1 * lam2
    gap = lam1 * (lam2 - lam1)
    if _rel_eq(prod, k, SEAM_RTOL):
        return None, False
    if not (0.0 < prod <= 2.0 * k or gap >= 2.0 * k):
        return None, False
    zeta = lam2 / lam1
    sigma = (k - prod) / k
    Phi = ((zeta + 1.0) + (zeta - 1.0) * sigma * sigma) / (sigma * zeta)
    Psi = ((zeta + 1.0) - (zeta - 1.0) * sigma * sigma) / sigma
    xy = _unit_product_roots(Phi)
    wz = _unit_product_roots(Psi)
    if xy is None or wz is None:
        return None, False
    X, Y = xy
    W, Z = wz
    f = (k * X - lam1 * lam1 - k) / lam1
    g = (k * Y - lam1 * lam1 - k) / lam1
    m_small = (k * k + k * lam2 * (lam2 - lam1) + prod * prod) / ((prod - k) * lam2)
    m_big = (k * k - k * lam1 * (lam2 - lam1) + prod * prod) / ((prod - k) * lam1)
    nu_shift = k * (X - Y) / (varrho * lam1 * lam1)
    inv = BimodalInvariants(
        (n1, n2), lam1, lam2, zeta, sigma, Phi, Psi, X, Y, W, Z, f, g, m_small, m_big, nu_shift
    )
    return inv, _rel_eq(prod, 2.0 * k, SEAM_RTOL) or _rel_eq(gap, 2.0 * k, SEAM_RTOL)


def _window(inv: BimodalInvariants, k: float) -> str | None:
    """The window a pair can open: ``"B1*"`` (product window),
    ``"B2*"`` (gap window) or ``None``, whatever ``beta``."""
    prod = inv.lam1 * inv.lam2
    gap = inv.lam1 * (inv.lam2 - inv.lam1)
    if k < prod < 2.0 * k:
        return "B1*"
    if gap > 2.0 * k:
        return "B2*"
    return None


def _solvable(inv: BimodalInvariants, p: Params) -> str | None:
    """The open solvability window: ``"B1*"`` (product window),
    ``"B2*"`` (gap window) or ``None`` when closed."""
    window = _window(inv, p.k)
    mb = -p.beta
    if window == "B1*":
        return window if inv.m_small < mb < inv.m_big else None
    if window == "B2*":
        return window if inv.m_big < mb else None
    return None


def _circle_ellipse_roots(inv: BimodalInvariants, p: Params):
    """The positive root ``(r, t)`` of SIS1 and of SIS2 inside an open
    window, whose sign flips give the other three: the only
    beta-dependent step, ``F, G -> r^2, s^2``."""
    scale = p.varrho * inv.lam1
    F = (inv.f - p.beta) / scale
    G = (inv.g - p.beta) / scale
    X2, Y2, W2, Z2 = inv.X * inv.X, inv.Y * inv.Y, inv.W * inv.W, inv.Z * inv.Z
    return (
        _positive_root((W2 * F - G) / (W2 - X2), (G - X2 * F) / (W2 - X2), inv.zeta),
        _positive_root((Z2 * G - F) / (Z2 - Y2), (F - Y2 * G) / (Z2 - Y2), inv.zeta),
    )


def _positive_root(r2: float, s2: float, zeta: float) -> tuple[float, float] | None:
    if not (r2 > 0.0 and s2 > 0.0):
        # only reachable by roundoff within a few ulps of the window edge
        return None
    return math.sqrt(r2), math.sqrt(s2 / zeta)


def pair_branches(
    p: Params, spec: Spectrum, pair: tuple[int, int]
) -> list[tuple[str, tuple[float, float], tuple[float, float]]]:
    """The isolated states of one pair as ``(kind, (a1, g1), (a2, g2))``
    rows: four of kind ``"XW"`` (v-ratios ``X, W``) then four of kind
    ``"YZ"``, or none when the pair has no invariants, sits on an EE
    seam or its window is closed.  Every per-pair consumer reads these
    rows."""
    inv, on_seam = _pair_algebra(spec, p.k, p.varrho, tuple(pair))
    if inv is None or on_seam or _solvable(inv, p) is None:
        return []
    sis1, sis2 = _circle_ellipse_roots(inv, p)
    rows = []
    for kind, root, x, w in (("XW", sis1, inv.X, inv.W), ("YZ", sis2, inv.Y, inv.Z)):
        if root is not None:
            r, t = root
            plus1, minus1 = (r, r * x), (-r, -r * x)
            plus2, minus2 = (t, t * w), (-t, -t * w)
            rows += [(kind, plus1, plus2), (kind, plus1, minus2), (kind, minus1, plus2), (kind, minus1, minus2)]
    return rows


def _pairs_of(E: tuple[int, ...]):
    return ((n1, n2) for i, n1 in enumerate(E) for n2 in E[i + 1 :])


def bstar_pairs(p: Params, spec: Spectrum) -> list[tuple[tuple[int, int], str]]:
    """All pairs carrying isolated non-EE bimodal solutions.  The scan is
    capped at ``n_star`` since such pairs are always effective."""
    out = []
    for pair in _pairs_of(_partition(spec, p.beta, p.k).E):
        inv, on_seam = _pair_algebra(spec, p.k, p.varrho, pair)
        kind = None if inv is None or on_seam else _solvable(inv, p)
        if kind is not None:
            out.append((pair, kind))
    return out


def general_bimodal_inventory(
    p: Params, spec: Spectrum, pairs: list[tuple[int, int]] | None = None
) -> Inventory:
    """All isolated bimodal solutions of unevenly distributed energy:
    eight per qualifying pair, four with v-ratios ``(X, W)`` and four
    with ``(Y, Z)``."""
    if pairs is None:
        pairs = _pairs_of(_partition(spec, p.beta, p.k).E)
    rows, tags = [], []
    for n1, n2 in pairs:
        for kind, (a1, g1), (a2, g2) in pair_branches(p, spec, (n1, n2)):
            rows.append(((n1, a1, g1), (n2, a2, g2)))
            tags.append(_TAGS[kind])
    return Inventory.from_rows(rows, tags)


def enumerate_general_bimodal(
    p: Params, spec: Spectrum, pairs: list[tuple[int, int]] | None = None
) -> list[ModalSolution]:
    """:func:`general_bimodal_inventory` as solution objects."""
    return general_bimodal_inventory(p, spec, pairs).solutions()


# window codes of a PairTable column
_WINDOW_CODES = {None: 0, "B1*": 1, "B2*": 2}
# the columns of a pair without an open-able window: finite, and no
# denominator of count_general_bimodal is zero
_CLOSED_COLUMNS = (0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0)


class PairTable(NamedTuple):
    """The beta-independent count data of every pair ``n1 < n2 <= n_top``,
    one column per pair ordered by ``(n2, n1)``, so the pairs of
    ``E = (1..n*)`` are the first ``n*(n*-1)/2`` columns."""

    window: np.ndarray  # 1 B1*, 2 B2*, 0 no invariants, EE seam or no window
    m_small: np.ndarray
    m_big: np.ndarray
    f: np.ndarray
    g: np.ndarray
    scale: np.ndarray  # varrho * lam1
    X2: np.ndarray
    Y2: np.ndarray
    W2: np.ndarray
    Z2: np.ndarray


def pair_table(p: Params, spec: Spectrum, n_top: int) -> PairTable:
    """The :class:`PairTable` of the pairs up to mode ``n_top`` at the
    ``k`` and ``varrho`` of ``p`` (its ``beta`` is not read)."""
    windows, columns = [], []
    for n2 in range(2, n_top + 1):
        for n1 in range(1, n2):
            inv, on_seam = _pair_algebra(spec, p.k, p.varrho, (n1, n2))
            window = None if inv is None or on_seam else _window(inv, p.k)
            windows.append(_WINDOW_CODES[window])
            columns.append(
                _CLOSED_COLUMNS
                if window is None
                else (
                    inv.m_small, inv.m_big, inv.f, inv.g, p.varrho * inv.lam1,
                    inv.X * inv.X, inv.Y * inv.Y, inv.W * inv.W, inv.Z * inv.Z,
                )
            )
    values = np.array(columns, dtype=float).reshape(-1, len(_CLOSED_COLUMNS)).T
    return PairTable(np.array(windows, dtype=np.int8), *values)


def count_general_bimodal(table: PairTable, beta: float, n_star: int) -> int:
    """``len(enumerate_general_bimodal(p, spec))`` at compression
    ``-beta``, whose effective modes are ``1..n_star``, read from a
    table built for ``n_top >= n_star`` at the same ``k`` and ``varrho``.

    Elementwise it repeats :func:`_solvable`'s window test, then
    :func:`_circle_ellipse_roots` and :func:`_positive_root`'s sign test
    with the same float operations in the same order, so each pair's
    verdict is the scalar path's."""
    m = n_star * (n_star - 1) // 2
    window, m_small, m_big = table.window[:m], table.m_small[:m], table.m_big[:m]
    X2, Y2, W2, Z2 = table.X2[:m], table.Y2[:m], table.W2[:m], table.Z2[:m]
    mb = -beta
    is_open = ((window == _WINDOW_CODES["B1*"]) & (m_small < mb) & (mb < m_big)) | (
        (window == _WINDOW_CODES["B2*"]) & (m_big < mb)
    )
    F = (table.f[:m] - beta) / table.scale[:m]
    G = (table.g[:m] - beta) / table.scale[:m]
    sis1 = ((W2 * F - G) / (W2 - X2) > 0.0) & ((G - X2 * F) / (W2 - X2) > 0.0)
    sis2 = ((Z2 * G - F) / (Z2 - Y2) > 0.0) & ((F - Y2 * G) / (Z2 - Y2) > 0.0)
    return 4 * int(np.count_nonzero(is_open & sis1)) + 4 * int(np.count_nonzero(is_open & sis2))
