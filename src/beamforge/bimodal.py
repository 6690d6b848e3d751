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
:mod:`beamforge.ee_families`, and :func:`branch_rows` gives the pair no
rows.

Everything above except the window test and ``(r, t)`` is independent
of ``beta``: the invariants, the seam flag and the window kind of a list
of pairs are evaluated once, on arrays, one column per pair
(:func:`_invariants`, gathered in a :class:`PairTable`).  One array
evaluation of a table at a ``beta`` takes the window test,
``F, G -> r^2, s^2`` and the positivity test of every pair; the solution
inventory, :func:`branch_rows` (the sweep's pair rows),
:func:`bstar_pairs` and :func:`count_general_bimodal` all read it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import MAX_ACTIVE_MODES, Inventory, ModalSolution, Params
from .modesets import _pairs_of, _rel_eqs, _resonance, effective_modes
from .spectrum import Spectrum

SEAM_RTOL = 1e-12
# the kinds of state, by the v-ratios of SIS1 and of SIS2, and one
# shared tag string per kind, not one per solution
_KINDS = ("XW", "YZ")
_TAGS = tuple(f"general-bimodal({kind})" for kind in _KINDS)
# the windows, by their PairTable code
_WINDOWS = (None, "B1*", "B2*")


def _invariants(lam1, lam2, k: float) -> tuple[dict, np.ndarray, np.ndarray]:
    """The beta-independent algebra of the pairs with eigenvalues
    ``lam1 < lam2`` (arrays): the columns ``lam1, lam2, zeta, sigma,
    Phi, Psi, X, Y, W, Z, f, g, m_small, m_big``; the mask of the pairs
    that have invariants, which can carry real coefficient ratios (not a
    product in ``(0, k)`` without the gap alternative, nor the degenerate
    ``lam1*lam2 == k``); and the window each pair can open whatever
    ``beta``, as a :class:`PairTable` code.  Outside the mask
    the columns hold whatever the float operations gave."""
    with np.errstate(all="ignore"):
        prod = lam1 * lam2
        gap = lam1 * (lam2 - lam1)
        has = ~_rel_eqs(prod, k, SEAM_RTOL) & (((0.0 < prod) & (prod <= 2.0 * k)) | (gap >= 2.0 * k))
        zeta = lam2 / lam1
        sigma = (k - prod) / k
        Phi = ((zeta + 1.0) + (zeta - 1.0) * sigma * sigma) / (sigma * zeta)
        Psi = ((zeta + 1.0) - (zeta - 1.0) * sigma * sigma) / sigma
        X, Y, real_xy = _ratio_roots(Phi)
        W, Z, real_wz = _ratio_roots(Psi)
        f = (k * X - lam1 * lam1 - k) / lam1
        g = (k * Y - lam1 * lam1 - k) / lam1
        m_small = (k * k + k * lam2 * (lam2 - lam1) + prod * prod) / ((prod - k) * lam2)
        m_big = (k * k - k * lam1 * (lam2 - lam1) + prod * prod) / ((prod - k) * lam1)
        window = np.where((k < prod) & (prod < 2.0 * k), 1, np.where(gap > 2.0 * k, 2, 0))
    columns = dict(
        lam1=lam1, lam2=lam2, zeta=zeta, sigma=sigma, Phi=Phi, Psi=Psi, X=X, Y=Y, W=W, Z=Z, f=f, g=g,
        m_small=m_small, m_big=m_big,
    )
    has &= real_xy & real_wz
    on_seam = np.logical_or(*_resonance(lam1, lam2, k, SEAM_RTOL))
    return columns, has, np.where(has & ~on_seam, window, 0)


def _ratio_roots(s):
    """The roots of ``q^2 - s q + 1 = 0`` for each entry of ``s`` as
    (plus-branch, minus-branch, real).

    The larger-magnitude root is computed first and its partner recovered
    via the unit product, avoiding cancellation; a discriminant within
    ``-1e-12`` of zero (relative) is clamped to zero.
    """
    disc = s * s - 4.0
    clamped = (disc < 0.0) & (disc > -1e-12 * np.maximum(1.0, s * s))
    root = np.sqrt(np.where(clamped, 0.0, disc))
    up = s >= 0.0
    big = np.where(up, 0.5 * (s + root), 0.5 * (s - root))
    return np.where(up, big, 1.0 / big), np.where(up, 1.0 / big, big), ~(disc < 0.0) | clamped


# the columns zeta, m_small, m_big, f, g, scale, X, Y, W, Z of a pair
# that opens no window: finite, so that no denominator is zero
_CLOSED_COLUMNS = (1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0)
# the signs of (r, t) in the four rows of one system: ++, +-, -+, --
_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


class PairTable(NamedTuple):
    """The beta-independent data of a list of pairs, one column per pair."""

    window: np.ndarray  # 1 B1*, 2 B2*, 0 no invariants, EE seam or no window
    n1: np.ndarray
    n2: np.ndarray
    zeta: np.ndarray
    m_small: np.ndarray
    m_big: np.ndarray
    f: np.ndarray
    g: np.ndarray
    scale: np.ndarray  # varrho * lam1
    X: np.ndarray
    Y: np.ndarray
    W: np.ndarray
    Z: np.ndarray
    X2: np.ndarray
    Y2: np.ndarray
    W2: np.ndarray
    Z2: np.ndarray


def _pair_table(p: Params, spec: Spectrum, pairs) -> PairTable:
    """The :class:`PairTable` of ``pairs``, a list of pairs or a ``(P, 2)``
    array, in their order, at the ``k`` and ``varrho`` of ``p`` (its
    ``beta`` is not read)."""
    n1, n2 = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    if np.any(n1 >= n2):
        raise ValueError("pair must be strictly increasing")
    modes, index = np.unique(np.concatenate([n1, n2]), return_inverse=True)
    lam1, lam2 = np.array([spec.eigenvalue(n) for n in modes.tolist()], dtype=float)[index].reshape(2, -1)
    columns, _, window = _invariants(lam1, lam2, p.k)
    columns["scale"] = p.varrho * lam1
    values = [
        np.where(window > 0, columns[name], closed)
        for name, closed in zip(PairTable._fields[3:13], _CLOSED_COLUMNS)
    ]
    X, Y, W, Z = values[-4:]
    return PairTable(window.astype(np.int8), n1, n2, *values, X * X, Y * Y, W * W, Z * Z)


def pair_table(p: Params, spec: Spectrum, n_top: int) -> PairTable:
    """The :class:`PairTable` of the pairs ``n1 < n2 <= n_top`` ordered by
    ``(n2, n1)``, so the pairs of ``E = (1..n*)`` are the first
    ``n*(n*-1)/2`` columns."""
    n2, n1 = np.tril_indices(n_top, -1)
    return _pair_table(p, spec, np.stack([n1 + 1, n2 + 1], axis=1))


def _circle_ellipse(table: PairTable, beta: float):
    """The closed form of every pair of ``table`` at ``beta``: the
    open-window mask, ``r^2`` and ``s^2`` of SIS1 and of SIS2, and per
    system the mask of the pairs whose window is open and whose ``r^2``
    and ``s^2`` are positive, so that ``(sqrt(r^2), sqrt(s^2 / zeta))``
    is its root ``(r, t)``."""
    window, m_small, m_big = table.window, table.m_small, table.m_big
    X2, Y2, W2, Z2 = table.X2, table.Y2, table.W2, table.Z2
    mb = -beta
    is_open = ((window == 1) & (m_small < mb) & (mb < m_big)) | ((window == 2) & (m_big < mb))
    # at extreme parameters these overflow or cancel to NaN; the
    # positivity masks reject a NaN, and the emitter rejects an inf root
    with np.errstate(all="ignore"):
        F = (table.f - beta) / table.scale
        G = (table.g - beta) / table.scale
        r2 = ((W2 * F - G) / (W2 - X2), (Z2 * G - F) / (Z2 - Y2))
        s2 = ((G - X2 * F) / (W2 - X2), (F - Y2 * G) / (Z2 - Y2))
    # inside an open window a square is nonpositive only by roundoff,
    # within a few ulps of its edge
    return is_open, r2, s2, [is_open & (r > 0.0) & (s > 0.0) for r, s in zip(r2, s2)]


def _branches(table: PairTable, beta: float):
    """The isolated states of the pairs of ``table`` at ``beta``, one row
    per state in arrays ``n, kind, alpha, gamma`` (``kind`` indexes
    ``_KINDS``, the others hold modes ``n1, n2``): per pair, in column
    order, the four of SIS1 then those of SIS2, each four with the signs
    of ``(r, t)`` in the order ``++, +-, -+, --``."""
    _, r2, s2, positive = _circle_ellipse(table, beta)
    col, kind = np.nonzero(np.stack(positive, axis=1))
    r = np.sqrt(np.stack(r2, axis=1)[col, kind])
    t = np.sqrt(np.stack(s2, axis=1)[col, kind] / table.zeta[col])
    ratios = np.stack([table.X, table.W, table.Y, table.Z], axis=1).reshape(-1, 2, 2)[col, kind]
    alpha = np.stack([r, t], axis=1)[:, None] * _SIGNS
    gamma = alpha * ratios[:, None]
    n = np.stack([table.n1, table.n2], axis=1)[col]
    return np.repeat(n, 4, axis=0), np.repeat(kind, 4), alpha.reshape(-1, 2), gamma.reshape(-1, 2)


def branch_rows(table: PairTable, beta: float) -> list:
    """The isolated states of the pairs of ``table`` at ``beta`` as
    ``((n1, n2), kind, (a1, g1), (a2, g2))`` rows, in inventory order."""
    return [
        ((n1, n2), _KINDS[i], (a1, g1), (a2, g2))
        for (n1, n2), i, (a1, a2), (g1, g2) in zip(*(x.tolist() for x in _branches(table, beta)))
    ]


def bstar_pairs(p: Params, spec: Spectrum) -> list[tuple[tuple[int, int], str]]:
    """All pairs carrying isolated non-EE bimodal solutions.  The scan is
    capped at ``n_star`` since such pairs are always effective."""
    table = _pair_table(p, spec, _pairs_of(effective_modes(p, spec).n_star).T)
    is_open = _circle_ellipse(table, p.beta)[0]
    n1, n2, window = (column[is_open].tolist() for column in (table.n1, table.n2, table.window))
    return [(pair, _WINDOWS[code]) for pair, code in zip(zip(n1, n2), window)]


def general_bimodal_inventory(
    p: Params, spec: Spectrum, pairs: list[tuple[int, int]] | None = None
) -> Inventory:
    """All isolated bimodal solutions of unevenly distributed energy:
    eight per qualifying pair, four with v-ratios ``(X, W)`` and four
    with ``(Y, Z)``, the pairs of ``E`` in lexicographic order or
    ``pairs`` in theirs."""
    if pairs is None:
        pairs = _pairs_of(effective_modes(p, spec).n_star).T
    n, kind, alpha, gamma = _branches(_pair_table(p, spec, pairs), p.beta)
    n, alpha, gamma = (np.pad(x, ((0, 0), (0, MAX_ACTIVE_MODES - 2))) for x in (n, alpha, gamma))
    return Inventory(n, alpha, gamma, np.full(len(n), 2, dtype=np.int64), [_TAGS[i] for i in kind.tolist()])


def enumerate_general_bimodal(
    p: Params, spec: Spectrum, pairs: list[tuple[int, int]] | None = None
) -> list[ModalSolution]:
    """:func:`general_bimodal_inventory` as solution objects."""
    return general_bimodal_inventory(p, spec, pairs).solutions()


def count_general_bimodal(table: PairTable, beta: float, n_star: int) -> int:
    """``len(enumerate_general_bimodal(p, spec))`` at compression
    ``-beta``, whose effective modes are ``1..n_star``, read from a
    :func:`pair_table` built for ``n_top >= n_star`` at the same ``k``
    and ``varrho``: its masks counted, no root taken."""
    m = n_star * (n_star - 1) // 2
    positive = _circle_ellipse(PairTable(*(column[:m] for column in table)), beta)[3]
    return 4 * sum(int(np.count_nonzero(mask)) for mask in positive)
