"""Scalar reference of the pair algebra, and the scalar helpers that
only the tests use.

The reference: the resonance equalities, the EE pair and triple
memberships, the bimodal invariants (a :class:`BimodalInvariants` per
pair) and the window kind, one pair at a time, with Python floats.  The
program evaluates the same float expressions on arrays, in
``modesets._resonance`` and ``bimodal._invariants``; the tests hold it to
this reference bit for bit, and read the program's invariants of one
pair through :func:`program_invariants` and its EE pairs and triples
through :func:`program_ee`.  The relative comparison and
``2.0 * k`` are written out here rather than imported, so that a change
to the program's arithmetic cannot move the reference with it.

The helpers: :func:`required_k` inverts the resonance equalities,
:func:`trimodal_candidates` lists the triples of a spectrum that some
``k`` makes resonant, and :func:`is_ee` tests a solution for
equidistributed energy.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from beamforge import ValidationError, axial_coefficients, enumerate_ee_families
from beamforge.bimodal import SEAM_RTOL, _invariants
from beamforge.errors import VerificationError


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


def _rel_eq(a, b, tol):
    # an equality with a non-finite side is false
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _pair_resonance(spec, k, tol, pair):
    """The beta-independent B1 and B2 equalities of a pair:
    ``lam1*lam2 == 2k`` and ``lam1*(lam2-lam1) == 2k``."""
    n1, n2 = pair
    lam1 = spec.eigenvalue(n1)
    lam2 = spec.eigenvalue(n2)
    return _rel_eq(lam1 * lam2, 2.0 * k, tol), _rel_eq(lam1 * (lam2 - lam1), 2.0 * k, tol)


def ee_bimodal_membership(p, spec, pair, tol=1e-9):
    """``"B1"``, ``"B2"`` or ``None``: B1 requires ``lam1*lam2 == 2k`` and
    ``lam1+lam2 < -beta``, B2 ``lam1*(lam2-lam1) == 2k`` and ``lam2 < -beta``."""
    n1, n2 = pair
    if not n1 < n2:
        raise ValueError("pair must be strictly increasing")
    on_b1, on_b2 = _pair_resonance(spec, p.k, tol, (n1, n2))
    if not (on_b1 or on_b2):
        return None
    lam1 = spec.eigenvalue(n1)
    lam2 = spec.eigenvalue(n2)
    mb = -p.beta
    if on_b1 and lam1 + lam2 < mb:
        return "B1"
    if on_b2 and lam2 < mb:
        return "B2"
    return None


def ee_trimodal_membership(p, spec, triple, tol=1e-9):
    """True when ``lam3 < -beta`` and ``lam1*(lam3-lam1) == lam2*(lam3-lam2) == 2k``;
    a member that violates ``lam1 + lam2 == lam3`` raises."""
    n1, n2, n3 = triple
    if not n1 < n2 < n3:
        raise ValueError("triple must be strictly increasing")
    lam1 = spec.eigenvalue(n1)
    lam2 = spec.eigenvalue(n2)
    lam3 = spec.eigenvalue(n3)
    if not lam3 < -p.beta:
        return False
    two_k = 2.0 * p.k
    ok = _rel_eq(lam1 * (lam3 - lam1), two_k, tol) and _rel_eq(lam2 * (lam3 - lam2), two_k, tol)
    if ok and not _rel_eq(lam1 + lam2, lam3, tol):
        raise VerificationError(
            f"triple {triple} passes the membership equalities but violates lam1 + lam2 == lam3"
        )
    return ok


def bimodal_ee_pairs(p, spec, E, tol=1e-9):
    """The B1/B2 pairs of ``E`` in lexicographic order, as (pair, kind)."""
    out = []
    for pair in itertools.combinations(E, 2):
        kind = ee_bimodal_membership(p, spec, pair, tol)
        if kind is not None:
            out.append((pair, kind))
    return out


def trimodal_ee_triples(p, spec, E, tol=1e-9):
    """The member triples of ``E`` in lexicographic order, by brute force."""
    return [t for t in itertools.combinations(E, 3) if ee_trimodal_membership(p, spec, t, tol)]


def ee_family_thresholds(p, spec, E, tol=1e-9):
    """``lam2`` for each B2 pair of ``E``, else ``lam1 + lam2`` for a B1
    pair, and ``lam3`` for each triple, sorted."""
    out = []
    for n1, n2 in itertools.combinations(E, 2):
        on_b1, on_b2 = _pair_resonance(spec, p.k, tol, (n1, n2))
        if on_b2:
            out.append(spec.eigenvalue(n2))
        elif on_b1:
            out.append(spec.eigenvalue(n1) + spec.eigenvalue(n2))
    out += [spec.eigenvalue(n3) for _, _, n3 in trimodal_ee_triples(p, spec, E, tol)]
    return sorted(out)


def _unit_product_roots(s):
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


def _pair_algebra(spec, k, pair):
    """The beta-independent part of a pair: its invariants, or ``None``,
    and whether it sits on an EE seam."""
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
    inv = BimodalInvariants((n1, n2), lam1, lam2, zeta, sigma, Phi, Psi, X, Y, W, Z, f, g, m_small, m_big)
    return inv, _rel_eq(prod, 2.0 * k, SEAM_RTOL) or _rel_eq(gap, 2.0 * k, SEAM_RTOL)


def _window(inv, k):
    """The window a pair can open: ``"B1*"`` (product window),
    ``"B2*"`` (gap window) or ``None``, whatever ``beta``."""
    prod = inv.lam1 * inv.lam2
    gap = inv.lam1 * (inv.lam2 - inv.lam1)
    if k < prod < 2.0 * k:
        return "B1*"
    if gap > 2.0 * k:
        return "B2*"
    return None


# the columns window, zeta, m_small, m_big, f, g, scale, X, Y, W, Z of a
# pair that opens no window
CLOSED_COLUMNS = (0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0)


def pair_table_columns(p, spec, pairs):
    """Per pair, its ``PairTable`` columns ``window, zeta, m_small, m_big,
    f, g, scale, X, Y, W, Z`` (window 1 for B1*, 2 for B2*, 0 for a pair
    without invariants, on an EE seam or with no window)."""
    rows = []
    for pair in pairs:
        inv, on_seam = _pair_algebra(spec, p.k, pair)
        window = None if inv is None or on_seam else _window(inv, p.k)
        rows.append(
            CLOSED_COLUMNS
            if window is None
            else (
                (None, "B1*", "B2*").index(window), inv.zeta, inv.m_small, inv.m_big, inv.f, inv.g,
                p.varrho * inv.lam1, inv.X, inv.Y, inv.W, inv.Z,
            )
        )
    return rows


def program_invariants(p, spec, pair):
    """The program's invariants of one pair: ``bimodal._invariants`` on
    one-element columns as a :class:`BimodalInvariants`, or ``None``
    outside its ``has`` mask."""
    lam1, lam2 = (np.array([spec.eigenvalue(n)]) for n in pair)
    columns, has, _ = _invariants(lam1, lam2, p.k)
    if not has[0]:
        return None
    return BimodalInvariants(tuple(pair), **{name: column[0].item() for name, column in columns.items()})


def program_ee(p, spec, tol=1e-9):
    """The program's EE pairs, as (pair, kind), and triples: the families
    of ``enumerate_ee_families`` in the format of :func:`bimodal_ee_pairs`
    and :func:`trimodal_ee_triples`."""
    families = enumerate_ee_families(p, spec, tol)
    return [(f.modes, f.kind) for f in families if f.kind != "T"], [f.modes for f in families if f.kind == "T"]


def required_k(spec, indices, family):
    """Invert the resonance equalities: the ``k`` at which the family
    exists for the given indices, or ``None`` when no such ``k`` exists.

    The inequality constraints (which involve ``beta``) are not checked.
    """
    if family == "B1":
        n1, n2 = indices
        return spec.eigenvalue(n1) * spec.eigenvalue(n2) / 2.0
    if family == "B2":
        n1, n2 = indices
        lam1 = spec.eigenvalue(n1)
        return lam1 * (spec.eigenvalue(n2) - lam1) / 2.0
    if family == "T":
        n1, n2, n3 = indices
        lam1 = spec.eigenvalue(n1)
        lam2 = spec.eigenvalue(n2)
        lam3 = spec.eigenvalue(n3)
        k1 = lam1 * (lam3 - lam1) / 2.0
        k2 = lam2 * (lam3 - lam2) / 2.0
        if _rel_eq(k1, k2, 1e-12):
            return k1
        return None
    raise ValueError(f"unknown family {family!r}")


def trimodal_candidates(spec, n_limit=None):
    """Triples admitting *some* coupling ``k`` (and the ``k`` value).

    A triple qualifies when ``lam1*(lam3-lam1) == lam2*(lam3-lam2)``
    to ``1e-12`` relative; equivalently ``lam1 + lam2 == lam3``.  For power
    spectra with exponent above one this scan is provably empty.
    """
    limit = spec.n_max if n_limit is None else min(n_limit, spec.n_max)
    out = []
    for triple in itertools.combinations(range(1, limit + 1), 3):
        k = required_k(spec, triple, "T")
        if k is not None:
            out.append((triple, k))
    return out


def is_ee(sol, p, spec, tol=1e-9):
    """True when the energy is equidistributed: ``C_u == C_v`` within
    ``tol`` relative to ``max(1, |C_u|, |C_v|)``."""
    cu, cv = axial_coefficients(sol, p, spec)
    if not tol > 0.0:
        raise ValidationError("tolerance must be positive")
    return abs(cu - cv) <= tol * max(1.0, abs(cu), abs(cv))
