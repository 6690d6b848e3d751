"""Scalar reference of the unimodal closed form: the band loop of the
effective-mode partition and the four family amplitudes, one mode and one
compression at a time, with Python floats.

The program evaluates the same float expressions on arrays, in
``modesets._mode_states``; the tests hold it to this reference bit for
bit.  The thresholds, the relative comparison, the families of each band
and the gamma partners are written out here rather than imported, so that
a change to the program's arithmetic cannot move the reference with it.
"""

import math

from beamforge.modesets import BOUNDARY_RTOL, ModeSetPartition

# the amplitude families each band carries
FAMILIES = {"E1": (1,), "E2": (1, 2), "E3": (1, 2, 3, 4)}
# the gamma of family i is sign * (amplitude of family partner)
GAMMA_PARTNER = {1: (1, +1), 2: (2, -1), 3: (4, -1), 4: (3, -1)}


def thresholds(lam, k):
    """``lam_n``, ``mu_n = 2k/lam_n + lam_n`` and ``nu_n = 3k/lam_n + lam_n``."""
    return lam, 2.0 * k / lam + lam, 3.0 * k / lam + lam


def _rel_eq(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def effective_modes(p, spec):
    """The partition of the effective modes into the bands, by one scan:
    a compression on, or within ``BOUNDARY_RTOL`` relative of, ``mu_n``
    (or ``nu_n``) puts mode ``n`` in the lower band."""
    mb = -p.beta
    E, E1, E2, E3 = [], [], [], []
    for n in range(1, spec.n_max + 1):
        lam, mu, nu = thresholds(spec.eigenvalue(n), p.k)
        if not lam < mb:
            break
        E.append(n)
        if mb <= mu or _rel_eq(mb, mu, BOUNDARY_RTOL):
            E1.append(n)
        elif mb <= nu or _rel_eq(mb, nu, BOUNDARY_RTOL):
            E2.append(n)
        else:
            E3.append(n)
    return ModeSetPartition(tuple(E), tuple(E1), tuple(E2), tuple(E3), E[-1] if E else 0)


def band_of(part, n):
    """``"E1"``, ``"E2"`` or ``"E3"`` for an effective mode ``n`` of the
    partition ``part``, else ``"outside"``."""
    return next((name for name in FAMILIES if n in getattr(part, name)), "outside")


def amplitude_curves(p, spec, n):
    """Raw positive amplitude of each family of mode ``n``, ``None`` where
    undefined: each family is gated on ``-beta`` against its own threshold,
    without the boundary collapse."""
    lam, mu, nu = thresholds(spec.eigenvalue(n), p.k)
    mb = -p.beta
    out = {1: None, 2: None, 3: None, 4: None}
    if mb >= lam:
        out[1] = math.sqrt((mb - lam) / (p.varrho * lam))
    if mb >= mu:
        out[2] = math.sqrt((mb - mu) / (p.varrho * lam))
    if mb >= nu:
        # radicand kept as a product of signed factors; both are negative
        # strictly inside E3, so the product is positive there; where it
        # overflows, its root is the product of the factors' roots
        below, above = p.beta + lam + mu - nu, p.beta + nu
        inner = below * above
        root = math.sqrt(max(inner, 0.0)) if math.isfinite(inner) else math.sqrt(-below) * math.sqrt(-above)
        a3 = math.sqrt(((mb + mu - nu - lam) + root) / (2.0 * p.varrho * lam))
        out[3] = a3
        # smaller root via the product of roots: a3^2 a4^2 = (k/(varrho lam^2))^2
        out[4] = p.k / (p.varrho * lam * lam * a3) if a3 > 0.0 else 0.0
    return out
