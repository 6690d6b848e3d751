"""Single-mode branches: closed-form amplitudes and their (u, v) pairings.

For a fixed mode the deflection amplitudes solve a quartic in
``alpha^2`` that factors through the auxiliary quantities

    eta = 1 + beta/lam + k/lam^2,      omega = lam^2 / k.

Four amplitude families exist (index ``i``):

* ``i = 1`` in-phase, ``alpha^2 = (-beta - lam) / (varrho lam)``
* ``i = 2`` out-of-phase symmetric, ``alpha^2 = (-beta - mu) / (varrho lam)``
* ``i = 3, 4`` out-of-phase nonsymmetric, the two roots of a quadratic
  whose radicand is the signed product ``(beta+lam+mu-nu)(beta+nu)``.

The amplitudes are written once, in :func:`amplitude_curves`.  How many
of the families a mode carries (1, 2 or 4, hence 2, 4 or 8 signed
amplitudes) follows from its band, E1, E2 or E3, which
:func:`beamforge.modesets.effective_modes` decides together with the
boundary collapse; :func:`unimodal_inventory` reads the families of
each band from ``FAMILIES``.
"""

from __future__ import annotations

import math

from .core import Inventory, ModalSolution, Params
from .modesets import _partition, mu_value, nu_value
from .spectrum import Spectrum

# amplitude families each band admits
FAMILIES = {"E1": (1,), "E2": (1, 2), "E3": (1, 2, 3, 4)}
# the gamma of family i is sign * (amplitude of family partner)
GAMMA_PARTNER = {1: (1, +1), 2: (2, -1), 3: (4, -1), 4: (3, -1)}
# one shared tag string per family and sign, not one per solution
_TAGS = {(i, sig): f"unimodal({i},{sig})" for i in (1, 2, 3, 4) for sig in "+-"}


def amplitude_curves(p: Params, spec: Spectrum, n: int) -> dict[int, float | None]:
    """Raw positive amplitude of each family, ``None`` where undefined.

    Each family is gated on ``-beta`` against its own threshold, without
    the boundary collapse, so boundary-degenerate values (zeros and
    coincident roots) stay in; the families a mode carries are
    ``FAMILIES[effective_modes(p, spec).band(n)]``.
    """
    lam = spec.eigenvalue(n)
    mb = -p.beta
    out: dict[int, float | None] = {1: None, 2: None, 3: None, 4: None}
    if mb >= lam:
        out[1] = math.sqrt((mb - lam) / (p.varrho * lam))
    mu = mu_value(lam, p.k)
    if mb >= mu:
        out[2] = math.sqrt((mb - mu) / (p.varrho * lam))
    nu = nu_value(lam, p.k)
    if mb >= nu:
        # radicand kept as a product of signed factors; both are negative
        # strictly inside E3, so the product is positive there
        inner = (p.beta + lam + mu - nu) * (p.beta + nu)
        a3 = math.sqrt(((mb + mu - nu - lam) + math.sqrt(max(inner, 0.0))) / (2.0 * p.varrho * lam))
        out[3] = a3
        # smaller root via the product of roots: a3^2 a4^2 = (k/(varrho lam^2))^2
        out[4] = p.k / (p.varrho * lam * lam * a3) if a3 > 0.0 else 0.0
    return out


def unimodal_inventory(p: Params, spec: Spectrum) -> Inventory:
    """All nontrivial unimodal solutions: per mode the pairings are

        (a1, a1) (-a1, -a1)                          in E1
        + (a2, -a2) (-a2, a2)                        in E2
        + (a3, -a4) (-a3, a4) (a4, -a3) (-a4, a3)    in E3

    for a total of ``2|E1| + 4|E2| + 8|E3|`` solutions.
    """
    part = _partition(spec, p.beta, p.k)
    rows, tags = [], []
    for n in part.E:
        curves = amplitude_curves(p, spec, n)
        for i in FAMILIES[part.band(n)]:
            a = curves[i]
            partner, sign = GAMMA_PARTNER[i]
            g = sign * curves[partner]
            rows += [((n, a, g),), ((n, -a, -g),)]
            tags += [_TAGS[i, "+"], _TAGS[i, "-"]]
    return Inventory.from_rows(rows, tags)


def enumerate_unimodal(p: Params, spec: Spectrum) -> list[ModalSolution]:
    """:func:`unimodal_inventory` as solution objects."""
    return unimodal_inventory(p, spec).solutions()
