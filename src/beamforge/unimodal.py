"""Single-mode branches: closed-form amplitudes and their (u, v) pairings.

For a fixed mode the deflection amplitudes solve a quartic in
``alpha^2`` that factors through the auxiliary quantities

    eta = 1 + beta/lam + k/lam^2,      omega = lam^2 / k.

Four amplitude families exist (index ``i``):

* ``i = 1`` in-phase, ``alpha^2 = (-beta - lam) / (varrho lam)``
* ``i = 2`` out-of-phase symmetric, ``alpha^2 = (-beta - mu) / (varrho lam)``
* ``i = 3, 4`` out-of-phase nonsymmetric, the two roots of a quadratic
  whose radicand is the signed product ``(beta+lam+mu-nu)(beta+nu)``.

The number of distinct nontrivial amplitudes is 2, 4 or 8 according to
the band (E1, E2, E3) the mode falls in; boundary coincidences collapse
to the lower-multiplicity set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ModalSolution, Params
from .modesets import _partition, _rel_eq, mu_value, nu_value
from .spectrum import Spectrum

BOUNDARY_RTOL = 1e-12
_BRANCH_COUNT = {"outside": 0, "E1": 2, "E2": 4, "E3": 8}


@dataclass(frozen=True)
class UAmplitude:
    i: int
    sign: int
    value: float


@dataclass(frozen=True)
class UAmplitudeSet:
    n: int
    entries: tuple[UAmplitude, ...]
    klass: str  # "E1" | "E2" | "E3" | "outside"

    def value(self, i: int, sign: int) -> float:
        for e in self.entries:
            if e.i == i and e.sign == sign:
                return e.value
        raise KeyError((i, sign))


def eta_omega(p: Params, spec: Spectrum, n: int) -> tuple[float, float]:
    lam = spec.eigenvalue(n)
    return 1.0 + p.beta / lam + p.k / (lam * lam), lam * lam / p.k


def mode_class(p: Params, spec: Spectrum, n: int) -> str:
    """Band of mode ``n`` with boundary collapse: a compression within
    ``1e-12`` relative of ``mu_n`` (or ``nu_n``) is treated as sitting on
    the boundary, avoiding near-duplicate branch reporting."""
    lam = spec.eigenvalue(n)
    mb = -p.beta
    if not lam < mb:
        return "outside"
    mu = mu_value(lam, p.k)
    if mb <= mu or _rel_eq(mb, mu, BOUNDARY_RTOL):
        return "E1"
    nu = nu_value(lam, p.k)
    if mb <= nu or _rel_eq(mb, nu, BOUNDARY_RTOL):
        return "E2"
    return "E3"


def u_amplitudes(p: Params, spec: Spectrum, n: int) -> UAmplitudeSet:
    """Distinct nontrivial u-amplitudes of mode ``n`` (2, 4 or 8 of them,
    or none outside the effective set)."""
    klass = mode_class(p, spec, n)
    if klass == "outside":
        return UAmplitudeSet(n, (), klass)
    lam = spec.eigenvalue(n)
    mb = -p.beta
    entries = []
    a1 = math.sqrt((mb - lam) / (p.varrho * lam))
    entries += [UAmplitude(1, +1, a1), UAmplitude(1, -1, -a1)]
    if klass in ("E2", "E3"):
        mu = mu_value(lam, p.k)
        a2 = math.sqrt(max(mb - mu, 0.0) / (p.varrho * lam))
        entries += [UAmplitude(2, +1, a2), UAmplitude(2, -1, -a2)]
    if klass == "E3":
        mu = mu_value(lam, p.k)
        nu = nu_value(lam, p.k)
        # radicand kept as a product of signed factors; both are negative
        # strictly inside E3, so the product is positive
        inner = (p.beta + lam + mu - nu) * (p.beta + nu)
        a3 = math.sqrt(((mb + mu - nu - lam) + math.sqrt(inner)) / (2.0 * p.varrho * lam))
        # smaller root via the product of roots: a3^2 a4^2 = (k/(varrho lam^2))^2
        a4 = p.k / (p.varrho * lam * lam * a3)
        entries += [
            UAmplitude(3, +1, a3),
            UAmplitude(3, -1, -a3),
            UAmplitude(4, +1, a4),
            UAmplitude(4, -1, -a4),
        ]
    return UAmplitudeSet(n, tuple(entries), klass)


def amplitude_curves(p: Params, spec: Spectrum, n: int) -> dict[int, float | None]:
    """Raw positive amplitude of each family, ``None`` where undefined.

    Unlike :func:`u_amplitudes` this keeps boundary-degenerate values
    (zeros and coincident roots); intended for branch sweeps.
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
        inner = (p.beta + lam + mu - nu) * (p.beta + nu)
        a3 = math.sqrt(((mb + mu - nu - lam) + math.sqrt(max(inner, 0.0))) / (2.0 * p.varrho * lam))
        out[3] = a3
        out[4] = p.k / (p.varrho * lam * lam * a3) if a3 > 0.0 else 0.0
    return out


def enumerate_unimodal(p: Params, spec: Spectrum) -> list[ModalSolution]:
    """All nontrivial unimodal solutions: per mode the pairings are

        (a1, a1) (-a1, -a1)                          in E1
        + (a2, -a2) (-a2, a2)                        in E2
        + (a3, -a4) (-a3, a4) (a4, -a3) (-a4, a3)    in E3

    for a total of ``2|E1| + 4|E2| + 8|E3|`` solutions.
    """
    out: list[ModalSolution] = []
    for n in _partition(spec, p.beta, p.k).E:
        amps = u_amplitudes(p, spec, n)
        if amps.klass == "outside":
            continue
        a1 = amps.value(1, +1)
        out.append(ModalSolution({n: (a1, a1)}, tag="unimodal(1,+)"))
        out.append(ModalSolution({n: (-a1, -a1)}, tag="unimodal(1,-)"))
        if amps.klass in ("E2", "E3"):
            a2 = amps.value(2, +1)
            out.append(ModalSolution({n: (a2, -a2)}, tag="unimodal(2,+)"))
            out.append(ModalSolution({n: (-a2, a2)}, tag="unimodal(2,-)"))
        if amps.klass == "E3":
            a3 = amps.value(3, +1)
            a4 = amps.value(4, +1)
            out.append(ModalSolution({n: (a3, -a4)}, tag="unimodal(3,+)"))
            out.append(ModalSolution({n: (-a3, a4)}, tag="unimodal(3,-)"))
            out.append(ModalSolution({n: (a4, -a3)}, tag="unimodal(4,+)"))
            out.append(ModalSolution({n: (-a4, a3)}, tag="unimodal(4,-)"))
    return out


def _count_unimodal(p: Params, spec: Spectrum, E: tuple[int, ...]) -> int:
    """``len(enumerate_unimodal(p, spec))`` without building the
    solutions, given the effective modes ``E``."""
    return sum(_BRANCH_COUNT[mode_class(p, spec, n)] for n in E)
