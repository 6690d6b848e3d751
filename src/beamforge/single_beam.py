"""Reference single-beam models: plain extensible beam and beam on an
elastic foundation.

The plain beam buckles into exactly two solutions per effective mode.
The foundation model shifts the buckling thresholds by ``k / lam_n`` and
additionally carries ellipse families on pairs with ``lam1*lam2 == k``;
it admits no trimodal states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Params
from .errors import ValidationError
from .modesets import _pairs_of, _rel_eqs, effective_modes
from .spectrum import Spectrum


@dataclass(frozen=True)
class SingleBeamSolutionSet:
    model: str  # "plain" | "foundation"
    unimodal: tuple[tuple[int, float], ...]
    bimodal_families: tuple[tuple[tuple[int, int], float], ...]  # (pair, quadric constant)

    def describe(self) -> dict:
        return {
            "model": self.model,
            "unimodal": [{"n": n, "amplitude": a} for n, a in self.unimodal],
            "bimodal_families": [
                {"pair": list(pair), "quadric_constant": c}
                for pair, c in self.bimodal_families
            ],
        }


def enumerate_plain(p: Params, spec: Spectrum) -> SingleBeamSolutionSet:
    """Buckled states of the uncoupled beam: ``+-sqrt((-beta-lam)/(varrho
    lam))`` per effective mode, ``2|E|`` in total.  ``k`` is ignored."""
    part = effective_modes(p, spec)
    entries = []
    for n in part.E:
        lam = spec.eigenvalue(n)
        a = math.sqrt((-p.beta - lam) / (p.varrho * lam))
        entries.append((n, a))
        entries.append((n, -a))
    return SingleBeamSolutionSet("plain", tuple(entries), ())


def enumerate_foundation(p: Params, spec: Spectrum, tol: float = 1e-9) -> SingleBeamSolutionSet:
    """Steady states of the beam on a linear elastic foundation.

    Unimodal branches exist for ``k/lam + lam < -beta``; bimodal ellipse
    families for pairs with ``lam1*lam2 == k`` (relative tolerance
    ``tol``) and ``lam1 + lam2 < -beta``.
    """
    mb = -p.beta
    part = effective_modes(p, spec)
    lam = spec.eigenvalues(part.n_star)
    entries = []
    for n, x in zip(part.E, lam.tolist()):
        if p.k / x + x < mb:
            a = math.sqrt((mb - p.k / x - x) / (p.varrho * x))
            entries.append((n, a))
            entries.append((n, -a))
    n1, n2 = _pairs_of(part.n_star)
    lam1, lam2 = lam[n1 - 1], lam[n2 - 1]
    with np.errstate(over="ignore"):
        on = _rel_eqs(lam1 * lam2, p.k, tol) & (lam1 + lam2 < mb)
        constant = lam1 + lam2 + p.beta
    families = zip(zip(n1[on].tolist(), n2[on].tolist()), constant[on].tolist())
    return SingleBeamSolutionSet("foundation", tuple(entries), tuple(families))


def single_beam_residual(model: str, p: Params, spec: Spectrum, n: int, amplitude: float) -> float:
    """Modal residual of a unimodal single-beam state:
    ``lam^2 a + C_u lam a`` plus ``k a`` for the foundation model.

    The coupled-system residual of :mod:`beamforge.core` does not apply
    to a single beam, so this is the only independent check of
    :func:`enumerate_plain` and :func:`enumerate_foundation`."""
    lam = spec.eigenvalue(n)
    cu = p.beta + p.varrho * lam * amplitude * amplitude
    r = lam * lam * amplitude + cu * lam * amplitude
    if model == "foundation":
        r += p.k * amplitude
    elif model != "plain":
        raise ValidationError(f"unknown single-beam model {model!r}")
    return r
