"""Continuum families of equidistributed-energy solutions.

At resonant index pairs/triples the coupled system carries whole
ellipses (or ellipsoids) of solutions: the u-coefficients range over the
quadric ``sum(varrho * lam_i * x_i^2) + c = 0`` and the v-coefficients
are the u-coefficients flipped by a fixed sign pattern.  The family is
nonempty exactly when the constant ``c`` is negative.  Which index sets
carry a family, from which compression, is read from the one EE scan of
:mod:`beamforge.modesets`.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass

import numpy as np

from .core import ModalSolution, Params
from .errors import ValidationError
from .modesets import _ee_scan
from .spectrum import Spectrum

NONZERO_MARGIN = 1e-6
_SIGNS = {"B1": (-1, -1), "B2": (-1, +1), "T": (-1, -1, +1)}


@dataclass(frozen=True)
class EEFamily:
    kind: str  # "B1" | "B2" | "T"
    modes: tuple[int, ...]
    coeffs: tuple[float, ...]  # varrho * lam_i
    constant: float  # c: B1 -> lam1+lam2+beta, B2 -> lam2+beta, T -> lam3+beta
    sign_pattern: tuple[int, ...]

    def quadric_residual(self, coords) -> float:
        return sum(c * x * x for c, x in zip(self.coeffs, coords)) + self.constant

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "modes": list(self.modes),
            "quadric": {"coeffs": list(self.coeffs), "constant": self.constant},
            "sign_pattern": list(self.sign_pattern),
        }


def enumerate_ee_families(p: Params, spec: Spectrum, tol: float = 1e-9) -> list[EEFamily]:
    """All EE families at these parameters, pairs then triples, each in
    lexicographic order: those of the EE scan whose threshold is below
    ``-beta``.  A pair on B1 carries a B1 family once ``lam1 + lam2 <
    -beta``, else a B2 one."""
    scan = _ee_scan(p, spec, tol)
    mb = -p.beta
    b1 = scan.on_b1 & (scan.sums < mb)
    # kind, modes, threshold and the quadric constant less beta
    rows = [
        *zip(
            np.where(b1, "B1", "B2").tolist(), scan.pairs.T.tolist(), scan.thresholds.tolist(),
            np.where(b1, scan.sums, scan.thresholds).tolist(),
        ),
        *(("T", triple, lam3, lam3) for triple, lam3 in zip(scan.triples.T.tolist(), scan.lam3.tolist())),
    ]
    return [
        EEFamily(kind, tuple(modes), tuple(p.varrho * spec.eigenvalue(n) for n in modes), level + p.beta, _SIGNS[kind])
        for kind, modes, threshold, level in rows
        if threshold < mb
    ]


def _tag(kind: str) -> str:
    return "ee-trimodal" if kind == "T" else f"ee-bimodal({kind})"


def sample_family(fam: EEFamily, count: int, seed: int = 0) -> list[ModalSolution]:
    """Draw ``count`` family members by uniform angles on the quadric.

    Coordinates are kept away from the axes (all ``|x_i|`` at least
    ``1e-6`` of the per-axis radius) so every sample is a genuine
    bimodal/trimodal solution; offending draws are rejected and redrawn.
    The angles come from ``random.Random(seed)``, whose ``random()``
    sequence for a given seed Python keeps the same across versions:
    ``theta = 2 pi u``, then for a triple ``phi = pi u`` with the next
    ``u = rng.random()``.  ``seed`` is any nonnegative integer that
    ``operator.index`` accepts; a negative one raises
    :class:`ValidationError`.
    """
    if count < 0:
        raise ValidationError("count must be nonnegative")
    seed = operator.index(seed)
    if seed < 0:  # Random(-n) would draw the stream of Random(n)
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    if not fam.constant < 0.0:
        raise ValidationError("degenerate family: quadric constant must be negative")
    radii = [math.sqrt(-fam.constant / c) for c in fam.coeffs]
    rng = random.Random(seed)
    out: list[ModalSolution] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 1000 * max(count, 1):
            raise RuntimeError("rejection sampling failed to stay off the axes")
        # low + (high - low) * u with low = 0
        theta = 2.0 * math.pi * rng.random()
        if len(fam.modes) == 2:
            units = (math.cos(theta), math.sin(theta))
        else:
            phi = math.pi * rng.random()
            units = (
                math.sin(phi) * math.cos(theta),
                math.sin(phi) * math.sin(theta),
                math.cos(phi),
            )
        if any(abs(u) < NONZERO_MARGIN for u in units):
            continue
        coords = [r * u for r, u in zip(radii, units)]
        modes = {
            n: (x, s * x) for n, s, x in zip(fam.modes, fam.sign_pattern, coords)
        }
        out.append(ModalSolution(modes, tag=_tag(fam.kind)))
    return out
