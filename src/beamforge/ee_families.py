"""Continuum families of equidistributed-energy solutions.

At resonant index pairs/triples the coupled system carries whole
ellipses (or ellipsoids) of solutions: the u-coefficients range over the
quadric ``sum(varrho * lam_i * x_i^2) + c = 0`` and the v-coefficients
are the u-coefficients flipped by a fixed sign pattern.  The family is
nonempty exactly when the constant ``c`` is negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModalSolution, Params
from .errors import ValidationError
from .modesets import bimodal_ee_pairs, trimodal_ee_triples
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


def _family(p: Params, spec: Spectrum, kind: str, indices: tuple[int, ...]) -> EEFamily:
    """The family of a given kind on indices already known to carry it."""
    lams = [spec.eigenvalue(n) for n in indices]
    constant = (lams[0] + lams[1] if kind == "B1" else lams[-1]) + p.beta
    coeffs = tuple(p.varrho * lam for lam in lams)
    return EEFamily(kind, indices, coeffs, constant, _SIGNS[kind])


def enumerate_ee_families(p: Params, spec: Spectrum, tol: float = 1e-9) -> list[EEFamily]:
    """All EE families at these parameters (pairs then triples), built
    from the kinds the membership scans decided."""
    out = [_family(p, spec, kind, pair) for pair, kind in bimodal_ee_pairs(p, spec, tol)]
    out += [_family(p, spec, "T", triple) for triple in trimodal_ee_triples(p, spec, tol)]
    return out


def _tag(kind: str) -> str:
    return "ee-trimodal" if kind == "T" else f"ee-bimodal({kind})"


def sample_family(fam: EEFamily, count: int, seed: int = 0) -> list[ModalSolution]:
    """Draw ``count`` family members by uniform angles on the quadric.

    Coordinates are kept away from the axes (all ``|x_i|`` at least
    ``1e-6`` of the per-axis radius) so every sample is a genuine
    bimodal/trimodal solution; offending draws are rejected and redrawn.
    """
    if count < 0:
        raise ValidationError("count must be nonnegative")
    if not fam.constant < 0.0:
        raise ValidationError("degenerate family: quadric constant must be negative")
    radii = [math.sqrt(-fam.constant / c) for c in fam.coeffs]
    rng = np.random.default_rng(seed)
    out: list[ModalSolution] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 1000 * max(count, 1):
            raise RuntimeError("rejection sampling failed to stay off the axes")
        if len(fam.modes) == 2:
            theta = rng.uniform(0.0, 2.0 * math.pi)
            units = (math.cos(theta), math.sin(theta))
        else:
            theta = rng.uniform(0.0, 2.0 * math.pi)
            phi = rng.uniform(0.0, math.pi)
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
