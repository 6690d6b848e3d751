"""Single-mode branches: closed-form amplitudes and their (u, v) pairings.

For a fixed mode the deflection amplitudes solve a quartic in
``alpha^2`` that factors through the auxiliary quantities

    eta = 1 + beta/lam + k/lam^2,      omega = lam^2 / k.

Four amplitude families exist (index ``i``):

* ``i = 1`` in-phase, ``alpha^2 = (-beta - lam) / (varrho lam)``
* ``i = 2`` out-of-phase symmetric, ``alpha^2 = (-beta - mu) / (varrho lam)``
* ``i = 3, 4`` out-of-phase nonsymmetric, the two roots of a quadratic
  whose radicand is the signed product ``(beta+lam+mu-nu)(beta+nu)``.

A mode carries the families of its band, E1, E2 or E3 (1, 2 or 4
families, hence 2, 4 or 8 signed amplitudes).  Bands and amplitudes are
evaluated in one place, the mode table of :mod:`beamforge.modesets`;
:func:`unimodal_inventory` is a view of it.
"""

from __future__ import annotations

import numpy as np

from .core import MAX_ACTIVE_MODES, Inventory, ModalSolution, Params
from .modesets import _mode_states, _mode_table, effective_modes
from .spectrum import Spectrum

# gamma = sign * (amplitude of the partner family), per family index
# 0-3: families 1 and 2 are their own partners, 3 and 4 each other's
_PARTNER = np.array([0, 1, 3, 2])
_GAMMA_SIGN = np.array([1.0, -1.0, -1.0, -1.0])
# one shared tag string per family and sign, not one per solution
_TAGS = {(i, sig): f"unimodal({i},{sig})" for i in (1, 2, 3, 4) for sig in "+-"}


def unimodal_inventory(p: Params, spec: Spectrum) -> Inventory:
    """All nontrivial unimodal solutions: per mode the pairings are

        (a1, a1) (-a1, -a1)                          in E1
        + (a2, -a2) (-a2, a2)                        in E2
        + (a3, -a4) (-a3, a4) (a4, -a3) (-a4, a3)    in E3

    for a total of ``2|E1| + 4|E2| + 8|E3|`` solutions.
    """
    part = effective_modes(p, spec)
    states = _mode_states(_mode_table(spec.eigenvalues(part.n_star), p.k), p.beta, p.varrho, p.k)
    row, family = np.nonzero(states.carried)
    alpha = states.amplitude[row, family]
    gamma = _GAMMA_SIGN[family] * states.amplitude[row, _PARTNER[family]]
    # each state then its sign image, in the first of the stored columns
    n, alpha, gamma = (
        np.pad(x.reshape(-1, 1), ((0, 0), (0, MAX_ACTIVE_MODES - 1)))
        for x in (np.repeat(row + 1, 2), np.stack([alpha, -alpha], 1), np.stack([gamma, -gamma], 1))
    )
    tags = [_TAGS[i, sig] for i in (family + 1).tolist() for sig in "+-"]
    return Inventory(n, alpha, gamma, np.ones(len(tags), dtype=np.int64), tags)


def enumerate_unimodal(p: Params, spec: Spectrum) -> list[ModalSolution]:
    """:func:`unimodal_inventory` as solution objects."""
    return unimodal_inventory(p, spec).solutions()
