"""Verification spine: parameters, modal solutions, residuals, cubic check.

A stationary state of the coupled system is stored as a finite map from
mode index ``n`` to the coefficient pair ``(alpha_n, gamma_n)`` of the two
deflections on the eigenvector ``e_n``.  Verification is tag-blind: the
branch tag carried by a solution is metadata for reporting and is never
consulted when residuals are evaluated.

A list of isolated solutions is held as an :class:`Inventory`: fixed-shape
rows of up to three stored modes, which :func:`check_inventory` verifies
in vectorized blocks of rows, and :func:`verified_records` renders with
those checks.  :func:`axial_coefficients`, :func:`modal_residual` and
:func:`cubic_check` are the scalar reference it reproduces bit for bit,
non-finite values included.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import jsonio
from .errors import ValidationError
from .spectrum import Spectrum

MAX_ACTIVE_MODES = 3


@dataclass(frozen=True)
class Params:
    """Dimensionless drive: axial load ``beta``, extensibility ``varrho``,
    coupling stiffness ratio ``k``.  All three must be finite; ``beta``
    is otherwise unrestricted, the other two must be positive."""

    beta: float
    varrho: float
    k: float

    def __post_init__(self) -> None:
        for name in ("beta", "varrho", "k"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.varrho > 0.0:
            raise ValidationError("varrho must be positive")
        if not self.k > 0.0:
            raise ValidationError("k must be positive")

    def describe(self) -> dict:
        return {"beta": self.beta, "varrho": self.varrho, "k": self.k}


@dataclass(frozen=True)
class ModalSolution:
    """Finite modal coefficient map plus an informational branch tag.

    Invariants enforced at construction: at most three active modes
    (a mode is active when its pair is not exactly ``(0, 0)``), and
    ``alpha_n == 0`` iff ``gamma_n == 0`` for every stored mode.
    """

    modes: dict[int, tuple[float, float]]
    tag: str = "untagged"

    def __post_init__(self) -> None:
        norm: dict[int, tuple[float, float]] = {}
        for n in sorted(self.modes):
            a, g = self.modes[n]
            a = float(a)
            g = float(g)
            if (a == 0.0) != (g == 0.0):
                raise ValidationError(
                    f"mode {n}: alpha and gamma must vanish together (got {a}, {g})"
                )
            norm[int(n)] = (a, g)
        active = [n for n, (a, g) in norm.items() if (a, g) != (0.0, 0.0)]
        if len(active) > MAX_ACTIVE_MODES:
            raise ValidationError(
                f"solution has {len(active)} active modes; at most {MAX_ACTIVE_MODES} allowed"
            )
        object.__setattr__(self, "modes", norm)

    @staticmethod
    def trivial(tag: str = "trivial") -> "ModalSolution":
        return ModalSolution({}, tag=tag)

    @property
    def active(self) -> tuple[int, ...]:
        return tuple(n for n, (a, g) in self.modes.items() if (a, g) != (0.0, 0.0))

    @property
    def is_trivial(self) -> bool:
        return not self.active

    def to_json_dict(self, p: Params, spec: Spectrum) -> dict:
        """The solution's JSON record, read back from its one-row
        rendering by :class:`beamforge.jsonio.SolutionRecords`."""
        text = jsonio.dumps(verified_records(Inventory.from_solutions([self]), p, spec))
        return json.loads(text)[0]


@dataclass(frozen=True, eq=False)
class Inventory:
    """Solutions as fixed-shape rows: row ``i`` stores ``width[i]`` modes
    in columns ``0 .. width[i] - 1`` in increasing ``n``, and padded
    columns hold ``n = 0`` and zero coefficients.  ``tags`` holds one
    string per row, shared between rows of one kind.  Construction
    enforces the invariants of :class:`ModalSolution`."""

    n: np.ndarray  # (S, W) int, W >= 3
    alpha: np.ndarray  # (S, W)
    gamma: np.ndarray  # (S, W)
    width: np.ndarray  # (S,)
    tags: list[str]

    def __post_init__(self) -> None:
        stored = self.stored
        a_zero, g_zero = self.alpha == 0.0, self.gamma == 0.0
        bad = np.flatnonzero((stored & (a_zero != g_zero)).any(axis=1))
        if bad.size:
            raise ValidationError(
                f"row {bad[0]}: alpha and gamma must vanish together in every mode"
            )
        active = (stored & ~(a_zero & g_zero)).sum(axis=1)
        if active.size and active.max() > MAX_ACTIVE_MODES:
            raise ValidationError(
                f"row {int(active.argmax())} has {active.max()} active modes; "
                f"at most {MAX_ACTIVE_MODES} allowed"
            )

    @staticmethod
    def from_rows(rows, tags) -> "Inventory":
        """Build from one sequence of ``(n, alpha, gamma)`` triples per
        solution, stored modes in increasing ``n``."""
        width = max([MAX_ACTIVE_MODES, *map(len, rows)])
        blank = ((0, 0.0, 0.0),) * width
        padded = (tuple(row) + blank[len(row):] for row in rows)
        table = np.fromiter(
            itertools.chain.from_iterable(itertools.chain.from_iterable(padded)),
            dtype=float,
            count=len(rows) * width * 3,
        ).reshape(len(rows), width, 3)
        return Inventory(
            table[:, :, 0].astype(np.int64),
            table[:, :, 1],
            table[:, :, 2],
            np.array([len(row) for row in rows], dtype=np.int64),
            list(tags),
        )

    @staticmethod
    def from_solutions(sols) -> "Inventory":
        return Inventory.from_rows(
            [[(n, a, g) for n, (a, g) in s.modes.items()] for s in sols],
            [s.tag for s in sols],
        )

    def __len__(self) -> int:
        return len(self.tags)

    @property
    def stored(self) -> np.ndarray:
        """``(S, W)`` mask of the stored (not padded) columns."""
        return np.arange(self.n.shape[1]) < self.width[:, None]

    def solutions(self) -> list[ModalSolution]:
        """One :class:`ModalSolution` per row, in row order."""
        return [
            ModalSolution(dict(zip(ns[:w], zip(alphas[:w], gammas[:w]))), tag=tag)
            for ns, alphas, gammas, w, tag in zip(
                self.n.tolist(), self.alpha.tolist(), self.gamma.tolist(),
                self.width.tolist(), self.tags,
            )
        ]


class InventoryChecks(NamedTuple):
    """Per-row values of the scalar checks: ``C_u``, ``C_v``,
    ``modal_residual(...).relative`` and ``cubic_check(...).max_relative``
    (0 for a trivial row)."""

    C_u: np.ndarray
    C_v: np.ndarray
    residual: np.ndarray
    cubic: np.ndarray


@dataclass(frozen=True)
class ResidualReport:
    """Scalar summaries of the residual of the modal system.

    ``relative`` divides ``max_abs`` by the largest individual term
    magnitude (floored at 1) so that tolerances do not depend on the
    parameter scale.
    """

    max_abs: float
    relative: float


@dataclass(frozen=True)
class CubicReport:
    """Values of the characteristic cubic at the active eigenvalues.

    ``values`` holds ``(lam_n, P(lam_n))`` pairs; ``max_relative`` is the
    largest magnitude normalized by the cubic's own term sizes.
    """

    values: tuple[tuple[float, float], ...]
    max_relative: float


def axial_coefficients(sol: ModalSolution, p: Params, spec: Spectrum) -> tuple[float, float]:
    """Effective axial tensions ``C_u = beta + varrho*sum(lam_n alpha_n^2)``
    and the analogous ``C_v``."""
    cu = p.beta
    cv = p.beta
    for n, (a, g) in sol.modes.items():
        lam = spec.eigenvalue(n)
        cu += p.varrho * lam * a * a
        cv += p.varrho * lam * g * g
    return cu, cv


def modal_residual(sol: ModalSolution, p: Params, spec: Spectrum) -> ResidualReport:
    """Substitute the solution into the modal system and report the misfit.

    For each stored mode::

        r1 = lam^2 a + C_u lam a + k (a - g)
        r2 = lam^2 g + C_v lam g - k (a - g)

    with the axial coefficients computed from the solution itself.
    """
    cu, cv = axial_coefficients(sol, p, spec)
    misfits = [0.0]
    terms = [1.0]  # the scale is floored at 1
    for n, (a, g) in sol.modes.items():
        lam = spec.eigenvalue(n)
        r1 = lam * lam * a + cu * lam * a + p.k * (a - g)
        r2 = lam * lam * g + cv * lam * g - p.k * (a - g)
        misfits += (abs(r1), abs(r2))
        terms += (abs(lam * lam * a), abs(cu * lam * a), abs(lam * lam * g), abs(cv * lam * g),
                  abs(p.k * a), abs(p.k * g))
    max_abs = _max(misfits)
    return ResidualReport(max_abs, max_abs / _max(terms))


def cubic_check(sol: ModalSolution, p: Params, spec: Spectrum) -> CubicReport:
    """Evaluate ``P(lam) = lam^3 + (C_u+C_v) lam^2 + (C_u C_v + 2k) lam
    + k (C_u+C_v)`` at each active eigenvalue.

    Every active eigenvalue of a valid nontrivial solution is a root of
    this cubic, so all values should vanish to roundoff.
    """
    if sol.is_trivial:
        raise ValidationError("cubic_check needs a nontrivial solution")
    cu, cv = axial_coefficients(sol, p, spec)
    s = cu + cv
    q = cu * cv + 2.0 * p.k
    values = []
    relative = [0.0]
    for n in sol.active:
        lam = spec.eigenvalue(n)
        val = _cube(lam) + s * lam * lam + q * lam + p.k * s
        scale = _max([1.0, _cube(abs(lam)), abs(s) * lam * lam, abs(q) * abs(lam), abs(p.k * s)])
        values.append((lam, val))
        relative.append(abs(val) / scale)
    return CubicReport(tuple(values), _max(relative))


def _max(values: list[float]) -> float:
    """``max(values)``, or NaN if one is NaN, as NumPy's maximum reads it:
    Python's ``max`` keeps a number against a later NaN.  The maximum of
    numbers is one of them, so the result has the bits of ``np.max``."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def _cube(x: float) -> float:
    """``x ** 3`` of a Python float, or ``±inf`` where the cube overflows:
    Python raises ``OverflowError`` there, and a non-finite check is for
    the emitter to reject."""
    try:
        return x ** 3
    except OverflowError:
        return math.copysign(math.inf, x)


def verified_records(inv: Inventory, p: Params, spec: Spectrum) -> jsonio.SolutionRecords:
    """The JSON records of ``inv``, holding its :func:`check_inventory`
    values as ``.checks``."""
    return jsonio.SolutionRecords(inv, check_inventory(inv, p, spec))


def check_inventory(inv: Inventory, p: Params, spec: Spectrum) -> InventoryChecks:
    """:func:`axial_coefficients`, :func:`modal_residual` and
    :func:`cubic_check` of every row, tag-blind.

    Each value equals the scalar one bit for bit: the float operations
    are the same and run in the same order, ``C_u`` and ``C_v`` are summed
    column by column over the stored modes only, the cubic sees the
    active modes only, and ``lam ** 3`` is read from a table computed
    with Python floats by :func:`_cube` (NumPy's ``pow`` can round a cube
    differently).

    The rows are checked in blocks of the writer's ``_BLOCK_ROWS``, so
    the temporaries of the checks are bounded by a block, not by the
    inventory; every value depends on its own row only.
    """
    top = int(inv.n.max(initial=0))
    lams = [1.0] + [spec.eigenvalue(m) for m in range(1, top + 1)]  # 0 pads
    tables = np.array(lams), np.array([_cube(x) for x in lams])
    checks = InventoryChecks(*(np.empty(len(inv)) for _ in InventoryChecks._fields))
    for start in range(0, len(inv), jsonio._BLOCK_ROWS):
        rows = slice(start, start + jsonio._BLOCK_ROWS)
        block = _check_block(inv.n[rows], inv.alpha[rows], inv.gamma[rows], inv.width[rows], *tables, p)
        for column, values in zip(checks, block):
            column[rows] = values
    return checks


# an overflowed check is non-finite, which the emitter rejects
@np.errstate(over="ignore", invalid="ignore")
def _check_block(n, a, g, width, lam_table, cube_table, p: Params):
    """``C_u``, ``C_v``, residual and cubic of the rows ``n``, ``a``,
    ``g``, ``width`` of an :class:`Inventory`."""
    lam = lam_table[n]
    cube = cube_table[n]
    stored = np.arange(n.shape[1]) < width[:, None]
    cu = np.full(len(n), float(p.beta))
    cv = cu.copy()
    for j in range(a.shape[1]):
        on = stored[:, j]
        cu = np.where(on, cu + p.varrho * lam[:, j] * a[:, j] * a[:, j], cu)
        cv = np.where(on, cv + p.varrho * lam[:, j] * g[:, j] * g[:, j], cv)
    cu_c, cv_c = cu[:, None], cv[:, None]

    t1, t2 = lam * lam * a, cu_c * lam * a
    t4, t5 = lam * lam * g, cv_c * lam * g
    coupling = p.k * (a - g)
    r1 = t1 + t2 + coupling
    r2 = t4 + t5 - coupling
    max_abs = np.where(stored, np.maximum(np.abs(r1), np.abs(r2)), 0.0).max(axis=1)
    terms = _maximum(np.abs(t1), np.abs(t2), np.abs(t4), np.abs(t5), np.abs(p.k * a), np.abs(p.k * g))
    term_scale = np.where(stored, terms, 0.0).max(axis=1)
    residual = max_abs / np.maximum(1.0, term_scale)

    s = cu_c + cv_c
    q = cu_c * cv_c + 2.0 * p.k
    val = cube + s * lam * lam + q * lam + p.k * s
    scale = _maximum(1.0, cube, np.abs(s) * lam * lam, np.abs(q) * np.abs(lam), np.abs(p.k * s))
    active = stored & ~((a == 0.0) & (g == 0.0))
    cubic = np.where(active, np.abs(val) / scale, 0.0).max(axis=1)
    return cu, cv, residual, cubic


def _maximum(*values):
    return functools.reduce(np.maximum, values)


def solution_sort_key(sol: ModalSolution):
    """Deterministic ordering: mode count, mode indices, coefficients."""
    active = sol.active
    coeffs = tuple(c for n in active for c in sol.modes[n])
    return (len(active), active, coeffs)
