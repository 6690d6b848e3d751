"""Eigenvalue sequences of the stiffness operator.

Every enumeration in this package is driven by a strictly increasing
sequence of simple positive eigenvalues.  Four generators are supported:

* ``dirichlet`` -- hinged beam on the unit interval, ``lam_n = (n*pi)**2``
* ``scaled``    -- the same operator rescaled by ``1/pi**2``, ``lam_n = n**2``
* ``power``     -- fractional powers of the hinged operator,
  ``lam_n = (n*pi)**(p+1)`` for a positive integer ``p``
* ``explicit``  -- a user-supplied list, validated once at construction

Spectra are immutable.  Each eigenvalue is computed from its closed
form when asked for; no table is kept, so the cost follows the mode
indices actually asked for, not ``n_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

DEFAULT_N_MAX = 64

_GENERATORS = ("dirichlet", "scaled", "power", "explicit")


@dataclass(frozen=True)
class Spectrum:
    """Immutable eigenvalue sequence with an enumeration cap ``n_max``."""

    generator: str
    n_max: int = DEFAULT_N_MAX
    p: int | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.generator not in _GENERATORS:
            raise ValidationError(f"unknown spectrum generator {self.generator!r}")
        if self.n_max < 1:
            raise ValidationError("n_max must be a positive integer")
        if self.generator == "power":
            if self.p is None or int(self.p) < 1:
                raise ValidationError("power spectrum needs a positive integer exponent p")
            object.__setattr__(self, "p", int(self.p))
        if self.generator == "explicit":
            if not self.values:
                raise ValidationError("explicit spectrum needs at least one eigenvalue")
            vals = tuple(float(v) for v in self.values)
            for i, v in enumerate(vals):
                if not math.isfinite(v) or v <= 0.0:
                    raise ValidationError(f"eigenvalue #{i + 1} is not a finite positive number")
                if i > 0 and v <= vals[i - 1]:
                    # repeated eigenvalues are rejected: the modal analysis
                    # assumes simple eigenvalues throughout
                    raise ValidationError(
                        f"eigenvalues must be strictly increasing (entry #{i + 1})"
                    )
            object.__setattr__(self, "values", vals)
            object.__setattr__(self, "n_max", min(self.n_max, len(vals)))

    # -- constructors -------------------------------------------------

    @staticmethod
    def dirichlet(n_max: int = DEFAULT_N_MAX) -> "Spectrum":
        return Spectrum("dirichlet", n_max=n_max)

    @staticmethod
    def scaled(n_max: int = DEFAULT_N_MAX) -> "Spectrum":
        return Spectrum("scaled", n_max=n_max)

    @staticmethod
    def power(p: int, n_max: int = DEFAULT_N_MAX) -> "Spectrum":
        return Spectrum("power", n_max=n_max, p=p)

    @staticmethod
    def explicit(values, n_max: int = DEFAULT_N_MAX) -> "Spectrum":
        return Spectrum("explicit", n_max=n_max, values=tuple(values))

    @staticmethod
    def from_token(token: str, n_max: int = DEFAULT_N_MAX) -> "Spectrum":
        """Parse a CLI token: ``dirichlet | scaled | power:p | file:<path>``."""
        token = token.strip()
        if token == "dirichlet":
            return Spectrum.dirichlet(n_max)
        if token == "scaled":
            return Spectrum.scaled(n_max)
        if token.startswith("power:"):
            try:
                p = int(token.split(":", 1)[1])
            except ValueError as exc:
                raise ValidationError(f"bad power spectrum token {token!r}") from exc
            return Spectrum.power(p, n_max)
        if token.startswith("file:"):
            path = token.split(":", 1)[1]
            return Spectrum.from_file(path, n_max)
        raise ValidationError(f"unknown spectrum token {token!r}")

    @staticmethod
    def from_file(path, n_max: int = DEFAULT_N_MAX) -> "Spectrum":
        """Load an explicit spectrum: one eigenvalue per line, decimal text."""
        values = []
        # a byte that is not UTF-8 reads as U+FFFD, which no number contains
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    values.append(float(text))
                except ValueError as exc:
                    raise ValidationError(f"{path}:{lineno}: not a decimal number: {text!r}") from exc
        return Spectrum.explicit(values, n_max)

    # -- access --------------------------------------------------------

    def eigenvalue(self, n: int) -> float:
        """Return ``lam_n`` (1-based).  Raises IndexError outside 1..n_max."""
        if not 1 <= n <= self.n_max:
            raise IndexError(f"mode index {n} outside 1..{self.n_max}")
        return self._generate(n)

    def _generate(self, n: int) -> float:
        try:
            if self.generator == "dirichlet":
                return (n * math.pi) ** 2
            if self.generator == "scaled":
                return float(n * n)
            if self.generator == "power":
                return (n * math.pi) ** (self.p + 1)
        except OverflowError as exc:
            raise ValidationError(f"lam_{n} of the {self.generator} spectrum leaves the float range") from exc
        return self.values[n - 1]

    def eigenvalue_past_cap(self) -> float | None:
        """``lam_{n_max+1}`` of the generator, or None for an explicit
        list that ends at ``n_max``."""
        if self.generator == "explicit" and len(self.values) <= self.n_max:
            return None
        return self._generate(self.n_max + 1)

    def eigenvalues(self, up_to: int | None = None) -> np.ndarray:
        """Eigenvalues ``lam_1 .. lam_up_to`` as a float array."""
        n = self.n_max if up_to is None else up_to
        return np.array([self.eigenvalue(i) for i in range(1, n + 1)], dtype=float)

    def describe(self) -> dict:
        out: dict = {"generator": self.generator, "n_max": self.n_max}
        if self.generator == "power":
            out["p"] = self.p
        if self.generator == "explicit":
            out["values"] = list(self.values)
        return out
