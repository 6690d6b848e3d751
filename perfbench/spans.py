"""Spans around the public layer entry points of ``beamforge``.

A :class:`Tracer` replaces each target function, matched by identity, in
every ``beamforge.*`` module namespace (and ``ModalSolution.to_json_dict``
on its class) with a wrapper that records a span: name, start, end and
parent.  Spans stay in memory until :meth:`Tracer.dump`.  Targets that a
refactor has removed are listed in :attr:`Tracer.absent`; their metrics
read 0, as do those of layers a workload never calls.

Per-element helpers called more than 1e5 times per operation
(``axial_coefficients``, ``ee_trimodal_membership``,
``Spectrum.eigenvalue``) are deliberately not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

# (span name, module, attribute); a dotted attribute names a method
TARGETS = [
    ("kernels.newton_batch", "beamforge.kernels", "newton_batch"),
    ("oracle.galerkin_solve", "beamforge.oracle", "galerkin_solve"),
    ("oracle.match_against", "beamforge.oracle", "match_against"),
    ("modesets.effective_modes", "beamforge.modesets", "effective_modes"),
    ("modesets.trimodal_ee_triples", "beamforge.modesets", "trimodal_ee_triples"),
    ("unimodal.enumerate_unimodal", "beamforge.unimodal", "enumerate_unimodal"),
    ("bimodal.enumerate_general_bimodal", "beamforge.bimodal", "enumerate_general_bimodal"),
    ("ee_families.enumerate_ee_families", "beamforge.ee_families", "enumerate_ee_families"),
    ("core.modal_residual", "beamforge.core", "modal_residual"),
    ("core.cubic_check", "beamforge.core", "cubic_check"),
    ("core.ModalSolution.to_json_dict", "beamforge.core", "ModalSolution.to_json_dict"),
    ("jsonio.dumps", "beamforge.jsonio", "dumps"),
    ("jsonio.csv_text", "beamforge.jsonio", "csv_text"),
]


@dataclass
class NewtonCall:
    """Counters of one ``newton_batch`` call.  ``kind`` is ``polish``
    for the ``tol == 0`` call, ``deflated`` when known roots were passed
    in ``deflate``, else ``plain``."""

    span: int
    kind: str
    starts: int
    converged: int
    iterations: np.ndarray


def _resolve(module: str, attr: str):
    """``(owner, name, function)`` of a target, or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(name)
    return (owner, name, fn) if callable(fn) else None


class Tracer:
    """Records spans while installed; one tracer serves one run."""

    def __init__(self) -> None:
        self.names = [name for name, _module, _attr in TARGETS]
        # (name index, start ns, end ns, parent span index or -1, op index)
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.newton: list[NewtonCall] = []
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter_ns()

    def _wrap(self, nid: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        observe = self._observe_newton(fn) if self.names[nid] == "kernels.newton_batch" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx] = (nid, t0, clock(), stack[-1] if stack else -1, self.op)
            if observe is not None:
                observe(args, kwargs, out, idx)
            return out

        return wrapper

    def _observe_newton(self, fn):
        sig = inspect.signature(fn)

        def observe(args, kwargs, out, idx):
            bound = sig.bind(*args, **kwargs).arguments
            deflate = bound.get("deflate")
            if bound.get("tol") == 0.0:
                kind = "polish"
            elif deflate is not None and len(deflate):
                kind = "deflated"
            else:
                kind = "plain"
            try:
                _roots, converged, iterations = out
            except (TypeError, ValueError):
                return  # a changed result shape leaves the counters at 0
            converged = np.asarray(converged, dtype=bool)
            self.newton.append(
                NewtonCall(idx, kind, converged.size, int(converged.sum()), np.asarray(iterations))
            )

        return observe

    def install(self) -> None:
        """Patch every target; a target missing from the program is
        recorded as absent."""
        for nid, (name, module, attr) in enumerate(TARGETS):
            found = _resolve(module, attr)
            if found is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            owner, attr_name, fn = found
            wrapper = self._wrap(nid, fn)
            if isinstance(owner, type):
                owners = [(owner, attr_name)]
            else:
                owners = [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name == "beamforge" or mod_name.startswith("beamforge.")
                    for key, value in list(vars(mod).items())
                    if value is fn
                ]
            for target, key in owners:
                self._patches.append((target, key, fn))
                setattr(target, key, wrapper)

    def span_cost(self, calls: int = 20000, repeats: int = 7) -> float:
        """Seconds one span adds to a call: a wrapped no-op against the
        bare one, median of ``repeats`` rounds.  Records nothing."""

        def noop():
            return None

        scratch = Tracer()
        wrapped = scratch._wrap(0, noop)
        clock = time.perf_counter
        costs = []
        for _ in range(repeats):
            scratch.spans.clear()
            t0 = clock()
            for _ in range(calls):
                wrapped()
            t1 = clock()
            for _ in range(calls):
                noop()
            t2 = clock()
            costs.append(((t1 - t0) - (t2 - t1)) / calls)
        costs.sort()
        return max(costs[len(costs) // 2], 0.0)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name, and per ``kernels.<kind>`` of newton_batch:
        inclusive seconds ``s``, ``self_s`` (minus the time child spans
        cover) and ``calls``, summed over all traced operations."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        kinds = {c.span: c.kind for c in self.newton}
        out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in self.names}
        for kind in ("plain", "deflated", "polish"):
            out[f"kernels.{kind}"] = {"s": 0.0, "self_s": 0.0, "calls": 0}
        for i, (nid, t0, t1, _parent, _op) in enumerate(self.spans):
            rows = [out[self.names[nid]]]
            if i in kinds:
                rows.append(out[f"kernels.{kinds[i]}"])
            for row in rows:
                row["s"] += (t1 - t0) * 1e-9
                row["self_s"] += (t1 - t0 - child[i]) * 1e-9
                row["calls"] += 1
        return out

    def dump(self, path) -> None:
        kinds = {c.span: c.kind for c in self.newton}
        doc = {
            "names": self.names,
            "absent": self.absent,
            "columns": ["name", "start_ns", "end_ns", "parent", "op", "newton_kind"],
            "spans": [
                [s[0], s[1] - self._origin, s[2] - self._origin, s[3], s[4], kinds.get(i)]
                for i, s in enumerate(self.spans)
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
