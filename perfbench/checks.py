"""Correctness checks owned by the benchmark.

The modal equations are written here from the model statement, not
imported from ``beamforge.core``, so a defect in the program's own
verification cannot hide a wrong answer.  For modes ``n`` with
eigenvalue ``lam_n`` and coefficients ``(a_n, g_n)``::

    lam^2 a + C_u lam a + k (a - g) = 0
    lam^2 g + C_v lam g - k (a - g) = 0

with ``C_u = beta + varrho * sum(lam_j a_j^2)`` and ``C_v`` alike.
A solution passes when its worst residual, divided by its largest term
(floored at 1), is at most ``RESIDUAL_TOL``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

import numpy as np

RESIDUAL_TOL = 1e-9
AXIAL_TOL = 1e-9
SELF_TEST_FACTOR = 1.0 + 1e-6


def eigenvalues(spectrum: str, n: np.ndarray) -> np.ndarray:
    """``lam_n`` of the hinged beam (``(n pi)^2``) or its ``1/pi^2``
    rescaling (``n^2``)."""
    n = np.asarray(n, dtype=float)
    if spectrum == "dirichlet":
        return (n * np.pi) ** 2
    if spectrum == "scaled":
        return n * n
    raise ValueError(f"no independent eigenvalues for spectrum {spectrum!r}")


def relative_residuals(beta, varrho, k, lam, alpha, gamma) -> np.ndarray:
    """Worst relative residual of each solution.

    ``lam``, ``alpha`` and ``gamma`` have shape ``(S, M)``; a solution
    with fewer than ``M`` modes is padded with zero coefficients, which
    add nothing to either equation.  ``beta`` is a scalar or shape ``(S,)``.
    """
    beta = np.broadcast_to(np.asarray(beta, dtype=float), alpha.shape[:1])
    cu = beta + varrho * (lam * alpha * alpha).sum(axis=1)
    cv = beta + varrho * (lam * gamma * gamma).sum(axis=1)
    lin_a = lam * lam * alpha
    lin_g = lam * lam * gamma
    ax_a = cu[:, None] * lam * alpha
    ax_g = cv[:, None] * lam * gamma
    r1 = lin_a + ax_a + k * (alpha - gamma)
    r2 = lin_g + ax_g - k * (alpha - gamma)
    worst = np.maximum(np.abs(r1), np.abs(r2)).max(axis=1)
    terms = np.stack([lin_a, ax_a, lin_g, ax_g, k * alpha, k * gamma])
    scale = np.maximum(1.0, np.abs(terms).max(axis=(0, 2)))
    return worst / scale


def _padded(solutions, spectrum: str):
    """Stack ``[[(n, a, g), ...], ...]`` into zero-padded ``(S, M)`` arrays
    of eigenvalues and coefficients."""
    width = max((len(s) for s in solutions), default=1) or 1
    n = np.ones((len(solutions), width))
    a = np.zeros((len(solutions), width))
    g = np.zeros((len(solutions), width))
    for i, modes in enumerate(solutions):
        for j, (nn, aa, gg) in enumerate(modes):
            n[i, j], a[i, j], g[i, j] = nn, aa, gg
    return eigenvalues(spectrum, n), a, g


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_enumerate(data: bytes, expect: dict) -> list[str]:
    """Problems with one ``beamforge enumerate`` JSON document; empty
    when it is correct."""
    doc = json.loads(data)
    problems = []
    if doc["verification"]["passed"] is not True:
        problems.append("verification.passed is not true")
    params, spectrum = doc["params"], doc["spectrum"]["generator"]
    sols = doc["unimodal"] + doc["general_bimodal"]
    counts = {"unimodal": len(doc["unimodal"]), "general_bimodal": len(doc["general_bimodal"])}
    for key, want in expect.items():
        if counts[key] != want or doc["counts"][key] != want:
            problems.append(f"{key}: {counts[key]} emitted, counts says {doc['counts'][key]}, expected {want}")
    lam, a, g = _padded([[(m["n"], m["alpha"], m["gamma"]) for m in s["modes"]] for s in sols], spectrum)
    beta, varrho, k = params["beta"], params["varrho"], params["k"]
    rel = relative_residuals(beta, varrho, k, lam, a, g)
    bad = int((~(rel <= RESIDUAL_TOL)).sum())
    if bad:
        problems.append(f"{bad} solutions exceed the residual bound (worst {rel.max():.3g})")
    # the emitted axial tensions must be the ones the coefficients imply
    load_u = varrho * (lam * a * a).sum(axis=1)
    load_v = varrho * (lam * g * g).sum(axis=1)
    cu = np.array([s["C_u"] for s in sols], dtype=float)
    cv = np.array([s["C_v"] for s in sols], dtype=float)
    scale = np.maximum.reduce([np.ones_like(cu), np.full_like(cu, abs(beta)), load_u, load_v])
    off = np.maximum(np.abs(cu - beta - load_u), np.abs(cv - beta - load_v)) / scale
    if (~(off <= AXIAL_TOL)).any():
        problems.append(f"{int((~(off <= AXIAL_TOL)).sum())} solutions carry wrong C_u/C_v")
    return problems


SWEEP_HEADER = [
    "beta", "branch_id", "modes", "alpha_1", "gamma_1", "alpha_2", "gamma_2",
    "count_unimodal", "count_ee_families", "count_general_bimodal",
]


def check_sweep(data: bytes, spectrum: str, varrho: float, k: float, expect_rows: int) -> list[str]:
    """Problems with one ``beamforge sweep`` CSV; every unimodal row
    (``branch_id`` ``n<N>:...``) is a solution at its own ``beta``."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    problems = []
    if rows[0] != SWEEP_HEADER:
        problems.append(f"unexpected header {rows[0]}")
    body = rows[1:]
    if len(body) != expect_rows:
        problems.append(f"{len(body)} rows, expected {expect_rows}")
    uni = [r for r in body if r[1].startswith("n")]
    if not uni:
        return problems + ["no unimodal rows"]
    beta = np.array([float(r[0]) for r in uni])
    lam = eigenvalues(spectrum, np.array([[int(r[2])] for r in uni]))
    a = np.array([[float(r[3])] for r in uni])
    g = np.array([[float(r[4])] for r in uni])
    rel = relative_residuals(beta, varrho, k, lam, a, g)
    bad = int((~(rel <= RESIDUAL_TOL)).sum())
    if bad:
        problems.append(f"{bad} unimodal rows exceed the residual bound (worst {rel.max():.3g})")
    return problems


def check_roots(roots, spectrum: str, beta: float, varrho: float, k: float) -> list[str]:
    """Problems with oracle roots, each ``[(n, alpha, gamma), ...]``."""
    lam, a, g = _padded(roots, spectrum)
    rel = relative_residuals(beta, varrho, k, lam, a, g)
    bad = int((~(rel <= RESIDUAL_TOL)).sum())
    return [f"{bad} oracle roots exceed the residual bound (worst {rel.max():.3g})"] if bad else []


def perturb_enumerate(data: bytes) -> bytes:
    """Copy of an enumerate document with its largest coefficient nudged
    by a relative ``1e-6``: the checks above must reject it."""
    doc = json.loads(data)
    modes = [m for s in doc["unimodal"] + doc["general_bimodal"] for m in s["modes"]]
    max(modes, key=lambda m: abs(m["alpha"]))["alpha"] *= SELF_TEST_FACTOR
    return json.dumps(doc).encode()


def perturb_sweep(data: bytes) -> bytes:
    """Copy of a sweep CSV with its largest ``alpha_1`` nudged."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    row = max(rows[1:], key=lambda r: abs(float(r[3])))
    row[3] = repr(float(row[3]) * SELF_TEST_FACTOR)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode()


def perturb_roots(roots):
    """Oracle roots with their largest coefficient nudged."""
    out = [list(r) for r in roots]
    i, j = max(((i, j) for i, r in enumerate(out) for j in range(len(r))),
               key=lambda ij: abs(out[ij[0]][ij[1]][1]))
    n, a, g = out[i][j]
    out[i][j] = (n, a * SELF_TEST_FACTOR, g)
    return out
