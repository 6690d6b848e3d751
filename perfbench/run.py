"""beamforge benchmark: three fixed workloads, one closed-loop client.

Run from the root of a beamforge checkout:

    python3 perfbench/run.py --workload oracle-paper --seed 0 --seconds 15 --trace 0

Workloads (why each exists is in BENCHMARK.json and README.md):

* ``oracle-paper``    -- time to full inventory of the Galerkin oracle on
  the paper case, one oracle seed per operation, doubling start ladder;
* ``enumerate-deep``  -- ``beamforge enumerate --beta -45000`` through
  ``cli.main``, one very large JSON inventory per operation;
* ``sweep-dirichlet`` -- ``beamforge sweep --spectrum dirichlet --grid
  0:45000:41`` through ``cli.main``, many medium closed-form calls, CSV.

Operations run one at a time until ``--seconds`` have passed and the
workload's minimum count is reached.  Every output is checked by the
benchmark's own residual (``checks.py``) and hashed; a repeat whose hash
differs from the first is a failed operation.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics from spans
(``spans.py``) plus the tracing overhead.  The last line of stdout is the
result object; details and spans go to ``perfbench/out/``.

The program is imported from ``src/`` of the checkout and only through
public entry points: ``cli.main``, ``galerkin_solve`` and ``match_against``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# BLAS pools are capped at one thread, well under nproc, before numpy loads
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# setup_s is the median of this process's set-up and SETUP_PROBES fresh
# interpreters', spread over the run: the machine's speed drifts over
# seconds, so probes taken in one burst share one drift
SETUP_PROBES = 12

# the paper case of the oracle: scaled spectrum, beta=-15.5, varrho=1, k=3
PAPER = {"beta": -15.5, "varrho": 1.0, "k": 3.0, "spectrum": "scaled", "modes": 3}
LADDER = (3000, 6000)  # start budgets; a seed still incomplete at the cap fails
ORACLE_MIN_SEEDS = 3
ORACLE_SEED_STRIDE = 1000  # oracle seed i of workload seed s is s * stride + i

class Op:
    """One finished operation: wall seconds, output digest, problems
    found by the checks (empty when correct)."""

    def __init__(self, seconds, digest, problems, traced, **extra):
        self.seconds = seconds
        self.digest = digest
        self.problems = problems
        self.traced = traced
        self.extra = extra

    def record(self) -> dict:
        return {"seconds": self.seconds, "digest": self.digest, "problems": self.problems,
                "traced": self.traced, **self.extra}


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class CliWorkload:
    """Repeated ``cli.main(argv)`` with ``--out`` to a scratch file."""

    def __init__(self, name, argv, check, perturb, min_ops):
        self.name = name
        self.argv = argv
        self.min_ops = min_ops
        self._check = check
        self._perturb = perturb

    def prepare(self, seed: int, scratch: Path) -> None:
        from beamforge import cli

        self.main = cli.main
        self.out_path = scratch / f"{self.name}.out"
        self.full_argv = [*self.argv, "--out", str(self.out_path)]
        self.first_output = None
        self.peak_rss = None

    def run_op(self, i: int, traced: bool) -> Op:
        from checks import sha256

        if self.out_path.exists():
            self.out_path.unlink()
        t0 = time.perf_counter()
        code = self.main(self.full_argv)
        seconds = time.perf_counter() - t0
        if self.peak_rss is None:  # before the benchmark reads or parses any output
            self.peak_rss = peak_rss_mb()
        data = self.out_path.read_bytes() if self.out_path.exists() else b""
        digest = sha256(data)
        problems = [] if code == 0 else [f"exit code {code}"]
        if self.first_output is None:
            self.first_output, self.first_digest = data, digest
            self.first_problems = self._check(data) if data else ["no output written"]
        elif digest != self.first_digest:
            problems += self._check(data) if data else ["no output written"]
            problems.append("output differs from the first repeat in this run")
        # a byte-identical repeat shares the verdict of the output checked first
        problems += self.first_problems if digest == self.first_digest else []
        return Op(seconds, digest, problems, traced, bytes_out=len(data))

    def self_test(self) -> list[str]:
        return self._check(self._perturb(self.first_output))

    def finish(self, traced: bool) -> list[Op]:
        return []


class OracleWorkload:
    """Time to full inventory on the paper case, one oracle seed per
    operation.  A traced run then solves the first seed's complete rung
    again, untraced, for the determinism check."""

    name = "oracle-paper"
    min_ops = ORACLE_MIN_SEEDS

    def prepare(self, seed: int, scratch: Path) -> None:
        import beamforge
        from beamforge import (
            Params, Spectrum, enumerate_ee_families, enumerate_general_bimodal, enumerate_unimodal,
        )

        # looked up on the package at each call, so the traced run sees its wrappers
        self.program = beamforge
        self.seed = seed
        self.p = Params(beta=PAPER["beta"], varrho=PAPER["varrho"], k=PAPER["k"])
        self.spec = Spectrum.from_token(PAPER["spectrum"])
        n_modes = PAPER["modes"]
        inventory = enumerate_unimodal(self.p, self.spec) + enumerate_general_bimodal(self.p, self.spec)
        # the closed forms the truncation can represent, as ``beamforge oracle`` builds them
        self.closed = [s for s in inventory if max(s.active) <= n_modes]
        self.families = [f for f in enumerate_ee_families(self.p, self.spec) if max(f.modes) <= n_modes]
        self.first = None
        self.backend = None
        self.peak_rss = None

    def _rung(self, oracle_seed: int, starts: int):
        t0 = time.perf_counter()
        result = self.program.galerkin_solve(self.p, self.spec, PAPER["modes"], starts, seed=oracle_seed)
        report = self.program.match_against(self.closed, self.families, result.found)
        seconds = time.perf_counter() - t0
        if self.peak_rss is None:
            self.peak_rss = peak_rss_mb()
        self.backend = getattr(result, "backend", None)
        roots = [[(n, a, g) for n, (a, g) in sorted(sol.modes.items())] for sol in result.found]
        return seconds, report, roots

    def _check_rung(self, report, roots) -> list[str]:
        from checks import check_roots

        problems = check_roots(roots, PAPER["spectrum"], self.p.beta, self.p.varrho, self.p.k)
        if report.unmatched:
            problems.append(f"{len(report.unmatched)} roots match no closed-form solution")
        return problems

    def run_op(self, i: int, traced: bool) -> Op:
        from checks import sha256

        oracle_seed = self.seed * ORACLE_SEED_STRIDE + i
        total, rungs, problems, complete = 0.0, [], [], None
        for starts in LADDER:
            seconds, report, roots = self._rung(oracle_seed, starts)
            total += seconds
            rungs.append({"starts": starts, "seconds": seconds, "found": len(roots),
                          "missed": len(report.missed_closed)})
            problems += self._check_rung(report, roots)
            if not report.missed_closed and not report.unmatched:
                complete = starts
                break
        if complete is None:
            problems.append(f"inventory incomplete at the cap of {LADDER[-1]} starts")
        digest = sha256(repr(roots).encode())
        if self.first is None:
            self.first = (oracle_seed, rungs[-1]["starts"], digest, roots)
        return Op(total, digest, problems, traced, oracle_seed=oracle_seed, rungs=rungs,
                  starts_to_inventory=complete or 0, roots_found=len(roots))

    def self_test(self) -> list[str]:
        from checks import check_roots, perturb_roots

        return check_roots(perturb_roots(self.first[3]), PAPER["spectrum"], self.p.beta,
                           self.p.varrho, self.p.k)

    def finish(self, traced: bool) -> list[Op]:
        """Repeat the first seed's last rung; its digest must match."""
        from checks import sha256

        if not traced:
            return []
        oracle_seed, starts, digest, _roots = self.first
        seconds, report, roots = self._rung(oracle_seed, starts)
        problems = self._check_rung(report, roots)
        new = sha256(repr(roots).encode())
        if new != digest:
            problems.append("repeat of the first seed's rung produced different roots")
        return [Op(seconds, new, problems, False, oracle_seed=oracle_seed, repeat_of_starts=starts)]


def make_workloads():
    import checks

    return {
        "oracle-paper": OracleWorkload(),
        "enumerate-deep": CliWorkload(
            "enumerate-deep",
            ["enumerate", "--beta", "-45000"],
            lambda data: checks.check_enumerate(data, {"unimodal": 512, "general_bimodal": 16128}),
            checks.perturb_enumerate,
            min_ops=11,  # about run_seconds of calls; one set-up probe after each
        ),
        "sweep-dirichlet": CliWorkload(
            "sweep-dirichlet",
            ["sweep", "--spectrum", "dirichlet", "--grid", "0:45000:41"],
            lambda data: checks.check_sweep(data, "dirichlet", 1.0, 1.0, 63744),
            checks.perturb_sweep,
            min_ops=1,
        ),
    }


WORKLOAD_NAMES = ("oracle-paper", "enumerate-deep", "sweep-dirichlet")


# ----------------------------------------------------------------------
# set-up, environment, metrics
# ----------------------------------------------------------------------


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import beamforge
    from it; refuse to fall back on any other installed copy."""
    init = SRC / "beamforge" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no beamforge sources at {init.relative_to(ROOT)}; "
                         "run from the root of a beamforge checkout")
    sys.path.insert(0, str(SRC))
    import beamforge

    if Path(beamforge.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported beamforge from {beamforge.__file__}, not {init}")


def setup(name: str, seed: int, scratch: Path):
    """Import plus reference/argv build: everything before the first
    timed operation.  Returns ``(seconds, workload)``."""
    t0 = time.perf_counter()
    import_program()
    import numpy  # noqa: F401  (part of what a user's first call pays)
    from beamforge import cli  # noqa: F401

    workload = make_workloads()[name]
    workload.prepare(seed, scratch)
    return time.perf_counter() - t0, workload


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def environment(backend) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "oracle_backend": backend,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def oracle_backend(workload):
    """``OracleResult.backend`` of the oracle this checkout runs; the
    closed-form workloads ask a one-start solve after their timed loop."""
    backend = getattr(workload, "backend", None)
    if backend is None:
        from beamforge import Params, Spectrum, galerkin_solve

        result = galerkin_solve(Params(beta=-15.5, varrho=1.0, k=3.0), Spectrum.scaled(), 1, 1)
        backend = getattr(result, "backend", None)
    return backend


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer, ops: list[Op], span_cost: float) -> dict:
    """Per-layer metrics, per traced operation.  The tracing overhead is
    the spans of an operation times the measured cost of one span.  The
    start, convergence and iteration figures leave out the polish call
    (``tol == 0``), which never converges by design; a workload that
    makes no Newton call reads 0 for them."""
    import numpy

    traced = [op for op in ops if op.traced]
    n = len(traced)
    tot = tracer.totals()
    calls = [c for c in tracer.newton if c.kind != "polish"]
    starts = sum(c.starts for c in calls)
    converged = sum(c.converged for c in calls)
    iters = numpy.concatenate([c.iterations for c in calls]) if calls else None

    def pct(q):
        return float(numpy.percentile(iters, q)) if iters is not None and iters.size else 0.0

    spans = len(tracer.spans) / n
    overhead = spans * span_cost
    op_s = statistics.median(op.seconds for op in traced)

    def per_op(layer, field="s"):
        return tot[layer][field] / n

    def median_of(key):
        return statistics.median(op.extra.get(key, 0) for op in traced)

    values = {
        "kernels.newton_batch.s": (per_op("kernels.newton_batch"), "s"),
        "kernels.newton_batch.calls": (per_op("kernels.newton_batch", "calls"), "count"),
        "kernels.newton_batch.starts": (starts / n, "count"),
        "kernels.newton_batch.converged": (converged / n, "count"),
        "kernels.newton_batch.converged_ratio": (converged / starts if starts else 0.0, "ratio"),
        "kernels.deflated.s": (per_op("kernels.deflated"), "s"),
        "kernels.deflated.converged": (sum(c.converged for c in calls if c.kind == "deflated") / n, "count"),
        "kernels.iterations.p50": (pct(50), "count"),
        "kernels.iterations.p99": (pct(99), "count"),
        "kernels.iterations.max": (pct(100), "count"),
        "kernels.stalled": ((starts - converged) / n, "count"),
        "kernels.polish.s": (per_op("kernels.polish"), "s"),
        "oracle.galerkin_solve.self_s": (per_op("oracle.galerkin_solve", "self_s"), "s"),
        "oracle.match_against.s": (per_op("oracle.match_against"), "s"),
        "oracle.starts_to_inventory": (median_of("starts_to_inventory"), "count"),
        "oracle.roots_found": (median_of("roots_found"), "count"),
        "modesets.effective_modes.s": (per_op("modesets.effective_modes"), "s"),
        "modesets.effective_modes.calls": (per_op("modesets.effective_modes", "calls"), "count"),
        "unimodal.enumerate_unimodal.s": (per_op("unimodal.enumerate_unimodal"), "s"),
        "bimodal.enumerate_general_bimodal.s": (per_op("bimodal.enumerate_general_bimodal"), "s"),
        "ee_families.enumerate_ee_families.s": (per_op("ee_families.enumerate_ee_families"), "s"),
        "modesets.trimodal_ee_triples.s": (per_op("modesets.trimodal_ee_triples"), "s"),
        "core.modal_residual.s": (per_op("core.modal_residual"), "s"),
        "core.modal_residual.calls": (per_op("core.modal_residual", "calls"), "count"),
        "core.cubic_check.s": (per_op("core.cubic_check"), "s"),
        "core.cubic_check.calls": (per_op("core.cubic_check", "calls"), "count"),
        "core.ModalSolution.to_json_dict.s": (per_op("core.ModalSolution.to_json_dict"), "s"),
        "jsonio.dumps.s": (per_op("jsonio.dumps"), "s"),
        "jsonio.csv_text.s": (per_op("jsonio.csv_text"), "s"),
        "bytes_out": (median_of("bytes_out"), "B"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_ratio": (overhead / max(op_s - overhead, 1e-9), "ratio"),
        "trace.spans": (spans, "count"),
    }
    return {name: metric(value, unit) for name, (value, unit) in values.items()}


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def run(args, scratch: Path) -> int:
    setup_s, workload = setup(args.workload, args.seed, scratch)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()

    # a traced run repeats its work untraced, for the determinism check
    min_ops = max(workload.min_ops, 2 if tracer else 1)
    ops: list[Op] = []
    probes: list[float] = []
    per_gap = -(-SETUP_PROBES // (workload.min_ops + 1))

    def probe(count):
        """Time up to ``count`` more set-ups in fresh interpreters, in the
        gaps between operations of an untraced run."""
        while not tracer and count > 0 and len(probes) < SETUP_PROBES:
            probes.append(probe_setup(args.workload, args.seed))
            count -= 1

    probe(per_gap)
    t_start = time.perf_counter()
    i = 0
    while True:
        # the traced run interleaves untraced repeats of the same work on
        # the closed-form workloads; their digests must match the traced ones
        traced = tracer is not None and (workload.name == "oracle-paper" or i % 2 == 0)
        if traced:
            tracer.op = i
            tracer.install()
        try:
            ops.append(workload.run_op(i, traced))
        finally:
            if traced:
                tracer.uninstall()
        i += 1
        probe(per_gap if i <= workload.min_ops else 1)
        if time.perf_counter() - t_start >= args.seconds and i >= min_ops:
            break
    probe(SETUP_PROBES)
    repeats = workload.finish(tracer is not None)
    all_ops = ops + repeats
    failed = sum(1 for op in all_ops if op.problems)
    self_test = workload.self_test()
    correct = failed == 0 and bool(self_test)

    env = environment(oracle_backend(workload))
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "setup_s_in_process": setup_s,
        "self_test_problems": self_test, "ops": [op.record() for op in all_ops],
    }
    if args.trace:
        span_cost = tracer.span_cost()
        detail["span_cost_s"] = span_cost
        metrics = layer_metrics(tracer, ops, span_cost)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        tracer.dump(spans_path)
        detail["absent_layers"] = tracer.absent
        print(json.dumps({"absent_layers": tracer.absent,
                          "spans_file": str(spans_path.relative_to(ROOT))}))
    else:
        samples = [setup_s] + probes
        detail["setup_samples"] = samples
        metrics = {
            "op_s": metric(statistics.median(op.seconds for op in ops), "s"),
            "setup_s": metric(statistics.median(samples), "s"),
            "peak_rss_mb": metric(workload.peak_rss, "MB"),
        }
    detail["metrics"] = metrics
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str), encoding="utf-8")

    for op in all_ops:
        for problem in op.problems:
            print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    if not self_test:
        print("perfbench: self-test: a perturbed coefficient passed the checks", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": correct, "attempted": len(all_ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # numpy is imported later, inside setup()
        os.environ[var] = "1"
    if args.setup_probe:
        with tempfile.TemporaryDirectory(prefix="probe-", dir=OUT) as tmp:
            seconds, _workload = setup(args.workload, args.seed, Path(tmp))
        print(repr(seconds))
        return 0
    if not (SRC / "beamforge" / "__init__.py").is_file():
        print("perfbench: no src/beamforge here; run from the root of a beamforge checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=OUT))
    try:
        return run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
