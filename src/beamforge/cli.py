"""``beamforge`` command line: enumeration, verification, sweeps, export.

Each command returns 0 or raises; :func:`main` alone maps the outcome
to an exit code and a ``beamforge: ...`` line on stderr.  Exit codes: 0
on success, 2 on a validation error (bad input) or a failed allocation,
3 on a verification failure (an emitted solution missed its residual
bound, which means a bug, and is surfaced loudly).  Output goes to
stdout or ``--out`` piece by piece, after every check that can exit 2:
such an exit writes nothing and leaves an existing ``--out`` file as it
was, while an exit 3 writes the whole document first.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import jsonio
from .bimodal import (
    _pair_table,
    branch_rows,
    bstar_pairs,
    count_general_bimodal,
    general_bimodal_inventory,
    pair_table,
)
from .core import Inventory, Params, solution_sort_key, verified_records
from .ee_families import enumerate_ee_families, sample_family
from .errors import ValidationError, VerificationError
from .modesets import (
    ModeSetPartition,
    count_ee_families,
    ee_family_thresholds,
    _check_mode_count,
    _mode_states,
    _mode_table,
    effective_modes,
)
from .spectrum import Spectrum
from .unimodal import _GAMMA_SIGN, _PARTNER, unimodal_inventory

CUBIC_TOL = 1e-9


def build_parser() -> argparse.ArgumentParser:
    # the options every model command reads, one parent for each option
    # that only some of them read, and --out, which comes last in each
    common, beta, tol_cond, tol_res, seed, out = (argparse.ArgumentParser(add_help=False) for _ in range(6))
    common.add_argument("--varrho", type=float, default=1.0, help="extensibility coefficient, positive")
    common.add_argument("--k", type=float, default=1.0, help="coupling stiffness ratio, positive")
    common.add_argument(
        "--spectrum",
        default="dirichlet",
        help="eigenvalue generator: dirichlet | scaled | power:p | file:<path>",
    )
    common.add_argument("--nmax", type=int, default=64, help="enumeration cap on mode indices")
    beta.add_argument("--beta", type=float, default=0.0, help="axial load parameter (negative compresses)")
    tol_cond.add_argument("--tol-cond", type=float, default=1e-9, dest="tol_cond",
                          help="relative tolerance for resonance equalities")
    tol_res.add_argument("--tol-res", type=float, default=1e-10, dest="tol_res",
                         help="relative residual bound for verification")
    seed.add_argument("--seed", type=int, default=0,
                      help="nonnegative seed of the random.Random stream that draws oracle starts and family "
                      "samples; a seed gives the same draws on every Python version")
    out.add_argument("--out", type=Path, default=None, help="write output here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="beamforge",
        description="Closed-form steady states of coupled extensible double beams, "
        "with residual verification and a brute-force cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("sets", parents=[beta, common, tol_cond, out], help="effective-mode partition and resonant index sets")

    p_uni = sub.add_parser("unimodal", parents=[beta, common, tol_res, out], help="single-mode solutions; CSV gives amplitude-vs-compression branches")
    p_uni.add_argument("--csv", action="store_true", help="emit the branch table as CSV instead of JSON")
    p_uni.add_argument("--mode", type=int, default=1, help="mode index for the CSV branch table")
    p_uni.add_argument("--grid", default=None, help="compression grid lo:hi:count (in -beta) for the CSV")
    p_uni.add_argument("--gnuplot", type=Path, default=None,
                       help="also write a gnuplot script for the CSV (needs --csv and --out)")

    p_enum = sub.add_parser("enumerate", parents=[beta, common, tol_cond, tol_res, seed, out], help="full solution inventory with verification block")
    p_enum.add_argument("--samples", type=int, default=0, help="verified samples to draw per EE family")
    p_enum.add_argument("--pairs", action="append", default=None, metavar="N1,N2",
                        help="restrict the bimodal scan to these pairs (repeatable)")

    p_single = sub.add_parser("single", parents=[beta, common, tol_cond, out], help="single-beam comparison models")
    p_single.add_argument("--model", choices=("plain", "foundation"), required=True)

    p_oracle = sub.add_parser("oracle", parents=[beta, common, tol_cond, seed, out], help="brute-force Galerkin solve and matching report")
    p_oracle.add_argument("--modes", type=int, default=3, help="Galerkin truncation order N")
    p_oracle.add_argument("--starts", type=int, default=2000, help="number of random starts")

    p_sweep = sub.add_parser("sweep", parents=[common, tol_cond, out], help="branch coefficients over a compression grid (CSV)")
    p_sweep.add_argument("--grid", default="0:20:41", help="compression grid lo:hi:count (in -beta)")
    p_sweep.add_argument("--track", default=None, metavar="N,N,...",
                         help="modes to track (default: all effective at max compression)")
    p_sweep.add_argument("--pairs", action="append", default=None, metavar="N1,N2",
                         help="also track these bimodal pairs (repeatable)")
    p_sweep.add_argument("--gnuplot", type=Path, default=None,
                         help="also write a gnuplot script for the CSV (needs --out)")

    p_conv = sub.add_parser("convert", help="physical beam data -> dimensionless parameters")
    p_conv.add_argument("--ell", type=float, required=True, help="natural length")
    p_conv.add_argument("--h", type=float, required=True, help="thickness")
    p_conv.add_argument("--E", type=float, required=True, dest="E_mod", help="Young modulus")
    p_conv.add_argument("--nu", type=float, required=True, dest="nu_poisson", help="Poisson ratio")
    p_conv.add_argument("--D", type=float, required=True, dest="D_axial", help="axial end displacement")
    p_conv.add_argument("--kappa", type=float, required=True, dest="kappa_core", help="core stiffness")
    p_conv.add_argument("--area", type=float, required=True, dest="omega_area", help="cross-section area")
    p_conv.add_argument("--rho", type=float, default=None, dest="rho_density", help="mass density (optional)")
    p_conv.add_argument("--out", type=Path, default=None)

    return parser


def _context(args) -> tuple[Params, Spectrum]:
    # check only the options the command takes
    given = vars(args)
    for flag, dest in (("--tol-cond", "tol_cond"), ("--tol-res", "tol_res")):
        if dest in given and not (math.isfinite(given[dest]) and given[dest] > 0.0):
            raise ValidationError(f"{flag} must be a finite positive number, got {given[dest]}")
    for flag, dest in (("--seed", "seed"), ("--samples", "samples")):
        if given.get(dest, 0) < 0:
            raise ValidationError(f"{flag} must be nonnegative, got {given[dest]}")
    return (
        Params(beta=given.get("beta", 0.0), varrho=args.varrho, k=args.k),
        Spectrum.from_token(args.spectrum, n_max=args.nmax),
    )


@contextlib.contextmanager
def _output(out: Path | None):
    """The ``write`` of stdout, or of the file ``out``, opened (and an
    existing one emptied) here: enter it only after the checks that can
    fail, so that a failed command writes nothing."""
    if out is None:
        yield sys.stdout.write
    else:
        with out.open("w", encoding="utf-8") as f:
            yield f.write


def _write(doc, out: Path | None) -> None:
    """Write the JSON document ``doc`` piece by piece."""
    jsonio.check(doc)
    with _output(out) as write:
        jsonio.dump(doc, write)


def _finish(args, p: Params, spec: Spectrum, body: dict, passed: bool = True) -> int:
    """Write the JSON document of a model command: the ``params`` and
    ``spectrum`` it ran on, then ``body``.  A failed verification raises
    once the whole document is written."""
    _write({"params": p.describe(), "spectrum": spec.describe(), **body}, args.out)
    if not passed:
        raise VerificationError("verification failed (internal inconsistency)")
    return 0


def _check_gnuplot(args, csv: bool) -> None:
    """The gnuplot script plots the CSV file, so it needs one."""
    if args.gnuplot is not None and not (csv and args.out is not None):
        raise ValidationError("--gnuplot needs CSV output written to a file with --out")


def _parse_grid(token: str) -> list[float]:
    try:
        lo_s, hi_s, count_s = token.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError as exc:
        raise ValidationError(f"bad grid {token!r}, expected lo:hi:count") from exc
    if count < 0:
        raise ValidationError("grid count must be nonnegative")
    if count == 0:
        return []
    if count == 1:
        return [lo]
    stepw = (hi - lo) / (count - 1)
    return [lo + i * stepw for i in range(count)]


def _parse_pairs(tokens) -> list[tuple[int, int]] | None:
    if not tokens:
        return None
    pairs = []
    for token in tokens:
        try:
            n1, n2 = (int(x) for x in token.split(","))
        except ValueError as exc:
            raise ValidationError(f"bad pair {token!r}, expected N1,N2") from exc
        # int64, as in bimodal._pair_table; checked here to exit 2 before
        # any work (the library call raises NumPy's OverflowError)
        if not 0 < n1 < n2 <= np.iinfo(np.int64).max:
            raise ValidationError(f"pair {token!r} must be strictly increasing, positive and below 2**63")
        pairs.append((n1, n2))
    return pairs


def _verify(records, tol_res) -> dict:
    """Tag-blind verification block over the checks of every emitted
    solution, held by its :func:`verified_records`.  A NaN check is the
    maximum, so the block fails and the emitter rejects it."""
    maxima = [[np.max(r.checks.residual, initial=0.0), np.max(r.checks.cubic, initial=0.0)] for r in records]
    max_res, max_cubic = np.max(maxima, axis=0).tolist()
    passed = max_res <= tol_res and max_cubic <= CUBIC_TOL
    return {
        "max_relative_residual": max_res,
        "max_cubic_relative": max_cubic,
        "residual_tolerance": tol_res,
        "cubic_tolerance": CUBIC_TOL,
        "passed": passed,
    }


def _partition_notes(part: ModeSetPartition, spec: Spectrum) -> list[str]:
    """The notes of ``sets`` and ``enumerate`` on the effective modes:
    none at all, or more than ``n_max`` of them."""
    notes = []
    if not part.E:
        notes.append("E empty: only the trivial solution exists")
    if part.truncated:
        notes.append(
            f"E truncated at n_max = {spec.n_max}: lam_{spec.n_max + 1} < -beta too, "
            "so effective modes above n_max are left out; raise --nmax"
        )
    return notes


def cmd_sets(args) -> int:
    p, spec = _context(args)
    part = effective_modes(p, spec)
    boundaries = dict(zip(("lambda", "mu", "nu"), _mode_table(spec.eigenvalues(part.n_star), p.k).tolist()))
    families = enumerate_ee_families(p, spec, args.tol_cond)
    return _finish(args, p, spec, {
        "sets": part.describe(),
        "boundaries": boundaries,
        **{kind: [list(f.modes) for f in families if f.kind == kind] for kind in ("B1", "B2", "T")},
        "Bstar": [{"pair": list(pair), "kind": kind} for pair, kind in bstar_pairs(p, spec)],
        "notes": _partition_notes(part, spec),
    })


def cmd_unimodal(args) -> int:
    p, spec = _context(args)
    _check_gnuplot(args, args.csv)
    if args.csv:
        # the mode is read whatever the grid holds, an empty one too
        table = _mode_table([spec.eigenvalue(args.mode)], p.k)
        grid = _parse_grid(args.grid or f"0:{max(1.0, -p.beta)}:101")
        states = _mode_states(table, -np.array(grid, dtype=float), p.varrho, p.k)
        header = ["minus_beta"]
        for i in (1, 2, 3, 4):
            header += [f"alpha{i}_plus", f"alpha{i}_minus"]
        rows = [
            [mb, *(x for a, shown in zip(amps, rep) for x in ((a, -a) if shown else (None, None)))]
            for mb, amps, rep in zip(grid, states.amplitude[:, 0].tolist(), states.reported[:, 0].tolist())
        ]
        text = jsonio.csv_text(header, rows)
        with _output(args.out) as write:
            write(text)
        if args.gnuplot is not None:
            args.gnuplot.write_text(_gnuplot_script(args.out, header), encoding="utf-8")
        return 0
    sols = unimodal_inventory(p, spec)
    records = verified_records(sols, p, spec)
    verification = _verify([records], args.tol_res)
    return _finish(
        args, p, spec, {"count": len(sols), "solutions": records, "verification": verification},
        passed=verification["passed"],
    )


def cmd_enumerate(args) -> int:
    p, spec = _context(args)
    part = effective_modes(p, spec)
    pairs = _parse_pairs(args.pairs)
    if pairs is not None:
        # a repeated pair lists its solutions once, at its first place
        pairs = list(dict.fromkeys(pairs))
    unimodal = unimodal_inventory(p, spec)
    families = enumerate_ee_families(p, spec, args.tol_cond)
    general = general_bimodal_inventory(p, spec, pairs)
    unimodal_records = verified_records(unimodal, p, spec)
    general_records = verified_records(general, p, spec)
    records = [unimodal_records, general_records]
    family_docs = []
    for fi, fam in enumerate(families):
        fdoc = fam.to_json_dict()
        if args.samples > 0:
            drawn = Inventory.from_solutions(sample_family(fam, args.samples, seed=args.seed + fi))
            fdoc["samples"] = verified_records(drawn, p, spec)
            records.append(fdoc["samples"])
        family_docs.append(fdoc)
    verification = _verify(records, args.tol_res)
    return _finish(args, p, spec, {
        "counts": {
            "unimodal": len(unimodal),
            "ee_families": len(families),
            "general_bimodal": len(general),
        },
        "unimodal": unimodal_records,
        "ee_families": family_docs,
        "general_bimodal": general_records,
        "verification": verification,
        "notes": _partition_notes(part, spec),
    }, passed=verification["passed"])


def cmd_single(args) -> int:
    from .single_beam import enumerate_foundation, enumerate_plain

    p, spec = _context(args)
    result = (
        enumerate_plain(p, spec)
        if args.model == "plain"
        else enumerate_foundation(p, spec, args.tol_cond)
    )
    return _finish(args, p, spec, {"result": result.describe()})


def cmd_oracle(args) -> int:
    from .oracle import galerkin_solve, match_against

    p, spec = _context(args)
    result = galerkin_solve(p, spec, args.modes, args.starts, seed=args.seed)
    # reconcile against the closed forms on the modes of the truncation
    truncated = dataclasses.replace(spec, n_max=args.modes)
    closed = unimodal_inventory(p, truncated).solutions() + general_bimodal_inventory(p, truncated).solutions()
    closed.sort(key=solution_sort_key)
    families = enumerate_ee_families(p, truncated, args.tol_cond)
    report = match_against(closed, families, result.found)
    return _finish(args, p, spec, {
        "oracle": result.describe(p, spec, report),
        "matching": report.describe(),
        "closed_form_count": len(closed),
    }, passed=not report.unmatched)


def _pair_lines(beta_text: str, tail: str, pair_rows) -> str:
    """The CSV lines, each ending in a newline, of the pairs (``b...``)
    of one compression, whose :func:`branch_rows` are ``pair_rows``, in
    branch id order."""
    pair_lines = []
    for (n1, n2), kind, (a1, g1), (a2, g2) in pair_rows:
        sig = ("+" if a1 > 0 else "-") + ("+" if a2 > 0 else "-")
        branch_id = f"b{n1}-{n2}:{kind}{sig}"
        amplitudes = ",".join(map(jsonio.format_float, (a1, g1, a2, g2)))
        pair_lines.append((branch_id, f"{beta_text},{branch_id},{n1};{n2},{amplitudes},{tail}\n"))
    # stable, so a repeated pair keeps its rows in argument order
    pair_lines.sort(key=lambda item: item[0])
    return "".join(line for _, line in pair_lines)


# the signs of a value's cell on an entry's row and on its sign image's
# row, by _sign_class; zero has no sign, as format_float normalizes it
_SIGNS = (("", "-"), ("-", ""), ("", ""))


def _sign_class(x: np.ndarray) -> np.ndarray:
    """0 for a positive value, 1 for a negative one, 2 for zero."""
    return np.where(x > 0, 0, np.where(x < 0, 1, 2))


def _mode_ids(modes: list[int]) -> np.ndarray:
    """The ``branch_id`` and ``modes`` cells of the rows of ``modes``, per
    family and sign, for :func:`_mode_lines`."""
    ids = np.empty(8 * len(modes), dtype=object)
    ids[:] = [f"n{n}:alpha{i}{sign},{n}," for n in modes for i in (1, 2, 3, 4) for sign in "+-"]
    return ids.reshape(-1, 4, 2)


def _mode_lines(ids: np.ndarray, states, beta_texts: list[str], tails: list[str]):
    """Per compression of ``states`` in turn, the CSV lines of the rows
    of the modes of ``ids`` (:func:`_mode_ids`), whose table ``states``
    evaluates, as one text whose lines each end in a newline.
    ``beta_texts`` and ``tails`` are the compressions' ``beta`` cells and
    count cells."""
    compression, row, family = np.nonzero(states.reported)
    alpha = states.amplitude[compression, row, family]
    # gamma is a signed partner amplitude; families 3 and 4 are reported
    # together, so the partner of each entry is next to it
    partner = np.arange(len(family)) + (_PARTNER - np.arange(4))[family]
    sign = 3 * _sign_class(alpha) + _sign_class(_GAMMA_SIGN[family] * alpha[partner])
    # an entry's row and its sign image's row, per compression and sign
    # class of alpha and of gamma; beta and count cells hold no "%"
    templates = [
        f"{beta_text},%s{a}%s,{g}%s,,,{tail}\n{beta_text},%s{a_image}%s,{g_image}%s,,,{tail}\n"
        for beta_text, tail in zip(beta_texts, tails) for a, a_image in _SIGNS for g, g_image in _SIGNS
    ]
    lines = list(map(templates.__getitem__, (9 * compression + sign).tolist()))
    # each magnitude is formatted once, by one %, and fills the alpha
    # cells of its entry and the gamma cells of its partner
    texts = ("%.17g\n" * len(alpha) % tuple(np.abs(alpha).tolist())).split("\n")[:-1]
    magnitudes = np.array(texts, dtype=object)
    fields = np.empty((len(alpha), 2, 3), dtype=object)
    fields[:, :, 0] = ids[row, family]
    fields[:, :, 1] = magnitudes[:, None]
    fields[:, :, 2] = magnitudes[partner, None]
    bounds = np.searchsorted(compression, np.arange(len(beta_texts) + 1)).tolist()
    for start, end in zip(bounds, bounds[1:]):
        yield "".join(lines[start:end]) % tuple(fields[start:end].ravel().tolist())


def cmd_sweep(args) -> int:
    p, spec = _context(args)
    _check_gnuplot(args, True)
    # the modes given are read whatever the grid holds, an empty one too
    pairs = _parse_pairs(args.pairs)
    # a repeated pair repeats its rows, in argument order
    pairs_table = None if pairs is None else _pair_table(p, spec, pairs)
    tracked = ()
    if args.track:
        try:
            tracked = {int(x) for x in args.track.split(",")}
        except ValueError as exc:
            raise ValidationError(f"bad --track {args.track!r}") from exc
    grid = _parse_grid(args.grid)
    top = Params(beta=-max(grid, default=0.0), varrho=p.varrho, k=p.k)
    E = effective_modes(top, spec).E
    # rows go by (beta, branch_id), the ids compared as strings: the ids of
    # mode n all start "n<n>:", so n10 comes before n1
    modes = sorted(tracked or E or (1,), key=lambda n: f"n{n}:")
    # the effective modes at every compression are among those at the top
    rows = modes + sorted(set(E) - set(modes))
    table = _mode_table([spec.eigenvalue(n) for n in rows], p.k)
    lo, hi = min(grid, default=math.inf), max(grid, default=-math.inf)
    boundaries = table[:, : len(modes)].ravel().tolist()
    betas = [-mb for mb in sorted({*grid, *(b for b in boundaries if lo <= b <= hi)}, reverse=True)]
    header = [
        "beta", "branch_id", "modes", "alpha_1", "gamma_1", "alpha_2", "gamma_2",
        "count_unimodal", "count_ee_families", "count_general_bimodal",
    ]
    # the count columns read tables built once, at the top compression
    ee_thresholds = ee_family_thresholds(top, spec, args.tol_cond)
    bimodal_table = pair_table(top, spec, len(E))
    # the compressions go in blocks of about the writer's block of rows,
    # twice: every float written is checked, and every count made, before
    # the first line is written; then the lines are written.  Only the
    # grid value, beta and count cells are kept per compression, so the
    # mode states take memory by the block, not by the grid.  The mode
    # counts are cross-checked (exit 3) once every float is (exit 2)
    size = max(1, jsonio._BLOCK_ROWS // len(rows))
    blocks = [slice(start, start + size) for start in range(0, len(betas), size)]
    tails, n_stars = [], []
    for block in blocks:
        states = _mode_states(table, betas[block], p.varrho, p.k)
        jsonio.check_floats(states.amplitude[:, : len(modes)][states.reported[:, : len(modes)]])
        jsonio.check_floats(np.array(betas[block]))
        unimodal = (2 * states.carried.sum(axis=(1, 2))).tolist()
        n_star = (states.band > 0).sum(axis=1).tolist()
        n_stars += n_star
        for beta, count, n in zip(betas[block], unimodal, n_star):
            ee, general = count_ee_families(ee_thresholds, beta), count_general_bimodal(bimodal_table, beta, n)
            tails.append(f"{count},{ee},{general}")
            if pairs_table is not None:
                jsonio.check_floats(np.array([a for row in branch_rows(pairs_table, beta) for a in (*row[2], *row[3])]))
    for beta, n in zip(betas, n_stars):
        _check_mode_count(spec, beta, n)
    ids = _mode_ids(modes)
    with _output(args.out) as write:
        write(",".join(header) + "\n")
        for block in blocks:
            states = _mode_states(table[:, : len(modes)], betas[block], p.varrho, p.k)
            beta_texts = list(map(jsonio.format_float, betas[block]))
            mode_lines = _mode_lines(ids, states, beta_texts, tails[block])
            for beta, beta_text, tail, mode_text in zip(betas[block], beta_texts, tails[block], mode_lines):
                if pairs_table is not None:
                    mode_text = _pair_lines(beta_text, tail, branch_rows(pairs_table, beta)) + mode_text
                write(mode_text)
    if args.gnuplot is not None:
        args.gnuplot.write_text(_gnuplot_script(args.out, header), encoding="utf-8")
    return 0


def _gnuplot_script(csv_path: Path, header: list[str]) -> str:
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead outside",
        "set xlabel 'compression'",
        "set ylabel 'amplitude'",
        "set grid",
    ]
    plots = ", ".join(
        f"'{csv_path.name}' using 1:{i + 1} with points pt 7 ps 0.3"
        for i in range(1, len(header))
        if header[i].startswith(("alpha", "gamma"))
    )
    lines.append(f"plot {plots}")
    return "\n".join(lines) + "\n"


def cmd_convert(args) -> int:
    from .convert import PhysicalParams, dimensionless_params

    # the options' dests are the field names
    phys = PhysicalParams(**{f.name: getattr(args, f.name) for f in dataclasses.fields(PhysicalParams)})
    try:
        params, diag = dimensionless_params(phys)
    except ZeroDivisionError as exc:
        # a product of the beam data underflows to zero
        raise ValidationError(f"beam data out of the floating-point range: {exc}") from exc
    doc = {"params": params.describe(), "diagnostics": diag.describe()}
    _write(doc, args.out)
    return 0


_COMMANDS = {
    "sets": cmd_sets,
    "unimodal": cmd_unimodal,
    "enumerate": cmd_enumerate,
    "single": cmd_single,
    "oracle": cmd_oracle,
    "sweep": cmd_sweep,
    "convert": cmd_convert,
}


def _attach_values(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Write ``--beta -1e1`` as ``--beta=-1e1``: every option that takes
    a value reads a separate next token that starts with ``-`` as that
    value.  argparse reads such a token as an option unless it is a plain
    decimal, and would reject ``-1e1``, ``-inf`` or ``-10:20:3`` as a
    missing value."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    takes_value: dict[str, bool] = {}  # option strings of the subcommand
    out: list[str] = []
    awaiting = False
    for token in argv:
        if awaiting:
            awaiting = False
            if token.startswith("-") and token != "--":
                out[-1] = f"{out[-1]}={token}"
                continue
        elif not takes_value and token in commands:
            takes_value = {
                s: a.nargs != 0 for a in commands[token]._actions for s in a.option_strings
            }
        elif token in takes_value:
            awaiting = takes_value[token]
        elif token.startswith("--") and token.endswith("=--"):
            # argparse drops a value "--" and stores an empty list; as a
            # separate token it is a missing value
            out.append(token[:-3])
            token = "--"
        else:
            # argparse also takes a unique prefix of an option
            prefixed = [s for s in takes_value if s.startswith(token)]
            awaiting = len(prefixed) == 1 and takes_value[prefixed[0]]
        out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _attach_values(parser, sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error (code 2) or the help (code 0)
        return exc.code
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, IndexError, OSError) as exc:
        print(f"beamforge: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"beamforge: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"beamforge: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
