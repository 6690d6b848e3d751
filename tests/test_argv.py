"""The argv property: every command line exits 0, 2 or 3, lets no
exception escape, and writes the same bytes when run again.

Argv are drawn from ``build_parser()``'s own option table: a subcommand,
then any of its options, each with a value drawn by the option's type,
or a malformed, non-finite or ``-``-prefixed one, given as a separate
token or in the ``--option=value`` form.  Runs are in-process
through ``cli.main``, each in a fresh directory that holds a good, a
malformed and a non-UTF-8 spectrum file, files of huge and of tiny
eigenvalues, and a subdirectory, so that file options can name each of
them.  Power spectra include exponents whose eigenvalues leave the float
range, and mode indices include huge ones.

Values are bounded so that every example runs in well under a second:
``--nmax`` <= 12 or huge, ``--modes`` <= 4, ``--starts`` <= 40
(always given to ``oracle``), ``--samples`` <= 3, and grid counts <= 6.
A huge ``--nmax`` comes with any load: past ``MAX_EFFECTIVE_MODES``
effective modes the input is rejected before the quadratic pair scans.
A load that makes hundreds of modes effective, and so runs for seconds
(``|beta|`` of about 1e5 to 1e7), is rare among the floats drawn.
A second, slower property with a fixed example budget draws ``oracle``
alone with ``--nmax`` <= 32, ``--modes`` up to ``--nmax`` and
``--starts`` <= 40 or one of ``LARGE_STARTS``, whose start array fails
to allocate at once.  It never draws a start count between 41 and
1e13, where that allocation can succeed and fill gigabytes.  Neither
property explores long oracle searches or large grids, nor the defaults
``--nmax 64`` together with the extreme loads that make every mode
effective.
"""

import argparse
import contextlib
import io
import os
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from beamforge.cli import build_parser, main


def _option_table() -> dict[str, list[argparse.Action]]:
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [a for a in sub._actions if a.option_strings and a.dest != "help"]
        for name, sub in sorted(commands.choices.items())
    }


OPTIONS = _option_table()

BOUNDED_INTS = {
    "nmax": (-1, 12),
    "modes": (-1, 4),
    "starts": (-1, 40),
    "samples": (-1, 3),
    "mode": (-1, 14),
    "seed": (-3, 2**64),
}
# start counts whose start array is more than memory, or than an array
# can hold
LARGE_STARTS = [10**14, 10**15, 2**62]
# mode indices whose eigenvalues, or their squares, leave the float range
HUGE_INTS = [2**31, 2**63, 10**160, 10**400]
MALFORMED = ["", "x", "-", "--", "-x", "--beta", "1e", "0x10", "1,2,", "nan:1:2"]
SPECIAL_FLOATS = st.sampled_from(["nan", "inf", "-inf", "-1e1", "1e999", "-0.0", "5e-324"])
FLOATS = st.one_of(st.floats(min_value=-60.0, max_value=60.0), st.floats(), SPECIAL_FLOATS)
SPECTRA = [
    "dirichlet", "scaled", "power:2", "power:3", "power:0", "power:x", "bogus",
    "power:100", "power:400", "power:700", f"power:{10**6}",
    "file:spectrum.txt", "file:malformed.txt", "file:latin1.txt", "file:sub", "file:missing.txt",
    "file:huge.txt", "file:tiny.txt",
]
# a valid beam for ``convert``, which needs all seven values to pass
PHYSICAL = {
    "ell": "1", "h": "0.1", "E_mod": "1", "nu_poisson": "0.3", "D_axial": "-0.05",
    "kappa_core": "0.05", "omega_area": "1", "rho_density": "1",
}
PATHS = ["out.txt", "plot.gp", ".", "sub", "sub/missing/out.txt", "spectrum.txt"]
MODE_LISTS = ["1", "1,2", "2,1,2", "0", "-1", "3,99", "x", "", *(f"1,{n}" for n in HUGE_INTS)]


def _text(value) -> str:
    return value if isinstance(value, str) else repr(value)


def _grid(draw) -> str:
    lo, hi = draw(FLOATS), draw(FLOATS)
    return f"{_text(lo)}:{_text(hi)}:{draw(st.integers(-1, 6))}"


def _value(draw, action: argparse.Action, huge_nmax: bool) -> str:
    """A value for ``action``; with ``huge_nmax``, ``--nmax`` is huge."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(MALFORMED))
    if action.choices:
        return draw(st.sampled_from([*action.choices, "bogus"]))
    if action.dest == "nmax" and huge_nmax:
        return str(draw(st.sampled_from(HUGE_INTS)))
    if action.dest == "mode" and draw(st.integers(0, 4)) == 0:
        return str(draw(st.sampled_from(HUGE_INTS)))
    if action.dest in BOUNDED_INTS:
        return str(draw(st.integers(*BOUNDED_INTS[action.dest])))
    if action.dest in PHYSICAL and draw(st.integers(0, 9)):
        return PHYSICAL[action.dest]
    if action.type is float:
        return _text(draw(FLOATS))
    if action.type is Path:
        return draw(st.sampled_from(PATHS))
    if action.dest == "spectrum":
        return draw(st.sampled_from(SPECTRA))
    if action.dest == "grid":
        return _grid(draw)
    if action.dest == "track":
        return draw(st.sampled_from(MODE_LISTS))
    assert action.dest == "pairs", action.dest
    return draw(st.sampled_from(["1,2", "2,3", "1,1", "2,1", "1,99", f"1,{2**63}", "x", "1"]))


@st.composite
def command_lines(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(OPTIONS)))
    actions = OPTIONS[command]
    required = [a for a in actions if a.required or a.dest == "starts"]
    chosen = required + draw(st.lists(st.sampled_from(actions), max_size=5))
    huge_nmax = draw(st.integers(0, 4)) == 0
    argv = [command]
    for action in draw(st.permutations(chosen)):
        option = action.option_strings[0]
        if action.nargs == 0:
            argv.append(option)
        elif draw(st.booleans()):
            argv.append(f"{option}={_value(draw, action, huge_nmax)}")
        else:
            argv += [option, _value(draw, action, huge_nmax)]
    if draw(st.integers(0, 19)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-h", "bogus"])))
    return argv


def _run(argv: list[str]):
    """Exit code, stdout, stderr and every file of a fresh directory
    after ``main(argv)`` ran in it."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "spectrum.txt").write_text("1\n4\n9\n16\n25\n36\n", encoding="utf-8")
        (root / "malformed.txt").write_text("1\n4\nnine\n", encoding="utf-8")
        (root / "latin1.txt").write_bytes("1\n4\n9\xe9\n".encode("latin-1"))
        # squares and cubes that overflow, and eigenvalues down to the
        # smallest subnormal
        (root / "huge.txt").write_text("1e110\n3e110\n1e155\n1e200\n1e300\n1.7e308\n", encoding="utf-8")
        (root / "tiny.txt").write_text("5e-324\n1e-300\n1e-160\n1e-100\n1e-10\n", encoding="utf-8")
        (root / "sub").mkdir()
        out, err = io.StringIO(), io.StringIO()
        os.chdir(root)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("ignore")  # numpy overflow on extreme loads
                code = main(argv)
        finally:
            os.chdir(home)
        files = {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}
    return code, out.getvalue(), err.getvalue(), files


@settings(max_examples=150, deadline=None, derandomize=True)
@given(command_lines())
@example(["oracle", "--starts", "10", "--seed", "-1"])
@example(["enumerate", "--spectrum", "scaled", "--k", "72", "--beta", "-40", "--samples", "2", "--seed", "-5"])
@example(["sets", "--out", "sub"])
@example(["sweep", "--grid", "0:20:3", "--out", "out.txt", "--gnuplot", "sub"])
@example(["sets", "--spectrum", "file:sub"])
@example(["sets", "--spectrum", "file:latin1.txt"])
@example(["oracle", "--starts", "1", "--varrho", "5e-324"])  # the start box overflows
@example(["convert", "--ell", "1", "--h", "0.1", "--E", "1", "--nu", "0", "--D", "0", "--kappa", "1",
          "--area", "5e-324"])  # E |Omega| h underflows
@example(["sweep", "--grid", "0:1.3407807929942597e+154:2"])  # the E3 radicand overflows
@example(["enumerate", "--beta", "--"])  # argparse stores a value "--" as an empty list
@example(["sweep", "--pairs=--"])
@example(["sets", "--nmax", str(10**160), "--beta=-1e12"])  # past the effective-mode bound
def test_every_argv_exits_0_2_or_3_and_repeats(argv):
    first = _run(argv)
    assert first[0] in (0, 2, 3), first[2]
    assert _run(argv) == first


@st.composite
def large_oracle_lines(draw) -> list[str]:
    """``oracle`` with a truncation up to 32 modes, a start count of
    ``LARGE_STARTS`` or up to 40, and any of its other options."""
    nmax = draw(st.integers(1, 32))
    starts = draw(st.one_of(st.integers(1, 40), st.sampled_from(LARGE_STARTS)))
    argv = ["oracle", f"--nmax={nmax}", f"--modes={draw(st.integers(1, nmax))}", f"--starts={starts}"]
    others = [a for a in OPTIONS["oracle"] if a.dest not in ("nmax", "modes", "starts")]
    for action in draw(st.lists(st.sampled_from(others), max_size=4)):
        argv.append(f"{action.option_strings[0]}={_value(draw, action, False)}")
    return argv


@settings(max_examples=100, deadline=None, derandomize=True)
@given(large_oracle_lines())
@example(["oracle", "--nmax=32", "--modes=32", "--starts=40"])
@example(["oracle", "--nmax=32", "--modes=26", "--starts=10"])
@example(["oracle", "--nmax=32", "--modes=32", f"--starts={2**62}"])
def test_large_oracle_argv_exits_0_2_or_3_and_repeats(argv):
    first = _run(argv)
    assert first[0] in (0, 2, 3), first[2]
    assert _run(argv) == first
