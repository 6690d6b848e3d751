import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import beamforge
from beamforge.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    output = capsys.readouterr().out
    return code, output


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


COMMON = ("--spectrum", "scaled", "--varrho", "1", "--k", "3", "--beta", "-15.5")


def test_sets_command(capsys):
    doc = run_json(capsys, "sets", *COMMON)
    assert doc["sets"]["E"] == [1, 2, 3]
    assert doc["sets"]["E3"] == [1, 2, 3]
    assert doc["Bstar"] == [
        {"pair": [1, 2], "kind": "B1*"},
        {"pair": [1, 3], "kind": "B2*"},
        {"pair": [2, 3], "kind": "B2*"},
    ]
    doc = run_json(capsys, "sets", "--spectrum", "scaled", "--k", "2", "--beta", "-10")
    assert doc["B1"] == [[1, 2]]
    doc = run_json(
        capsys, "sets", "--spectrum", "scaled", "--k", "72", "--beta", "-30", "--nmax", "8"
    )
    assert doc["T"] == [[3, 4, 5]]


def test_enumerate_counts_and_verification(capsys):
    doc = run_json(capsys, "enumerate", *COMMON)
    assert doc["counts"] == {"unimodal": 24, "ee_families": 0, "general_bimodal": 24}
    assert doc["verification"]["passed"] is True
    assert doc["verification"]["max_relative_residual"] < 1e-10


def test_enumerate_pair_restriction_matches_printed_values(capsys):
    # a repeated pair lists its solutions once
    for pairs in (["--pairs", "1,2"], ["--pairs", "1,2", "--pairs", "1,2"]):
        doc = run_json(capsys, "enumerate", *COMMON, *pairs)
        assert doc["counts"]["general_bimodal"] == 8
        mags = sorted({abs(m["modes"][0]["alpha"]) for m in doc["general_bimodal"]})
        assert mags[0] == pytest.approx(0.51763, abs=1e-5)
        assert mags[1] == pytest.approx(1.93185, abs=1e-5)


def test_enumerate_no_compression(capsys):
    doc = run_json(capsys, "enumerate", "--spectrum", "scaled", "--beta", "0")
    assert doc["counts"] == {"unimodal": 0, "ee_families": 0, "general_bimodal": 0}
    assert any("E empty" in note for note in doc["notes"])


def test_enumerate_notes_truncation_at_nmax(capsys):
    # E = {1, 2, 3} at this compression; --nmax 2 cuts mode 3 off
    doc = run_json(capsys, "enumerate", *COMMON, "--nmax", "2")
    assert doc["counts"]["unimodal"] == 16  # 8 per E3 mode
    assert any("truncated at n_max = 2" in note for note in doc["notes"])
    assert run_json(capsys, "enumerate", *COMMON, "--nmax", "3")["notes"] == []


@pytest.mark.parametrize(
    "argv",
    [
        # the default Dirichlet spectrum keeps 64 of the 67 effective modes
        ("--beta", "-45000"),
        (*COMMON, "--nmax", "2"),
        (*COMMON, "--nmax", "3"),
        ("--spectrum", "scaled", "--beta", "0"),
    ],
)
def test_sets_notes_match_enumerate(capsys, argv):
    doc = run_json(capsys, "sets", *argv)
    assert doc["notes"] == run_json(capsys, "enumerate", *argv)["notes"]
    if "-45000" in argv:
        assert len(doc["sets"]["E"]) == 64
        assert any("truncated at n_max = 64" in note for note in doc["notes"])


def test_enumerate_family_with_samples(capsys):
    doc = run_json(
        capsys, "enumerate", "--spectrum", "scaled", "--k", "2", "--beta", "-10",
        "--samples", "5",
    )
    fams = doc["ee_families"]
    assert len(fams) == 1
    assert fams[0]["kind"] == "B1"
    assert fams[0]["quadric"] == {"coeffs": [1.0, 4.0], "constant": -5.0}
    assert len(fams[0]["samples"]) == 5
    assert doc["verification"]["passed"] is True


# the argv of enumerate_scaled.json with a residual bound no solution meets
FAILED_VERIFICATION = ("enumerate", "--spectrum", "scaled", "--k", "3", "--beta=-15.5", "--tol-res", "1e-30")
VERIFICATION_FAILED = "beamforge: verification failed (internal inconsistency)\n"


def test_enumerate_verification_failure_exit_code(capsys):
    code = main(list(FAILED_VERIFICATION))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == VERIFICATION_FAILED
    # the whole document is written, its failed verification block too
    expected = json.loads((GOLDEN / "enumerate_scaled.json").read_text())
    expected["verification"].update(residual_tolerance=1e-30, passed=False)
    assert json.loads(captured.out) == expected


def test_python_m_beamforge_runs_main():
    # the package is imported from where the tests import it
    path = [str(Path(beamforge.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "beamforge", *argv], capture_output=True, env=env, timeout=120)

    done = run("sets", "--spectrum", "scaled", "--k", "3", "--beta=-15.5")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN / "sets_scaled.json").read_bytes()
    rejected = run("sweep", "--beta=-10", "--grid", "0:10:3")
    assert (rejected.returncode, rejected.stdout) == (2, b"")
    failed = run(*FAILED_VERIFICATION)
    assert (failed.returncode, failed.stderr) == (3, VERIFICATION_FAILED.encode())
    assert json.loads(failed.stdout)["verification"]["passed"] is False


@pytest.mark.parametrize(
    "beta",
    [
        "-1e6",
        # the mode-1 unimodal row's C_u = beta + varrho sum(lam_n a_n^2)
        # cancels to about -lam_1, and the residual check's term scale
        # ignores |beta|: verification fails and enumerate exits 3
        pytest.param(
            "-3e6",
            marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason="residual scale ignores |beta|"),
        ),
    ],
)
def test_enumerate_heavy_load(tmp_path, beta):
    assert main(["enumerate", f"--beta={beta}", "--out", str(tmp_path / "out.json")]) == 0


def test_deterministic_output(capsys):
    _, out1 = run_cli(capsys, "enumerate", *COMMON, "--samples", "3")
    _, out2 = run_cli(capsys, "enumerate", *COMMON, "--samples", "3")
    assert out1 == out2


def test_unimodal_json(capsys):
    doc = run_json(capsys, "unimodal", *COMMON)
    assert doc["count"] == 24


def test_unimodal_csv_branch_table(capsys, tmp_path):
    out = tmp_path / "branches.csv"
    code, _ = run_cli(
        capsys, "unimodal", "--spectrum", "scaled", "--k", "3", "--csv",
        "--mode", "1", "--grid", "0:20:41", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "minus_beta"
    rows = [line.split(",") for line in lines[1:]]
    by_mb = {float(r[0]): r for r in rows}
    # branch 1 appears at -beta = 1, branch 2 at mu_1 = 7, branches 3/4 at nu_1 = 10
    assert by_mb[0.5][1] == ""
    assert by_mb[1.0][1] != ""
    assert by_mb[6.5][3] == "" and by_mb[7.0][3] != ""
    assert by_mb[9.5][5] == "" and by_mb[10.0][5] != "" and by_mb[10.0][7] != ""


def test_unimodal_csv_follows_the_band_collapse(capsys):
    # -beta = 7 + 2.8e-12 lies above mu_1 = 7 by less than the band
    # collapse tolerance, so the JSON lists family 1 alone for mode 1; the
    # branch table may not report family 2 there
    argv = ("unimodal", "--spectrum", "scaled", "--k", "3")
    doc = run_json(capsys, *argv, "--beta=-7.0000000000028")
    tags = {s["tag"] for s in doc["solutions"] if s["modes"][0]["n"] == 1}
    assert tags == {"unimodal(1,+)", "unimodal(1,-)"}
    code, out = run_cli(
        capsys, *argv, "--csv", "--mode", "1", "--grid", "7.0000000000028:7.0000000000028:1"
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[1:3] == ["2.4494897427837499", "-2.4494897427837499"]
    assert row[3:] == [""] * 6


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--spectrum", "power:2", "--grid", "-10:20:3"],
        ["unimodal", "--csv", "--grid", "-10:20:3"],
    ],
)
def test_grid_with_negative_lower_bound(capsys, argv):
    # argparse reads a separate "-10:20:3" as an option; it must be the grid
    code, spaced = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv[:-2], f"--grid={argv[-1]}") == (0, spaced)


CONVERT_HEAD = ("convert", "--ell", "1", "--h", "0.1", "--E", "1", "--nu", "0")


@pytest.mark.parametrize(
    "head,option,value,tail,code",
    [
        (("sets", "--spectrum", "scaled"), "--beta", "-1e1", (), 0),
        (CONVERT_HEAD, "--D", "-5e-2", ("--kappa", "0.05", "--area", "1"), 0),
        (("sweep", "--spectrum", "power:2"), "--grid", "-10:20:3", (), 0),
        (("unimodal", "--csv"), "--grid", "-10:20:3", (), 0),
        # parsed as a value, then rejected by Params, not by argparse
        (("sets",), "--beta", "-inf", (), 2),
    ],
    ids=["beta-exponent", "convert-D", "sweep-grid", "unimodal-grid", "beta-inf"],
)
def test_option_value_starting_with_dash(capsys, head, option, value, tail, code):
    # a separate value that starts with "-" behaves as its "=" form
    spaced = main([*head, option, value, *tail]), capsys.readouterr()
    joined = main([*head, f"{option}={value}", *tail]), capsys.readouterr()
    assert spaced == joined
    assert spaced[0] == code
    assert code == 0 or spaced[1].err.startswith("beamforge: ")


def test_unimodal_csv_empty_grid(capsys):
    code, out = run_cli(
        capsys, "unimodal", "--spectrum", "scaled", "--csv", "--grid", "0:20:0"
    )
    assert code == 0
    assert out.strip().splitlines()[0].startswith("minus_beta,")
    assert len(out.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        # --csv is read by unimodal alone; --json was a no-op everywhere
        ("enumerate", "--csv"),
        ("sets", "--csv"),
        ("single", "--model", "plain", "--csv"),
        ("oracle", "--modes", "1", "--starts", "10", "--csv"),
        ("unimodal", "--json"),
        ("sweep", "--json"),
        # the gnuplot script plots a CSV file
        ("sweep", "--gnuplot", "sweep.gp"),
        ("unimodal", "--csv", "--gnuplot", "branches.gp"),
        ("unimodal", "--gnuplot", "branches.gp", "--out", "branches.json"),
        # each of these options leaves the command's output as it is, so
        # the command does not take it
        ("sets", "--tol-res", "1e-10"),
        ("sets", "--seed", "1"),
        ("unimodal", "--tol-cond", "1e-9"),
        ("unimodal", "--seed", "1"),
        ("single", "--model", "plain", "--tol-res", "1e-10"),
        ("single", "--model", "plain", "--seed", "1"),
        ("oracle", "--starts", "10", "--tol-res", "1e-10"),
        ("sweep", "--beta=-10"),
        ("sweep", "--tol-res", "1e-10"),
        ("sweep", "--seed", "1"),
    ],
    ids=" ".join,
)
def test_ignored_format_flags_exit_code(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    # sweep takes no --beta
    load = COMMON[:-2] if argv[0] == "sweep" else COMMON
    assert main([*argv, *load]) == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_argparse_rejection_returns_2(capsys):
    assert main(["enumerate", "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert main(["--help"]) == 0


def test_sweep_gnuplot_script_plots_the_csv(capsys, tmp_path):
    out, script = tmp_path / "sweep.csv", tmp_path / "sweep.gp"
    code, _ = run_cli(
        capsys, "sweep", *COMMON[:-2], "--grid", "0:20:5", "--out", str(out), "--gnuplot", str(script)
    )
    assert code == 0
    assert "'sweep.csv' using 1:4" in script.read_text()


def test_single_models(capsys):
    doc = run_json(capsys, "single", "--model", "foundation", *COMMON)
    amps = [e["amplitude"] for e in doc["result"]["unimodal"] if e["n"] == 1]
    assert max(amps) == pytest.approx(math.sqrt(11.5), abs=1e-12)
    doc = run_json(capsys, "single", "--model", "plain", *COMMON)
    assert len(doc["result"]["unimodal"]) == 6


def test_sweep_csv(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, _ = run_cli(
        capsys, "sweep", "--spectrum", "scaled", "--k", "3", "--grid", "0:12:13",
        "--track", "1", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("beta,branch_id")
    rows = [line.split(",") for line in lines[1:]]
    minus_betas = sorted({-float(r[0]) for r in rows})
    # boundary values lam_1 = 1, mu_1 = 7, nu_1 = 10 are grid points here;
    # branch rows appear exactly from their thresholds on
    assert 1.0 in minus_betas and 7.0 in minus_betas and 10.0 in minus_betas
    a2_first = min(-float(r[0]) for r in rows if r[1].startswith("n1:alpha2"))
    a3_first = min(-float(r[0]) for r in rows if r[1].startswith("n1:alpha3"))
    assert a2_first == 7.0
    assert a3_first == 10.0
    betas = [float(r[0]) for r in rows]
    assert betas == sorted(betas)


def test_sweep_inserts_noninteger_boundaries(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, _ = run_cli(
        capsys, "sweep", "--spectrum", "scaled", "--k", "2", "--grid", "0:12:4",
        "--track", "1", "--out", str(out),
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    minus_betas = {-float(r[0]) for r in rows}
    # mu_1 = 5 and nu_1 = 7 are not on the 4-point grid but must be present
    assert 5.0 in minus_betas and 7.0 in minus_betas


def test_sweep_rows_follow_the_band_collapse(capsys, tmp_path):
    # -beta = 7 + 2.8e-12 lies above mu_1 = 7 by less than the band
    # collapse tolerance, so mode 1 counts as E1 (count_unimodal 10); the
    # tracked rows may not report the E2 family that the count excludes
    out = tmp_path / "sweep.csv"
    code, _ = run_cli(
        capsys, "sweep", "--spectrum", "scaled", "--k", "3",
        "--grid", "7.0000000000028:7.0000000000028:1", "--track", "1", "--out", str(out),
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert {r[7] for r in rows} == {"10"}
    assert [r[1] for r in rows] == ["n1:alpha1+", "n1:alpha1-"]


def test_convert_command(capsys):
    doc = run_json(
        capsys, "convert", "--ell", "1", "--h", "0.1", "--E", "1", "--nu", "0",
        "--D", "-0.05", "--kappa", "0.05", "--area", "1",
    )
    assert doc["params"]["beta"] == pytest.approx(-60.0)
    assert doc["params"]["varrho"] == pytest.approx(600.0)
    assert doc["params"]["k"] == pytest.approx(600.0)
    assert doc["diagnostics"]["tau0"] is None


def test_convert_validation_exit_code(capsys):
    code, _ = run_cli(
        capsys, "convert", "--ell", "1", "--h", "2", "--E", "1", "--nu", "0",
        "--D", "0", "--kappa", "1", "--area", "1",
    )
    assert code == 2


def test_bad_spectrum_token_exit_code(capsys):
    code, _ = run_cli(capsys, "sets", "--spectrum", "nope")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("sets", "--out", "sub"),
        ("convert", *CONVERT_HEAD[1:], "--D", "0", "--kappa", "1", "--area", "1", "--out", "sub"),
        ("sweep", "--grid", "0:20:3", "--out", "sweep.csv", "--gnuplot", "sub"),
        ("unimodal", "--csv", "--out", "branches.csv", "--gnuplot", "sub"),
        ("sets", "--out", "missing/out.json"),
        ("sets", "--spectrum", "file:sub"),
        ("sets", "--spectrum", "file:latin1.txt"),
        # a mode out of range is read whatever the grid holds, an empty one too
        ("sweep", "--grid", "0:1:0", "--pairs", "1,100"),
        ("sweep", "--grid", "0:1:0", "--track", "100"),
        ("unimodal", "--csv", "--mode", "0", "--grid", "0:1:0"),
    ],
    ids=" ".join,
)
def test_file_errors_exit_code(capsys, monkeypatch, tmp_path, argv):
    # a directory, a missing directory, undecodable text or a mode out of
    # range is bad input
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "latin1.txt").write_bytes("1\n4\n9\xe9\n".encode("latin-1"))
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("beamforge: ")


B = str(10**160)


@pytest.mark.parametrize(
    "argv",
    [
        ("sets", "--spectrum", "power:700"),
        ("enumerate", "--spectrum", "power:400", "--beta=-1e300"),
        ("oracle", "--spectrum", "power:400", "--beta=-1e300", "--modes", "2", "--starts", "10"),
        ("unimodal", "--spectrum", "scaled", "--csv", "--mode", B, "--nmax", B),
        ("sweep", "--track", B, "--nmax", B, "--grid", "0:1:2"),
    ],
    ids=["power-700", "power-400", "oracle-power-400", "scaled-mode-B", "dirichlet-track-B"],
)
def test_overflowing_eigenvalue_exit_code(capsys, argv):
    # (n pi) ** (p + 1), (n pi) ** 2 and n * n past the float range
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("beamforge: lam_")
    assert "spectrum leaves the float range" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        # 318,309 effective modes: the pair scan asked for 94 GiB
        ("sets", "--nmax", B, "--beta=-1e12"),
        # every mode up to n_max effective: the scan never ended
        ("sets", "--nmax", B, "--beta=-1e300"),
        ("enumerate", "--nmax", B, "--beta=-1e12"),
        ("unimodal", "--nmax", B, "--beta=-1e300"),
        ("sweep", "--nmax", B, "--grid", "0:1e12:3"),
        ("single", "--model", "foundation", "--nmax", B, "--beta=-1e12"),
        # one mode past the bound
        ("sets", "--spectrum", "scaled", "--nmax", "1001", "--beta=-1002002"),
    ],
    ids=lambda argv: " ".join(argv).replace(B, "10**160"),
)
def test_many_effective_modes_exit_code(capsys, monkeypatch, argv):
    # past MAX_EFFECTIVE_MODES the input is rejected, after one eigenvalue
    # more is read and before any scan of the pairs
    from beamforge.modesets import MAX_EFFECTIVE_MODES
    from beamforge.spectrum import Spectrum

    real = Spectrum.eigenvalue

    def eigenvalue(self, n):
        assert n <= MAX_EFFECTIVE_MODES + 1, "read past the bound"
        return real(self, n)

    monkeypatch.setattr(Spectrum, "eigenvalue", eigenvalue)
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"beamforge: more than {MAX_EFFECTIVE_MODES} effective modes")


def test_heavy_load_radicand_exit_code(capsys):
    # the radicand (beta+lam+mu-nu)(beta+nu) overflows at these loads,
    # while the amplitudes it gives are representable: the sweep writes
    # them, and enumerate reports its NaN cubic check as out of range,
    # never an internal invariant of the inventory
    code = main(["enumerate", "--varrho", "1e300", "--beta=-1e300", "--nmax", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "beamforge: non-finite float in output: nan; the input is out of range\n"
    code, out = run_cli(capsys, "sweep", "--varrho", "1e300", "--grid", "0:1e300:3", "--nmax", "4")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    top = [r[3] for r in rows if r[0] == "-1.0000000000000001e+300" and r[1] in ("n1:alpha1+", "n1:alpha3+")]
    assert top == ["0.31830988618379069"] * 2
    assert all(math.isfinite(float(x)) for r in rows for x in r[3:5])


@pytest.mark.parametrize(
    "argv,code",
    [
        # 2k overflows, so no pair or triple is on an EE equality; mu and nu
        # overflow too, and so do the inventory's checks
        (("sets", "--k", "1e308", "--beta=-100"), 2),
        (("enumerate", "--spectrum", "scaled", "--k", "9e307", "--beta=-100"), 2),
        (("sweep", "--k", "1e308", "--grid", "0:100:3"), 0),
        (("unimodal", "--k", "1e308", "--beta=-100"), 2),
        (("enumerate", "--k", "6.5e307", "--beta=-100"), 2),
        # lam1 lam2 overflows, so the pair (1, 2) is on no EE equality
        (("sets", "--spectrum", "file:big.txt", "--beta=-1e201", "--k", "1"), 0),
        # lam ** 3 overflows in the cubic check
        (("enumerate", "--spectrum", "file:cubes.txt", "--beta=-2e110", "--k", "1"), 2),
        # the circle-ellipse right-hand sides overflow, or cancel to NaN
        (("sweep", "--varrho", "1e-300", "--grid", "0:100:3"), 0),
        (("sets", "--varrho", "1e-300", "--beta=-100"), 0),
        (("sweep", "--k", "1e-300", "--grid", "0:100:3"), 0),
        (("enumerate", "--varrho", "1e-300", "--beta=-100"), 2),
        # the Newton iterates of the oracle's starts overflow
        (("oracle", "--varrho", "1e-300", "--beta=-100", "--starts", "50"), 0),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, tuple) else None,
)
def test_overflow_exit_code(capsys, monkeypatch, tmp_path, argv, code):
    # an overflowed side equals nothing, and no NumPy warning reaches stderr:
    # a non-finite value is reported once, by the emitter
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.txt").write_text("1e200\n2e200\n")
    (tmp_path / "cubes.txt").write_text("1e110\n3e110\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(list(argv)) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err.startswith("beamforge: non-finite float in output")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
    else:
        assert captured.err == ""
    if argv[0] == "sets" and code == 0:
        assert json.loads(captured.out)["B1"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--spectrum", "scaled", "--k", "9e307", "--beta=-100"),
        # the amplitudes overflow at the top compressions
        ("sweep", "--grid", "0:1e308:3"),
        # lam ** 3 overflows in the cubic check
        ("enumerate", "--spectrum", "file:cubes.txt", "--beta=-2e110", "--k", "1"),
    ],
    ids=" ".join,
)
def test_exit_2_leaves_out_file_as_it_was(capsys, monkeypatch, tmp_path, argv):
    # the output is written piece by piece, so every float is checked
    # before --out is opened
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cubes.txt").write_text("1e110\n3e110\n")
    out = tmp_path / "out.txt"
    out.write_bytes(b"an earlier result\n")
    assert main([*argv, "--out", str(out)]) == 2
    assert out.read_bytes() == b"an earlier result\n"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("beamforge: non-finite float in output")


def test_sweep_checks_every_float_before_a_mode_count(capsys, monkeypatch, tmp_path):
    # a wrong mode count (exit 3) at deep compressions, which the sweep
    # visits first, and an overflowing amplitude (exit 2) near beta = 0:
    # the input error wins over the whole grid, as in enumerate
    from beamforge import cli, modesets

    real_count, real_states = modesets.dirichlet_mode_count, cli._mode_states

    def overflowing(table, betas, varrho, k):
        states = real_states(table, betas, varrho, k)
        near_zero = (np.asarray(betas) > -100.0)[:, None, None]
        return states._replace(amplitude=np.where(near_zero, np.inf, states.amplitude))

    monkeypatch.setattr(modesets, "dirichlet_mode_count", lambda beta: real_count(beta) + (-39000 < beta < -30000))
    monkeypatch.setattr(cli, "_mode_states", overflowing)
    out = tmp_path / "out.csv"
    out.write_bytes(b"an earlier result\n")
    assert main(["sweep", "--spectrum", "dirichlet", "--grid", "0:45000:41", "--out", str(out)]) == 2
    assert out.read_bytes() == b"an earlier result\n"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("beamforge: non-finite float in output")


@pytest.mark.parametrize(
    "flag,argv",
    [
        ("--seed", ("oracle", *COMMON, "--modes", "1", "--starts", "10", "--seed", "-1")),
        ("--seed", ("enumerate", "--spectrum", "scaled", "--k", "72", "--beta", "-40", "--samples", "2", "--seed", "-5")),
        # a negative count drew no sample and exited 0
        ("--samples", ("enumerate", "--spectrum", "scaled", "--k", "72", "--beta=-40", "--samples", "-1")),
    ],
    ids=["oracle", "enumerate", "samples"],
)
def test_negative_seed_exit_code(capsys, flag, argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"beamforge: {flag} must be nonnegative")


def test_oracle_command(capsys):
    doc = run_json(
        capsys, "oracle", "--spectrum", "scaled", "--k", "3", "--beta", "-5",
        "--modes", "1", "--starts", "150",
    )
    assert doc["oracle"]["found_count"] == 3  # trivial and two in-phase states
    assert doc["matching"]["unmatched_count"] == 0
    assert doc["matching"]["missed_closed_count"] == 0


@pytest.mark.parametrize("starts", ["0", "-3"])
def test_oracle_nonpositive_starts_exit_code(capsys, starts):
    code, out = run_cli(capsys, "oracle", *COMMON, "--modes", "1", f"--starts={starts}")
    assert code == 2
    assert out == ""


def test_oracle_unmatched_roots_exit_code(capsys, monkeypatch):
    # with no closed forms, the two in-phase states are unmatched: the
    # whole document is written, then the verification failure
    from beamforge import cli
    from beamforge.core import Inventory

    monkeypatch.setattr(cli, "unimodal_inventory", lambda *args: Inventory.from_rows([], []))
    monkeypatch.setattr(cli, "general_bimodal_inventory", lambda *args: Inventory.from_rows([], []))
    monkeypatch.setattr(cli, "enumerate_ee_families", lambda *args: [])
    code = main(["oracle", "--spectrum", "scaled", "--k", "3", "--beta", "-5", "--modes", "1", "--starts", "150"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == VERIFICATION_FAILED
    doc = json.loads(captured.out)
    assert doc["closed_form_count"] == 0
    assert doc["matching"]["unmatched_count"] == 2


def test_oracle_root_with_four_modes_exit_code(capsys, monkeypatch):
    # a root with four active modes contradicts the structure theory, so
    # it is an internal inconsistency (exit 3), not a crash (exit 1)
    from beamforge import oracle

    def fake_newton(lams, beta, varrho, k, starts, tol, max_iter=200):
        starts = np.asarray(starts)
        return np.full_like(starts, 0.5), np.ones(starts.shape[0], bool), np.zeros(starts.shape[0], int)

    monkeypatch.setattr(oracle.kernels, "newton_batch", fake_newton)
    # the fake row is no root, so the polish's step test would drop it
    monkeypatch.setattr(oracle, "_accurate_polish", lambda lams, p, roots, radius: (roots, np.ones(len(roots), bool)))
    code, out = run_cli(capsys, "oracle", *COMMON, "--modes", "4", "--starts", "40")
    assert code == 3
    assert out == ""


def test_oracle_rejects_a_crowded_root_before_its_images(capsys, monkeypatch):
    # a root with m active modes has 2^m sign images; one with more than
    # three is rejected first, so a spurious root on many modes never
    # asks for that many
    from beamforge import oracle

    def fake_newton(lams, beta, varrho, k, starts, tol, max_iter=200):
        starts = np.asarray(starts)
        return np.full_like(starts, 0.5), np.ones(starts.shape[0], bool), np.zeros(starts.shape[0], int)

    def no_images(reps):
        raise AssertionError("formed the images of a crowded root")

    monkeypatch.setattr(oracle.kernels, "newton_batch", fake_newton)
    monkeypatch.setattr(oracle, "_accurate_polish", lambda lams, p, roots, radius: (roots, np.ones(len(roots), bool)))
    monkeypatch.setattr(oracle, "_orbits", no_images)
    code, out = run_cli(capsys, "oracle", *COMMON, "--modes", "4", "--starts", "40")
    assert code == 3
    assert out == ""


def test_oracle_lists_no_mode_subsets_that_get_no_starts(capsys, monkeypatch):
    # at 26 modes, 10 starts give no proper mode subset a start, so the
    # 2^26 - 1 subsets are never listed and the full support takes all 10
    from beamforge import oracle

    mode_subsets = oracle._mode_subsets

    def bounded(n_modes):
        if n_modes > 20:
            raise AssertionError(f"listed the subsets of {n_modes} modes")
        return mode_subsets(n_modes)

    monkeypatch.setattr(oracle, "_mode_subsets", bounded)
    code, out = run_cli(capsys, "oracle", "--modes", "26", "--starts", "10")
    assert code == 0
    assert json.loads(out)["oracle"]["starts_used"] == 10


@pytest.mark.parametrize("starts", [10**15, 2**62])
def test_oracle_start_array_past_memory_exit_code(capsys, starts):
    # the start array fails to allocate at once, before any memory is
    # touched: more bytes than the machine has, or than an array can hold
    code = main(["oracle", f"--starts={starts}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("beamforge: out of memory: ") and captured.err.count("\n") == 1


def test_oracle_reconciles_on_its_truncation(capsys):
    # the closed forms are read on the three modes of the truncation, so
    # a load with more effective modes than the bound below a huge --nmax
    # still reconciles
    doc = run_json(capsys, "oracle", "--nmax", str(10**160), "--beta=-1e12", "--modes", "3", "--starts", "20")
    assert doc["closed_form_count"] == 48
    assert doc["matching"]["unmatched_count"] == 0


@pytest.mark.parametrize("name", ["beta", "varrho", "k"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_params_exit_code(capsys, monkeypatch, name, value):
    # rejected by Params before any enumeration work is done
    from beamforge import cli

    def no_work(*args, **kwargs):
        raise AssertionError("enumeration ran on non-finite input")

    for stage in ("effective_modes", "unimodal_inventory"):
        monkeypatch.setattr(cli, stage, no_work)
    code, out = run_cli(capsys, "enumerate", "--spectrum", "scaled", f"--{name}={value}")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("command", ["enumerate", "sets", "sweep"])
@pytest.mark.parametrize("flag", ["--tol-res", "--tol-cond"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-9"])
def test_bad_tolerance_exit_code(capsys, monkeypatch, command, flag, value):
    # rejected in the shared context before any enumeration work is done
    from beamforge import cli

    def no_work(*args, **kwargs):
        raise AssertionError("enumeration ran with a bad tolerance")

    for stage in ("effective_modes", "unimodal_inventory", "enumerate_ee_families"):
        monkeypatch.setattr(cli, stage, no_work)
    load = () if command == "sweep" else ("--beta=-15.5",)
    code, out = run_cli(capsys, command, "--spectrum", "scaled", "--k", "3", *load, f"{flag}={value}")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("sets", "--spectrum", "dirichlet", "--beta", "-100"),
        ("sweep", "--spectrum", "dirichlet", "--grid", "0:200:5"),
    ],
    ids=["sets", "sweep"],
)
def test_effective_mode_count_mismatch_exit_code(capsys, monkeypatch, argv):
    # a disagreement with the closed-form Dirichlet count is an internal
    # inconsistency (exit 3), not a crash (exit 1); the count is wrong
    # everywhere but at the sweep's top compression, so the sweep must
    # check every compression it reads
    from beamforge import modesets

    real = modesets.dirichlet_mode_count
    monkeypatch.setattr(modesets, "dirichlet_mode_count", lambda beta: real(beta) if beta == -200.0 else -1)
    code, out = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("sets",),
        ("enumerate",),
        ("unimodal",),
        ("sweep", "--grid", "0:10:3"),
        ("single", "--model", "foundation"),
        ("single", "--model", "plain"),
    ],
    ids=" ".join,
)
def test_cost_follows_the_effective_modes(capsys, monkeypatch, argv):
    # one effective mode at -beta = 10 out of n_max = 10**8: the work, and
    # the eigenvalues read, follow the effective modes
    from beamforge.spectrum import Spectrum

    asked = []
    real = Spectrum.eigenvalue

    def eigenvalue(self, n):
        asked.append(n)
        return real(self, n)

    monkeypatch.setattr(Spectrum, "eigenvalue", eigenvalue)
    load = () if argv[0] == "sweep" else ("--beta=-10",)
    code, _ = run_cli(capsys, *argv, "--nmax", "100000000", *load)
    assert code == 0
    assert max(asked) <= 2


def test_trimodal_cross_check_exit_code(capsys):
    # at this loose tolerance (7, 8, 11) passes both membership equalities
    # but not lam1 + lam2 == lam3: an internal inconsistency (exit 3), not
    # a crash (exit 1)
    code, out = run_cli(
        capsys, "sets", "--spectrum", "scaled", "--k", "1800", "--beta=-1000",
        "--nmax", "30", "--tol-cond", "0.03",
    )
    assert code == 3
    assert out == ""


def test_sets_bands_agree_with_enumerate_count(capsys):
    # -beta sits 4e-13 relative above mu_1 = 7: the boundary collapse puts
    # mode 1 in E1 for both commands
    argv = ("--spectrum", "scaled", "--k", "3", "--beta=-7.0000000000028")
    sets = run_json(capsys, "sets", *argv)["sets"]
    assert (sets["E1"], sets["E2"], sets["E3"]) == ([1], [], [2])
    law = 2 * len(sets["E1"]) + 4 * len(sets["E2"]) + 8 * len(sets["E3"])
    assert run_json(capsys, "enumerate", *argv)["counts"]["unimodal"] == law == 10


def test_sweep_honours_tol_cond(capsys, tmp_path):
    # (1, 2) misses lam1*lam2 == 2k by a relative 5e-8: no B1 family at
    # the default tolerance, one at --tol-cond 1e-6
    def ee_counts(*extra):
        out = tmp_path / "sweep.csv"
        code, _ = run_cli(
            capsys, "sweep", "--spectrum", "scaled", "--k", "2.0000001", "--grid", "10:10:1",
            "--track", "1", *extra, "--out", str(out),
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        return {r[8] for r in rows}

    assert ee_counts() == {"0"}
    assert ee_counts("--tol-cond", "1e-6") == {"1"}


@pytest.mark.parametrize(
    "argv",
    [
        ("sets", "--spectrum", "scaled", "--k", "72", "--beta=-40"),
        ("enumerate", "--spectrum", "scaled", "--k", "72", "--beta=-40"),
        ("sweep", "--spectrum", "scaled", "--k", "72", "--grid", "0:60:13"),
    ],
    ids=lambda argv: argv[0],
)
def test_ee_equalities_evaluated_once_per_command(capsys, monkeypatch, argv):
    # the EE pairs, triples, families and thresholds read one scan; the
    # pair table's seam flag evaluates the equalities at its own tolerance
    from beamforge import bimodal, modesets

    tols = []
    real = modesets._resonance

    def counted(lam1, lam2, k, tol):
        tols.append(tol)
        return real(lam1, lam2, k, tol)

    for module in (modesets, bimodal):
        monkeypatch.setattr(module, "_resonance", counted)
    code, out = run_cli(capsys, *argv, "--tol-cond", "1e-8")
    assert code == 0 and out
    assert tols.count(1e-8) == 1


def test_sets_lists_a_pair_on_both_equalities_by_compression(capsys, monkeypatch, tmp_path):
    # lam1 lam2 = 2 and lam1 (lam2 - lam1) = 2 - 2e-12: at k = 1 the pair
    # (1, 2) is on both equalities, a B2 member once lam2 < -beta and a B1
    # member once lam1 + lam2 < -beta
    monkeypatch.chdir(tmp_path)
    (tmp_path / "both.txt").write_text("1e-6\n2e6\n")
    lam1, lam2 = 1e-6, 2e6

    def kinds(mb):
        doc = run_json(capsys, "sets", "--spectrum", "file:both.txt", "--k", "1", f"--beta={-mb!r}")
        return doc["B1"], doc["B2"]

    assert kinds(lam2) == ([], [])
    assert kinds(math.nextafter(lam2, math.inf)) == ([], [[1, 2]])
    assert kinds(lam1 + lam2) == ([], [[1, 2]])
    assert kinds(math.nextafter(lam1 + lam2, math.inf)) == ([[1, 2]], [])


def assert_rejected(capsys, tmp_path, argv):
    """``argv`` exits 2, writes nothing to stdout and leaves an existing
    ``--out`` file as it was."""
    assert main(list(argv)) == 2
    assert capsys.readouterr().out == ""
    out = tmp_path / "out.txt"
    out.write_bytes(b"an earlier result\n")
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == b"an earlier result\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--beta=-10", "--pairs", f"1,{2**63}"),
        ("sweep", "--grid", "0:1:2", "--pairs", f"1,{2**63}"),
    ],
    ids=" ".join,
)
def test_pair_index_past_int64_exit_code(capsys, tmp_path, argv):
    # the mode arrays of a pair are int64; 2**63 - 1 still runs
    assert_rejected(capsys, tmp_path, argv)
    assert main([*argv[:-1], f"1,{2**63 - 1}", "--nmax", str(10**160)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--grid", "1:2"),
        ("sweep", "--grid", "0:1:x"),
        ("sweep", "--grid=0:1:-1"),
        ("unimodal", "--csv", "--grid", "1:2"),
        ("enumerate", "--pairs", "1"),
        ("enumerate", "--pairs", "2,1"),
        ("sweep", "--pairs", "0,1"),
        ("sweep", "--track", "1,x"),
    ],
    ids=" ".join,
)
def test_malformed_grid_pairs_and_track_exit_code(capsys, tmp_path, argv):
    assert_rejected(capsys, tmp_path, argv)
