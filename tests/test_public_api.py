import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import beamforge

PUBLIC = [
    "ConversionDiagnostics",
    "CubicReport",
    "EEFamily",
    "MatchReport",
    "ModalSolution",
    "ModeSetPartition",
    "OracleResult",
    "Params",
    "PhysicalParams",
    "ResidualReport",
    "SingleBeamSolutionSet",
    "Spectrum",
    "ValidationError",
    "VerificationError",
    "axial_coefficients",
    "bstar_pairs",
    "cubic_check",
    "dimensionless_params",
    "dirichlet_mode_count",
    "effective_modes",
    "enumerate_ee_families",
    "enumerate_foundation",
    "enumerate_general_bimodal",
    "enumerate_plain",
    "enumerate_unimodal",
    "galerkin_solve",
    "match_against",
    "modal_residual",
    "sample_family",
]


def test_star_import_resolves_every_public_name_once():
    namespace: dict = {}
    # raises AttributeError for a name in __all__ that the package lacks
    exec("from beamforge import *", namespace)
    assert [name for name, n in Counter(beamforge.__all__).items() if n > 1] == []
    for name in beamforge.__all__:
        assert namespace[name] is getattr(beamforge, name)


def test_public_names_are_pinned():
    # a name added to or dropped from the package's surface shows here
    assert sorted(beamforge.__all__) == PUBLIC


def test_public_names_are_their_home_module_objects():
    for name in beamforge.__all__:
        obj = getattr(beamforge, name)
        assert obj.__module__.startswith("beamforge.")
        assert getattr(sys.modules[obj.__module__], name) is obj
    # resolved anew on each access, never bound in the package, so a name
    # patched on its home module (by a tracer) is patched here too, and
    # restored with it
    assert set(beamforge.__all__).isdisjoint(vars(beamforge))


def test_dir_lists_every_public_name():
    assert set(beamforge.__all__) <= set(dir(beamforge))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        beamforge.no_such_name
    assert not hasattr(beamforge, "check_inventory")


SRC = Path(beamforge.__file__).resolve().parents[1]


def commands(*argvs):
    """A script that runs each argv through ``cli.main``; each writes to
    --out, so stdout holds the list of loaded modules alone."""
    return f"""
from beamforge import cli
for argv in {argvs!r}:
    if cli.main([*argv, "--out", "out.txt"]) != 0:
        raise SystemExit(f"{{argv}} failed")
"""


CLOSED_FORM_COMMANDS = commands(
    ["enumerate", "--spectrum", "scaled", "--k", "3", "--beta=-15.5"],
    ["sweep", "--spectrum", "scaled", "--k", "3", "--grid", "0:40:5", "--pairs", "1,2"],
    ["sets", "--spectrum", "scaled", "--k", "72", "--beta=-600", "--nmax", "24"],
    ["unimodal", "--spectrum", "scaled", "--k", "3", "--beta=-15.5"],
    ["unimodal", "--spectrum", "scaled", "--k", "3", "--csv", "--mode", "1", "--grid", "0:20:5"],
)
SEEDED_COMMANDS = commands(
    ["oracle", "--starts", "50"],
    ["enumerate", "--spectrum", "scaled", "--k", "72", "--beta=-40", "--samples", "3"],
)


@pytest.mark.parametrize(
    "code,absent",
    [
        # every submodule loads on the first use of one of its names
        ("import beamforge", None),
        # the closed-form commands load neither the oracle nor the converter
        # nor the single-beam models
        (
            CLOSED_FORM_COMMANDS,
            ("beamforge.oracle", "beamforge.kernels", "beamforge.convert", "beamforge.single_beam"),
        ),
        # the oracle checks the closed forms, so it loads none of them
        (
            "import beamforge.oracle",
            ("beamforge.unimodal", "beamforge.bimodal", "beamforge.modesets", "beamforge.ee_families"),
        ),
        # oracle starts and family samples come from the standard library's
        # random.Random, so numpy.random (about 6 MB) is never imported
        (SEEDED_COMMANDS, ("numpy.random",)),
    ],
    ids=["package", "closed-form commands", "oracle", "seeded commands"],
)
def test_a_fresh_interpreter_loads_only_what_it_runs(tmp_path, code, absent):
    script = code + "\nimport sys\nprint(*sorted(sys.modules))\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    submodules = {name for name in loaded if name.startswith("beamforge.")}
    if absent is None:
        assert submodules == set()
    else:
        assert submodules, "the case loaded no submodule at all"
        assert loaded.isdisjoint(absent)
