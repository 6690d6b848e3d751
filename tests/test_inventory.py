"""The array inventory, its vectorized checks and the verification block.

``check_inventory`` must give every row exactly the values of the scalar
reference (``axial_coefficients``, ``modal_residual``, ``cubic_check``),
and ``enumerate`` must still fail on a wrong coefficient and stay blind
to tags.
"""

import dataclasses
import json
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from beamforge import (
    ModalSolution,
    Params,
    Spectrum,
    ValidationError,
    axial_coefficients,
    cubic_check,
    enumerate_ee_families,
    modal_residual,
    sample_family,
)
from beamforge import cli, jsonio
from beamforge.bimodal import general_bimodal_inventory
from beamforge.core import Inventory, check_inventory, verified_records
from beamforge.unimodal import unimodal_inventory


def assert_matches_scalar(sols, p, spec):
    inv = Inventory.from_solutions(sols)
    assert inv.solutions() == sols
    checks = check_inventory(inv, p, spec)
    wrong = []
    for i, sol in enumerate(sols):
        cubic = 0.0 if sol.is_trivial else cubic_check(sol, p, spec).max_relative
        scalar = (*axial_coefficients(sol, p, spec), modal_residual(sol, p, spec).relative, cubic)
        vector = (checks.C_u[i], checks.C_v[i], checks.residual[i], checks.cubic[i])
        # bit for bit, with a NaN equal to a NaN and -0.0 apart from 0.0
        if list(map(float.hex, scalar)) != list(map(float.hex, vector)):
            wrong.append((i, scalar, vector))
    assert wrong == []


ZERO = st.sampled_from([0.0, -0.0])
NONZERO = st.floats(-100.0, 100.0, allow_nan=False).filter(lambda x: x != 0.0)
# a stored mode is inactive, with zeros of either sign, or active in both beams
MODE = st.one_of(st.tuples(ZERO, ZERO), st.tuples(NONZERO, NONZERO))


@st.composite
def solutions(draw):
    indices = sorted(draw(st.lists(st.integers(1, 20), max_size=3, unique=True)))
    return ModalSolution({n: draw(MODE) for n in indices}, tag="untagged")


TOKENS = st.sampled_from(["scaled", "dirichlet", "power:2"])
# eigenvalues whose squares or cubes overflow, or underflow, so that
# checks read inf or NaN
EXTREME = st.builds(lambda scale: Spectrum.explicit([scale * n for n in range(1, 21)]),
                    st.one_of(st.floats(1e100, 1e160), st.floats(1e-160, 1e-100)))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(TOKENS.map(Spectrum.from_token), EXTREME),
    st.one_of(st.floats(-1e4, 1e3, allow_nan=False), st.floats(-1e300, -1e100)),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
    st.lists(solutions(), min_size=1, max_size=8),
)
# a NaN cubic, and a NaN residual, after the 0.0 a maximum starts from
@example(Spectrum.explicit([1e110, 3e110]), -2e110, 1.0, 1.0, [ModalSolution({1: (1.0, 1.0)})])
@example(Spectrum.explicit([1e155]), -1e300, 1.0, 1.0, [ModalSolution({1: (1.0, 1.0)})])
def test_checks_equal_scalar_reference(spec, beta, varrho, k, sols):
    # 0 to 3 stored modes, stored (0, 0) modes, trivial rows and -0.0
    sols = [*sols, ModalSolution.trivial()]
    assert_matches_scalar(sols, Params(beta, varrho, k), spec)


BLOCK = jsonio._BLOCK_ROWS


@st.composite
def blocked_solutions(draw):
    """Solutions of 0, 1, a block's length or one more or less, or several
    blocks: drawn solutions of each width repeat in a drawn cycle, and the
    two rows at each block boundary differ in width."""
    length = draw(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 2]))
    pool = []
    for width in range(4):
        indices = sorted(draw(st.lists(st.integers(1, 20), min_size=width, max_size=width, unique=True)))
        pool.append(ModalSolution({n: draw(MODE) for n in indices}, tag="untagged"))
    widths = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    widths = [widths[i % len(widths)] for i in range(length)]
    for boundary in range(BLOCK, length, BLOCK):
        widths[boundary - 1 : boundary + 1] = draw(
            st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda pair: pair[0] != pair[1])
        )
    return [pool[w] for w in widths]


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["scaled", "dirichlet", "power:2"]),
    st.floats(-1e4, 1e3, allow_nan=False),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
    blocked_solutions(),
)
def test_checks_equal_scalar_reference_across_blocks(token, beta, varrho, k, sols):
    assert_matches_scalar(sols, Params(beta, varrho, k), Spectrum.from_token(token))


def deep_inventory():
    # 16,640 rows on the default Dirichlet spectrum at -beta = 45000
    p, spec = Params(-45000.0, 1.0, 1.0), Spectrum.dirichlet()
    sols = unimodal_inventory(p, spec).solutions() + general_bimodal_inventory(p, spec).solutions()
    assert len(sols) == 16640
    return sols, p, spec


def test_checks_equal_scalar_reference_on_deep_inventory():
    assert_matches_scalar(*deep_inventory())


def test_check_inventory_peak_memory_is_bounded_by_a_block():
    # the four output columns take 0.53 MB and a block's temporaries about
    # 0.5 MB; one pass over all rows at once takes about 7.2 MB
    sols, p, spec = deep_inventory()
    inv = Inventory.from_solutions(sols)
    tracemalloc.start()
    try:
        check_inventory(inv, p, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


def test_checks_equal_scalar_reference_on_family_samples():
    # B1, two B2 and the T triple (3, 4, 5), with 2- and 3-mode samples
    p, spec = Params(-40.0, 1.0, 72.0), Spectrum.scaled()
    families = enumerate_ee_families(p, spec)
    sols = [s for fi, fam in enumerate(families) for s in sample_family(fam, 3, seed=fi)]
    assert sorted({len(s.modes) for s in sols}) == [2, 3]
    assert_matches_scalar(sols, p, spec)


def test_inventory_rejects_what_modal_solution_rejects():
    with pytest.raises(ValidationError, match="vanish together"):
        Inventory.from_rows([[(1, 1.0, 0.0)]], ["x"])
    four = [[(1, 1.0, 1.0), (2, 1.0, 1.0), (3, 1.0, 1.0), (4, 1.0, 1.0)]]
    with pytest.raises(ValidationError, match="active modes"):
        Inventory.from_rows(four, ["x"])


SCALED = ["enumerate", "--spectrum", "scaled", "--k", "3", "--beta=-15.5"]
K72_SAMPLES = ["enumerate", "--spectrum", "scaled", "--k", "72", "--beta=-40", "--samples", "3"]


def run_enumerate(tmp_path, argv):
    out = tmp_path / "out.json"
    code = cli.main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def nudge(inv, row, column):
    alpha = inv.alpha.copy()
    alpha[row, column] *= 1.0 + 1e-6
    return dataclasses.replace(inv, alpha=alpha)


def test_verification_catches_nudged_general_bimodal_row(tmp_path, monkeypatch):
    real = cli.general_bimodal_inventory
    monkeypatch.setattr(cli, "general_bimodal_inventory", lambda *args: nudge(real(*args), -1, 1))
    code, doc = run_enumerate(tmp_path, SCALED)
    assert code == 3
    assert doc["verification"]["passed"] is False
    assert doc["verification"]["max_relative_residual"] > doc["verification"]["residual_tolerance"]


def test_verification_catches_nudged_family_sample(tmp_path, monkeypatch):
    real = cli.sample_family
    nudged = []

    def sample_with_nudge(fam, count, seed=0):
        drawn = real(fam, count, seed=seed)
        if fam.kind == "T":
            last = drawn[-1]
            n3 = last.active[2]
            a, g = last.modes[n3]
            drawn[-1] = ModalSolution({**last.modes, n3: (a * (1.0 + 1e-6), g)}, tag=last.tag)
            nudged.append(drawn[-1])
        return drawn

    monkeypatch.setattr(cli, "sample_family", sample_with_nudge)
    code, doc = run_enumerate(tmp_path, K72_SAMPLES)
    assert code == 3
    assert doc["verification"]["passed"] is False
    (sol,) = nudged
    emitted = doc["ee_families"][-1]["samples"][-1]["modes"][2]
    assert (emitted["n"], emitted["alpha"]) == (sol.active[2], sol.modes[sol.active[2]][0])


def test_verification_block_keeps_a_nan_check_of_any_group():
    # the cubic of the second group reads NaN; a maximum that kept the
    # first group's 0.0 would pass the block
    p, spec = Params(-2e110, 1.0, 1.0), Spectrum.explicit([1e110, 3e110])
    finite = verified_records(Inventory.from_solutions([ModalSolution.trivial()]), p, spec)
    nan = verified_records(Inventory.from_solutions([ModalSolution({1: (1.0, 1.0)})]), p, spec)
    for records in ([finite, nan], [nan, finite]):
        block = cli._verify(records, 1e-10)
        assert math.isnan(block["max_cubic_relative"])
        assert block["passed"] is False


def test_verification_is_tag_blind(tmp_path, monkeypatch):
    _, before = run_enumerate(tmp_path, SCALED)
    real = cli.general_bimodal_inventory

    def retagged(*args):
        inv = real(*args)
        return dataclasses.replace(inv, tags=[*inv.tags[:-1], "ee-trimodal"])

    monkeypatch.setattr(cli, "general_bimodal_inventory", retagged)
    code, after = run_enumerate(tmp_path, SCALED)
    assert code == 0
    assert after["general_bimodal"][-1]["tag"] == "ee-trimodal"
    assert after["verification"] == before["verification"]
    assert after["verification"]["passed"] is True
