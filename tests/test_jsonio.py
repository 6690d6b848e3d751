import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from beamforge import jsonio
from beamforge.core import Inventory, InventoryChecks
from beamforge.errors import ValidationError
from beamforge.jsonio import SolutionRecords, csv_cell, csv_text, format_float


def test_csv_text_matches_cell_by_cell():
    # values equal across types keep their own cells
    repeated = [1, 1.0, 10**17, 1e17, -0.0, None, "n1:alpha1+"]
    rows = [[i / 7.0, *repeated, -i] for i in range(3000)]
    lines = csv_text(["x"], rows).split("\n")
    assert lines[0] == "x" and lines[-1] == ""
    assert lines[1] == "0,1,1,100000000000000000,1e+17,0,,n1:alpha1+,0"
    wrong = [i for i, row in enumerate(rows) if lines[i + 1] != ",".join(map(csv_cell, row))]
    assert len(lines) == len(rows) + 2 and wrong == []


@st.composite
def float_arrays(draw):
    """Floats drawn from a few values, each possibly repeated and negated,
    as the sign images of an inventory repeat their coefficients."""
    pool = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from([1.0, -1.0])), max_size=30))
    return [sign * x for x, sign in picks]


@given(float_arrays())
@example([-0.0, 0.0, 5e-324, -5e-324])
@example([2.225073858507201e-308, sys.float_info.min, -sys.float_info.min, sys.float_info.max, -sys.float_info.max])  # largest subnormal, smallest normal
@example([1e-05, -1e-05, 1e16, 1e17, -1e16, 0.1, -0.1])
def test_format_floats_is_format_float_of_each_value(values):
    texts = jsonio._format_floats(np.array(values, dtype=float)).tolist()
    assert texts == [format_float(x) for x in values]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_format_floats_rejects_non_finite(bad):
    with pytest.raises(ValidationError, match="^non-finite float in output"):
        jsonio._format_floats(np.array([1.0, -2.5, bad, 1.0]))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# a stored mode's alpha and gamma vanish together
COEFFS = st.one_of(
    st.sampled_from([(0.0, 0.0), (-0.0, -0.0)]),
    st.tuples(FINITE.filter(bool), FINITE.filter(bool)),
)


@st.composite
def inventories(draw):
    """Rows, tags, C_u and C_v of an inventory: runs of widths 0-3 in any
    order, some of one row and some longer, and two or more tags."""
    tags = draw(st.lists(st.text(max_size=6), min_size=2, max_size=4, unique=True))
    runs = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)), max_size=6))
    rows = []
    for width, length in runs:
        for _ in range(length):
            ns = sorted(draw(st.lists(st.integers(1, 999), min_size=width, max_size=width, unique=True)))
            rows.append([(n, *draw(COEFFS)) for n in ns])
    return (
        rows,
        [draw(st.sampled_from(tags)) for _ in rows],
        draw(st.lists(FINITE, min_size=len(rows), max_size=len(rows))),
        draw(st.lists(FINITE, min_size=len(rows), max_size=len(rows))),
    )


@given(inventories(), st.integers(0, 3))
@example(([], [], [], []), 0)
def test_solution_records_text_is_the_recursive_emitters(records, level):
    rows, tags, C_u, C_v = records
    inv = Inventory.from_rows(rows, tags)
    zeros = np.zeros(len(rows))
    checks = InventoryChecks(np.array(C_u, dtype=float), np.array(C_v, dtype=float), zeros, zeros)
    dicts = [
        {
            "modes": [{"n": n, "alpha": a, "gamma": g} for n, a, g in row],
            "tag": tag,
            "C_u": cu,
            "C_v": cv,
        }
        for row, tag, cu, cv in zip(rows, tags, C_u, C_v)
    ]
    parts, pieces = [], []
    jsonio._emit(dicts, parts.append, level)
    SolutionRecords(inv, checks).write(pieces.append, level)
    assert "".join(pieces) == "".join(parts)


BLOCK = jsonio._BLOCK_ROWS


@st.composite
def blocked_inventories(draw):
    """Rows, tags, C_u and C_v of an inventory of 0, 1, a block's length
    or one more or less, or several blocks: drawn rows of each width
    repeat in a drawn cycle, and the two rows at each block boundary
    differ in width."""
    length = draw(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 2]))
    pool = []
    for width in range(4):
        ns = sorted(draw(st.lists(st.integers(1, 999), min_size=width, max_size=width, unique=True)))
        pool.append([(n, *draw(COEFFS)) for n in ns])
    widths = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    widths = [widths[i % len(widths)] for i in range(length)]
    for boundary in range(BLOCK, length, BLOCK):
        widths[boundary - 1 : boundary + 1] = draw(
            st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda pair: pair[0] != pair[1])
        )
    # C_u and C_v repeat with their own period, so a magnitude recurs across blocks
    tags = draw(st.lists(st.text(max_size=6), min_size=1, max_size=3))
    cs = draw(st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=7))
    return (
        [pool[w] for w in widths],
        [tags[i % len(tags)] for i in range(length)],
        [cs[i % len(cs)][0] for i in range(length)],
        [cs[i % len(cs)][1] for i in range(length)],
    )


@settings(max_examples=30, deadline=None)
@given(blocked_inventories(), st.integers(0, 3))
def test_solution_records_blocks_join_to_the_recursive_emitters(records, level):
    rows, tags, C_u, C_v = records
    inv = Inventory.from_rows(rows, tags)
    zeros = np.zeros(len(rows))
    checks = InventoryChecks(np.array(C_u, dtype=float), np.array(C_v, dtype=float), zeros, zeros)
    listed = SolutionRecords(inv, checks)
    pieces = []
    listed.write(pieces.append, level)
    dicts = [
        {"modes": [{"n": n, "alpha": a, "gamma": g} for n, a, g in row], "tag": tag, "C_u": cu, "C_v": cv}
        for row, tag, cu, cv in zip(rows, tags, C_u, C_v)
    ]
    expected = []
    jsonio._emit(dicts, expected.append, level)
    assert "".join(pieces) == "".join(expected)
    # "[", then the blocks with a separator between two, then "]"; every
    # block but the last holds BLOCK records, each with one "tag" key
    blocks = pieces[1:-1:2]
    assert len(pieces) == (2 * len(blocks) + 1 if rows else 1)
    assert [block.count('"tag": ') for block in blocks] == [
        min(BLOCK, len(rows) - start) for start in range(0, len(rows), BLOCK)
    ]


def test_solution_records_check_is_bounded_by_a_block():
    # the floats of 60,000 three-mode records take 3.8 MB as one array,
    # 66 kB for a block of them
    size = 60_000
    coeffs = np.ones((size, 3))
    inv = Inventory(np.tile([1, 2, 3], (size, 1)), coeffs, coeffs, np.full(size, 3), ["b"] * size)
    checks = InventoryChecks(np.ones(size), np.ones(size), np.zeros(size), np.zeros(size))
    records = SolutionRecords(inv, checks)
    tracemalloc.start()
    try:
        records.check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 500_000
    # the first non-finite value raises, as writing raises it, in whatever
    # block it is
    checks.C_v[2 * BLOCK + 7] = -math.inf
    checks.C_u[5 * BLOCK] = math.nan
    for run in (records.check, lambda: records.write(lambda text: None, 0)):
        with pytest.raises(ValidationError, match="^non-finite float in output: -inf;"):
            run()
