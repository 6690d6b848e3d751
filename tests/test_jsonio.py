import sys

from hypothesis import example, given, strategies as st

from beamforge.jsonio import csv_cell, csv_text, format_float, format_negated


def test_csv_text_matches_cell_by_cell():
    # values equal across types keep their own cells
    repeated = [True, 1, 1.0, 10**17, 1e17, -0.0, None, "a,b", 'q"', "n1:alpha1+"]
    rows = [[i / 7.0, *repeated, -i] for i in range(3000)]
    lines = csv_text(["x"], rows).split("\n")
    assert lines[0] == "x" and lines[-1] == ""
    assert lines[1] == '0,1,1,1,100000000000000000,1e+17,0,,"a,b","q""",n1:alpha1+,0'
    wrong = [i for i, row in enumerate(rows) if lines[i + 1] != ",".join(map(csv_cell, row))]
    assert len(lines) == len(rows) + 2 and wrong == []


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(2.225073858507201e-308)  # the largest subnormal
@example(sys.float_info.min)
@example(sys.float_info.max)
@example(-1e-05)
def test_format_negated_is_the_text_of_the_negated_value(x):
    assert format_negated(format_float(x)) == format_float(-x)
