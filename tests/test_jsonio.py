from beamforge.jsonio import CSV_MEMO_CELLS, csv_cell, csv_text


def test_csv_text_matches_cell_by_cell_across_memo_clears():
    # values equal across types keep their own cells, and more distinct
    # values than the memo holds force it to empty and refill
    repeated = [True, 1, 1.0, 10**17, 1e17, -0.0, None, "a,b", 'q"', "n1:alpha1+"]
    rows = [[i / 7.0, *repeated, -i] for i in range(3 * CSV_MEMO_CELLS)]
    lines = csv_text(["x"], rows).split("\n")
    assert lines[0] == "x" and lines[-1] == ""
    assert lines[1] == '0,1,1,1,100000000000000000,1e+17,0,,"a,b","q""",n1:alpha1+,0'
    wrong = [i for i, row in enumerate(rows) if lines[i + 1] != ",".join(map(csv_cell, row))]
    assert len(lines) == len(rows) + 2 and wrong == []
