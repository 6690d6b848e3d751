"""Deterministic JSON / CSV emission.

Floats are rendered with 17 significant digits, enough to round-trip any
double exactly, so identical inputs always produce byte-identical
output.  NaN and infinities are rejected.
"""

from __future__ import annotations

import json
import math

# distinct cells csv_text keeps formatted at once
CSV_MEMO_CELLS = 1024


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float in output: {x!r}")
    if x == 0.0:
        x = 0.0  # normalize the sign of zero
    return format(float(x), ".17g")


def _emit(obj, parts: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, int):
        parts.append(repr(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(pad_in)
            parts.append(json.dumps(key))
            parts.append(": ")
            _emit(value, parts, indent, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, value in enumerate(obj):
            parts.append(pad_in)
            _emit(value, parts, indent, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, indent: int = 2) -> str:
    parts: list[str] = []
    _emit(obj, parts, indent, 0)
    parts.append("\n")
    return "".join(parts)


def csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, int):
        return repr(value)
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def csv_text(header: list[str], rows) -> str:
    # A sweep repeats its betas, counts, empty cells and branch ids
    # within a few hundred rows, so a value formatted once is reused from
    # a memo.  The memo is emptied when full: kept whole, the mostly
    # distinct amplitudes would grow it past the size of the CSV itself.
    # The key holds the type so that True, 1 and 1.0 keep their own cells.
    cells: dict = {}
    lines = [",".join(header)]
    for row in rows:
        texts = []
        for value in row:
            key = (type(value), value)
            text = cells.get(key)
            if text is None:
                if len(cells) == CSV_MEMO_CELLS:
                    cells.clear()
                text = cells[key] = csv_cell(value)
            texts.append(text)
        lines.append(",".join(texts))
    return "\n".join(lines) + "\n"
