"""Deterministic JSON / CSV emission.

Floats are rendered with 17 significant digits, enough to round-trip any
double exactly, so identical inputs always produce byte-identical
output.  NaN and infinities are rejected.  :func:`format_float` defines
the text of a float; :func:`_format_floats` gives the same texts for a
whole array.

:func:`dumps` writes a document of dicts, lists and scalars with a
two-space indent.  A list of solution records is one
:class:`SolutionRecords` in the document: it is rendered from the
arrays of a :class:`beamforge.core.Inventory` and spliced into the
output.  All floats of the records are formatted in one array pass,
each distinct magnitude once.  Each run of consecutive records with the
same stored-mode count repeats one text template, and one ``%`` fills
the whole list, so the record layout (``modes`` as
``n``/``alpha``/``gamma`` dicts, then ``tag``, ``C_u`` and ``C_v``) is
written down only in :func:`_record_template`.  The bytes are those the
recursive emitter gives the same records as dicts.

CSV cells are written by :func:`csv_cell`.  ``sweep`` writes its own
lines, one compression at a time: it formats each amplitude magnitude
once and the cell of its sign image is :func:`format_negated` of that
text.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ValidationError

INDENT = 2


def format_float(x: float) -> str:
    if not math.isfinite(x):
        # inputs are checked finite, so a result has left the float range
        raise ValidationError(f"non-finite float in output: {x!r}; the input is out of range")
    if x == 0.0:
        x = 0.0  # normalize the sign of zero
    return format(float(x), ".17g")


def format_negated(text: str) -> str:
    """``format_float(-x)`` from ``text == format_float(x)``: the sign
    of zero is normalized, every other value's text just changes sign."""
    if text == "0":
        return text
    return text[1:] if text[0] == "-" else "-" + text


class SolutionRecords:
    """The JSON list of an inventory's solution records, with the
    ``C_u`` and ``C_v`` of its :class:`beamforge.core.InventoryChecks`.
    Place it in a document where the list of records goes."""

    def __init__(self, inventory, checks) -> None:
        self.inventory = inventory
        self.checks = checks

    def text(self, level: int) -> str:
        """The list as :func:`_emit` writes it at nesting ``level``."""
        inv = self.inventory
        if not len(inv):
            return "[]"
        # slot j < used holds n, alpha and gamma of mode j, slot `used` the
        # tag, C_u and C_v; a record's fields are its stored slots and the last
        used = int(inv.width.max())
        values = np.empty((len(inv), used + 1, 2))
        values[:, :used, 0] = inv.alpha[:, :used]
        values[:, :used, 1] = inv.gamma[:, :used]
        values[:, used, 0] = self.checks.C_u
        values[:, used, 1] = self.checks.C_v
        fields = np.empty((len(inv), used + 1, 3), dtype=object)
        fields[:, :, 1:] = _format_floats(values)
        fields[:, :used, 0] = inv.n[:, :used]
        tag_text = {tag: json.dumps(tag) for tag in set(inv.tags)}
        fields[:, used, 0] = list(map(tag_text.__getitem__, inv.tags))
        stored = np.arange(used + 1) < inv.width[:, None]
        stored[:, used] = True
        # each run of rows of one width repeats that width's template
        templates = [_record_template(w, level + 1) for w in range(used + 1)]
        cuts = [0, *(np.flatnonzero(np.diff(inv.width)) + 1).tolist(), len(inv)]
        layout = ",\n".join(
            ",\n".join([templates[inv.width[a]]] * (b - a)) for a, b in zip(cuts, cuts[1:])
        )
        pad = " " * (INDENT * level)
        return f"[\n{layout}\n{pad}]" % tuple(fields[stored].ravel().tolist())


def _format_floats(values: np.ndarray) -> np.ndarray:
    """``format_float`` of each value, as an object array of the same
    shape.  The sign images of a solution share their ``C_u`` and
    ``C_v`` and repeat each coefficient's magnitude, so each distinct
    magnitude is formatted once, all by one ``%`` (``"%.17g" % x`` is
    ``format(x, ".17g")``); a negative value takes the
    :func:`format_negated` image of its magnitude's text."""
    finite = np.isfinite(values)
    if not finite.all():
        format_float(float(values[~finite][0]))  # raises
    magnitudes, index = np.unique(np.abs(values).ravel(), return_inverse=True)
    texts = ("%.17g\n" * len(magnitudes) % tuple(magnitudes.tolist())).split("\n")[:-1]
    table = np.array(texts + list(map(format_negated, texts)), dtype=object)
    return table[index.reshape(values.shape) + len(texts) * (values < 0)]


def _record_template(width: int, level: int) -> str:
    """One solution record with ``width`` stored modes at nesting
    ``level``, indented as :func:`_emit` indents the same dict, with
    ``%s`` slots for ``n``, ``alpha`` and ``gamma`` of each mode, then
    for the tag, ``C_u`` and ``C_v``."""
    pad = [" " * (INDENT * (level + depth)) for depth in range(4)]
    mode = (
        f'{pad[2]}{{\n{pad[3]}"n": %s,\n{pad[3]}"alpha": %s,\n{pad[3]}"gamma": %s\n{pad[2]}}}'
    )
    modes = "[\n" + ",\n".join([mode] * width) + f"\n{pad[1]}]" if width else "[]"
    return (
        f'{pad[0]}{{\n{pad[1]}"modes": {modes},\n{pad[1]}"tag": %s,\n'
        f'{pad[1]}"C_u": %s,\n{pad[1]}"C_v": %s\n{pad[0]}}}'
    )


def _emit(obj, parts: list[str], level: int) -> None:
    pad = " " * (INDENT * level)
    pad_in = " " * (INDENT * (level + 1))
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
            _emit(value, parts, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, SolutionRecords):
        parts.append(obj.text(level))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, value in enumerate(obj):
            parts.append(pad_in)
            _emit(value, parts, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    parts: list[str] = []
    _emit(obj, parts, 0)
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
    lines = [",".join(header)]
    lines += [",".join(map(csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"
