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
output.  The records are written in blocks of ``_BLOCK_ROWS``: the
floats of a block are formatted in one array pass, each distinct
magnitude once.  Each run of consecutive records with the same
stored-mode count repeats one text template, and one ``%`` fills the
whole block, so the record layout (``modes`` as ``n``/``alpha``/``gamma``
dicts, then ``tag``, ``C_u`` and ``C_v``) is written down only in
:func:`_record_template`.  The bytes are those the recursive emitter
gives the same records as dicts.

:func:`dump` sends a document piece by piece to a ``write`` callable,
so a large one is never held whole; :func:`dumps` joins the pieces.
:func:`check` raises, before anything is written, the error that
writing a document would raise on a non-finite float.

CSV cells are written by :func:`csv_cell`.  ``sweep`` writes its own
lines, one compression at a time, from blocks of compressions of about
``_BLOCK_ROWS`` mode-table rows: it formats each amplitude magnitude of
a block once, and a line template per sign pattern puts the signs in
front of the magnitudes.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ValidationError

INDENT = 2

# Solution records per block, checked and written here and verified in
# ``core.check_inventory``; ``sweep`` takes as many mode-table rows per
# block of compressions.  A block's temporaries, texts, fields and ``%``
# result live only while it is checked or written, so the memory a list
# of records needs is bounded by the block, not by the inventory.  In a
# fresh process, an ``enumerate`` of 16,640 records grew RSS by about
# 3.2 MB with blocks of 64 to 512 records (the rest of the command needs
# that much), 4.0-4.4 MB with blocks of 1024, 5.6 MB with 2048, 8.7 MB
# with 4096, 13.6 MB with 8192 and 22.6 MB as one block; blocks of 256
# took 15% longer to write than blocks of 1024.
_BLOCK_ROWS = 1024


def format_float(x: float) -> str:
    if not math.isfinite(x):
        # inputs are checked finite, so a result has left the float range
        raise ValidationError(f"non-finite float in output: {x!r}; the input is out of range")
    if x == 0.0:
        x = 0.0  # normalize the sign of zero
    return format(float(x), ".17g")


class SolutionRecords:
    """The JSON list of an inventory's solution records, with the
    ``C_u`` and ``C_v`` of its :class:`beamforge.core.InventoryChecks`.
    Place it in a document where the list of records goes."""

    def __init__(self, inventory, checks) -> None:
        self.inventory = inventory
        self.checks = checks

    def _values(self, rows: slice, used: int) -> np.ndarray:
        """The floats of records ``rows`` in their written order: slot
        ``j < used`` holds alpha and gamma of mode ``j``, slot ``used``
        ``C_u`` and ``C_v``."""
        inv = self.inventory
        alpha = inv.alpha[rows, :used]
        values = np.empty((len(alpha), used + 1, 2))
        values[:, :used, 0] = alpha
        values[:, :used, 1] = inv.gamma[rows, :used]
        values[:, used, 0] = self.checks.C_u[rows]
        values[:, used, 1] = self.checks.C_v[rows]
        return values

    def check(self) -> None:
        """Raise the error that writing the records would raise on a
        non-finite float, reading them in :meth:`write`'s blocks."""
        used = int(self.inventory.width.max(initial=0))
        for start in range(0, len(self.inventory), _BLOCK_ROWS):
            check_floats(self._values(slice(start, start + _BLOCK_ROWS), used))

    def write(self, write, level: int) -> None:
        """Send the list, as :func:`_emit` writes it at nesting ``level``,
        to ``write`` in blocks of ``_BLOCK_ROWS`` records."""
        inv = self.inventory
        if not len(inv):
            write("[]")
            return
        # slot j < used holds n, alpha and gamma of mode j, slot `used` the
        # tag, C_u and C_v; a record's fields are its stored slots and the last
        used = int(inv.width.max())
        templates = [_record_template(w, level + 1) for w in range(used + 1)]
        tag_text = {tag: json.dumps(tag) for tag in set(inv.tags)}
        write("[\n")
        for start in range(0, len(inv), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            width = inv.width[rows]
            fields = np.empty((len(width), used + 1, 3), dtype=object)
            fields[:, :, 1:] = _format_floats(self._values(rows, used))
            fields[:, :used, 0] = inv.n[rows, :used]
            fields[:, used, 0] = list(map(tag_text.__getitem__, inv.tags[rows]))
            stored = np.arange(used + 1) < width[:, None]
            stored[:, used] = True
            # each run of rows of one width repeats that width's template
            cuts = [0, *(np.flatnonzero(np.diff(width)) + 1).tolist(), len(width)]
            layout = ",\n".join(
                ",\n".join([templates[width[a]]] * (b - a)) for a, b in zip(cuts, cuts[1:])
            )
            if start:
                write(",\n")
            write(layout % tuple(fields[stored].ravel().tolist()))
        write("\n" + " " * (INDENT * level) + "]")


def check_floats(values: np.ndarray) -> None:
    """Raise the :func:`format_float` error of the first non-finite
    value of ``values``, if there is one."""
    finite = np.isfinite(values)
    if not finite.all():
        format_float(float(values[~finite][0]))  # raises


def _format_floats(values: np.ndarray) -> np.ndarray:
    """``format_float`` of each value, as an object array of the same
    shape.  The sign images of a solution share their ``C_u`` and
    ``C_v`` and repeat each coefficient's magnitude, so each distinct
    magnitude is formatted once, all by one ``%`` (``"%.17g" % x`` is
    ``format(x, ".17g")``); a negative value takes its magnitude's text
    with a ``-`` in front (its magnitude is not 0, so the text is not
    ``"0"``, and ``-0.0`` is not negative)."""
    check_floats(values)
    magnitudes, index = np.unique(np.abs(values).ravel(), return_inverse=True)
    texts = ("%.17g\n" * len(magnitudes) % tuple(magnitudes.tolist())).split("\n")[:-1]
    table = np.array(texts + ["-" + t for t in texts], dtype=object)
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


def _emit(obj, write, level: int) -> None:
    pad = " " * (INDENT * level)
    pad_in = " " * (INDENT * (level + 1))
    if obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif isinstance(obj, str):
        write(json.dumps(obj))
    elif isinstance(obj, int):
        write(repr(obj))
    elif isinstance(obj, float):
        write(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        write("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            write(pad_in)
            write(json.dumps(key))
            write(": ")
            _emit(value, write, level + 1)
            write(",\n" if i < len(obj) - 1 else "\n")
        write(pad + "}")
    elif isinstance(obj, SolutionRecords):
        obj.write(write, level)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        write("[\n")
        for i, value in enumerate(obj):
            write(pad_in)
            _emit(value, write, level + 1)
            write(",\n" if i < len(obj) - 1 else "\n")
        write(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def check(obj) -> None:
    """Raise the error that :func:`dump` would raise on a non-finite
    float of ``obj``, before anything is written."""
    if isinstance(obj, float):
        format_float(obj)
    elif isinstance(obj, dict):
        for value in obj.values():
            check(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            check(value)
    elif isinstance(obj, SolutionRecords):
        obj.check()


def dump(obj, write) -> None:
    """Send ``obj`` as JSON to ``write``, piece by piece.  A non-finite
    float raises when it is reached; call :func:`check` first to write
    nothing in that case."""
    _emit(obj, write, 0)
    write("\n")


def dumps(obj) -> str:
    parts: list[str] = []
    dump(obj, parts.append)
    return "".join(parts)


def csv_cell(value) -> str:
    """The text of a float, nothing for ``None``, else ``str(value)``, unquoted."""
    if value is None:
        return ""
    return format_float(value) if isinstance(value, float) else str(value)


def csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(map(csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"
