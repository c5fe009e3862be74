"""CSV ingestion and the preprocessing transforms used before analysis.

``read_csv`` reads the body of a seekable source twice.  The first pass
counts its rows, and a column-major table of that many rows is made for
the ``Dataset`` to take as it is.  The second reads blocks of whole
lines, each at most 128 KiB and never longer than the csv module's
field limit.  A block that holds only the bytes of plain numbers
(digits, ``e E + - .``, commas, spaces, tabs and CRLF line ends) is
parsed as one JSON array of rows by ``orjson``, whose number reader is
correctly rounded, as ``float`` is, and is written into its rows of the
table.  An integer ``-0``, which orjson reads as +0, is read again as
``-0.0``; a block JSON rejects is read again with its plus signs
dropped and its bare points given their 0 (``+1``, ``.5``), and if JSON
still rejects it (``1.``, ``01``, an overflow), ``float`` reads its
cells.  Anything the strict per-cell scanner might read otherwise sends
the source back to its start and through that scanner, which is the
reference for every value and the only source of parse errors: any
other byte (quotes, letters, brackets), a lone CR, a row of another
width, a blank line inside the body, an empty or malformed cell, a
non-finite value or no rows.  Trailing blank lines and a last line
without a line end stay on the fast path.  Non-seekable streams go to
the strict scanner directly.

Transforms are applied in order, and the input dataset is never
modified.  The steps share one working copy of the values, column-major
like a ``Dataset``'s: the exclusion's copy, written column by column
with no row-major copy on the way, or else the one made by the first
step that writes.  ``log``, ``standardize`` and ``dichotomize`` write
their column into it in place, and augmentation steps append columns to
it, which makes a new column-major copy.  Each step checks the columns
it writes, so an error is raised by the step that causes it, and the
result is built into a ``Dataset`` once, at the end, with no copy.
Missing values are a hard error (the estimators assume complete i.i.d.
rows).
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import (DimensionMismatch, EmptyAfterExclusion, InvalidConfig,
                     MissingValue, NonFinite, NonPositiveLogInput,
                     ParseError, SchemaMismatch, UnknownColumn)

_BLOCK = 1 << 17  # characters per block of the fast reader
_COUNT_BLOCK = 1 << 16  # characters per read of its row count
# every byte a block of plain numbers may hold; any other falls back
_NUMBER_BYTES = b"0123456789eE+-., \t\r\n"
# an integer -0 cell, which orjson reads as the int 0 (so +0.0) and
# float() as -0.0; an exponent's "e-0" matches too, but "e-0.0" is no
# JSON, so float() reads that block
_NEGATIVE_ZERO = re.compile(rb"-0(?=[],\s])")
# mends of cells float() reads and JSON does not: a "+" sign is dropped,
# and a point with no digit before it (".5", "-.5", as Stata writes
# them) gets its 0.  No mend makes a JSON number of a cell float()
# rejects: a JSON fraction needs a digit after the point, and no "+" is
# dropped from a block where a sign or a space follows one
_PLUS_MENDS = ((b"[+", b"["), (b",+", b","))
_UNMENDABLE = (b"+-", b"+ ", b"+\t")
_POINT_MENDS = ((b"[.", b"[0."), (b",.", b",0."), (b"-.", b"-0."))

_COMPARATORS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def read_csv(source, schema=None) -> Dataset:
    """Read an RFC-4180 CSV with a header row into a Dataset.

    ``source`` is a path or a text stream.  ``schema`` optionally pins
    the expected column names.  The body of a path or a seekable stream
    is read in blocks of plain numbers by ``orjson`` (or, cell by cell,
    by ``float``) into one column-major table; if a block holds anything
    else, or the table might differ from the strict scanner's (see the
    module docstring),
    the source is rewound and scanned cell by cell, which accepts what
    Python's ``float`` accepts and raises ``ParseError``/``MissingValue``
    with the line and column.  Either way the values are the same bits.
    """
    if hasattr(source, "read"):
        return _read_csv_fast(source, schema)
    with open(source, "r", newline="", encoding="utf-8") as fh:
        return _read_csv_fast(fh, schema)


def _records(reader):
    """The rows of a ``csv.reader``; a malformed record raises
    ``ParseError`` on the physical line where the reader stopped."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(reader.line_num, 1,
                         f"malformed CSV record: {exc}") from None


def _read_header(records, schema):
    try:
        header = next(records)
    except StopIteration:
        raise ParseError(1, 1, "empty file") from None
    header = [h.strip() for h in header]
    if schema is not None and list(schema) != header:
        raise SchemaMismatch(
            f"expected columns {list(schema)}, found {header}")
    return header


def _read_csv_fast(stream, schema):
    try:
        start = stream.tell() if stream.seekable() else None
    except (AttributeError, OSError, ValueError):
        start = None
    if start is None:
        return _read_csv_stream(stream, schema)
    header = _read_header(_records(csv.reader(stream)), schema)
    try:
        values = _read_blocks(stream, start, len(header))
    except (TypeError, ValueError):
        values = None
    if values is not None:
        return Dataset._adopt(tuple(header), values)
    stream.seek(start)
    return _read_csv_stream(stream, schema)


def _count_rows(stream):
    """The lines left in ``stream``, less the blank lines that end it."""
    ends = tail = 0
    content = False
    while chunk := stream.read(_COUNT_BLOCK):
        ends += chunk.count("\n")
        body = chunk.rstrip("\r\n")
        if body:
            content = True
            tail = chunk.count("\n", len(body))
        else:
            tail += chunk.count("\n")
    return ends - tail + content


def _read_blocks(stream, start, width):
    """The body after the header as a column-major table, or ``None``
    where the strict scanner might not give the same bits (see the
    module docstring); a block orjson or NumPy rejects raises
    ``ValueError`` or ``TypeError``.  ``stream`` is positioned after the
    header, which begins at ``start``."""
    import orjson  # here, not at the top: only a CSV read pays for it
    rows = _count_rows(stream)
    if not rows:
        return None
    stream.seek(start)
    next(csv.reader(stream))
    table = np.empty((rows, width), order="F")
    # a block holds whole lines of at most this many characters, so no
    # line the fast path reads is over the csv module's field limit
    size = min(_BLOCK, csv.field_size_limit())
    at, carry, done = 0, "", False
    while not done:
        text = carry + stream.read(size - len(carry))
        done = len(text) < size
        if not done:
            cut = text.rfind("\n") + 1
            if not cut:
                return None
            text, carry = text[:cut], text[cut:]
        if not text.isascii():
            return None
        data = text.encode()
        if data.translate(None, _NUMBER_BYTES) or (
                b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
            return None
        data = data.rstrip(b"\r\n")
        if not data:
            continue
        block = _parse_block(data, orjson)
        if block is None or block.shape[1] != width:
            return None
        # past the counted rows, the slice is short and this raises
        table[at:at + len(block)] = block
        at += len(block)
    return table if at == rows else None


def _parse_block(data, orjson):
    """The lines of a block of plain-number bytes as a table of rows, or
    ``None`` when one of its cells is not finite; ``ValueError`` when a
    cell is not a number or the rows differ in length.

    orjson reads the block as one JSON array, mended (see ``_mend``) if
    it is no JSON as written; ``float`` reads the cells of a block that
    is no JSON even then (``1.``, ``01``, ``+-1``, an overflow).
    """
    # each line one JSON array: "1,2\r\n3,4" is [[1,2\r],[3,4]]
    array = b"[[%s]]" % data.replace(b"\n", b"],[")
    rows = _json_rows(array, orjson)
    if rows is None:
        array = _mend(array)
        rows = None if array is None else _json_rows(array, orjson)
    if rows is not None and not rows.all() and _NEGATIVE_ZERO.search(array):
        rows = _json_rows(_NEGATIVE_ZERO.sub(b"-0.0", array), orjson)
    if rows is None:
        rows = np.array([list(map(float, line.split(b",")))
                         for line in data.split(b"\n")])
        return rows if np.isfinite(rows).all() else None
    return rows


def _mend(array):
    """``array`` with its cells' plus signs dropped and bare points given
    their 0, or ``None`` if a plus sign is followed by a sign or a space.
    """
    if b"+" in array:  # one byte: a fast scan, where each pair is slow
        if any(s in array for s in _UNMENDABLE):
            return None
        for cell, mended in _PLUS_MENDS:
            array = array.replace(cell, mended)
    for cell, mended in _POINT_MENDS:
        array = array.replace(cell, mended)
    return array


def _json_rows(array, orjson):
    """``array`` read by orjson as a table of floats, or ``None`` if it
    is no JSON."""
    try:
        return np.array(orjson.loads(array), dtype=float)
    except orjson.JSONDecodeError:
        return None


def _read_csv_stream(stream, schema):
    """The strict scanner: the reference for values and every parse error."""
    reader = csv.reader(stream)
    records = _records(reader)
    header = _read_header(records, schema)
    rows = []
    for row in records:
        if not row:
            continue
        line_no = reader.line_num
        if len(row) != len(header):
            raise ParseError(line_no, 1,
                             f"expected {len(header)} cells, found {len(row)}")
        parsed = []
        for col_no, cell in enumerate(row, start=1):
            cell = cell.strip()
            if cell == "":
                raise MissingValue(line_no, col_no)
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(line_no, col_no,
                                 f"non-numeric cell {cell!r}") from None
            if not math.isfinite(value):
                raise ParseError(line_no, col_no,
                                 f"non-finite cell {cell!r}")
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise ParseError(2, 1, "no data rows")
    return Dataset(tuple(header), np.array(rows, dtype=float))


def write_csv(data: Dataset, target):
    """Write a Dataset as CSV, preserving values to 17 significant digits."""
    def _write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(data.column_names)
        for row in data.values:
            writer.writerow([format(v, ".17g") for v in row])

    if hasattr(target, "write"):
        _write(target)
    else:
        with open(target, "w", newline="", encoding="utf-8") as fh:
            _write(fh)


@dataclass(frozen=True)
class TransformSpec:
    """An ordered list of transform steps (dicts with an ``op`` key).

    Each step must be an object whose ``op`` names a known transform,
    whose ``column``, if given, is a string and whose ``columns``, if
    given, is a list of strings; anything else raises ``InvalidConfig``.
    """

    steps: tuple

    def __post_init__(self):
        for number, step in enumerate(self.steps, start=1):
            if not isinstance(step, dict):
                raise InvalidConfig(
                    f"transform step {number} must be an object, got {step!r}")
            op = step.get("op")
            if not isinstance(op, str) or op not in _STEPS:
                raise InvalidConfig(f"unknown transform op {op!r}")
            if "column" in step and not isinstance(step["column"], str):
                raise InvalidConfig(
                    f"{op} step: column must be a string, "
                    f"got {step['column']!r}")
            if "columns" in step and not (
                    isinstance(step["columns"], list)
                    and all(isinstance(c, str) for c in step["columns"])):
                raise InvalidConfig(
                    f"{op} step: columns must be a list of strings, "
                    f"got {step['columns']!r}")

    @classmethod
    def from_json(cls, source):
        if hasattr(source, "read"):
            raw = json.load(source)
        elif isinstance(source, (str,)) and source.lstrip().startswith(("[", "{")):
            raw = json.loads(source)
        else:
            with open(source, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        if isinstance(raw, dict):
            if raw.keys() != {"steps"}:
                raise InvalidConfig(
                    'a transform spec object must hold the one key "steps", '
                    f'got {sorted(raw)}')
            raw = raw["steps"]
        if not isinstance(raw, list):
            raise InvalidConfig("transform spec must be a list of steps")
        return cls(steps=tuple(raw))


def _field(step, key, convert=None):
    if key not in step:
        raise InvalidConfig(f"{step.get('op')} step needs a {key!r} entry")
    try:
        return step[key] if convert is None else convert(step[key])
    except (TypeError, ValueError):
        raise InvalidConfig(f"{key} must be a number, got {step[key]!r}") \
            from None


def _column(names, values, label):
    return values[:, names.index(label)]


def _check_finite(values):
    # each step checks what it writes, as building a Dataset would
    if not np.isfinite(values).all():
        raise NonFinite("dataset contains NaN or infinite entries")


def _replace_column(names, values, label, column):
    """Write ``column`` over ``label``'s column of the working copy.

    The input dataset's values are read-only, so the first write copies
    them; every later write lands in that copy.
    """
    _check_finite(column)
    if not values.flags.writeable:
        values = values.copy(order="F")
    values[:, names.index(label)] = column
    return names, values


def _exclude_rows(names, values, step, log):
    column = _column(names, values, _field(step, "column"))
    comparator = _COMPARATORS.get(step.get("comparator"))
    if comparator is None:
        raise InvalidConfig(f"unknown comparator {step.get('comparator')!r}")
    threshold = _field(step, "threshold", float)
    if not math.isfinite(threshold):
        raise InvalidConfig("threshold must be finite")
    drop = comparator(column, threshold)
    keep = ~drop
    rows = int(keep.sum())
    if rows < 2:
        raise EmptyAfterExclusion(
            f"exclusion on {step['column']!r} leaves {rows} rows")
    log.append(f"exclude_rows({step['column']} {step['comparator']} "
               f"{threshold}): dropped {int(drop.sum())} of "
               f"{values.shape[0]} rows")
    # a new, writable array: the later writes land in it.  Each column
    # is gathered straight into its place: values[keep] would be
    # row-major, and a Dataset would copy it once more
    kept = np.empty((rows, values.shape[1]), order="F")
    for j in range(values.shape[1]):
        kept[:, j] = values[:, j][keep]
    return names, kept


def _log(names, values, step, log):
    label = _field(step, "column")
    offset = _field(step, "offset", float) if "offset" in step else 0.0
    if offset < 0 or not math.isfinite(offset):
        raise InvalidConfig("log offset must be finite and >= 0")
    shifted = _column(names, values, label) + offset
    if np.any(shifted <= 0.0):
        raise NonPositiveLogInput(
            f"log of column {label!r} requires strictly positive input "
            f"(min {shifted.min():g}); supply an explicit offset")
    log.append(f"log({label}, offset={offset:g})")
    return _replace_column(names, values, label, np.log(shifted))


def _dichotomize(names, values, step, log):
    label = _field(step, "column")
    column = _column(names, values, label)
    rule = step.get("rule", "by_threshold")
    value = _field(step, "value", float)
    if rule == "by_threshold":
        out = (column > value).astype(float)
    elif rule == "by_level":
        out = (column == value).astype(float)
    else:
        raise InvalidConfig(f"unknown dichotomize rule {rule!r}")
    log.append(f"dichotomize({label}, {rule}, {value:g})")
    return _replace_column(names, values, label, out)


def _standardize(names, values, step, log):
    label = _field(step, "column")
    column = _column(names, values, label)
    # exact: the std of a constant column whose mean does not round
    # exactly is 1e-17..1e-13, not 0
    if np.ptp(column) == 0.0:
        raise InvalidConfig(f"cannot standardize constant column {label!r}")
    log.append(f"standardize({label})")
    return _replace_column(names, values, label,
                           (column - column.mean()) / column.std())


def _append_columns(names, values, added, columns):
    """The table with ``columns`` appended under the names ``added``."""
    names = names + tuple(added)
    if len(set(names)) != len(names):
        raise DimensionMismatch("duplicate column names")
    _check_finite(columns)
    table = np.empty((values.shape[0], len(names)), order="F")
    table[:, :values.shape[1]] = values
    table[:, values.shape[1]:] = columns
    return names, table


def _augment_quadratic(names, values, step, log):
    labels = list(_field(step, "columns"))
    added = [f"{c}^2" for c in labels]
    columns = values[:, [names.index(c) for c in labels]] ** 2
    log.append(f"augment_quadratic({', '.join(labels)}): added "
               f"{', '.join(added)}")
    return _append_columns(names, values, added, columns)


def _augment_interactions(names, values, step, log):
    labels = list(_field(step, "columns"))
    added, cols = [], []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            added.append(f"{labels[i]}*{labels[j]}")
            cols.append(_column(names, values, labels[i])
                        * _column(names, values, labels[j]))
    if not added:
        return names, values
    log.append(f"augment_interactions({', '.join(labels)}): added "
               f"{', '.join(added)}")
    return _append_columns(names, values, added, np.column_stack(cols))


_STEPS = {
    "exclude_rows": _exclude_rows,
    "log": _log,
    "dichotomize": _dichotomize,
    "standardize": _standardize,
    "augment_quadratic": _augment_quadratic,
    "augment_interactions": _augment_interactions,
}


def apply_transforms(data: Dataset, spec: TransformSpec):
    """Apply all steps in order; returns (dataset, provenance log).

    ``data`` is never modified.  The steps work on one copy of its
    values, made by the first step that writes (see the module
    docstring), and the result is built once, at the end.
    """
    log: list[str] = []
    names, values = data.column_names, data.values
    for step in spec.steps:
        if "column" in step and step["column"] not in names:
            raise UnknownColumn(step["column"])
        if "columns" in step:
            for c in step["columns"]:
                if c not in names:
                    raise UnknownColumn(c)
        names, values = _STEPS[step["op"]](names, values, step, log)
    if values is data.values:
        return data, log
    # the working copy is the function's own: the Dataset keeps it
    return Dataset._adopt(names, values), log
