"""CSV ingestion and the preprocessing transforms used before analysis.

``read_csv`` parses the body of a seekable source with ``np.loadtxt`` and
keeps the result only when it has the header's width, at least one row
and finite values; otherwise it rewinds and reruns the strict per-cell
scanner, which is the reference for every value and the only source of
parse errors.  Non-seekable streams go to the strict scanner directly.

Transforms are applied in order and never modify existing columns in
place; augmentation steps only append.  Missing values are a hard error
(the estimators assume complete i.i.d. rows).
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import (EmptyAfterExclusion, InvalidConfig, MissingValue,
                     NonPositiveLogInput, ParseError, SchemaMismatch,
                     UnknownColumn)

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
    is read by ``np.loadtxt``; if that fails, or gives a table the strict
    scanner might not (wrong width, no rows, a non-finite value), the
    source is rewound and scanned cell by cell, which accepts what
    Python's ``float`` accepts and raises ``ParseError``/``MissingValue``
    with the line and column.  Either way the values are the same.
    """
    if hasattr(source, "read"):
        return _read_csv_fast(source, schema)
    with open(source, "r", newline="", encoding="utf-8") as fh:
        return _read_csv_fast(fh, schema)


def _read_header(reader, schema):
    try:
        header = next(reader)
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
    header = _read_header(csv.reader(stream), schema)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(_within_field_limit(stream), delimiter=",",
                                comments=None, dtype=float, ndmin=2)
    except ValueError:
        pass
    else:
        if (values.shape[0] and values.shape[1] == len(header)
                and np.isfinite(values).all()):
            return Dataset(tuple(header), values)
    stream.seek(start)
    return _read_csv_stream(stream, schema)


def _within_field_limit(lines):
    # csv.reader raises on a field longer than its limit and loadtxt does
    # not, so a line that long is left to the strict scanner
    limit = csv.field_size_limit()
    for line in lines:
        if len(line) > limit:
            raise ValueError("line longer than the csv field size limit")
        yield line


def _read_csv_stream(stream, schema):
    """The strict scanner: the reference for values and every parse error."""
    reader = csv.reader(stream)
    header = _read_header(reader, schema)
    rows = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
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
            raw = raw.get("steps", [])
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


def _exclude_rows(data, step, log):
    column = data.column(_field(step, "column"))
    comparator = _COMPARATORS.get(step.get("comparator"))
    if comparator is None:
        raise InvalidConfig(f"unknown comparator {step.get('comparator')!r}")
    threshold = _field(step, "threshold", float)
    if not math.isfinite(threshold):
        raise InvalidConfig("threshold must be finite")
    drop = comparator(column, threshold)
    keep = ~drop
    if keep.sum() < 2:
        raise EmptyAfterExclusion(
            f"exclusion on {step['column']!r} leaves {int(keep.sum())} rows")
    log.append(f"exclude_rows({step['column']} {step['comparator']} "
               f"{threshold}): dropped {int(drop.sum())} of {data.n} rows")
    return Dataset(data.column_names, data.values[keep])


def _replace_column(data, label, values):
    out = data.values.copy()
    out[:, data.index(label)] = values
    return Dataset(data.column_names, out)


def _log(data, step, log):
    label = _field(step, "column")
    offset = _field(step, "offset", float) if "offset" in step else 0.0
    if offset < 0 or not math.isfinite(offset):
        raise InvalidConfig("log offset must be finite and >= 0")
    shifted = data.column(label) + offset
    if np.any(shifted <= 0.0):
        raise NonPositiveLogInput(
            f"log of column {label!r} requires strictly positive input "
            f"(min {shifted.min():g}); supply an explicit offset")
    log.append(f"log({label}, offset={offset:g})")
    return _replace_column(data, label, np.log(shifted))


def _dichotomize(data, step, log):
    label = _field(step, "column")
    column = data.column(label)
    rule = step.get("rule", "by_threshold")
    value = _field(step, "value", float)
    if rule == "by_threshold":
        out = (column > value).astype(float)
    elif rule == "by_level":
        out = (column == value).astype(float)
    else:
        raise InvalidConfig(f"unknown dichotomize rule {rule!r}")
    log.append(f"dichotomize({label}, {rule}, {value:g})")
    return _replace_column(data, label, out)


def _standardize(data, step, log):
    label = _field(step, "column")
    column = data.column(label)
    sd = column.std()
    if sd == 0.0:
        raise InvalidConfig(f"cannot standardize constant column {label!r}")
    log.append(f"standardize({label})")
    return _replace_column(data, label, (column - column.mean()) / sd)


def _augment_quadratic(data, step, log):
    labels = list(_field(step, "columns"))
    names = [f"{c}^2" for c in labels]
    values = data.columns(labels) ** 2
    log.append(f"augment_quadratic({', '.join(labels)}): added "
               f"{', '.join(names)}")
    return data.with_columns(names, values)


def _augment_interactions(data, step, log):
    labels = list(_field(step, "columns"))
    names, cols = [], []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            names.append(f"{labels[i]}*{labels[j]}")
            cols.append(data.column(labels[i]) * data.column(labels[j]))
    if not names:
        return data
    log.append(f"augment_interactions({', '.join(labels)}): added "
               f"{', '.join(names)}")
    return data.with_columns(names, np.column_stack(cols))


_STEPS = {
    "exclude_rows": _exclude_rows,
    "log": _log,
    "dichotomize": _dichotomize,
    "standardize": _standardize,
    "augment_quadratic": _augment_quadratic,
    "augment_interactions": _augment_interactions,
}


def apply_transforms(data: Dataset, spec: TransformSpec):
    """Apply all steps in order; returns (dataset, provenance log)."""
    log: list[str] = []
    for step in spec.steps:
        if "column" in step and step["column"] not in data.column_names:
            raise UnknownColumn(step["column"])
        if "columns" in step:
            for c in step["columns"]:
                if c not in data.column_names:
                    raise UnknownColumn(c)
        data = _STEPS[step["op"]](data, step, log)
    return data, log
