import contextlib
import csv
import io
import re
from decimal import Decimal

import numpy as np
import pytest

from impactreg import (TransformSpec, apply_transforms, read_csv, transforms,
                       write_csv)
from impactreg.transforms import _read_csv_stream
from impactreg.dataset import Dataset
from impactreg.errors import (DimensionMismatch, EmptyAfterExclusion,
                              InvalidConfig, MissingValue, NonFinite,
                              NonPositiveLogInput, ParseError, SchemaMismatch,
                              UnknownColumn)

CSV = "y,x1,x2\n1.5,2,3\n-0.5,4,5\n2.25,6,7\n"


def sample_data():
    return read_csv(io.StringIO(CSV))


class TestCsv:
    def test_read_basic(self):
        data = sample_data()
        assert data.column_names == ("y", "x1", "x2")
        np.testing.assert_allclose(data.column("x1"), [2., 4., 6.])

    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        data = Dataset(("a", "b"), rng.standard_normal((20, 2)))
        buf = io.StringIO()
        write_csv(data, buf)
        back = read_csv(io.StringIO(buf.getvalue()))
        assert back.column_names == data.column_names
        np.testing.assert_array_equal(back.values, data.values)

    def test_schema_check(self):
        read_csv(io.StringIO(CSV), schema=["y", "x1", "x2"])
        with pytest.raises(SchemaMismatch):
            read_csv(io.StringIO(CSV), schema=["y", "x1"])

    def test_parse_error_location(self):
        with pytest.raises(ParseError) as err:
            read_csv(io.StringIO("a,b\n1,2\n3,oops\n"))
        assert err.value.line == 3
        assert err.value.column == 2

    def test_missing_value_location(self):
        with pytest.raises(MissingValue) as err:
            read_csv(io.StringIO("a,b\n1,\n"))
        assert err.value.line == 2
        assert err.value.column == 2

    @pytest.mark.parametrize("text, line", [
        ("a,b\n1,2\n3,4\r5\n6,7\n", 3),
        ("a,b\n1,2\n3," + "9" * 140_000 + "\n", 3),
        ("a," + "b" * 140_000 + "\n1,2\n", 1),
    ], ids=["bare cr in a line", "cell over the field limit",
            "header cell over the field limit"])
    def test_malformed_record_location(self, text, line):
        with pytest.raises(ParseError) as err:
            read_csv(io.StringIO(text))
        assert (err.value.line, err.value.column) == (line, 1)
        assert "malformed CSV record" in str(err.value)

    def test_error_line_is_physical(self):
        # the quoted header cell spans lines 1-2, so the bad cell is on 4
        with pytest.raises(ParseError) as err:
            read_csv(io.StringIO('a,"b\n"\n1,2\n3,oops\n'))
        assert (err.value.line, err.value.column) == (4, 2)

    def test_ragged_row(self):
        with pytest.raises(ParseError):
            read_csv(io.StringIO("a,b\n1,2,3\n"))

    def test_empty_and_header_only(self):
        with pytest.raises(ParseError):
            read_csv(io.StringIO(""))
        with pytest.raises(ParseError):
            read_csv(io.StringIO("a,b\n"))

    def test_non_finite_cell(self):
        with pytest.raises(ParseError):
            read_csv(io.StringIO("a,b\n1,inf\n2,3\n"))

    def test_file_path_round_trip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(CSV)
        data = read_csv(path)
        out = tmp_path / "o.csv"
        write_csv(data, out)
        back = read_csv(out)
        np.testing.assert_array_equal(back.values, data.values)


def outcome(read):
    """What a read gives: names and value bits, or the error's details."""
    try:
        data = read()
    except Exception as exc:
        return (type(exc), getattr(exc, "line", None),
                getattr(exc, "column", None), str(exc))
    return data.column_names, data.values.view(np.int64).tolist()


def strict_outcome(text):
    return outcome(lambda: _read_csv_stream(io.StringIO(text), None))


def strict_path_outcome(path):
    def read():
        with open(path, "r", newline="", encoding="utf-8") as fh:
            return _read_csv_stream(fh, None)
    return outcome(read)


# inputs the vectorized reader must not decide alone
FALLBACK_CASES = {
    "quoted cells": 'a,b\n"1.5",2\n3,"4"\n',
    "underscore": "a,b\n1_0,2\n3,4\n",
    "unicode digit": "a,b\n\u0661,2\n3,4\n",
    "cr line ends": "a,b\r1,2\r3,4\r",
    "nan": "a,b\n1,nan\n3,4\n",
    "inf": "a,b\n1,2\n-inf,4\n",
    "overflow": "a,b\n1,2\n3,1e500\n",
    "ragged row": "a,b\n1,2\n3,4,5\n",
    "every row wider than the header": "a,b\n1,2,3\n4,5,6\n",
    "whitespace-only line": "a,b\n1,2\n   \n3,4\n",
    "whitespace-only line, one column": "a\n1\n \t\n3\n",
    "trailing comma": "a,b\n1,2,\n3,4\n",
    "empty cell": "a,b\n1,2\n3,\n",
    "hash in cell": "a,b\n1,2#3\n3,4\n",
    "header only": "a,b\n",
    "header only, one column": "a\n\n",
    "empty file": "",
    "field over the csv limit": "a\n" + " " * 140_000 + "1\n2\n",
    "integer -0": "a,b\n1,-0\n3,4\n",
    "integer -0, padded": "a,b\n -0 ,2\n3,4\n",
    "brackets across a line, one column": "a\n1],[2\n3\n",
    "true": "a,b\ntrue,2\n3,4\n",
    "null": "a,b\n1,null\n3,4\n",
    "braces, one column": "a\n{}\n2\n",
    "brackets, one column": "a\n[1]\n2\n",
    "leading zero": "a,b\n01,2\n3,4\n",
    "integer above 2**64": "a,b\n36893488147419107329,2\n3,4\n",
    "lone cr before a comma": "a,b\n1,\r2\n3,4\n",
    "blank line inside the body": "a,b\n1,2\n\n3,4\n",
    "blank line at the end of a block": "a,b\n1,2\n\n3,4\n",
    "every row narrower than the header": "a,b\n1\n2\n",
    "line over a lowered field limit": "a,b\n1.25,2.5\n3,4\n",
    "field over a lowered field limit": "a,b\n1.2345678,2\n3,4\n",
    "a point alone": "a,b\n.,2\n3,4\n",
    "a signed point alone": "a,b\n-.,2\n3,4\n",
    "a bare point before an exponent": "a,b\n.e5,2\n3,4\n",
    "a bare point in an exponent": "a,b\n1e-.5,2\n3,4\n",
    "a sign apart from its bare point": "a,b\n- .5,2\n3,4\n",
    "a sign and a point alone": "a,b\n+.,2\n3,4\n",
    "exponent -0 beside a zero": "a,b\n1e-0,0\n3,-0\n",
    "a sign alone": "a,b\n+,2\n3,4\n",
    "two signs": "a,b\n+-1,2\n3,4\n",
    "two plus signs": "a,b\n++1,2\n3,4\n",
    "a sign before a space": "a,b\n+ 1,2\n3,4\n",
    "a sign before a tab": "a,b\n+\t1,2\n3,4\n",
    "a sign before an exponent": "a,b\n+e5,2\n3,4\n",
}
# the csv module's field limit for a case, where it is not the default
FIELD_LIMITS = {"line over a lowered field limit": 8,
                "field over a lowered field limit": 8,
                "blank line at the end of a block": 8}


@contextlib.contextmanager
def field_limit(limit):
    """Set ``csv.field_size_limit`` to ``limit`` (if not None) inside."""
    old = csv.field_size_limit(limit) if limit is not None else None
    try:
        yield
    finally:
        if limit is not None:
            csv.field_size_limit(old)


def bare(cell):
    """``cell`` without the 0 before its point: "-0.5" is "-.5"."""
    return re.sub(r"^([+-]?)0\.", r"\1.", cell)


@pytest.fixture
def strict_reads(monkeypatch):
    """A list that gets one entry per run of the strict scanner."""
    reads = []

    def spy(stream, schema):
        reads.append(stream)
        return _read_csv_stream(stream, schema)

    monkeypatch.setattr(transforms, "_read_csv_stream", spy)
    return reads


def no_block_reader(*args, **kwargs):
    raise AssertionError("the block reader read a stream it cannot rewind")


class TestFastPathFallback:
    @pytest.mark.parametrize("name", FALLBACK_CASES)
    def test_stream_matches_strict_scanner(self, name):
        text = FALLBACK_CASES[name]
        with field_limit(FIELD_LIMITS.get(name)):
            assert outcome(lambda: read_csv(io.StringIO(text))) == \
                strict_outcome(text)

    @pytest.mark.parametrize("name", FALLBACK_CASES)
    def test_path_matches_strict_scanner(self, name, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(FALLBACK_CASES[name].encode("utf-8"))
        with field_limit(FIELD_LIMITS.get(name)):
            assert outcome(lambda: read_csv(path)) == \
                strict_path_outcome(path)

    @pytest.mark.parametrize("text", [
        "a,b\r\n1,2\r\n3,4\r\n",
        "a,b\n1,2\n3,4\n\n\r\n",
        "a,b\n1,2\n3,4",
        "a,b\n 1 ,\t2e-3\n-0.0,-4E+2\n",
        "a,b\n1,-0\n -0 ,0\n",
        "a,b\n.5,-.25e1\n+1,1.\n01,-00\n",
        "a,b\n.5,-.25e1\n-.0,3\n",
        "a,b\n+1,+.5\n+0,-2e+3\n",
        "a,b\n" + "1.5,2\n" * 30_000 + "+.5,3\n" + "4,-0\n" * 30_000,
    ], ids=["crlf", "trailing blank lines", "no final line end",
            "padded cells, exponents and a float -0", "integer -0",
            "cells JSON does not take", "bare points", "plus signs",
            "one block of each kind"])
    def test_plain_numbers_stay_on_the_fast_path(self, text, strict_reads):
        got = outcome(lambda: read_csv(io.StringIO(text)))
        assert not strict_reads
        assert got == strict_outcome(text)

    def test_cells_are_read_as_float_reads_them(self, strict_reads):
        # random float64 bit patterns in four formats, and decimals at and
        # one digit either side of the midpoint of two neighbouring floats
        rng = np.random.default_rng(27)
        bits = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        cells = [[repr(v), "%.17g" % v, "%.15g" % v, "%.6e" % v]
                 for v in values.tolist()]
        for v in values[:2_000].tolist():
            mid = (Decimal(v) + Decimal(np.nextafter(v, np.inf))) / 2
            nudge = Decimal((0, (1,), mid.as_tuple().exponent))
            cells.append([f"{mid:e}", f"{mid - nudge:e}", f"{mid + nudge:e}",
                          f"{mid:e}"])
        text = "a,b,c,d\n" + "".join(",".join(row) + "\n" for row in cells)
        got = read_csv(io.StringIO(text)).values
        want = np.array([[float(c) for c in row] for row in cells])
        assert not strict_reads
        np.testing.assert_array_equal(got.view(np.int64),
                                      want.view(np.int64))

    @staticmethod
    def bare_points(v):
        # as Stata writes them: no 0 before the point, and integers
        # ("%.17g" writes -0.0 as -0)
        return [bare(repr(v)), "%.17g" % v, "%.17g" % -v, bare("%.15g" % v)]

    @staticmethod
    def signs(v):
        # a sign on every cell, with or without a digit before the point
        signed = "%+.17g" % v
        return [signed, bare(signed), "%+.6e" % v,
                repr(v) if repr(v)[0] == "-" else "+" + repr(v)]

    @staticmethod
    def signs_points_and_zeros(v):
        # a sign on every cell, no digit before or after the point,
        # leading zeros: float() reads them, JSON does not
        text = repr(v)
        unsigned = text.lstrip("-")
        sign = "-" if text.startswith("-") else "+"
        if unsigned.startswith("0."):
            unsigned = unsigned[1:]
        elif unsigned.endswith(".0"):
            unsigned = unsigned[:-1]
        return [text, sign + unsigned, "00" + repr(abs(v)),
                "%d" % v if v == int(v) else text]

    @pytest.mark.parametrize("style", ["bare_points", "signs",
                                       "signs_points_and_zeros"])
    def test_cells_json_does_not_take_are_read_as_float_reads_them(
            self, style, strict_reads):
        rng = np.random.default_rng(28)
        values = rng.standard_normal(20_000) * 10.0 ** rng.integers(
            -5, 6, size=20_000)
        values[::97] = np.trunc(values[::97])
        values[::101] = -0.0
        cells = [getattr(self, style)(v) for v in values.tolist()]
        text = "a,b,c,d\n" + "".join(",".join(row) + "\n" for row in cells)
        got = read_csv(io.StringIO(text)).values
        want = np.array([[float(c) for c in row] for row in cells])
        assert not strict_reads
        np.testing.assert_array_equal(got.view(np.int64),
                                      want.view(np.int64))

    def test_written_negative_zero_stays_on_the_fast_path(self, strict_reads):
        # write_csv formats -0.0 with '.17g' as "-0"
        buf = io.StringIO()
        data = Dataset(("a", "b"), np.array([[-0.0, 1.0], [2.0, -0.0]]))
        write_csv(data, buf)
        assert "-0\n" in buf.getvalue()
        got = read_csv(io.StringIO(buf.getvalue())).values
        assert not strict_reads
        np.testing.assert_array_equal(got.view(np.int64),
                                      data.values.view(np.int64))

    @pytest.mark.parametrize("body", [b"3,\xe9\n", b"3,4\n" * 5000 + b"\xff,1\n"],
                             ids=["early", "past the first chunk"])
    def test_non_utf8_byte(self, body, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n1,2\n" + body)
        got = outcome(lambda: read_csv(path))
        assert got[0] is UnicodeDecodeError
        assert got == strict_path_outcome(path)

    def test_values_after_a_late_fallback(self, tmp_path):
        # the fast read fails only on the last line, past several buffers
        rows = "".join(f"{i}.25,{-i}e-3\n" for i in range(5000))
        path = tmp_path / "d.csv"
        path.write_text("a,b\n" + rows + '"7",8\n', newline="")
        got = outcome(lambda: read_csv(path))
        assert got == strict_path_outcome(path)
        assert len(got[1]) == 5001

    def test_error_line_after_a_late_fallback(self, tmp_path):
        rows = "1,2\n" * 5000
        path = tmp_path / "d.csv"
        path.write_text("a,b\n" + rows + "3,x\n", newline="")
        with pytest.raises(ParseError) as err:
            read_csv(path)
        assert (err.value.line, err.value.column) == (5002, 2)

    def test_stream_rewinds_to_its_own_start(self):
        # a stream already past a preamble is rewound there, not to 0
        stream = io.StringIO("preamble\na,b\n1,2\n3,\"4\"\n")
        stream.readline()
        data = read_csv(stream)
        assert data.column_names == ("a", "b")
        np.testing.assert_array_equal(data.values, [[1., 2.], [3., 4.]])

    def test_non_seekable_stream_is_scanned_strictly(self, monkeypatch):
        class Pipe(io.StringIO):
            def seekable(self):
                return False

        monkeypatch.setattr(transforms, "_read_blocks", no_block_reader)
        assert outcome(lambda: read_csv(Pipe(CSV))) == strict_outcome(CSV)
        with pytest.raises(MissingValue):
            read_csv(Pipe("a,b\n1,\n"))

    def test_stream_whose_tell_fails_is_scanned_strictly(self, monkeypatch):
        # seekable, but with no position to rewind to: the strict scanner
        # reads it, and gives the fast path's values
        class NoTell(io.StringIO):
            def tell(self):
                raise OSError("no position")

        rng = np.random.default_rng(2)
        buf = io.StringIO()
        write_csv(Dataset(("a", "b", "c"), rng.standard_normal((30, 3))), buf)
        text = buf.getvalue()
        fast = outcome(lambda: read_csv(io.StringIO(text)))
        monkeypatch.setattr(transforms, "_read_blocks", no_block_reader)
        got = outcome(lambda: read_csv(NoTell(text)))
        assert got == strict_outcome(text) == fast

    def test_csv_field_limit_is_read_at_call_time(self):
        text = "a\n" + "1" * 50 + "\n2\n"
        old = csv.field_size_limit(10)
        try:
            got = outcome(lambda: read_csv(io.StringIO(text)))
        finally:
            csv.field_size_limit(old)
        assert got[:3] == (ParseError, 2, 1)


class TestTransformSpec:
    def test_from_json_literal_and_dict(self):
        spec = TransformSpec.from_json('[{"op": "standardize", "column": "x1"}]')
        assert spec.steps[0]["op"] == "standardize"
        spec2 = TransformSpec.from_json(
            '{"steps": [{"op": "log", "column": "y"}]}')
        assert spec2.steps[0]["op"] == "log"

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('[{"op": "standardize", "column": "x1"}]')
        assert TransformSpec.from_json(path).steps[0]["column"] == "x1"

    def test_from_json_open_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"steps": [{"op": "log", "column": "y"}]}')
        with open(path, encoding="utf-8") as fh:
            spec = TransformSpec.from_json(fh)
        assert spec.steps == ({"op": "log", "column": "y"},)

    def test_rejects_non_list(self):
        with pytest.raises(InvalidConfig):
            TransformSpec.from_json('{"steps": 3}')

    @pytest.mark.parametrize("spec", [
        '{"op": "log", "column": "c9"}',
        '{"setps": []}',
        '{}',
        '{"steps": [], "note": "x"}',
    ])
    def test_rejects_an_object_without_exactly_the_steps_key(self, spec):
        # one step given as an object, or a misspelled key, was read as
        # no steps at all
        with pytest.raises(InvalidConfig, match='the one key "steps"'):
            TransformSpec.from_json(spec)

    @pytest.mark.parametrize("spec", [
        "[1]",
        '[["log", "y"]]',
        '[{"column": "y"}]',
        '[{"op": ["log"], "column": "y"}]',
        '[{"op": "frobnicate", "column": "y"}]',
        '[{"op": "log", "column": 3}]',
        '[{"op": "augment_quadratic", "columns": "x1"}]',
        '[{"op": "augment_quadratic", "columns": ["x1", 2]}]',
    ])
    def test_rejects_malformed_steps(self, spec):
        with pytest.raises(InvalidConfig):
            TransformSpec.from_json(spec)


class TestApplyTransforms:
    def test_exclude_rows(self):
        data = sample_data()
        spec = TransformSpec((
            {"op": "exclude_rows", "column": "x1", "comparator": ">",
             "threshold": 5.0},))
        out, log = apply_transforms(data, spec)
        assert out.n == 2
        assert "dropped 1 of 3" in log[0]

    def test_exclude_all_raises(self):
        spec = TransformSpec((
            {"op": "exclude_rows", "column": "x1", "comparator": ">=",
             "threshold": 0.0},))
        with pytest.raises(EmptyAfterExclusion):
            apply_transforms(sample_data(), spec)

    def test_log_with_offset(self):
        spec = TransformSpec(({"op": "log", "column": "y", "offset": 1.0},))
        out, _ = apply_transforms(sample_data(), spec)
        np.testing.assert_allclose(out.column("y"),
                                   np.log(np.array([2.5, 0.5, 3.25])))

    def test_log_nonpositive_raises(self):
        spec = TransformSpec(({"op": "log", "column": "y"},))
        with pytest.raises(NonPositiveLogInput):
            apply_transforms(sample_data(), spec)

    def test_dichotomize_threshold_and_level(self):
        spec = TransformSpec((
            {"op": "dichotomize", "column": "x1", "value": 3.0},))
        out, _ = apply_transforms(sample_data(), spec)
        np.testing.assert_array_equal(out.column("x1"), [0., 1., 1.])
        spec = TransformSpec((
            {"op": "dichotomize", "column": "x1", "rule": "by_level",
             "value": 4.0},))
        out, _ = apply_transforms(sample_data(), spec)
        np.testing.assert_array_equal(out.column("x1"), [0., 1., 0.])

    def test_standardize(self):
        spec = TransformSpec(({"op": "standardize", "column": "x2"},))
        out, _ = apply_transforms(sample_data(), spec)
        col = out.column("x2")
        assert col.mean() == pytest.approx(0.0, abs=1e-12)
        assert col.std() == pytest.approx(1.0, rel=1e-12)

    def test_standardize_constant_column_raises(self):
        # its std is 1.4e-17, not 0
        data = Dataset(("x1", "x2"), np.column_stack([
            np.arange(97.0), np.full(97, 0.1)]))
        spec = TransformSpec(({"op": "standardize", "column": "x2"},))
        with pytest.raises(InvalidConfig, match="constant column 'x2'"):
            apply_transforms(data, spec)

    def test_augment_quadratic(self):
        spec = TransformSpec((
            {"op": "augment_quadratic", "columns": ["x1", "x2"]},))
        out, _ = apply_transforms(sample_data(), spec)
        assert out.column_names[-2:] == ("x1^2", "x2^2")
        np.testing.assert_allclose(out.column("x1^2"),
                                   sample_data().column("x1") ** 2)

    def test_augment_interactions(self):
        spec = TransformSpec((
            {"op": "augment_interactions", "columns": ["y", "x1", "x2"]},))
        out, _ = apply_transforms(sample_data(), spec)
        added = out.column_names[3:]
        assert added == ("y*x1", "y*x2", "x1*x2")
        np.testing.assert_allclose(
            out.column("x1*x2"),
            sample_data().column("x1") * sample_data().column("x2"))

    def test_order_matters(self):
        # standardize-then-square differs from square-then-standardize
        s1 = TransformSpec((
            {"op": "standardize", "column": "x1"},
            {"op": "augment_quadratic", "columns": ["x1"]},))
        s2 = TransformSpec((
            {"op": "augment_quadratic", "columns": ["x1"]},
            {"op": "standardize", "column": "x1"},))
        out1, _ = apply_transforms(sample_data(), s1)
        out2, _ = apply_transforms(sample_data(), s2)
        assert not np.allclose(out1.column("x1^2"), out2.column("x1^2"))

    def test_unknown_column_and_op(self):
        with pytest.raises(UnknownColumn):
            apply_transforms(sample_data(), TransformSpec((
                {"op": "standardize", "column": "zzz"},)))
        with pytest.raises(InvalidConfig):
            apply_transforms(sample_data(), TransformSpec((
                {"op": "frobnicate", "column": "x1"},)))

    @pytest.mark.parametrize("exclusion", [False, True])
    def test_input_is_untouched(self, exclusion):
        data = sample_data()
        before = data.values.copy()
        steps = [{"op": "log", "column": "x1"},
                 {"op": "standardize", "column": "x2"},
                 {"op": "dichotomize", "column": "y", "value": 1.0}]
        if exclusion:
            steps.insert(0, {"op": "exclude_rows", "column": "x1",
                             "comparator": ">", "threshold": 5.0})
        out, _ = apply_transforms(data, TransformSpec(tuple(steps)))
        np.testing.assert_array_equal(data.values, before)
        assert not data.values.flags.writeable
        assert not out.values.flags.writeable
        assert not np.shares_memory(out.values, data.values)
        kept = before[:2] if exclusion else before
        np.testing.assert_array_equal(out.column("x1"), np.log(kept[:, 1]))
        np.testing.assert_array_equal(out.column("y"),
                                      (kept[:, 0] > 1.0).astype(float))

    def test_no_write_returns_the_input(self):
        data = sample_data()
        out, _ = apply_transforms(data, TransformSpec((
            {"op": "augment_interactions", "columns": ["x1"]},)))
        assert out is data

    @pytest.mark.parametrize("steps, error", [
        # a square or a shifted column that overflows is the error of its
        # own step, not of a later one
        ([{"op": "augment_quadratic", "columns": ["x2"]},
          {"op": "standardize", "column": "zzz"}], NonFinite),
        ([{"op": "log", "column": "x2", "offset": 1.7e308},
          {"op": "standardize", "column": "zzz"}], NonFinite),
        ([{"op": "exclude_rows", "column": "y", "comparator": ">",
           "threshold": 2.0},
          {"op": "log", "column": "x2", "offset": 1.7e308}], NonFinite),
        ([{"op": "augment_quadratic", "columns": ["x1"]},
          {"op": "augment_quadratic", "columns": ["x1"]},
          {"op": "standardize", "column": "zzz"}], DimensionMismatch),
    ])
    def test_each_step_checks_what_it_writes(self, steps, error):
        data = Dataset(("y", "x1", "x2"), np.array(
            [[1.5, 2.0, 1e200], [-0.5, 4.0, 1.7e308], [2.25, 6.0, 3.0]]))
        with np.errstate(over="ignore"):
            with pytest.raises(error):
                apply_transforms(data, TransformSpec(tuple(steps)))

    def test_provenance_log_covers_each_step(self):
        spec = TransformSpec((
            {"op": "standardize", "column": "x1"},
            {"op": "augment_quadratic", "columns": ["x1"]},))
        _, log = apply_transforms(sample_data(), spec)
        assert len(log) == 2


class TestDataset:
    def test_validation(self):
        with pytest.raises(NonFinite):
            Dataset(("a",), np.array([[1.0], [np.nan]]))
        with pytest.raises(DimensionMismatch):
            Dataset(("a", "b"), np.ones((3, 1)))
        with pytest.raises(DimensionMismatch):
            Dataset(("a",), np.ones((1, 1)))  # n < 2
        with pytest.raises(DimensionMismatch):
            Dataset(("a", "a"), np.ones((3, 2)))
        with pytest.raises(DimensionMismatch, match="2-d"):
            Dataset(("a",), np.ones(3))

    def test_a_read_only_view_is_copied(self):
        # the view's base stays writeable, and a write to it used to
        # show through the dataset
        a = np.asfortranarray(np.ones((4, 2)))
        b = a.view()
        b.setflags(write=False)
        d = Dataset(("a", "b"), b)
        a[0, 0] = 5
        assert d.values[0, 0] == 1.0

    def test_a_read_only_array_is_copied(self):
        # its owner can turn writing back on, and a write to it used to
        # show through the dataset
        a = np.ones((4, 2), order="F")
        a.setflags(write=False)
        d = Dataset(("a", "b"), a)
        a.setflags(write=True)
        a[0, 0] = 5
        assert d.values[0, 0] == 1.0
        assert not d.values.flags.writeable

    def test_column_access(self):
        data = Dataset(("a", "b"), np.array([[1., 2.], [3., 4.]]))
        np.testing.assert_array_equal(data.column("b"), [2., 4.])
        with pytest.raises(UnknownColumn):
            data.column("c")

    def test_values_are_read_only(self):
        data = Dataset(("a",), np.array([[1.], [2.]]))
        with pytest.raises(ValueError):
            data.values[0, 0] = 9.0
