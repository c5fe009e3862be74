import csv
import io

import numpy as np
import pytest

from impactreg import TransformSpec, apply_transforms, read_csv, write_csv
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
}


class TestFastPathFallback:
    @pytest.mark.parametrize("text", FALLBACK_CASES.values(),
                             ids=FALLBACK_CASES.keys())
    def test_stream_matches_strict_scanner(self, text):
        assert outcome(lambda: read_csv(io.StringIO(text))) == \
            strict_outcome(text)

    @pytest.mark.parametrize("text", FALLBACK_CASES.values(),
                             ids=FALLBACK_CASES.keys())
    def test_path_matches_strict_scanner(self, text, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(lambda: read_csv(path)) == strict_path_outcome(path)

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

        def no_loadtxt(*args, **kwargs):
            raise AssertionError("loadtxt read a non-seekable stream")

        monkeypatch.setattr(np, "loadtxt", no_loadtxt)
        assert outcome(lambda: read_csv(Pipe(CSV))) == strict_outcome(CSV)
        with pytest.raises(MissingValue):
            read_csv(Pipe("a,b\n1,\n"))

    def test_csv_field_limit_is_read_at_call_time(self):
        text = "a\n" + "1" * 50 + "\n2\n"
        old = csv.field_size_limit(10)
        try:
            got = outcome(lambda: read_csv(io.StringIO(text)))
        finally:
            csv.field_size_limit(old)
        assert got[0] is csv.Error


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

    def test_rejects_non_list(self):
        with pytest.raises(InvalidConfig):
            TransformSpec.from_json('{"steps": 3}')

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

    def test_column_access(self):
        data = Dataset(("a", "b"), np.array([[1., 2.], [3., 4.]]))
        np.testing.assert_array_equal(data.column("b"), [2., 4.])
        with pytest.raises(UnknownColumn):
            data.column("c")

    def test_values_are_read_only(self):
        data = Dataset(("a",), np.array([[1.], [2.]]))
        with pytest.raises(ValueError):
            data.values[0, 0] = 9.0
