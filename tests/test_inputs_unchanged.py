"""The least-squares kernel factors its design in place, so every route
that fits a caller's arrays must leave them as they were: the same bits,
the same flags.  Each route is run on inputs in five layouts, among them
a read-only column-major array, which LAPACK would otherwise overwrite
through f2py, and a column-major float64 array, which it would factor
where it lies.  A ``Dataset``'s table stays column-major, read-only and
unchanged through every route that reads it."""

import numpy as np
import pytest

from impactreg import (apply_transforms, fit_ols, linear_mean_impact,
                       linear_mean_slope, mod_r2, order_covariates,
                       partial_linear_mean_impact, partial_linear_mean_slope,
                       read_csv, residualize, run_hierarchy, write_csv)
from impactreg.dataset import Dataset
from impactreg.hierarchy import hierarchy_pvalues, order_indices
from impactreg.transforms import TransformSpec

LAYOUTS = ["C", "F", "strided", "read-only", "integer"]


def problem(n=60, q=4):
    """Integer-valued (y, x_focus, candidates), so every layout, the
    integer one included, holds the same numbers."""
    rng = np.random.default_rng(3)
    cand = rng.integers(-6, 7, size=(n, q)).astype(float)
    x1 = cand @ np.arange(1.0, q + 1.0) + rng.integers(-4, 5, size=n)
    y = x1 + cand[:, 0] + rng.integers(-9, 10, size=n)
    return y, x1, cand


def laid_out(a, layout):
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "strided":
        # every other element of a larger array, along every axis
        big = a
        for axis in range(a.ndim):
            big = np.repeat(big, 2, axis=axis)
        strided = big[(slice(None, None, 2),) * a.ndim]
        assert not strided.flags.c_contiguous
        return strided
    if layout == "read-only":
        frozen = np.array(a, order="F")
        frozen.setflags(write=False)
        return frozen
    assert layout == "integer"
    return a.astype(np.int64)


def snapshot(*arrays):
    return [(a.tobytes(), a.dtype, a.strides, a.flags.writeable)
            for a in arrays]


def with_intercept(cand):
    return np.column_stack([np.ones(cand.shape[0]), cand])


@pytest.mark.parametrize("layout", LAYOUTS)
class TestArrayRoutes:
    def run(self, route, layout, *arrays):
        arrays = [laid_out(a, layout) for a in arrays]
        before = snapshot(*arrays)
        route(*arrays)
        assert snapshot(*arrays) == before

    def test_fit_ols(self, layout):
        y, _, cand = problem()
        self.run(lambda y, X: fit_ols(y, X), layout, y, with_intercept(cand))

    @pytest.mark.parametrize("estimator", [linear_mean_impact,
                                           linear_mean_slope, mod_r2])
    def test_bivariate_estimators(self, layout, estimator):
        y, x1, _ = problem()
        self.run(estimator, layout, y, x1)

    def test_order_indices(self, layout):
        _, x1, cand = problem()
        self.run(order_indices, layout, x1, cand)

    @pytest.mark.parametrize("include_bivariate", [False, True])
    def test_hierarchy_pvalues(self, layout, include_bivariate):
        y, x1, cand = problem()
        self.run(lambda y, x1, cand: hierarchy_pvalues(
            y, x1, cand, alpha=1.0, include_bivariate=include_bivariate),
            layout, y, x1, cand)

    def test_dataset_routes(self, layout):
        # a Dataset copies every table it is given, so a caller's array
        # is never kept, frozen or written
        y, x1, cand = problem()
        source = laid_out(np.column_stack([y, x1, cand]), layout)
        before = snapshot(source)
        data = Dataset(("y", "x1", "a", "b", "c", "d"), source)
        assert not np.shares_memory(data.values, source)
        assert snapshot(source) == before
        table = snapshot(data.values)
        residualize("x1", ["a", "b"], data)
        partial_linear_mean_impact("y", "x1", ["a", "b", "c"], data)
        partial_linear_mean_slope("y", "x1", ["a", "b", "c"], data)
        order_covariates("x1", list("abcd"), data)
        run_hierarchy("y", "x1", list("abcd"), data, alpha=1.0,
                      include_bivariate=True)
        assert snapshot(data.values) == table
        assert data.values.flags.f_contiguous
        assert not data.values.flags.writeable
        assert snapshot(source) == before


def test_tables_are_column_major_and_read_only(tmp_path):
    y, x1, cand = problem()
    path = tmp_path / "t.csv"
    write_csv(Dataset(("y", "x1", "a", "b", "c", "d"),
                      np.column_stack([y, x1, cand])), path)
    data = read_csv(path)
    table = snapshot(data.values)
    spec = TransformSpec((
        {"op": "exclude_rows", "column": "d", "comparator": ">",
         "threshold": 4},
        {"op": "standardize", "column": "x1"},
        {"op": "dichotomize", "column": "c", "value": 0},
        {"op": "augment_quadratic", "columns": ["a"]},
        {"op": "augment_interactions", "columns": ["a", "b"]},
        {"op": "log", "column": "a^2", "offset": 1},
    ))
    for steps in [spec.steps[:1], spec.steps[1:2], spec.steps[3:4],
                  spec.steps]:
        out, _ = apply_transforms(data, TransformSpec(steps))
        assert out.values.flags.f_contiguous
        assert not out.values.flags.writeable
    assert snapshot(data.values) == table
    assert data.values.flags.f_contiguous
