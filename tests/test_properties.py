"""Property-based tests for the algebraic invariants."""

import io
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from impactreg import (Dataset, SimConfig, coefficient_test,
                       fixed_sequence_test, fit_ols, linear_mean_impact,
                       mod_r2, read_csv, write_csv)
from impactreg.errors import RankDeficient
from impactreg.hierarchy import hierarchy_pvalues, order_indices
from impactreg.impact import sd_n
from impactreg.simulate import generate_arrays
from impactreg.transforms import _read_csv_stream

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


def vectors(n):
    return hnp.arrays(np.float64, n, elements=finite)


@st.composite
def paired_vectors(draw):
    n = draw(st.integers(min_value=3, max_value=40))
    x = draw(vectors(n))
    y = draw(vectors(n))
    return y, x


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20),
       st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_fixed_sequence_is_maximal_prefix(ps, alpha):
    count = fixed_sequence_test(ps, alpha)
    assert all(p <= alpha for p in ps[:count])
    if count < len(ps):
        assert ps[count] > alpha


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20),
       st.floats(min_value=0.01, max_value=0.4),
       st.floats(min_value=0.41, max_value=0.99))
def test_fixed_sequence_monotone_in_alpha(ps, lo, hi):
    assert fixed_sequence_test(ps, lo) <= fixed_sequence_test(ps, hi)


@given(paired_vectors())
@settings(max_examples=50)
def test_impact_bounds_and_scaling(pair):
    y, x = pair
    if sd_n(x) < 1e-4 * (abs(float(np.mean(x))) + 1.0) \
            or sd_n(y) < 1e-4 * (abs(float(np.mean(y))) + 1.0):
        return
    est = linear_mean_impact(y, x)
    assert est.value >= 0.0
    assert est.value <= sd_n(y) * (1.0 + 1e-9) + 1e-9
    doubled = linear_mean_impact(2.0 * y, x)
    assert math.isclose(doubled.value, 2.0 * est.value, rel_tol=1e-8,
                        abs_tol=1e-12)
    assert 0.0 <= mod_r2(y, x).value <= 1.0


@given(paired_vectors())
@settings(max_examples=50)
def test_residuals_orthogonal_to_intercept(pair):
    y, x = pair
    if sd_n(x) < 1e-3 * (abs(float(np.mean(x))) + 1.0):
        return
    X = np.column_stack([np.ones(len(x)), x])
    try:
        fit = fit_ols(y, X)
    except RankDeficient:
        return
    scale = np.abs(fit.residuals).sum() + 1.0
    assert abs(fit.residuals.sum()) / scale < 1e-6


@given(st.integers(min_value=2, max_value=12),
       st.integers(min_value=1, max_value=4), st.integers())
@settings(max_examples=50)
def test_csv_round_trip(n, c, seed):
    rng = np.random.default_rng(abs(seed) % 2 ** 32)
    data = Dataset(tuple(f"c{j}" for j in range(c)),
                   rng.standard_normal((n, c)))
    buf = io.StringIO()
    write_csv(data, buf)
    back = read_csv(io.StringIO(buf.getvalue()))
    np.testing.assert_array_equal(back.values, data.values)
    assert back.column_names == data.column_names



CELL_FORMATS = (repr, lambda v: "%.17g" % v, lambda v: "%.6e" % v,
                lambda v: str(math.trunc(v)))


@st.composite
def csv_texts(draw):
    """A finite table written with mixed cell formats and line ends."""
    n = draw(st.integers(min_value=2, max_value=8))
    c = draw(st.integers(min_value=1, max_value=4))
    values = draw(hnp.arrays(np.float64, (n, c), elements=st.floats(
        allow_nan=False, allow_infinity=False)))
    pad = st.sampled_from(["", "", " ", "\t", " \t "])
    lines = [",".join(f"c{j}" for j in range(c))]
    for row in values:
        cells = []
        for v in row:
            cell = draw(st.sampled_from(CELL_FORMATS))(float(v))
            if not cell.startswith("-") and draw(st.booleans()):
                cell = "+" + cell
            cells.append(draw(pad) + cell + draw(pad))
        lines.extend([""] * draw(st.integers(min_value=0, max_value=2)))
        lines.append(",".join(cells))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"]))
                   for line in lines)


def same_table(got, want):
    assert got.column_names == want.column_names
    np.testing.assert_array_equal(got.values.view(np.int64),
                                  want.values.view(np.int64))


@given(csv_texts())
@settings(max_examples=100, deadline=None)
def test_read_csv_matches_strict_scanner(text):
    same_table(read_csv(io.StringIO(text)),
               _read_csv_stream(io.StringIO(text), None))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        with open(path, "r", newline="", encoding="utf-8") as fh:
            want = _read_csv_stream(fh, None)
        same_table(read_csv(path), want)

@st.composite
def study_replications(draw):
    """(y, X) of one simulated replication, X = (X_1 .. X_m)."""
    m = draw(st.integers(min_value=3, max_value=8))
    config = SimConfig(m=m, k=draw(st.integers(min_value=1, max_value=m - 1)),
                       beta=draw(st.floats(min_value=0.0, max_value=1.5)),
                       theta1=draw(st.sampled_from([0.0, 0.4])),
                       n=draw(st.integers(min_value=m + 10, max_value=300)),
                       seed=draw(st.integers(min_value=0, max_value=2 ** 32)))
    return generate_arrays(config, draw(st.integers(min_value=0,
                                                    max_value=10 ** 6)))


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _focus_test(y, X, flavor):
    """Robust test of the X_1 coefficient in the regression of y on (1, X)."""
    design = np.column_stack([np.ones(len(y)), X])
    return coefficient_test(fit_ols(y, design, flavor=flavor), 1)


@given(study_replications(), st.data())
@settings(max_examples=50, deadline=None)
def test_focus_test_ignores_adjustment_order(replication, data):
    y, X = replication
    perm = data.draw(st.permutations(range(1, X.shape[1])))
    for flavor in ("HC0", "HC1"):
        a = _focus_test(y, X, flavor)
        b = _focus_test(y, X[:, [0, *perm]], flavor)
        for field in ("estimate", "std_error", "p_value"):
            assert _rel(getattr(a, field), getattr(b, field)) <= 1e-10, field


@given(study_replications(), st.sampled_from(["HC0", "HC1"]))
@settings(max_examples=50, deadline=None)
def test_last_hierarchy_step_is_the_full_model_test(replication, flavor):
    y, X = replication
    x1, cand = X[:, 0], X[:, 1:]
    # alpha = 1 rejects every step, so the last one is always evaluated
    pvalues, _ = hierarchy_pvalues(y, x1, cand[:, order_indices(x1, cand)],
                                   alpha=1.0, flavor=flavor)
    assert _rel(pvalues[-1], _focus_test(y, X, flavor).p_value) <= 1e-12
