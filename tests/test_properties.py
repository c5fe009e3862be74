"""Property-based tests for the algebraic invariants."""

import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from impactreg import (Dataset, SimConfig, backend, coefficient_test,
                       fixed_sequence_test, fit_ols, linear_mean_impact,
                       mod_r2, partial_linear_mean_impact,
                       partial_linear_mean_slope, read_csv,
                       residualize, write_csv)
from impactreg.errors import RankDeficient, ZeroStdError
from impactreg.hierarchy import hierarchy_pvalues, order_indices
from impactreg.impact import sd_n
from impactreg.simulate import generate_arrays
from impactreg.transforms import _read_csv_stream

from conftest import focus_pvalue

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


@given(study_replications())
@settings(max_examples=50, deadline=None)
def test_hc1_sandwich_is_hc0_times_n_over_dof(replication):
    y, X = replication
    design = np.column_stack([np.ones(len(y)), X])
    n, p = design.shape
    hc0 = fit_ols(y, design, flavor="HC0").sandwich_cov
    hc1 = fit_ols(y, design, flavor="HC1").sandwich_cov
    np.testing.assert_allclose(hc1, hc0 * (n / (n - p)), rtol=1e-14, atol=0)


@given(study_replications(), st.integers(min_value=-60, max_value=60),
       st.sampled_from(["HC0", "HC1"]))
@settings(max_examples=50, deadline=None)
def test_units_do_not_change_the_test(replication, k, flavor):
    # multiplying y, or the whole design, by 2**k is exact in floating
    # point, so the p-value keeps every bit and an exact fit stays one
    y, X = replication
    design = np.column_stack([np.ones(len(y)), X])
    want = coefficient_test(fit_ols(y, design, flavor=flavor), 1).p_value
    want_row = focus_pvalue(y, design, flavor=flavor)
    exact = design @ np.linspace(-1.0, 2.0, design.shape[1])
    scale = 2.0 ** k
    for y_k, exact_k, design_k in ((y * scale, exact * scale, design),
                                   (y, exact, design * scale)):
        got = coefficient_test(fit_ols(y_k, design_k, flavor=flavor), 1)
        assert got.p_value.hex() == want.hex()
        assert focus_pvalue(y_k, design_k, flavor=flavor).hex() == want_row.hex()
        with pytest.raises(ZeroStdError):
            coefficient_test(fit_ols(exact_k, design_k, flavor=flavor), 1)


@st.composite
def kernel_designs(draw):
    """(X, y) with an intercept, of one of four kinds of design."""
    kind = draw(st.sampled_from(["random", "near_collinear", "few_rows",
                                 "heteroskedastic"]))
    p = draw(st.integers(min_value=2, max_value=12))
    if kind == "few_rows":
        n = draw(st.integers(min_value=p + 1, max_value=p + 3))
    else:
        n = draw(st.integers(min_value=p + 3, max_value=300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    noise = rng.standard_normal(n)
    if kind == "near_collinear" and p > 2:
        i, j = rng.choice(np.arange(1, p), size=2, replace=False)
        X[:, j] = X[:, i] + 1e-6 * rng.standard_normal(n)
    elif kind == "heteroskedastic":
        X[:, 1:] = rng.standard_t(3, size=(n, p - 1))
        noise *= np.exp(np.tanh(X[:, 1]) * 2.0)
    return X, X @ rng.standard_normal(p) + noise


@given(kernel_designs(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_the_three_rows_forms_keep_the_bits_of_the_full_call(problem, hc1):
    # rows=None, an int j and (): the fit (coefficients where returned,
    # residuals, rank, pivots) has the same bits in every form, row j's
    # two scalars are the full matrices' diagonal entries j, bit for
    # bit, and the full matrices are exactly symmetric
    X, y = problem
    p = X.shape[1]
    coef, resid, classical, sandwich, rank, piv = \
        backend.ols_sandwich(X, y, hc1)
    assert rank == p
    for matrix in (classical, sandwich):
        assert matrix.shape == (p, p)
        assert matrix.tobytes() == matrix.T.copy().tobytes()
    got = backend.ols_sandwich(X, y, hc1, ())
    assert (got[0], got[2], got[3]) == (None, None, None)
    assert got[1].tobytes() == resid.tobytes()
    assert got[4] == rank and np.array_equal(got[5], piv)
    for j in range(p):
        got = backend.ols_sandwich(X, y, hc1, j)
        assert np.ndim(got[2]) == 0 and np.ndim(got[3]) == 0
        for g, w in zip(got[:4], (coef, resid, classical[j, j],
                                  sandwich[j, j])):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
        assert got[4] == rank and np.array_equal(got[5], piv)


@given(study_replications(), st.floats(min_value=-1e3, max_value=1e3),
       st.sampled_from(["HC0", "HC1"]))
@settings(max_examples=50, deadline=None)
def test_shifted_response_keeps_the_test(replication, shift, flavor):
    # adding c to y moves only the intercept; it is not exact in floating
    # point, so the p-value keeps its value to rounding, not its bits.  The
    # exact-fit rule is scale-free but not shift-free (see
    # coefficient_test): at |c| = 1e3 sd(y) it must still tell a real
    # test from an exact fit
    y, X = replication
    design = np.column_stack([np.ones(len(y)), X])
    want = coefficient_test(fit_ols(y, design, flavor=flavor), 1).p_value
    got = coefficient_test(
        fit_ols(y + shift * y.std(), design, flavor=flavor), 1).p_value
    assert _rel(got, want) <= 1e-8
    exact = design @ np.linspace(-1.0, 2.0, design.shape[1])
    with pytest.raises(ZeroStdError):
        coefficient_test(fit_ols(exact + shift * exact.std(), design,
                                 flavor=flavor), 1)


@st.composite
def heteroskedastic_designs(draw):
    """A Dataset (y, x, a0 ..) whose noise spread grows with x and a0."""
    rng = np.random.default_rng(draw(st.integers(min_value=0,
                                                 max_value=2 ** 32)))
    k = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=k + 10, max_value=300))
    adjust = rng.standard_normal((n, k)) * rng.uniform(0.1, 10.0, k)
    x = adjust @ rng.standard_normal(k) + rng.standard_normal(n)
    noise = np.exp(draw(st.floats(min_value=0.0, max_value=1.5))
                   * np.tanh(x + adjust[:, 0]))
    y = (x + adjust @ rng.standard_normal(k) + (x - x.mean()) ** 2
         + noise * rng.standard_t(3, n))
    names = ("y", "x", *(f"a{j}" for j in range(k)))
    return Dataset(names, np.column_stack([y, x, adjust]))


@given(heteroskedastic_designs())
@settings(max_examples=50, deadline=None)
def test_partial_impact_is_slope_times_residualized_focus_sd(data):
    adjust = data.column_names[2:]
    impact = partial_linear_mean_impact("y", "x", adjust, data).value
    slope = partial_linear_mean_slope("y", "x", adjust, data).value
    spread = sd_n(residualize("x", adjust, data))
    assert _rel(impact, slope * spread) <= 1e-10
