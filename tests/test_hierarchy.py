import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impactreg import (backend, fixed_sequence_test, order_covariates,
                       run_hierarchy, fit_ols, coefficient_test)
from impactreg.dataset import Dataset
from impactreg.errors import (DegenerateCovariate, DimensionMismatch,
                              ImpactregError, RankDeficient)
from impactreg.hierarchy import hierarchy_pvalues, order_indices
from impactreg.regression import _coefficient_row, _white_test


def brute_force_order(x_focus, candidates):
    """Re-derive the ordering with an explicit, independent loop."""
    q = candidates.shape[1]
    remaining = list(range(q))
    order = []
    resid = x_focus - x_focus.mean()
    while len(remaining) > 1:
        best, best_val = None, np.inf
        for j in remaining:
            c = candidates[:, j]
            r = abs(np.corrcoef(resid, c)[0, 1])
            if np.isnan(r):
                r = np.inf
            if r < best_val:
                best, best_val = j, r
        order.append(best)
        remaining.remove(best)
        X = np.column_stack([np.ones(len(x_focus)),
                             candidates[:, order]])
        coef, *_ = np.linalg.lstsq(X, x_focus, rcond=None)
        resid = x_focus - X @ coef
    order.extend(remaining)
    return order


def fit_ols_order(x_focus, candidates):
    """The ordering with one ``fit_ols`` call on a fresh design per pick.

    The reference for ``order_indices``: the same correlation passes, and
    each residualization fits ``[1, picks so far]`` built anew; a fit with
    no spare row or of rank < p ends the picks.
    """
    n, q = candidates.shape
    centred = np.array(candidates, order="F")
    centred -= centred.mean(axis=0)
    norms = np.sqrt(np.einsum("ij,ij->j", centred, centred))
    remaining = list(range(q))
    order = []
    resid = x_focus - x_focus.mean()
    while len(remaining) > 1:
        v = resid - resid.mean()
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = (np.abs(centred[:, remaining].T @ v)
                    / (np.sqrt(v @ v) * norms[remaining]))
        corr = np.where(np.isnan(corr), np.inf, corr)
        pick = remaining[int(np.argmin(corr))]
        order.append(pick)
        remaining.remove(pick)
        X = np.column_stack([np.ones(n), candidates[:, order]])
        try:
            resid = fit_ols(x_focus, X).residuals
        except (RankDeficient, DimensionMismatch):
            break
    order.extend(remaining)
    return order


@st.composite
def ordering_problems(draw):
    """(x_focus, candidates) of one of five kinds of design."""
    kind = draw(st.sampled_from(["random", "near_collinear", "duplicate",
                                 "few_rows", "heteroskedastic"]))
    q = draw(st.integers(min_value=2, max_value=8))
    if kind == "few_rows":
        # n = q + 2 keeps a spare row; at n <= q the last fits have none
        n = draw(st.integers(min_value=max(q, 3), max_value=q + 2))
    else:
        n = draw(st.integers(min_value=q + 3, max_value=200))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cand = rng.standard_normal((n, q))
    noise = rng.standard_normal(n)
    if kind == "near_collinear":
        i, j = rng.choice(q, size=2, replace=False)
        cand[:, j] = cand[:, i] + 1e-6 * rng.standard_normal(n)
    elif kind == "duplicate":
        i, j = rng.choice(q, size=2, replace=False)
        cand[:, j] = cand[:, i]
    elif kind == "heteroskedastic":
        cand = rng.standard_t(3, size=(n, q))
        noise *= np.exp(cand[:, 0])
    x1 = cand @ rng.standard_normal(q) + noise
    return x1, cand


@given(ordering_problems())
@settings(max_examples=200, deadline=None)
def test_ordering_matches_the_fit_ols_loop(problem):
    x1, cand = problem
    assert order_indices(x1, cand) == fit_ols_order(x1, cand)


def step_loop(test):
    """A step loop that tests each leading slice of the design afresh.

    ``test(y, X, names, flavor, reference)`` returns a step's p-value;
    the loop checks nothing itself, so every check is the test's, made
    at every step.
    """
    def loop(y, x_focus, ordered, alpha, include_bivariate, flavor,
             reference, column_names):
        n, q = ordered.shape
        design = np.column_stack([np.ones(n), x_focus, ordered])
        steps = q + 1 if include_bivariate else q
        first = 2 if include_bivariate else 3
        pvalues = [None] * steps
        rejected = 0
        for step in range(steps):
            p = first + step
            pvalue = test(y, design[:, :p], column_names[:p], flavor,
                          reference)
            pvalues[step] = pvalue
            if pvalue <= alpha:
                rejected += 1
            else:
                break
        return pvalues, rejected
    return loop


# the validated one-coefficient route, which forms only the focus row
row_steps = step_loop(lambda y, X, names, flavor, reference: _white_test(
    *_coefficient_row(y, X, 1, names, flavor), 1, reference).p_value)
# the public route, which forms every covariance row
fit_ols_steps = step_loop(lambda y, X, names, flavor, reference:
                          coefficient_test(fit_ols(y, X, names, flavor), 1,
                                           reference).p_value)


def kernel_widths_and_outcome(steps_fn, *args):
    """(p of each kernel call, result or (error type, message))."""
    real = backend.ols_sandwich
    widths = []

    def counted(X, *rest, **kwargs):
        widths.append(X.shape[1])
        return real(X, *rest, **kwargs)

    backend.ols_sandwich = counted
    try:
        pvalues, rejected = steps_fn(*args)
        outcome = ([None if p is None else float(p).hex() for p in pvalues],
                   rejected)
    except ImpactregError as exc:
        outcome = (type(exc), str(exc))
    finally:
        backend.ols_sandwich = real
    return widths, outcome


@given(ordering_problems(), st.data())
@settings(max_examples=200, deadline=None)
def test_step_pvalues_match_the_fit_ols_loop(problem, data):
    # the same bits, or the same typed error raised at the same step
    x1, ordered = problem
    n, q = ordered.shape
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    response = data.draw(st.sampled_from(["noisy", "noisy", "exact",
                                          "constant"]))
    if response == "noisy":
        y = x1 + ordered @ rng.standard_normal(q) + rng.standard_normal(n)
    elif response == "exact":
        # exact once column j is adjusted for: ZeroStdError from there
        j = data.draw(st.integers(0, q - 1))
        y = 1.0 + 2.0 * x1 - 3.0 * ordered[:, j]
    else:
        y = np.full(n, 2.5)
    x1, ordered = x1.copy(), ordered.copy()
    bad = data.draw(st.sampled_from(["none"] * 4
                                    + ["y", "focus", "candidate"]))
    value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    row = data.draw(st.integers(0, n - 1))
    if bad == "y":
        y[row] = value
    elif bad == "focus":
        x1[row] = value
    elif bad == "candidate":
        # NonFinite only once a step adjusts for this column
        ordered[row, data.draw(st.integers(0, q - 1))] = value
    # hierarchy_pvalues's positional order: alpha, include_bivariate,
    # flavor, reference, column_names
    args = (y, x1, ordered, data.draw(st.sampled_from([0.05, 0.5, 1.0])),
            data.draw(st.booleans()),
            data.draw(st.sampled_from(["HC0", "HC1"])),
            data.draw(st.sampled_from(["student_t", "normal"])),
            ("intercept", "focus", *(f"c{j}" for j in range(q))))
    outcome = kernel_widths_and_outcome(hierarchy_pvalues, *args)
    # the same bits as the one-coefficient route, and as the fit_ols
    # route, which forms every covariance row: the kernel sums a row's
    # variances alone, whatever else it is asked for
    assert outcome == kernel_widths_and_outcome(row_steps, *args)
    assert outcome == kernel_widths_and_outcome(fit_ols_steps, *args)


class TestOrdering:
    def test_single_candidate(self):
        rng = np.random.default_rng(0)
        data = Dataset(("x1", "x2"), rng.standard_normal((20, 2)))
        assert order_covariates("x1", ["x2"], data) == ["x2"]

    def test_least_correlated_first(self):
        # x2 strongly tied to focus, x3 weakly: x3 must be picked first
        rng = np.random.default_rng(1)
        n = 400
        x2 = rng.standard_normal(n)
        x3 = rng.standard_normal(n)
        x1 = 0.9 * x2 + 0.05 * x3 + 0.1 * rng.standard_normal(n)
        data = Dataset(("x1", "x2", "x3"), np.column_stack([x1, x2, x3]))
        assert order_covariates("x1", ["x2", "x3"], data) == ["x3", "x2"]

    def test_does_not_depend_on_response(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal((100, 5))
        d1 = Dataset(("y", "x1", "a", "b", "c"), values)
        shuffled = values.copy()
        shuffled[:, 0] = rng.permutation(shuffled[:, 0])  # scramble y only
        d2 = Dataset(("y", "x1", "a", "b", "c"), shuffled)
        r1 = run_hierarchy("y", "x1", ["a", "b", "c"], d1)
        r2 = run_hierarchy("y", "x1", ["a", "b", "c"], d2)
        assert r1.ordering == r2.ordering

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n, q = 120, 4
        cand = rng.standard_normal((n, q))
        x1 = cand @ rng.standard_normal(q) + rng.standard_normal(n)
        assert order_indices(x1, cand) == brute_force_order(x1, cand)

    @pytest.mark.parametrize("n", [30, 97, 500, 1000])
    @pytest.mark.parametrize("value", [2.0, 0.1, 0.3, 0.7, 2.7])
    def test_constant_candidate_raises(self, value, n):
        # most of these columns have a std of 1e-17..1e-13, not 0
        rng = np.random.default_rng(3)
        x1 = rng.standard_normal(n)
        cand = np.column_stack([rng.standard_normal(n), np.full(n, value)])
        with pytest.raises(DegenerateCovariate):
            order_indices(x1, cand)

    def test_constant_focus_raises(self):
        cand = np.random.default_rng(4).standard_normal((30, 2))
        with pytest.raises(DegenerateCovariate):
            order_indices(np.full(30, 1.0), cand)

    def test_degenerate_residual_direction_warns_nothing(self, monkeypatch):
        # a focus residual that is exactly constant has no direction: each
        # later correlation is 0/0, sorts last, and the picks fall back to
        # position order, without a RuntimeWarning
        real = backend.ols_sandwich

        def constant_residuals(X, y, *args, **kwargs):
            coef, resid, *rest = real(X, y, *args, **kwargs)
            return (coef, np.full_like(resid, 0.25), *rest)

        rng = np.random.default_rng(6)
        cand = rng.standard_normal((40, 5))
        x1 = cand @ rng.standard_normal(5) + rng.standard_normal(40)
        first = order_indices(x1, cand)[0]
        monkeypatch.setattr(backend, "ols_sandwich", constant_residuals)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            order = order_indices(x1, cand)
        assert order == [first] + [j for j in range(5) if j != first]

    def test_collinear_picks_append_rest_in_position_order(self):
        # duplicate candidate columns: once both are picked the design is
        # rank-deficient and the remaining candidates follow in position order
        rng = np.random.default_rng(5)
        n = 50
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        x1 = v + 0.01 * rng.standard_normal(n)  # nearly uncorrelated with u
        cand = np.column_stack([u, u, v])
        order = order_indices(x1, cand)
        # step 1 picks column 0 (tie with its duplicate broken by position),
        # step 2 the duplicate (residual is exactly orthogonal to u), which
        # collapses the design; column 2 is appended
        assert order == [0, 1, 2]

    def test_more_candidates_than_rows_append_rest_in_position_order(self):
        # once the intercept and the picks use up all n rows the focus is
        # fully explained, and the rest follow in position order
        rng = np.random.default_rng(7)
        n, q = 5, 8
        cand = rng.standard_normal((n, q))
        x1 = cand @ rng.standard_normal(q) + rng.standard_normal(n)
        order = order_indices(x1, cand)
        assert sorted(order) == list(range(q))
        rest = order[n - 1:]
        assert rest == sorted(rest)


class TestFixedSequence:
    def test_examples(self):
        assert fixed_sequence_test([0.01, 0.02, 0.5, 0.01], 0.05) == 2
        assert fixed_sequence_test([0.2, 0.01], 0.05) == 0
        assert fixed_sequence_test([0.01, 0.04, 0.05], 0.05) == 3
        assert fixed_sequence_test([], 0.05) == 0

    def test_boundary_is_rejection(self):
        assert fixed_sequence_test([0.05], 0.05) == 1

    def test_monotone_in_alpha(self):
        ps = [0.01, 0.03, 0.2, 0.6]
        counts = [fixed_sequence_test(ps, a) for a in (0.005, 0.02, 0.04, 0.3,
                                                       0.7)]
        assert counts == sorted(counts)

    def test_validation(self):
        with pytest.raises(ValueError):
            fixed_sequence_test([0.5], 0.0)
        with pytest.raises(ValueError):
            fixed_sequence_test([1.5], 0.05)


class TestRunHierarchy:
    @staticmethod
    def confounded_data(seed=0, n=600, theta1=0.0):
        rng = np.random.default_rng(seed)
        x2 = rng.standard_normal(n)
        x3 = rng.standard_normal(n)
        xt1 = rng.standard_normal(n)
        x1 = xt1 + x2 + x3
        y = theta1 * xt1 + x2 + x2 ** 2 + x3 + x3 ** 2 \
            + rng.standard_normal(n)
        return Dataset(("y", "x1", "x2", "x3"),
                       np.column_stack([y, x1, x2, x3]))

    def test_stops_at_first_non_rejection(self):
        data = self.confounded_data()
        res = run_hierarchy("y", "x1", ["x2", "x3"], data)
        assert res.rejected_prefix <= len(res.step_pvalues)
        for i, p in enumerate(res.step_pvalues):
            if i < res.rejected_prefix:
                assert p is not None and p <= res.alpha
            elif i == res.rejected_prefix and i < len(res.step_pvalues):
                if p is not None:
                    assert p > res.alpha
            else:
                assert p is None

    def test_confounders_adjusted_bookkeeping(self):
        data = self.confounded_data(1)
        plain = run_hierarchy("y", "x1", ["x2", "x3"], data)
        assert plain.confounders_adjusted == plain.rejected_prefix
        with_biv = run_hierarchy("y", "x1", ["x2", "x3"], data,
                                 include_bivariate=True)
        assert with_biv.confounders_adjusted == \
            max(0, with_biv.rejected_prefix - 1)
        assert len(with_biv.step_pvalues) == len(plain.step_pvalues) + 1

    def test_bivariate_step_matches_direct_fit(self):
        data = self.confounded_data(2)
        res = run_hierarchy("y", "x1", [], data, include_bivariate=True)
        y = data.column("y")
        x1 = data.column("x1")
        fit = fit_ols(y, np.column_stack([np.ones(data.n), x1]))
        direct = coefficient_test(fit, 1)
        assert res.step_pvalues[0] == pytest.approx(direct.p_value,
                                                    rel=1e-10)

    def test_no_candidates_no_bivariate_rejected(self):
        data = self.confounded_data(3)
        with pytest.raises(ValueError):
            run_hierarchy("y", "x1", [], data)

    def test_prespecified_order_respected(self):
        data = self.confounded_data(4)
        res = run_hierarchy("y", "x1", ["x2", "x3"], data,
                            ordering=["x3", "x2"])
        assert res.ordering == ("x3", "x2")
        with pytest.raises(ValueError):
            run_hierarchy("y", "x1", ["x2", "x3"], data,
                          ordering=["x3", "x4"])

    def test_full_prefix_rejected_when_signal_strong(self):
        # theta1 large: every step rejects, all confounders adjusted
        data = self.confounded_data(5, theta1=3.0)
        res = run_hierarchy("y", "x1", ["x2", "x3"], data)
        assert res.rejected_prefix == 2
        assert res.confounders_adjusted == 2

    def test_monotone_in_alpha(self):
        data = self.confounded_data(6, theta1=0.2)
        prev = 0
        for alpha in (1e-6, 0.01, 0.05, 0.2, 0.5):
            res = run_hierarchy("y", "x1", ["x2", "x3"], data, alpha=alpha)
            assert res.rejected_prefix >= prev
            prev = res.rejected_prefix

    def test_affine_rescaling_invariance(self):
        data = self.confounded_data(7, theta1=0.3)
        res1 = run_hierarchy("y", "x1", ["x2", "x3"], data)
        values = data.values.copy()
        values[:, 2] = 3.0 * values[:, 2] - 1.0  # rescale x2
        data2 = Dataset(data.column_names, values)
        res2 = run_hierarchy("y", "x1", ["x2", "x3"], data2)
        assert res1.ordering == res2.ordering
        for p1, p2 in zip(res1.step_pvalues, res2.step_pvalues):
            if p1 is None:
                assert p2 is None
            else:
                assert p2 == pytest.approx(p1, abs=1e-9)


class TestRowCounts:
    """Inputs whose row counts disagree raise before any design is built."""

    @staticmethod
    def problem(n=30, q=3):
        rng = np.random.default_rng(10)
        cand = rng.standard_normal((n, q))
        x1 = cand @ rng.standard_normal(q) + rng.standard_normal(n)
        return x1 + rng.standard_normal(n), x1, cand

    def test_ordering(self):
        _, x1, cand = self.problem()
        for args in ((x1[:-1], cand), (x1, cand[:-1]), (x1[:, None], cand),
                     (x1, cand[:, 0])):
            with pytest.raises(DimensionMismatch):
                order_indices(*args)

    def test_steps(self):
        y, x1, cand = self.problem()
        for args in ((y[:-1], x1, cand), (y, x1[:-1], cand),
                     (y, x1, cand[:-1]), (y[:, None], x1, cand),
                     (y, x1, cand[:, 0])):
            for bivariate in (False, True):
                with pytest.raises(DimensionMismatch):
                    hierarchy_pvalues(*args, alpha=0.05,
                                      include_bivariate=bivariate)


class TestHierarchyPvalues:
    def test_hc1_is_more_conservative(self):
        rng = np.random.default_rng(8)
        n = 40
        ordered = rng.standard_normal((n, 2))
        x1 = ordered @ [1.0, 0.5] + rng.standard_normal(n)
        y = x1 + rng.standard_normal(n)
        p0, _ = hierarchy_pvalues(y, x1, ordered, alpha=1.0 - 1e-12)
        p1, _ = hierarchy_pvalues(y, x1, ordered, alpha=1.0 - 1e-12,
                                  flavor="HC1")
        for a, b in zip(p0, p1):
            assert b >= a

    def test_hc1_step_pvalues_match_hc1_fit(self):
        # one HC1 convention: each step p-value is the HC1 robust test of
        # the focus coefficient in the full fit of that step
        rng = np.random.default_rng(9)
        n = 60
        ordered = rng.standard_normal((n, 3))
        x1 = ordered @ [1.0, 0.5, -0.3] + rng.standard_normal(n)
        y = x1 + ordered[:, 0] ** 2 + np.exp(x1 / 2) * rng.standard_normal(n)
        pvalues, _ = hierarchy_pvalues(y, x1, ordered, alpha=1.0 - 1e-12,
                                       include_bivariate=True, flavor="HC1")
        assert None not in pvalues
        for step, p in enumerate(pvalues):
            X = np.column_stack([np.ones(n), x1, ordered[:, :step]])
            expected = coefficient_test(fit_ols(y, X, flavor="HC1"), 1).p_value
            assert p == pytest.approx(expected, rel=1e-12)
