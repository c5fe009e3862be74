import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import qr, solve_triangular

import impactreg
from impactreg import (backend, fit_ols, coefficient_test, hierarchy,
                       linear_mean_impact, linear_mean_slope,
                       order_covariates, partial_linear_mean_impact,
                       partial_linear_mean_slope, regression, residualize,
                       run_hierarchy, slope_identity_check, write_csv)
from impactreg.dataset import Dataset
from impactreg.errors import (DimensionMismatch, InvalidConfig, NonFinite,
                              RankDeficient, UnknownColumn, ZeroStdError)
from impactreg.hierarchy import hierarchy_pvalues, order_indices
from impactreg.simulate import SimConfig, generate_dataset


def design(x):
    x = np.asarray(x, dtype=float)
    return np.column_stack([np.ones(len(x)), x])


class TestFitOls:
    def test_exact_linear_fit(self):
        fit = fit_ols(np.array([0., 1., 2.]), design([0., 1., 2.]))
        np.testing.assert_allclose(fit.coefficients, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-12)

    def test_constant_response(self):
        fit = fit_ols(np.full(4, 5.0), design([1., 2., 7., -3.]))
        np.testing.assert_allclose(fit.coefficients, [5.0, 0.0], atol=1e-12)

    def test_hand_solved_normal_equations(self):
        # y=(0,1,0), x=(0,1,2): intercept 1/3, slope 0
        fit = fit_ols(np.array([0., 1., 0.]), design([0., 1., 2.]))
        np.testing.assert_allclose(fit.coefficients, [1 / 3, 0.0], atol=1e-12)
        np.testing.assert_allclose(fit.residuals, [-1 / 3, 2 / 3, -1 / 3],
                                   atol=1e-12)

    def test_rank_deficient_names_column(self):
        x = np.array([1., 2., 3., 4.])
        X = np.column_stack([np.ones(4), x, 2 * x])
        with pytest.raises(RankDeficient) as err:
            fit_ols(np.array([1., 2., 3., 4.]), X,
                    column_names=("intercept", "a", "b"))
        assert err.value.column in ("a", "b")

    def test_dimension_and_finiteness_errors(self):
        with pytest.raises(DimensionMismatch):
            fit_ols(np.ones(3), design([1., 2.]))
        with pytest.raises(DimensionMismatch):
            fit_ols(np.ones(2), design([1., 2.]))  # n == p
        with pytest.raises(NonFinite):
            fit_ols(np.array([1., np.nan, 3.]), design([0., 1., 2.]))


class TestSandwich:
    def test_zero_residuals_give_zero_matrix(self):
        fit = fit_ols(np.array([0., 1., 2.]), design([0., 1., 2.]))
        np.testing.assert_allclose(fit.sandwich_cov, 0.0, atol=1e-20)

    def test_hand_computed_hc0_slope_variance(self):
        # w_i = (x_i - xbar)/Sxx = (-1/2, 0, 1/2); e_i^2 = (1/9, 4/9, 1/9)
        fit = fit_ols(np.array([0., 1., 0.]), design([0., 1., 2.]))
        assert fit.sandwich_cov[1, 1] == pytest.approx(1 / 18, rel=1e-12)

    def test_hc1_scales_by_n_over_dof(self):
        rng = np.random.default_rng(5)
        X = design(rng.standard_normal(40))
        y = rng.standard_normal(40)
        hc0 = fit_ols(y, X, flavor="HC0")
        hc1 = fit_ols(y, X, flavor="HC1")
        np.testing.assert_allclose(hc1.sandwich_cov,
                                   hc0.sandwich_cov * 40 / 38, rtol=1e-12)

    def test_homoskedastic_sandwich_approaches_classical(self):
        rng = np.random.default_rng(7)
        n = 100_000
        x = rng.standard_normal(n)
        y = 1.0 + 2.0 * x + rng.standard_normal(n)
        fit = fit_ols(y, design(x))
        # diagonals agree to 5%; off-diagonals are near zero, compare
        # on the scale of the variances
        np.testing.assert_allclose(np.diag(fit.sandwich_cov),
                                   np.diag(fit.classical_cov), rtol=0.05)
        scale = np.diag(fit.classical_cov).max()
        np.testing.assert_allclose(fit.sandwich_cov, fit.classical_cov,
                                   atol=0.05 * scale)


class TestCoefficientTest:
    def test_zero_estimate_gives_p_one(self):
        fit = fit_ols(np.array([0., 1., 0.]), design([0., 1., 2.]))
        test = coefficient_test(fit, 1)
        assert test.estimate == pytest.approx(0.0, abs=1e-12)
        assert test.statistic == pytest.approx(0.0, abs=1e-10)
        assert test.p_value == pytest.approx(1.0, abs=1e-10)
        assert test.std_error == pytest.approx(np.sqrt(1 / 18), rel=1e-12)

    def test_normal_reference(self):
        rng = np.random.default_rng(8)
        X = design(rng.standard_normal(30))
        y = rng.standard_normal(30)
        fit = fit_ols(y, X)
        t_ref = coefficient_test(fit, 1, "student_t")
        z_ref = coefficient_test(fit, 1, "normal")
        assert t_ref.statistic == z_ref.statistic
        assert z_ref.p_value <= t_ref.p_value  # t is the heavier tail

    def test_zero_std_error_raises(self):
        fit = fit_ols(np.array([0., 1., 2.]), design([0., 1., 2.]))
        with pytest.raises(ZeroStdError):
            coefficient_test(fit, 1)

    @pytest.mark.slow
    def test_null_rejection_rate_calibrated(self):
        # simulated null slope, n=500: rejection at alpha=0.05 near 0.05
        rejections = 0
        reps = 10_000
        rng = np.random.default_rng(9)
        for _ in range(reps):
            x = rng.standard_normal(500)
            y = rng.standard_normal(500)
            fit = fit_ols(y, design(x))
            if coefficient_test(fit, 1).p_value <= 0.05:
                rejections += 1
        assert abs(rejections / reps - 0.05) < 0.01


class TestResidualize:
    @staticmethod
    def data():
        return Dataset(("x1", "x2"),
                       np.array([[1., 1.], [2., 1.], [3., 2.], [4., 2.]]))

    def test_intercept_only_is_centering(self):
        res = residualize("x1", [], self.data())
        np.testing.assert_allclose(res, [-1.5, -0.5, 0.5, 1.5], atol=1e-12)

    def test_target_equals_regressor_gives_zero(self):
        res = residualize("x1", ["x1"], self.data())
        np.testing.assert_allclose(res, 0.0, atol=1e-10)

    def test_hand_ols_residual(self):
        # x1 on x2: slope 2, intercept -0.5, fitted (1.5, 1.5, 3.5, 3.5)
        res = residualize("x1", ["x2"], self.data())
        np.testing.assert_allclose(res, [-0.5, 0.5, -0.5, 0.5], atol=1e-12)

    def test_unknown_column(self):
        with pytest.raises(UnknownColumn):
            residualize("nope", [], self.data())

    def test_idempotence(self):
        rng = np.random.default_rng(10)
        values = rng.standard_normal((50, 3))
        data = Dataset(("a", "b", "c"), values)
        once = residualize("a", ["b", "c"], data)
        data2 = Dataset(("a", "b", "c"),
                        np.column_stack([once, values[:, 1:]]))
        twice = residualize("a", ["b", "c"], data2)
        np.testing.assert_allclose(twice, once, atol=1e-10)


def _routes_problem():
    data = generate_dataset(SimConfig(m=4, k=3, n=60, seed=5), 0)
    cand = data.columns(["x2", "x3", "x4"])
    return data, data.column("y"), data.column("x1"), cand


class TestCheckedOnce:
    """An array from outside is checked once, where it enters; a
    ``Dataset`` was checked when it was built, and no route checks it
    again."""

    @pytest.mark.parametrize("route, calls", [
        (lambda d, y, x1, c: run_hierarchy(
            "y", "x1", ["x2", "x3", "x4"], d, alpha=1.0,
            include_bivariate=True), 0),
        (lambda d, y, x1, c: order_covariates("x1", ["x2", "x3", "x4"], d),
         0),
        (lambda d, y, x1, c: residualize("x1", ["x2", "x3"], d), 0),
        (lambda d, y, x1, c: partial_linear_mean_impact(
            "y", "x1", ["x2", "x3"], d), 0),
        (lambda d, y, x1, c: partial_linear_mean_slope(
            "y", "x1", ["x2", "x3"], d), 0),
        (lambda d, y, x1, c: linear_mean_impact(y, x1), 0),
        (lambda d, y, x1, c: linear_mean_slope(y, x1), 0),
        (lambda d, y, x1, c: fit_ols(y, design(x1)), 1),
        (lambda d, y, x1, c: order_indices(x1, c), 1),
        (lambda d, y, x1, c: hierarchy_pvalues(
            y, x1, c, 1.0, include_bivariate=True), 1),
        (lambda d, y, x1, c: slope_identity_check("semi_linear", n=200), 1),
    ], ids=["run_hierarchy", "order_covariates", "residualize",
            "partial_impact", "partial_slope", "linear_impact",
            "linear_slope", "fit_ols", "order_indices", "hierarchy_pvalues",
            "slope_identity_check"])
    def test_validate_calls(self, monkeypatch, route, calls):
        real = regression._validate
        counted = []

        def counting(*args, **kwargs):
            counted.append(args)
            return real(*args, **kwargs)

        # every module's reference to the checker, wherever imported
        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "impactreg"
                    and getattr(module, "_validate", None) is real):
                monkeypatch.setattr(module, "_validate", counting)
        route(*_routes_problem())
        assert len(counted) == calls


@pytest.mark.parametrize("route", [
    lambda d, y, x1, c, f: fit_ols(y, design(x1), flavor=f),
    lambda d, y, x1, c, f: hierarchy_pvalues(y, x1, c, 0.05, flavor=f),
    lambda d, y, x1, c, f: run_hierarchy("y", "x1", ["x2", "x3", "x4"], d,
                                         flavor=f),
    lambda d, y, x1, c, f: linear_mean_impact(y, x1, flavor=f),
    lambda d, y, x1, c, f: linear_mean_slope(y, x1, flavor=f),
    lambda d, y, x1, c, f: partial_linear_mean_impact("y", "x1", ["x2"], d,
                                                      flavor=f),
    lambda d, y, x1, c, f: partial_linear_mean_slope("y", "x1", ["x2"], d,
                                                     flavor=f),
], ids=["fit_ols", "hierarchy_pvalues", "run_hierarchy", "linear_impact",
        "linear_slope", "partial_impact", "partial_slope"])
def test_unknown_flavor_rejected_on_every_route(route):
    with pytest.raises(InvalidConfig, match="sandwich flavor"):
        route(*_routes_problem(), "HC2")


class TestInvariants:
    @staticmethod
    def random_problem(seed, n=80, p=4):
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        y = rng.standard_normal(n) + X @ rng.standard_normal(p)
        return y, X

    @pytest.mark.parametrize("seed", range(10))
    def test_residual_orthogonality(self, seed):
        y, X = self.random_problem(seed)
        fit = fit_ols(y, X)
        e = fit.residuals
        for j in range(X.shape[1]):
            xj = X[:, j]
            denom = np.linalg.norm(e) * np.linalg.norm(xj) + 1e-300
            assert abs(e @ xj) / denom < 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_sandwich_psd(self, seed):
        y, X = self.random_problem(seed)
        fit = fit_ols(y, X)
        for cov in (fit.sandwich_cov, fit.classical_cov):
            eigs = np.linalg.eigvalsh(cov)
            assert eigs.min() >= -1e-10 * max(np.trace(cov), 1e-300)

    def test_permutation_equivariance(self):
        y, X = self.random_problem(3)
        fit = fit_ols(y, X)
        rng = np.random.default_rng(4)
        perm = rng.permutation(len(y))
        fit_p = fit_ols(y[perm], X[perm])
        np.testing.assert_allclose(fit_p.coefficients, fit.coefficients,
                                   atol=1e-10)
        np.testing.assert_allclose(fit_p.sandwich_cov, fit.sandwich_cov,
                                   atol=1e-10)

    def test_affine_rescaling_of_covariate(self):
        y, X = self.random_problem(5)
        a, b = 2.5, -1.25
        X2 = X.copy()
        X2[:, 1] = a * X2[:, 1] + b
        fit = fit_ols(y, X)
        fit2 = fit_ols(y, X2)
        assert fit2.coefficients[1] == pytest.approx(
            fit.coefficients[1] / a, rel=1e-8)
        t1 = coefficient_test(fit, 1)
        t2 = coefficient_test(fit2, 1)
        assert t2.statistic == pytest.approx(t1.statistic, rel=1e-8)
        assert t2.p_value == pytest.approx(t1.p_value, abs=1e-8)


def scipy_kernel(X, y, hc1):
    """The kernel's algebra on SciPy's ``qr`` and ``solve_triangular``.

    The explicit-Q composition: Q formed, R inverted against the
    identity, and both p x p covariances built in full.
    ``backend.ols_sandwich`` applies the same factorization's reflectors
    instead of forming Q, so it agrees within rounding, not bit for bit
    (see ``assert_close_to_scipy``); the rank and pivots come from the
    same ``dgeqp3`` call and keep their bits.  Both run on one BLAS
    thread: from 128 columns on, LAPACK's blocked updates split work
    between threads.
    """
    with backend._ONE_BLAS_THREAD:
        return _scipy_kernel(X, y, hc1)


def _scipy_kernel(X, y, hc1):
    X = np.ascontiguousarray(X, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    n, p = X.shape
    Q, R, piv = qr(X, mode="economic", pivoting=True, check_finite=False)
    diag = np.abs(np.diag(R))
    rank = 0 if diag[0] == 0.0 else int(
        np.sum(diag >= backend.RANK_TOL * diag[0]))
    if rank < p:
        return None, None, None, None, rank, piv
    coef = np.empty(p)
    coef[piv] = solve_triangular(R, Q.T @ y, check_finite=False)
    resid = y - X @ coef
    B = np.empty((p, p))
    B[piv] = solve_triangular(R, np.eye(p), check_finite=False)
    sigma2 = float(resid @ resid) / (n - p) if n > p else 0.0
    classical = sigma2 * (B @ B.T)
    H = Q * resid[:, None]
    sandwich = B @ (H.T @ H) @ B.T
    if hc1:
        sandwich *= n / (n - p)
    return (coef, resid, 0.5 * (classical + classical.T),
            0.5 * (sandwich + sandwich.T), rank, piv)


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
            continue
        g, w = np.asarray(g), np.asarray(w)
        assert (g.shape, g.dtype) == (w.shape, w.dtype)
        if w.dtype == np.float64:
            g, w = g.view(np.int64), w.view(np.int64)
        np.testing.assert_array_equal(g, w)


def assert_close_to_scipy(got, want, X):
    """``got`` agrees with the SciPy composition normwise, to cond(X) eps.

    Rank and pivots are equal; the coefficients and both covariances
    are within 100 cond(X) eps of the reference in relative norm, and the
    residuals within that share of ||y||: both routes are backward
    stable, so they differ by rounding amplified at most by cond(X).
    """
    assert got[4] == want[4]
    assert_same_bits(got[5:], want[5:])
    if want[0] is None:
        assert all(g is None for g in got[:4])
        return
    tol = 100 * np.linalg.cond(X) * np.finfo(float).eps
    coef, resid, classical, sandwich = got[:4]
    y = want[1] + X @ want[0]
    assert np.linalg.norm(resid - want[1]) <= tol * np.linalg.norm(y)
    for g, w in ((coef, want[0]), (classical, want[2]),
                 (sandwich, want[3])):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.linalg.norm(g - w) <= tol * np.linalg.norm(w)


class TestKernelDifferential:
    """``backend.ols_sandwich`` against independent NumPy references."""

    @staticmethod
    def random_problem(seed, n=60, p=4):
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        y = X @ rng.standard_normal(p) + np.exp(X[:, 1]) * rng.standard_normal(n)
        return X, y

    @staticmethod
    def reference(X, y, hc1):
        """lstsq fit and the explicit (X'X)^-1 X' diag(e^2) X (X'X)^-1."""
        n, p = X.shape
        coef = np.linalg.lstsq(X, y, rcond=None)[0]
        resid = y - X @ coef
        bread = np.linalg.inv(X.T @ X)
        cov = bread @ X.T @ np.diag(resid ** 2) @ X @ bread
        return coef, resid, bread, cov * (n / (n - p) if hc1 else 1.0)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("hc1", [False, True])
    def test_heteroskedastic_designs(self, seed, hc1):
        X, y = self.random_problem(seed)
        coef, resid, classical, cov, rank, _ = backend.ols_sandwich(X, y, hc1)
        ref_coef, ref_resid, ref_bread, ref_cov = self.reference(X, y, hc1)
        assert rank == X.shape[1]
        np.testing.assert_allclose(coef, ref_coef, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(resid, ref_resid, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(cov, ref_cov, rtol=1e-10, atol=1e-14)
        s2 = (ref_resid @ ref_resid) / (X.shape[0] - X.shape[1])
        np.testing.assert_allclose(classical, ref_bread * s2,
                                   rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("hc1", [False, True])
    def test_column_scaled_by_1e8(self, hc1):
        # rescaling a column must keep the rank full and be undone exactly
        # by rescaling its coefficient and covariance rows
        X, y = self.random_problem(1)
        scale = np.ones(X.shape[1])
        scale[2] = 1e8
        coef, resid, classical, cov, rank, _ = backend.ols_sandwich(
            X * scale, y, hc1)
        ref_coef, ref_resid, ref_bread, ref_cov = self.reference(X, y, hc1)
        assert rank == X.shape[1]
        np.testing.assert_allclose(coef * scale, ref_coef, rtol=1e-10)
        outer = np.outer(scale, scale)
        s2 = (ref_resid @ ref_resid) / (X.shape[0] - X.shape[1])
        np.testing.assert_allclose(classical * outer, ref_bread * s2,
                                   rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(cov * outer, ref_cov, rtol=1e-10,
                                   atol=1e-14)

    @pytest.mark.parametrize("seed", range(3, 7))
    def test_near_collinear_design(self, seed):
        # cond(X) ~ 2e6, so the explicit inverse of X'X is itself off by
        # ~cond(X)^2 * eps; the reference uses the pseudo-inverse instead,
        # (X'X)^-1 X' = pinv(X).  The kernel forms the sandwich from its
        # QR factors, so its error must stay of order cond(X) * eps.
        rng = np.random.default_rng(seed)
        n = 200
        x1 = rng.standard_normal(n)
        x2 = x1 + 1e-6 * rng.standard_normal(n)
        X = np.column_stack([np.ones(n), x1, x2, rng.standard_normal(n)])
        y = x1 + x2 + np.exp(x1) * rng.standard_normal(n)
        coef, resid, classical, cov, rank, _ = backend.ols_sandwich(X, y)
        assert rank == X.shape[1]
        ref_coef = np.linalg.lstsq(X, y, rcond=None)[0]
        pinv = np.linalg.pinv(X)
        np.testing.assert_allclose(coef, ref_coef, rtol=1e-8)
        np.testing.assert_allclose(resid, y - X @ ref_coef, atol=1e-8)
        ref_classical = pinv @ pinv.T * (resid @ resid) / (n - X.shape[1])
        np.testing.assert_allclose(classical, ref_classical,
                                   atol=1e-10 * np.abs(ref_classical).max())
        ref_cov = pinv @ np.diag(resid ** 2) @ pinv.T
        bound = 100 * np.linalg.cond(X) * np.finfo(float).eps
        assert np.abs(cov - ref_cov).max() <= bound * np.abs(ref_cov).max()

    def test_rank_deficient(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(30)
        X = np.column_stack([np.ones(30), x, 2 * x - 1])
        y = x + rng.standard_normal(30)
        *matrices, rank, piv = backend.ols_sandwich(X, y)
        assert all(m is None for m in matrices)
        assert rank == 2
        # piv[rank] lies in the span of the columns kept before it
        kept = X[:, piv[:rank]]
        dependent = X[:, piv[rank]]
        fitted = kept @ np.linalg.lstsq(kept, dependent, rcond=None)[0]
        np.testing.assert_allclose(fitted, dependent, atol=1e-10)

    # against the explicit-Q SciPy composition; from 128 columns on,
    # dgeqp3 switches to blocked code whose blocks follow lwork
    @pytest.mark.parametrize("n, p", [(60, 2), (200, 5), (500, 11),
                                      (200, 33), (300, 50), (400, 150),
                                      (3, 2), (12, 11), (51, 50)])
    @pytest.mark.parametrize("hc1", [False, True])
    def test_agrees_with_scipy(self, n, p, hc1):
        for seed in range(3):
            X, y = self.random_problem(seed, n, p)
            assert_close_to_scipy(backend.ols_sandwich(X, y, hc1),
                                  scipy_kernel(X, y, hc1), X)

    @pytest.mark.parametrize("hc1", [False, True])
    def test_same_bits_for_any_layout(self, hc1):
        # the kernel makes one column-major copy of whatever it is given
        X, y = self.random_problem(4, 120, 7)
        strided = np.repeat(X, 2, axis=1)[::-1, ::2][::-1]
        assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
        want = backend.ols_sandwich(X, y, hc1)
        for layout in (np.asfortranarray(X), strided):
            assert_same_bits(backend.ols_sandwich(layout, y, hc1), want)
        assert_same_bits(backend.ols_sandwich(X, np.repeat(y, 3)[::3], hc1),
                         want)
        assert_close_to_scipy(want, scipy_kernel(X, y, hc1), X)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("hc1", [False, True])
    def test_agrees_with_scipy_near_collinear(self, seed, hc1):
        X, y = self.random_problem(seed, 200, 6)
        noise = np.random.default_rng(seed).standard_normal(200)
        X[:, 2] = X[:, 1] + 10.0 ** -(4 + seed) * noise
        got = backend.ols_sandwich(X, y, hc1)
        assert got[4] == 6
        assert_close_to_scipy(got, scipy_kernel(X, y, hc1), X)

    @pytest.mark.parametrize("p", [3, 12, 40])
    def test_same_rank_and_pivots_as_scipy_when_rank_deficient(self, p):
        X, y = self.random_problem(p, 100, p)
        X[:, -1] = 2.0 * X[:, 1] - X[:, 0]
        got = backend.ols_sandwich(X, y)
        assert got[4] == p - 1
        assert_same_bits(got, scipy_kernel(X, y, False))

    @pytest.mark.parametrize("n, p", [(60, 2), (500, 7), (12, 11),
                                      (400, 150)])
    @pytest.mark.parametrize("hc1", [False, True])
    @pytest.mark.parametrize("deficient", [False, True])
    def test_residuals_only_keep_the_bits_of_a_full_call(self, n, p, hc1,
                                                         deficient):
        for seed in range(3):
            X, y = self.random_problem(seed, n, p)
            if deficient:
                X[:, -1] = 2.0 * X[:, -2]
            coef, resid, classical, sandwich, rank, piv = \
                backend.ols_sandwich(X, y, hc1)
            got = backend.ols_sandwich(X, y, hc1, rows=())
            assert (rank < p) == deficient
            # no coefficients: they are never solved for
            assert_same_bits(got, (None, resid, None, None, rank, piv))

    @pytest.mark.parametrize("n, p", [(60, 2), (500, 7), (12, 11),
                                      (400, 150)])
    @pytest.mark.parametrize("hc1", [False, True])
    def test_one_row_keeps_the_bits_of_a_full_call(self, n, p, hc1):
        X, y = self.random_problem(0, n, p)
        coef, resid, classical, sandwich, rank, piv = \
            backend.ols_sandwich(X, y, hc1)
        for j in {0, 1, p // 2, p - 1}:
            got = backend.ols_sandwich(X, y, hc1, j)
            # the row's two variances as scalars, not 1 x 1 blocks
            assert np.ndim(got[2]) == 0 and np.ndim(got[3]) == 0
            assert_same_bits(got, (coef, resid, classical[j, j],
                                   sandwich[j, j], rank, piv))
        # a NumPy integer names the row of the int it holds; its == ()
        # used to raise instead
        want = backend.ols_sandwich(X, y, hc1, 1)
        for j in (np.int64(1), np.intp(1)):
            assert_same_bits(backend.ols_sandwich(X, y, hc1, j), want)


class TestKernelInPlace:
    """The kernel factors a column-major float64 design where it lies."""

    def test_no_copy_of_a_tall_design(self):
        X, y = TestKernelDifferential.random_problem(0, 20_000, 8)
        want = backend.ols_sandwich(X, y, False, 1)  # f2py's copy
        X = np.asfortranarray(X)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            got = backend.ols_sandwich(X, y, False, 1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert_same_bits(got, want)
        # y, its residual and one covariance row: three columns' worth
        assert peak < 0.5 * X.nbytes, peak / X.nbytes
        # R and the reflectors are where X was
        assert not np.array_equal(X[:, 0], 1.0)

    def test_refuses_a_read_only_design(self):
        # f2py would let LAPACK write through the read-only flag
        X, y = TestKernelDifferential.random_problem(1)
        X = np.asfortranarray(X)
        X.setflags(write=False)
        before = X.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            backend.ols_sandwich(X, y)
        assert X.tobytes() == before


def blas_counts():
    """The thread count of each OpenBLAS the kernel caps, left as it was."""
    counts = []
    for set_threads in backend._openblas_setters():
        count = set_threads(1)
        set_threads(count)
        counts.append(count)
    return counts


@pytest.fixture
def two_blas_threads():
    """Every capped OpenBLAS at two threads, so a restore is visible."""
    setters = backend._openblas_setters()
    if not setters:
        pytest.skip("no loaded OpenBLAS exports "
                    "openblas_set_num_threads_local")
    saved = [set_threads(2) for set_threads in setters]
    yield
    for set_threads, count in zip(setters, saved):
        set_threads(count)


class TestOneBlasThread:
    @staticmethod
    def spy(monkeypatch, name, seen, error=None):
        real = getattr(backend, name)

        def call(*args, **kwargs):
            seen.append((name, blas_counts()))
            if error is not None:
                raise error
            return real(*args, **kwargs)

        monkeypatch.setattr(backend, name, call)

    def test_lapack_calls_run_on_one_thread(self, two_blas_threads,
                                            monkeypatch):
        monkeypatch.setattr(backend, "_LWORK", {})
        seen = []
        for name in ("dgeqp3", "dormqr", "dtrtrs"):
            self.spy(monkeypatch, name, seen)
        problem = TestKernelDifferential.random_problem(0)
        p = problem[0].shape[1]
        first = backend.ols_sandwich(*problem)
        # the factorization's workspace query, then the call; Q'y, the
        # solve for the coefficients, Q [0; c], then for each row the
        # solve for z and Q [z; 0], on the minimal workspace that needs
        # no query
        fit = ["dormqr", "dtrtrs", "dormqr", *["dtrtrs", "dormqr"] * p]
        assert [name for name, _ in seen] == ["dgeqp3", "dgeqp3", *fit]
        assert all(counts and set(counts) == {1} for _, counts in seen)
        assert set(blas_counts()) == {2}

        # the same shape again: the workspace size is reused, not queried
        seen.clear()
        again = backend.ols_sandwich(*problem)
        assert [name for name, _ in seen] == ["dgeqp3", *fit]
        assert_same_bits(again, first)

    def test_fewer_rows_drop_only_the_solves_they_do_not_read(self,
                                                              monkeypatch):
        # the residuals alone need no solve; one row needs the fit's and
        # its own.  The factorization and the reflector products are
        # those of a full call
        seen = []
        for name in ("dgeqp3", "dormqr", "dtrtrs"):
            self.spy(monkeypatch, name, seen)
        problem = TestKernelDifferential.random_problem(0)
        backend.ols_sandwich(*problem)
        for rows, fit in [((), ["dormqr", "dormqr"]),
                          (1, ["dormqr", "dtrtrs", "dormqr", "dtrtrs",
                               "dormqr"])]:
            seen.clear()
            backend.ols_sandwich(*problem, False, rows)
            assert [name for name, _ in seen] == ["dgeqp3", *fit]

    def test_count_restored_after_rank_deficient_return(self,
                                                        two_blas_threads):
        X, y = TestKernelDifferential.random_problem(0)
        X = np.column_stack([X, 2 * X[:, 1]])
        assert backend.ols_sandwich(X, y)[0] is None
        assert set(blas_counts()) == {2}

    def test_count_restored_after_an_error(self, two_blas_threads,
                                           monkeypatch):
        seen = []
        self.spy(monkeypatch, "dtrtrs", seen,
                 error=np.linalg.LinAlgError("singular"))
        with pytest.raises(np.linalg.LinAlgError):
            backend.ols_sandwich(*TestKernelDifferential.random_problem(0))
        assert set(seen[0][1]) == {1}
        assert set(blas_counts()) == {2}

    def test_ordering_runs_on_one_thread(self, two_blas_threads,
                                         monkeypatch):
        # the fits sit between the ordering's correlation passes, outside
        # the kernel: they see one thread only if the cap spans the ordering
        seen = []
        self.spy(monkeypatch, "ols_sandwich", seen)
        rng = np.random.default_rng(0)
        cand = rng.standard_normal((200, 5))
        x1 = cand @ rng.standard_normal(5) + rng.standard_normal(200)
        assert sorted(hierarchy.order_indices(x1, cand)) == list(range(5))
        assert len(seen) == 4
        assert all(counts and set(counts) == {1} for _, counts in seen)
        assert set(blas_counts()) == {2}

        # duplicate columns: the second fit is rank-deficient, and the rest
        # is appended in position order
        seen.clear()
        u, v = rng.standard_normal((2, 50))
        x1 = v + 0.01 * rng.standard_normal(50)
        assert hierarchy.order_indices(
            x1, np.column_stack([u, u, v])) == [0, 1, 2]
        assert len(seen) == 2
        assert all(counts and set(counts) == {1} for _, counts in seen)
        assert set(blas_counts()) == {2}

        # an error raised by the first fit
        seen.clear()
        self.spy(monkeypatch, "ols_sandwich", seen,
                 error=np.linalg.LinAlgError("singular"))
        with pytest.raises(np.linalg.LinAlgError):
            hierarchy.order_indices(x1, np.column_stack([u, u, v]))
        assert len(seen) == 1 and set(seen[0][1]) == {1}
        assert set(blas_counts()) == {2}

    def test_overlapping_calls_from_threads_restore_the_count(
            self, two_blas_threads):
        # the OpenBLAS count is process-wide: a call that restored it while
        # another was still running would leave it at 1 for good
        X, y = TestKernelDifferential.random_problem(0)
        errors = []

        def fit_many():
            try:
                for _ in range(200):
                    backend.ols_sandwich(X, y)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=fit_many) for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert not errors
        assert set(blas_counts()) == {2}


def test_reports_independent_of_blas_threads(tmp_path):
    # at 50,000 rows OpenBLAS splits the kernel's matmuls between threads,
    # which used to move the last bit of --adjust estimates
    data = tmp_path / "tall.csv"
    write_csv(generate_dataset(SimConfig(m=10, k=9, n=50_000, seed=1), 0),
              data)
    commands = [
        ["simulate", "--preset", "table2", "--m", "5", "--n", "200",
         "--reps", "30", "--seed", "3"],
        ["analyze", "--data", str(data), "--response", "y", "--focus", "x1",
         "--adjust", ",".join(f"x{j}" for j in range(2, 11))],
        ["analyze", "--data", str(data), "--response", "y", "--focus", "x1",
         "--hierarchy"],
    ]
    src = str(Path(impactreg.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src,
                                               os.environ.get("PYTHONPATH")]))
    for command in commands:
        reports = [
            subprocess.run([sys.executable, "-m", "impactreg.cli", *command],
                           capture_output=True, check=True, timeout=120,
                           env=dict(os.environ, PYTHONPATH=pythonpath,
                                    OPENBLAS_NUM_THREADS=threads)).stdout
            for threads in ("1", "2")]
        assert reports[0] == reports[1], command[0]
        assert b'"report_type"' in reports[0]
