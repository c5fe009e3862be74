import numpy as np
import pytest

from impactreg import (backend, fit_ols, coefficient_test, residualize,
                       sandwich_covariance)
from impactreg.dataset import Dataset
from impactreg.errors import (DimensionMismatch, NonFinite, RankDeficient,
                              UnknownColumn, ZeroStdError)


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

    def test_recompute_matches_fit(self):
        rng = np.random.default_rng(6)
        X = np.column_stack([np.ones(60), rng.standard_normal((60, 2))])
        y = rng.standard_normal(60)
        fit = fit_ols(y, X)
        np.testing.assert_allclose(sandwich_covariance(fit, X, "HC0"),
                                   fit.sandwich_cov, rtol=1e-12)

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
        coef, resid, xtx_inv, classical, cov, rank, _ = backend.ols_sandwich(
            X, y, 1e-10, hc1)
        ref_coef, ref_resid, ref_bread, ref_cov = self.reference(X, y, hc1)
        assert rank == X.shape[1]
        np.testing.assert_allclose(coef, ref_coef, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(resid, ref_resid, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(xtx_inv, ref_bread, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(cov, ref_cov, rtol=1e-10, atol=1e-14)
        dof = X.shape[0] - X.shape[1]
        np.testing.assert_allclose(classical, ref_bread * (resid @ resid) / dof,
                                   rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("hc1", [False, True])
    def test_column_scaled_by_1e8(self, hc1):
        # rescaling a column must keep the rank full and be undone exactly
        # by rescaling its coefficient and covariance rows
        X, y = self.random_problem(1)
        scale = np.ones(X.shape[1])
        scale[2] = 1e8
        coef, _, xtx_inv, _, cov, rank, _ = backend.ols_sandwich(
            X * scale, y, 1e-10, hc1)
        ref_coef, _, ref_bread, ref_cov = self.reference(X, y, hc1)
        assert rank == X.shape[1]
        np.testing.assert_allclose(coef * scale, ref_coef, rtol=1e-10)
        outer = np.outer(scale, scale)
        np.testing.assert_allclose(xtx_inv * outer, ref_bread, rtol=1e-10,
                                   atol=1e-14)
        np.testing.assert_allclose(cov * outer, ref_cov, rtol=1e-10,
                                   atol=1e-14)

    def test_near_collinear_design(self):
        # cond(X) ~ 2e6, so the explicit inverse of X'X is itself off by
        # ~cond(X)^2 * eps; the reference uses the pseudo-inverse instead,
        # (X'X)^-1 X' = pinv(X).  The kernel's sandwich multiplies the
        # bread out explicitly and carries the same cond(X)^2 * eps error.
        rng = np.random.default_rng(3)
        n = 200
        x1 = rng.standard_normal(n)
        x2 = x1 + 1e-6 * rng.standard_normal(n)
        X = np.column_stack([np.ones(n), x1, x2, rng.standard_normal(n)])
        y = x1 + x2 + np.exp(x1) * rng.standard_normal(n)
        coef, resid, xtx_inv, _, cov, rank, _ = backend.ols_sandwich(
            X, y, 1e-10, False)
        assert rank == X.shape[1]
        ref_coef = np.linalg.lstsq(X, y, rcond=None)[0]
        pinv = np.linalg.pinv(X)
        np.testing.assert_allclose(coef, ref_coef, rtol=1e-8)
        np.testing.assert_allclose(resid, y - X @ ref_coef, atol=1e-8)
        ref_bread = pinv @ pinv.T
        np.testing.assert_allclose(xtx_inv, ref_bread,
                                   atol=1e-10 * np.abs(ref_bread).max())
        ref_cov = pinv @ np.diag(resid ** 2) @ pinv.T
        bound = 10 * np.linalg.cond(X) ** 2 * np.finfo(float).eps
        assert np.abs(cov - ref_cov).max() <= bound * np.abs(ref_cov).max()

    def test_rank_deficient(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(30)
        X = np.column_stack([np.ones(30), x, 2 * x - 1])
        y = x + rng.standard_normal(30)
        *matrices, rank, piv = backend.ols_sandwich(X, y, 1e-10, False)
        assert all(m is None for m in matrices)
        assert rank == 2
        # piv[rank] lies in the span of the columns kept before it
        kept = X[:, piv[:rank]]
        dependent = X[:, piv[rank]]
        fitted = kept @ np.linalg.lstsq(kept, dependent, rcond=None)[0]
        np.testing.assert_allclose(fitted, dependent, atol=1e-10)
