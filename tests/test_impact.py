import numpy as np
import pytest

from impactreg import (linear_mean_impact, linear_mean_slope, mod_r2,
                       partial_linear_mean_impact, partial_linear_mean_slope)
from impactreg.dataset import Dataset
from impactreg import impact
from impactreg.errors import (DegenerateCovariate, DimensionMismatch,
                              InvariantViolation)
from impactreg.impact import cov_n, sd_n


class TestLinearImpact:
    def test_perfect_line(self):
        x = np.array([0., 1., 2.])
        est = linear_mean_impact(x.copy(), x)
        # |Cov| / SD = Var / SD = SD = sqrt(2/3)
        assert est.value == pytest.approx(np.sqrt(2 / 3), rel=1e-12)
        assert est.test is None  # exact fit degenerates the robust test

    def test_symmetric_quadratic_has_zero_linear_impact(self):
        x = np.array([-1., 0., 1.])
        est = linear_mean_impact(x ** 2, x)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_impact_equals_abs_slope_times_sd(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(200)
        y = rng.standard_normal(200) + 0.7 * x
        imp = linear_mean_impact(y, x)
        slope = linear_mean_slope(y, x, signed=True)
        assert imp.value == pytest.approx(abs(slope.value) * sd_n(x),
                                          rel=1e-12)
        assert slope.test.p_value == imp.test.p_value

    def test_scale_invariance_in_x_equivariance_in_y(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100)
        y = rng.standard_normal(100) + x
        base = linear_mean_impact(y, x).value
        assert linear_mean_impact(y, 3 * x - 2).value == pytest.approx(
            base, rel=1e-10)
        assert linear_mean_impact(5 * y, x).value == pytest.approx(
            5 * base, rel=1e-10)
        assert linear_mean_impact(-y, x).value == pytest.approx(
            base, rel=1e-10)

    def test_impact_bounded_by_sd_y(self):
        rng = np.random.default_rng(2)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(50)
            y = rng.standard_normal(50)
            assert linear_mean_impact(y, x).value <= sd_n(y) + 1e-12

    def test_degenerate_covariate(self):
        with pytest.raises(DegenerateCovariate):
            linear_mean_impact(np.array([1., 2., 3.]), np.full(3, 4.0))

    def test_constant_focus_with_inexact_mean_is_degenerate(self):
        # the mean of 97 copies of 0.1 does not round exactly; the
        # constant column is caught whatever its sd_n rounds to
        y = np.random.default_rng(0).standard_normal(97)
        with pytest.raises(DegenerateCovariate):
            linear_mean_impact(y, np.full(97, 0.1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linear_mean_impact(np.ones(3), np.ones(4))


class TestPartialImpact:
    @staticmethod
    def random_data(seed, n=150):
        rng = np.random.default_rng(seed)
        x2 = rng.standard_normal(n)
        x3 = rng.standard_normal(n)
        x1 = 0.6 * x2 + rng.standard_normal(n)
        y = x1 + x2 ** 2 + x3 + rng.standard_normal(n)
        return Dataset(("y", "x1", "x2", "x3"),
                       np.column_stack([y, x1, x2, x3]))

    @pytest.mark.parametrize("seed", range(5))
    def test_identity_with_multiple_regression(self, seed):
        data = self.random_data(seed)
        imp = partial_linear_mean_impact("y", "x1", ["x2", "x3"], data)
        slope = partial_linear_mean_slope("y", "x1", ["x2", "x3"], data,
                                          signed=True)
        from impactreg import residualize
        x_res = residualize("x1", ["x2", "x3"], data)
        assert imp.value == pytest.approx(abs(slope.value) * sd_n(x_res),
                                          rel=1e-10)
        # and the test is the focus-coefficient test of the full model
        assert imp.test.p_value == slope.test.p_value

    def test_empty_adjustment_reduces_to_bivariate(self):
        data = self.random_data(7)
        imp = partial_linear_mean_impact("y", "x1", [], data)
        biv = linear_mean_impact(data.column("y"), data.column("x1"))
        assert imp.value == pytest.approx(biv.value, rel=1e-10)

    def test_adjusting_for_confounder_moves_estimate(self):
        data = self.random_data(8)
        raw = partial_linear_mean_impact("y", "x1", [], data).value
        adj = partial_linear_mean_impact("y", "x1", ["x2"], data).value
        assert raw != pytest.approx(adj, rel=1e-3)

    def test_metadata_round_trip(self):
        data = self.random_data(9)
        imp = partial_linear_mean_impact("y", "x1", ["x2"], data)
        d = imp.as_dict()
        assert d["kind"] == "partial_linear_impact"
        assert d["adjusted_for"] == ["x2"]
        assert 0.0 <= d["test"]["p_value"] <= 1.0


    def test_route_disagreement_raises_typed_error(self, monkeypatch):
        # a wrong residual breaks the Frisch-Waugh cross-check; the check
        # is code, not an assert, so it also holds under python -O
        data = self.random_data(10)
        residualize = impact.residualize
        monkeypatch.setattr(
            impact, "residualize",
            lambda *args: 2.0 * residualize(*args) + 0.1 * data.column("x3"))
        with pytest.raises(InvariantViolation):
            partial_linear_mean_impact("y", "x1", ["x2"], data)


class TestMod:
    def test_perfect_correlation(self):
        x = np.array([0., 1., 2., 3.])
        est = mod_r2(2 * x + 1, x)
        assert est.value == pytest.approx(1.0, rel=1e-12)

    def test_zero_for_orthogonal(self):
        x = np.array([-1., 0., 1.])
        assert mod_r2(x ** 2, x).value == pytest.approx(0.0, abs=1e-12)

    def test_in_unit_interval(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(30)
            y = rng.standard_normal(30)
            assert 0.0 <= mod_r2(y, x).value <= 1.0

    def test_equals_impact_squared_over_var(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(80)
        y = 0.4 * x + rng.standard_normal(80)
        expected = (linear_mean_impact(y, x).value / sd_n(y)) ** 2
        assert mod_r2(y, x).value == pytest.approx(expected, rel=1e-10)


class TestMoments:
    def test_cov_sd_match_numpy(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(64)
        b = rng.standard_normal(64)
        assert cov_n(a, b) == pytest.approx(np.cov(a, b, bias=True)[0, 1],
                                            rel=1e-10)
        assert sd_n(a) == pytest.approx(a.std(), rel=1e-12)

    def test_moments_of_data_far_from_zero(self):
        # the one-pass E[a^2] - E[a]^2 read sd_n 1.5% high here
        rng = np.random.default_rng(5)
        a = 1e4 + 1e-3 * rng.standard_normal(1000)
        b = -3e3 + 1e-3 * rng.standard_normal(1000)
        assert sd_n(a) == pytest.approx(np.std(a), rel=1e-12)
        assert cov_n(a, b) == pytest.approx(np.cov(a, b, bias=True)[0, 1],
                                            rel=1e-12)
