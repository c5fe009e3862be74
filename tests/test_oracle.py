import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from impactreg import (Dataset, DiscreteJoint, confounding_example_value,
                       constrained_sup_check, exact_linear_impact,
                       exact_mean_impact, exact_partial_linear_impact,
                       exact_partial_mean_impact, fit_ols,
                       linear_mean_impact, partial_linear_mean_impact,
                       population_params, population_theta,
                       quadratic_slope_closed_form)
from impactreg.oracle import _conditional_mean_y, exact_mod
from impactreg.errors import (DegenerateCovariate, DimensionMismatch,
                              EmptySupport, InvalidConfig, OutOfRange,
                              SingularMoments)

from conftest import shifted_support

EPS = np.finfo(float).eps


def uniform_joint(pairs):
    support = np.array(pairs, dtype=float)
    probs = np.full(len(pairs), 1.0 / len(pairs))
    return DiscreteJoint(support, probs)


def random_joint(seed, s=None, m=None):
    rng = np.random.default_rng(seed)
    s = s or int(rng.integers(3, 13))
    m = m or int(rng.integers(1, 4))
    while True:
        support = np.round(rng.standard_normal((s, m + 1)), 6)
        if len({tuple(r) for r in support}) == s:
            break
    probs = rng.dirichlet(np.ones(s))
    probs = probs / probs.sum()
    return DiscreteJoint(support, probs)


class TestExactImpacts:
    def test_pure_quadratic_gap(self):
        # X uniform on {-1,0,1}, Y = X^2: nonlinear association only
        joint = uniform_joint([(1, -1), (0, 0), (1, 1)])
        assert exact_mean_impact(joint) == pytest.approx(math.sqrt(2 / 9),
                                                         rel=1e-12)
        assert exact_linear_impact(joint) == pytest.approx(0.0, abs=1e-12)

    def test_linear_case_no_gap(self):
        joint = uniform_joint([(-2, -1), (0, 0), (2, 1)])
        sd_x = math.sqrt(2 / 3)
        assert exact_mean_impact(joint) == pytest.approx(2 * sd_x, rel=1e-12)
        assert exact_linear_impact(joint) == pytest.approx(2 * sd_x,
                                                           rel=1e-12)
        assert exact_mod(joint) == pytest.approx(1.0, rel=1e-12)

    def test_independent_case_zero(self):
        # Y independent of X
        joint = uniform_joint([(0, -1), (1, -1), (0, 1), (1, 1)])
        assert exact_mean_impact(joint) == pytest.approx(0.0, abs=1e-12)
        assert exact_linear_impact(joint) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_linear_below_mean_impact_below_sd(self, seed):
        joint = random_joint(seed)
        iota = exact_mean_impact(joint)
        mu = float(np.dot(joint.probs, joint.y))
        sd_y = math.sqrt(float(np.dot(joint.probs, (joint.y - mu) ** 2)))
        tol = 1e-10 * max(1.0, sd_y)
        for k in range(joint.m):
            assert exact_linear_impact(joint, k) <= iota + tol
        assert iota <= sd_y + tol
        assert 0.0 <= exact_mod(joint) <= 1.0 + 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_partial_orderings(self, seed):
        joint = random_joint(seed + 100, m=2)
        for k in range(joint.m):
            try:
                plin = exact_partial_linear_impact(joint, k)
                pmean = exact_partial_mean_impact(joint, k)
            except (DegenerateCovariate, SingularMoments):
                continue
            assert plin <= pmean + 1e-8

    def test_partial_reduces_to_linear_when_single_covariate(self):
        joint = random_joint(7, m=1)
        assert exact_partial_linear_impact(joint, 0) == pytest.approx(
            exact_linear_impact(joint, 0), rel=1e-10)

    @pytest.mark.parametrize("slope, shift", [(3.0, 0.1), (0.7, 0.0)])
    def test_covariate_determined_by_the_others(self, slope, shift):
        # X_2 = a X_1 + b: each residual is rounding noise (1.5e-15 against
        # SD(X_1) = 1.41), which used to return 0.698 and 0.650
        rng = np.random.default_rng(1)
        x1 = rng.integers(0, 5, 12) + rng.random(12)
        y = rng.standard_normal(12)
        joint = DiscreteJoint(np.column_stack([y, x1, slope * x1 + shift]),
                              np.full(12, 1 / 12))
        for k in range(2):
            with pytest.raises(DegenerateCovariate, match="determined"):
                exact_partial_linear_impact(joint, k)
        # a non-linear function of X_2 survives the projection on it
        assert exact_partial_mean_impact(joint, 0) == pytest.approx(
            0.7637107609159787, rel=1e-12)

    @pytest.mark.parametrize("value, n", [(0.1, 10), (0.3, 7), (7.7, 7)])
    def test_constant_column_is_degenerate(self, value, n):
        # the mean of ten 0.1s does not round to 0.1, so a constant's SD
        # is rounding noise; tested against 0, it gave 4.0, 2.0 and 4.0
        varied, constant = np.arange(n), np.full(n, value)
        joint = DiscreteJoint(np.column_stack([varied, constant]),
                              np.full(n, 1 / n))
        with pytest.raises(DegenerateCovariate, match="covariate 0"):
            exact_linear_impact(joint, 0)
        with pytest.raises(SingularMoments):
            population_params(joint)
        # beside a second covariate, its partial linear impact was 0.17
        noise = np.random.default_rng(1).standard_normal(n)
        joint = DiscreteJoint(np.column_stack([varied, constant, noise]),
                              np.full(n, 1 / n))
        with pytest.raises(DegenerateCovariate, match="covariate 0"):
            exact_partial_linear_impact(joint, 0)
        joint = DiscreteJoint(np.column_stack([constant, varied]),
                              np.full(n, 1 / n))
        with pytest.raises(DegenerateCovariate, match="response"):
            exact_mod(joint)

    def test_covariance_of_a_shifted_response(self):
        # Y at 1e8 and X at 5: a one-pass E[YX] - E[Y]E[X] lost 4e-7
        rng = np.random.default_rng(18)
        x = 5.0 + rng.standard_normal(200)
        y = 1e8 + x + rng.standard_normal(200)
        joint = DiscreteJoint(np.column_stack([y, x]), np.full(200, 1 / 200))
        assert exact_linear_impact(joint, 0) == pytest.approx(
            exact_reference(joint)[1][0], rel=1e-14)

    @pytest.mark.parametrize("function", [
        exact_linear_impact, exact_partial_linear_impact,
        exact_partial_mean_impact])
    def test_covariate_index_is_checked(self, function):
        joint = random_joint(5, m=3)
        for k in (-1, 3, 5, -4):
            with pytest.raises(OutOfRange, match="covariate index"):
                function(joint, k)
        for k in (1.0, True, "1", None, np.float64(1.0)):
            with pytest.raises(InvalidConfig, match="covariate index"):
                function(joint, k)
        # any integer type names a covariate
        assert function(joint, np.int64(2)) == function(joint, 2)

    def test_conditioning_indices_are_checked(self):
        joint = random_joint(5, m=3)
        for cols in ([-1], [0, 3]):
            with pytest.raises(OutOfRange, match="covariate index"):
                exact_mean_impact(joint, cols)
        with pytest.raises(InvalidConfig, match="covariate index"):
            exact_mean_impact(joint, [1.0])
        assert exact_mean_impact(joint, (np.int64(2), 0)) == \
            exact_mean_impact(joint, [2, 0])

    def test_collinear_others_are_singular(self):
        # X_3 = 2 X_2: X_1's partial mean impact, like its partial linear
        # one, has no projection to take (it used to return a min-norm
        # number)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((12, 2))
        y = x[:, 0] ** 2 + rng.standard_normal(12)
        joint = DiscreteJoint(np.column_stack([y, x, 2 * x[:, 1]]),
                              np.full(12, 1 / 12))
        for function in (exact_partial_mean_impact,
                         exact_partial_linear_impact):
            with pytest.raises(SingularMoments):
                function(joint, 0)

    def test_no_conditioning_covariate_is_zero_impact(self):
        assert exact_mean_impact(random_joint(3), []) == 0.0

    def test_degenerate_response(self):
        joint = uniform_joint([(2, -1), (2, 0), (2, 1)])
        with pytest.raises(DegenerateCovariate, match="response"):
            exact_mod(joint)


def dict_grouping(joint, cols):
    """``_conditional_mean_y`` by a dict of atom tuples, group by group."""
    keys = [tuple(row) for row in joint.x[:, cols]]
    totals: dict = {}
    for key, p, y in zip(keys, joint.probs, joint.y):
        w, wy = totals.get(key, (0.0, 0.0))
        totals[key] = (w + p, wy + p * y)
    means = {k: (wy / w if w > 0 else 0.0) for k, (w, wy) in totals.items()}
    return (np.array([means[k] for k in keys]),
            np.array([w for w, _ in totals.values()]),
            np.array(list(means.values())),
            np.array(list(totals), dtype=float).reshape(len(totals), -1))


class TestGrouping:
    @staticmethod
    def assert_same_bits(got, want):
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_dict_grouping(self, seed):
        # few distinct covariate values, so that groups hold many atoms
        rng = np.random.default_rng(seed)
        s, m = int(rng.integers(2, 400)), int(rng.integers(1, 4))
        x = rng.integers(-2, 3, size=(s, m)) * rng.choice([0.1, 1.0, 7.0])
        support = np.column_stack([np.arange(s) * 0.5 + rng.random(), x])
        probs = rng.dirichlet(np.full(s, 0.3))
        probs[rng.random(s) < 0.1] = 0.0  # zero-weight atoms and groups
        probs /= probs.sum()
        joint = DiscreteJoint(support, probs)
        for cols in ([0], list(range(m)), list(range(m))[::-1]):
            self.assert_same_bits(_conditional_mean_y(joint, cols),
                                  dict_grouping(joint, cols))

    def test_signed_zeros_fall_in_one_group(self):
        # -0.0 == 0.0, so the dict puts them in one group, keyed by the
        # first atom's value
        support = [[1.0, -0.0, 1.0], [2.0, 0.0, 1.0], [3.0, 0.0, 2.0],
                   [4.0, -0.0, 2.0], [5.0, 1.0, 1.0]]
        joint = DiscreteJoint(np.array(support),
                              np.array([0.1, 0.2, 0.3, 0.15, 0.25]))
        got = _conditional_mean_y(joint, [0, 1])
        self.assert_same_bits(got, dict_grouping(joint, [0, 1]))
        assert got[1].shape == (3,)
        assert math.copysign(1.0, got[3][0, 0]) == -1.0
        self.assert_same_bits(_conditional_mean_y(joint, [0]),
                              dict_grouping(joint, [0]))


class TestPopulationTheta:
    def test_exact_line(self):
        joint = uniform_joint([(3, 1), (5, 2), (7, 3)])  # y = 1 + 2x
        np.testing.assert_allclose(population_theta(joint), [1.0, 2.0],
                                   atol=1e-12)

    def test_quadratic_on_symmetric_support(self):
        joint = uniform_joint([(1, -1), (0, 0), (1, 1)])
        np.testing.assert_allclose(population_theta(joint), [2 / 3, 0.0],
                                   atol=1e-12)

    def test_singular_moments(self):
        # duplicated covariate column
        joint = uniform_joint([(0, 1, 2), (1, 2, 4), (2, 3, 6)])
        with pytest.raises(SingularMoments):
            population_theta(joint)

    @pytest.mark.parametrize("seed", range(10))
    def test_theta_minimizes_weighted_squared_error(self, seed):
        joint = random_joint(seed + 200)
        theta = population_theta(joint)
        xbar = np.column_stack([np.ones(joint.support.shape[0]), joint.x])

        def loss(b):
            return float(np.dot(joint.probs, (joint.y - xbar @ b) ** 2))

        base = loss(theta)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            assert loss(theta + 1e-3 * rng.standard_normal(len(theta))) \
                >= base - 1e-12


def grid_ratios(joint, n_cap=10 ** 6):
    """``(ratios, iota)``: the ratio at n = 1, ..., N that the oracle's
    former scan evaluated, one Python pass per n (None where SD(delta_n)
    is 0), and the mean impact; ``ratios`` is None when iota is 0 up to
    rounding, by the oracle's zero test, relative to the largest |E(Y|X)|."""
    _, w, h, _ = _conditional_mean_y(joint, list(range(joint.m)))
    ey = float(np.dot(w, h))
    dhat = h - ey
    iota = math.sqrt(max(float(np.dot(w, dhat ** 2)), 0.0))
    if iota <= 1e-15 * float(np.abs(h).max()):
        return None, 0.0
    d_plus = np.maximum(dhat, 0.0)
    d_minus = np.maximum(-dhat, 0.0)
    e_plus = float(np.dot(w, d_plus))
    n_max = min(n_cap, max(int(math.ceil(d_minus.max())), 1))
    ratios = []
    for n in range(1, n_max + 1):
        capped = np.minimum(d_minus, float(n))
        eta = float(np.dot(w, capped)) / e_plus if e_plus > 0 else 1.0
        delta = (eta * d_plus - capped) / n
        assert np.all(delta >= -1.0 - 1e-12)
        sd = math.sqrt(max(float(np.dot(w, delta ** 2))
                           - float(np.dot(w, delta)) ** 2, 0.0))
        ratios.append(float(np.dot(w, h * delta)) / sd if sd > 0.0
                      else None)
    return ratios, iota


def _scan_sup(joint, n_cap=10 ** 6):
    """The sup over the whole grid: the reference for the one ratio."""
    ratios, iota = grid_ratios(joint, n_cap)
    if ratios is None:
        return 0.0, 0.0
    return max((r for r in ratios if r is not None), default=0.0), iota


def scaled_joint(seed, scale):
    """A random joint with Y in units of ``scale``: some with tied
    covariates, some with a zero-probability atom."""
    rng = np.random.default_rng(seed)
    s, m = int(rng.integers(2, 13)), int(rng.integers(1, 4))
    if seed % 3 == 0:
        x = rng.integers(-1, 2, size=(s, m)).astype(float)
    else:
        x = rng.standard_normal((s, m))
    support = np.column_stack([scale * rng.standard_normal(s), x])
    probs = rng.dirichlet(np.ones(s))
    if seed % 4 == 0:
        probs[rng.integers(s)] = 0.0
    return DiscreteJoint(support, probs / probs.sum())


def ulps(joint, iota):
    """4 ulps of the ratio's scale: E[Y delta_n] adds E(Y) E[delta_n],
    whose rounding grows with |E(Y)|."""
    return 4 * EPS * (iota + abs(float(np.dot(joint.probs, joint.y))))


def last_n(joint):
    """N = max(ceil(max dhat_minus), 1), the scan's last n uncapped."""
    h = _conditional_mean_y(joint, list(range(joint.m)))[0]
    d_minus = np.maximum(float(np.dot(joint.probs, h)) - h, 0.0)
    return max(int(math.ceil(d_minus.max())), 1)


class TestConstrainedSup:
    def test_three_point_bounded_reaches_iota(self):
        # bounded deviations: the truncation stops binding at finite n and
        # the ratio attains the mean impact exactly
        joint = uniform_joint([(1, -1), (0, 0), (1, 1)])
        sup, iota = constrained_sup_check(joint)
        assert iota == pytest.approx(math.sqrt(2 / 9), rel=1e-10)
        assert sup == pytest.approx(iota, rel=1e-10)
        assert sup <= iota + 1e-12

    def test_independent_returns_zero(self):
        joint = uniform_joint([(0, -1), (1, -1), (0, 1), (1, 1)])
        sup, iota = constrained_sup_check(joint)
        assert sup == 0.0 and iota == 0.0

    @pytest.mark.parametrize("scale", [1, 30, 1e5, 1e-30])
    def test_zero_impact_is_zero_in_any_units(self, scale):
        # one covariate group whose weights sum to 1 - 1.1e-16: E(Y|X) is
        # E(Y), and iota is one ulp of E(Y), 7.3e-12 at Y x 1e5
        joint = scaled_joint(147, scale)
        assert len(np.unique(joint.x, axis=0)) == 1
        assert constrained_sup_check(joint) == (0.0, 0.0)

    def test_small_units_keep_a_positive_impact(self):
        # Y in units of 1e-20: a mean impact of 1e-21 is no rounding
        joint = uniform_joint([(1e-20, -1), (0.8e-20, 1)])
        sup, iota = constrained_sup_check(joint)
        assert iota == pytest.approx(1e-21, rel=1e-12, abs=0.0)
        assert sup == pytest.approx(iota, rel=1e-10, abs=0.0)

    def test_bounded_response_attains_impact(self):
        # small disturbances: truncation never binds, ratio equals iota
        joint = uniform_joint([(-0.1, -1), (0.1, 1)])
        sup, iota = constrained_sup_check(joint)
        assert sup == pytest.approx(iota, rel=1e-10)

    @pytest.mark.parametrize("seed", range(50))
    def test_sup_within_tolerance_of_impact(self, seed):
        joint = random_joint(seed + 300)
        sup, iota = constrained_sup_check(joint, n_cap=10 ** 6)
        assert sup <= iota + 1e-12
        if iota > 1e-8:
            assert sup >= iota - 1e-3 * max(1.0, iota)

    def test_n_cap_validation(self):
        joint = uniform_joint([(0, 0), (1, 1)])
        with pytest.raises(OutOfRange):
            constrained_sup_check(joint, n_cap=0)

    @pytest.mark.parametrize("scale", [1, 30, 300])
    def test_one_ratio_is_the_scan_sup(self, scale):
        # 1,002 joints over the three scales
        for seed in range(334):
            joint = scaled_joint(seed, scale)
            sup, iota = constrained_sup_check(joint)
            want, want_iota = _scan_sup(joint)
            assert iota == want_iota
            assert abs(sup - want) <= ulps(joint, iota)

    @pytest.mark.parametrize("scale", [1, 30, 300])
    def test_binding_cap_is_the_scan_sup_to_the_cap(self, scale):
        checked = 0
        for seed in range(200):
            joint = scaled_joint(seed, scale)
            n_cap = last_n(joint) // 2
            if n_cap < 1:
                continue
            sup, iota = constrained_sup_check(joint, n_cap=n_cap)
            want, _ = _scan_sup(joint, n_cap=n_cap)
            assert abs(sup - want) <= ulps(joint, iota)
            assert sup <= iota + ulps(joint, iota)
            checked += 1
        assert checked >= 50

    @pytest.mark.parametrize("scale", [1, 30, 300])
    def test_ratio_never_decreases_on_the_integer_grid(self, scale):
        for seed in range(100):
            joint = scaled_joint(seed, scale)
            ratios, iota = grid_ratios(joint)
            if ratios is None:
                continue
            ratios = [r for r in ratios if r is not None]
            for before, after in zip(ratios, ratios[1:]):
                assert after >= before - ulps(joint, iota)

    def test_cost_does_not_grow_with_the_units_of_y(self):
        # 200 atoms with Y in units of 1e5: the grid runs to n ~ 3e5,
        # which a scan over n took seconds to walk
        rng = np.random.default_rng(7)
        support = rng.standard_normal((200, 3))
        support[:, 0] *= 1e5
        joint = DiscreteJoint(support, rng.dirichlet(np.ones(200)))
        assert last_n(joint) > 10 ** 5
        start = time.perf_counter()
        sup, iota = constrained_sup_check(joint)
        assert time.perf_counter() - start < 0.5
        assert abs(sup - iota) <= ulps(joint, iota)


class TestClosedForms:
    def test_quadratic_slope_symmetric(self):
        # symmetric X: slope of linear approx to c1 x + c2 x^2 is c1 + 2 c2 EX
        m = {"EX": 0.0, "VarX": 1.0, "central3": 0.0}
        assert quadratic_slope_closed_form(1.0, 1.0, m) == pytest.approx(1.0)
        m = {"EX": 2.0, "VarX": 1.0, "central3": 0.0}
        assert quadratic_slope_closed_form(1.0, 1.0, m) == pytest.approx(5.0)

    def test_quadratic_slope_skewed(self):
        # exponential(rate=1): EX=1, VarX=1, central3=2 -> extra skew term
        m = {"EX": 1.0, "VarX": 1.0, "central3": 2.0}
        assert quadratic_slope_closed_form(0.0, 1.0, m) == pytest.approx(4.0)

    def test_quadratic_slope_degenerate(self):
        with pytest.raises(DegenerateCovariate):
            quadratic_slope_closed_form(1.0, 1.0,
                                        {"EX": 0.0, "VarX": 0.0,
                                         "central3": 0.0})

    def test_confounding_value_boundary_and_interior(self):
        r0 = math.sqrt(0.5)
        assert confounding_example_value(r0) == pytest.approx(0.0, abs=1e-12)
        v = confounding_example_value(0.9)
        s = math.sqrt(1 - 0.81)
        assert v == pytest.approx(2 * 0.9 * s * (0.9 - s), rel=1e-12)
        assert v == pytest.approx(0.364142, abs=1e-6)
        # positive on the open interior, shrinking to 0 near rho -> 1
        assert confounding_example_value(0.8) > 0.0
        assert confounding_example_value(0.999999) < 1e-2

    def test_confounding_value_out_of_range(self):
        for rho in (0.5, 1.0, -0.9):
            with pytest.raises(OutOfRange):
                confounding_example_value(rho)


class TestJointValidation:
    def test_bad_shapes(self):
        with pytest.raises(DimensionMismatch):
            DiscreteJoint(np.ones((3,)), np.ones(3) / 3)
        with pytest.raises(DimensionMismatch):
            DiscreteJoint(np.ones((3, 2)), np.ones(4) / 4)

    def test_bad_probs(self):
        support = np.array([[0., 0.], [1., 1.]])
        with pytest.raises(ValueError):
            DiscreteJoint(support, np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            DiscreteJoint(support, np.array([-0.5, 1.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values(self, bad):
        support = np.array([[0., 0.], [1., 1.], [2., 0.]])
        probs = np.full(3, 1 / 3)
        with pytest.raises(InvalidConfig, match="finite"):
            DiscreteJoint(support, np.array([bad, 0.5, 0.5]))
        support[1, 1] = bad
        with pytest.raises(InvalidConfig, match="finite"):
            DiscreteJoint(support, probs)

    def test_empty_support(self):
        with pytest.raises(EmptySupport):
            DiscreteJoint(np.empty((0, 2)), np.empty(0))

    def test_duplicate_atoms(self):
        support = np.array([[0., 0.], [0., 0.]])
        with pytest.raises(ValueError):
            DiscreteJoint(support, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("seed", range(30))
    def test_duplicates_are_those_of_a_tuple_set(self, seed):
        # the reference is the set of Python tuples the check once built:
        # rows equal under ==, so -0.0 and 0.0 are one atom
        rng = np.random.default_rng(seed)
        s, m = int(rng.integers(1, 60)), int(rng.integers(1, 4))
        support = rng.integers(-1, 2, size=(s, m + 1)) * 0.5
        support[rng.random((s, m + 1)) < 0.2] *= -1.0  # signed zeros
        if seed % 3 == 0:
            support[:, 0] = np.arange(s)  # distinct, unless s == 1
        probs = np.full(s, 1.0 / s)
        if len({tuple(row) for row in support}) == s:
            DiscreteJoint(support, probs)
        else:
            with pytest.raises(InvalidConfig, match="distinct"):
                DiscreteJoint(support, probs)

    def test_signed_zero_atoms_are_duplicates(self):
        support = np.array([[1.0, -0.0], [2.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidConfig, match="distinct"):
            DiscreteJoint(support, np.full(3, 1 / 3))


class TestPopulationParams:
    def test_bundle_consistency(self):
        joint = random_joint(42, m=2)
        params = population_params(joint)
        assert params.mean_impact == pytest.approx(exact_mean_impact(joint),
                                                   rel=1e-12)
        assert params.mod == pytest.approx(exact_mod(joint), rel=1e-12)
        np.testing.assert_allclose(params.theta, population_theta(joint),
                                   atol=1e-12)
        for k in range(joint.m):
            assert params.linear_impact[k] == pytest.approx(
                exact_linear_impact(joint, k), rel=1e-12)


def _solve(a, b):
    """x with a x = b, by Gauss-Jordan elimination in exact arithmetic."""
    rows = [row + [rhs] for row, rhs in zip(a, b)]
    n = len(rows)
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [u - f * v for u, v in zip(rows[r], rows[c])]
    return [rows[r][n] / rows[r][r] for r in range(n)]


def _exact_fit(w, cols, target):
    """``(beta, resid)`` of ``target`` on ``[1, cols]`` under the weights
    ``w``, by the weighted normal equations solved exactly."""
    design = [[Fraction(1)] * len(w)] + cols
    moments = [[sum(p * u * v for p, u, v in zip(w, a, b)) for b in design]
               for a in design]
    beta = _solve(moments, [sum(p * u * t for p, u, t in zip(w, a, target))
                            for a in design])
    resid = [t - sum(b * col[i] for b, col in zip(beta, design))
             for i, t in enumerate(target)]
    return beta, resid


def exact_reference(joint):
    """θ, and per covariate the linear, partial linear and partial mean
    impacts, in exact rational arithmetic on the joint's float atoms
    (one rounding each, at the square root).  The partial mean impact
    takes E(Y|X) = Y, so every atom's X must be distinct."""
    assert len(_conditional_mean_y(joint, list(range(joint.m)))[1]) == \
        len(joint.probs)
    w = [Fraction(p) for p in joint.probs]
    w = [p / sum(w) for p in w]
    y = [Fraction(v) for v in joint.y]
    cols = [[Fraction(v) for v in joint.x[:, k]] for k in range(joint.m)]
    theta = np.array([float(b) for b in _exact_fit(w, cols, y)[0]])
    ey = sum(p * v for p, v in zip(w, y))
    linear, partial_linear, partial_mean = [], [], []
    for k, xk in enumerate(cols):
        ex = sum(p * v for p, v in zip(w, xk))
        cov = sum(p * (u - ey) * (v - ex) for p, u, v in zip(w, y, xk))
        var = sum(p * (v - ex) ** 2 for p, v in zip(w, xk))
        linear.append(math.sqrt(cov * cov / var))
        others = cols[:k] + cols[k + 1:]
        _, r = _exact_fit(w, others, xk)
        eyr = sum(p * u * v for p, u, v in zip(w, y, r))
        partial_linear.append(
            math.sqrt(eyr * eyr / sum(p * v * v for p, v in zip(w, r))))
        _, ry = _exact_fit(w, others, y)
        partial_mean.append(math.sqrt(sum(p * v * v for p, v in zip(w, ry))))
    return theta, linear, partial_linear, partial_mean


def design_cond(joint):
    """cond of the sqrt(p)-weighted design [1, X], columns scaled to norm
    1: the condition number that the float atoms' rounding meets."""
    design = np.column_stack([np.ones(len(joint.probs)), joint.x])
    design *= np.sqrt(joint.probs)[:, None]
    return np.linalg.cond(design / np.linalg.norm(design, axis=0))


def rational_joints():
    """About 20 seeded joints of at most 100 atoms and 3 covariates:
    shifted, near-collinear and ordinary."""
    yield "shifted 1e4, 8 atoms", DiscreteJoint(shifted_support(),
                                                np.full(8, 1 / 8))
    for seed in range(4):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 101))
        z = rng.standard_normal((n, 3))
        x1 = 1000 + z[:, 0]
        support = np.round(np.column_stack([x1 + z[:, 1] + z[:, 2], x1,
                                            z[:, 1]]), 3)
        yield (f"shifted 1e3, seed {seed}",
               DiscreteJoint(support, rng.dirichlet(np.ones(n))))
    for eps in (1e-3, 1e-5, 1e-7):
        for seed in range(2):
            rng = np.random.default_rng(100 + seed)
            z = rng.standard_normal((100, 3))
            x1 = 1000 + z[:, 0]
            support = np.column_stack([x1 + z[:, 2], x1, x1 + eps * z[:, 1]])
            yield (f"x2 = x1 + {eps:g} N, seed {seed}",
                   DiscreteJoint(support, np.full(100, 1 / 100)))
    for seed in range(9):
        rng = np.random.default_rng(200 + seed)
        n, m = int(rng.integers(5, 101)), int(rng.integers(1, 4))
        support = rng.standard_normal((n, m + 1)) @ rng.uniform(
            -1.0, 1.0, (m + 1, m + 1))
        support = np.round(support * 2.0 ** rng.integers(-8, 9, m + 1)
                           + rng.uniform(-5.0, 5.0, m + 1), 3)
        yield f"random, seed {seed}", DiscreteJoint(
            support, rng.dirichlet(np.ones(n)))


RATIONAL_JOINTS = list(rational_joints())


class TestExactRationals:
    """The oracle within C cond(X) eps of the exact rational values, C =
    16, on shifted and near-collinear joints: the uncentred normal
    equations, which lose cond^2, miss that bound or find these designs
    singular."""

    C = 16

    @pytest.mark.parametrize("name, joint", RATIONAL_JOINTS,
                             ids=[name for name, _ in RATIONAL_JOINTS])
    def test_within_cond_eps_of_the_exact_values(self, name, joint):
        theta, linear, partial_linear, partial_mean = exact_reference(joint)
        bound = self.C * design_cond(joint) * EPS
        assert np.linalg.norm(population_theta(joint) - theta) <= \
            bound * np.linalg.norm(theta)
        # every impact is at most SD(Y)
        mu = float(np.dot(joint.probs, joint.y))
        scale = math.sqrt(float(np.dot(joint.probs, (joint.y - mu) ** 2)))
        for k in range(joint.m):
            assert abs(exact_linear_impact(joint, k) - linear[k]) <= \
                bound * scale
            if joint.m > 1:
                assert abs(exact_partial_linear_impact(joint, k)
                           - partial_linear[k]) <= bound * partial_linear[k]
                assert abs(exact_partial_mean_impact(joint, k)
                           - partial_mean[k]) <= bound * partial_mean[k]
        params = population_params(joint)
        assert params.partial_linear_impact == (
            {k: exact_partial_linear_impact(joint, k) for k in range(joint.m)}
            if joint.m > 1 else {})


@st.composite
def samples(draw, tied=False):
    """(y, X): n rows of m covariates and a continuous y.  Tied
    covariates take a few integer values; otherwise they are shifted,
    scaled and correlated normals."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(m + 3, 60))
    if tied:
        X = rng.integers(-1, 2, size=(n, m)).astype(float)
        X[:, 0] += X[:, 1:].sum(axis=1) * draw(st.sampled_from([0, 1]))
        y = np.tanh(X.sum(axis=1)) + X[:, 0] ** 2 + rng.standard_normal(n)
    else:
        X = rng.standard_normal((n, m)) @ rng.uniform(-1.0, 1.0, (m, m))
        X = X * rng.uniform(0.1, 10.0, m) + rng.uniform(-5.0, 5.0, m)
        y = X @ rng.standard_normal(m) + rng.standard_normal(n)
    return y, X


def sample_as_population(y, X):
    """The sample as its own population: each row an atom of weight 1/n."""
    n = len(y)
    return DiscreteJoint(np.column_stack([y, X]), np.full(n, 1.0 / n))


def sample_dataset(y, X):
    names = ("y",) + tuple(f"x{j}" for j in range(X.shape[1]))
    return Dataset(names, np.column_stack([y, X]))


def design_tolerance(X):
    """Both routes solve by orthogonal factorizations, which lose about
    cond(X) eps."""
    design = np.column_stack([np.ones(len(X)), X])
    cond = np.linalg.cond(design)
    assume(cond < 1e8)
    return 64 * EPS * cond


class TestSampleAsPopulation:
    """The oracle on ``DiscreteJoint(rows, 1/n)`` reproduces the sample
    estimators, by centred, scaled columns and one ``lstsq`` instead of
    the pivoted-QR kernel."""

    @given(samples())
    @settings(max_examples=100, deadline=None)
    def test_reproduces_the_sample_estimators(self, sample):
        y, X = sample
        tol = design_tolerance(X)
        joint = sample_as_population(y, X)
        scale = float(np.std(y))
        assert abs(exact_linear_impact(joint, 0)
                   - linear_mean_impact(y, X[:, 0]).value) <= tol * scale
        design = np.column_stack([np.ones(len(y)), X])
        coef = fit_ols(y, design).coefficients
        # the residual's share of the error, in the units of the coefficients
        spread = np.linalg.norm(y) / np.linalg.norm(design, 2)
        assert np.linalg.norm(population_theta(joint) - coef) <= tol * (
            np.linalg.norm(coef) + spread)
        if X.shape[1] > 1:
            data = sample_dataset(y, X)
            est = partial_linear_mean_impact("y", "x0",
                                             data.column_names[2:], data)
            assert abs(exact_partial_linear_impact(joint, 0)
                       - est.value) <= tol * scale

    @given(samples(tied=True))
    @settings(max_examples=100, deadline=None)
    def test_mean_impacts_bound_the_linear_ones(self, sample):
        # the paper's conservative bounds, with the sample as population
        y, X = sample
        tol = design_tolerance(X)
        joint = sample_as_population(y, X)
        assume(len(_conditional_mean_y(joint, list(range(joint.m)))[1])
               < len(y))  # ties, so that E(Y|X) is not Y itself
        scale = float(np.std(y))
        iota = exact_mean_impact(joint)
        for k in range(X.shape[1]):
            assert linear_mean_impact(y, X[:, k]).value <= iota + tol * scale
        if X.shape[1] > 1:
            data = sample_dataset(y, X)
            names = list(data.column_names[1:])
            for k, focus in enumerate(names):
                adjust = names[:k] + names[k + 1:]
                est = partial_linear_mean_impact("y", focus, adjust, data)
                assert est.value <= (exact_partial_mean_impact(joint, k)
                                     + tol * scale)
