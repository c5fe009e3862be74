import math

import numpy as np
import pytest

from impactreg import (DiscreteJoint, confounding_example_value,
                       constrained_sup_check, exact_linear_impact,
                       exact_mean_impact, exact_partial_linear_impact,
                       exact_partial_mean_impact, population_params,
                       population_theta, quadratic_slope_closed_form)
from impactreg.oracle import _conditional_mean_y, exact_mod
from impactreg.errors import (DegenerateCovariate, DimensionMismatch,
                              InvalidConfig, OutOfRange, SingularMoments)


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
