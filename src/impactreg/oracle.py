"""Exact population association parameters on finite discrete joints.

Ground truth for the estimator tests: everything here is computed by
exact summation over the support (no sampling), plus the closed-form
special cases for the quadratic and exponential-confounding examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateCovariate, DimensionMismatch, EmptySupport,
                     InvariantViolation, OutOfRange, SingularMoments)


@dataclass(frozen=True)
class DiscreteJoint:
    """Finite-support joint distribution of (Y, X_1..X_m).

    ``support`` is an s-by-(m+1) array whose first column is y;
    ``probs`` are the atom probabilities.
    """

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if support.ndim != 2 or support.shape[1] < 2:
            raise DimensionMismatch("support must be s x (m+1) with m >= 1")
        if probs.shape != (support.shape[0],):
            raise DimensionMismatch("probs length does not match support")
        if support.shape[0] == 0:
            raise EmptySupport("empty support")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1")
        atoms = {tuple(row) for row in support}
        if len(atoms) != support.shape[0]:
            raise ValueError("support atoms must be distinct")
        support.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    @property
    def m(self) -> int:
        return self.support.shape[1] - 1

    @property
    def y(self) -> np.ndarray:
        return self.support[:, 0]

    @property
    def x(self) -> np.ndarray:
        return self.support[:, 1:]


@dataclass(frozen=True)
class PopulationParams:
    mean_impact: float
    linear_impact: dict
    partial_impact: dict
    partial_linear_impact: dict
    mod: float
    theta: np.ndarray


def _expect(joint: DiscreteJoint, values):
    return float(np.dot(joint.probs, values))


def _sd(joint: DiscreteJoint, values):
    mu = _expect(joint, values)
    return math.sqrt(max(_expect(joint, (values - mu) ** 2), 0.0))


def _conditional_mean_y(joint: DiscreteJoint, cols):
    """E(Y | X_cols) as an atom-aligned vector, plus group weights/means."""
    keys = [tuple(row) for row in joint.x[:, cols]]
    totals: dict = {}
    for key, p, y in zip(keys, joint.probs, joint.y):
        w, wy = totals.get(key, (0.0, 0.0))
        totals[key] = (w + p, wy + p * y)
    means = {k: (wy / w if w > 0 else 0.0) for k, (w, wy) in totals.items()}
    return np.array([means[k] for k in keys]), totals, means


def exact_mean_impact(joint: DiscreteJoint, conditioning=None):
    """SD of E(Y | X_conditioning); the maximal standardized mean change."""
    if conditioning is None:
        conditioning = list(range(joint.m))
    cols = list(conditioning)
    if not cols:
        return 0.0
    cond_mean, _, _ = _conditional_mean_y(joint, cols)
    return _sd(joint, cond_mean)


def exact_linear_impact(joint: DiscreteJoint, covariate=0):
    """|Cov(Y, X_covariate)| / SD(X_covariate) by exact summation."""
    x = joint.x[:, covariate]
    sx = _sd(joint, x)
    if sx <= 0.0:
        raise DegenerateCovariate(f"covariate {covariate} is degenerate")
    cov = _expect(joint, joint.y * x) - _expect(joint, joint.y) * _expect(joint, x)
    return abs(cov) / sx


def exact_mod(joint: DiscreteJoint):
    """Measure of determination: mean_impact^2 / Var(Y)."""
    sy = _sd(joint, joint.y)
    if sy <= 0.0:
        raise DegenerateCovariate("response is degenerate")
    return (exact_mean_impact(joint) / sy) ** 2


def population_theta(joint: DiscreteJoint):
    """Population least-squares coefficients (intercept first)."""
    xbar = np.column_stack([np.ones(joint.support.shape[0]), joint.x])
    w = joint.probs
    moments = (xbar * w[:, None]).T @ xbar
    rhs = (xbar * w[:, None]).T @ joint.y
    rank = np.linalg.matrix_rank(moments, tol=1e-12 * abs(moments).max())
    if rank < moments.shape[0]:
        raise SingularMoments("population design second-moment matrix is singular")
    return np.linalg.solve(moments, rhs)


def _population_residual(joint: DiscreteJoint, k):
    """Atom values of X_k minus its population projection on the other X."""
    others = [j for j in range(joint.m) if j != k]
    xk = joint.x[:, k]
    design = np.column_stack([np.ones(joint.support.shape[0]),
                              joint.x[:, others]])
    w = joint.probs
    moments = (design * w[:, None]).T @ design
    rhs = (design * w[:, None]).T @ xk
    rank = np.linalg.matrix_rank(moments, tol=1e-12 * abs(moments).max())
    if rank < moments.shape[0]:
        raise SingularMoments("covariate moment matrix is singular")
    beta = np.linalg.solve(moments, rhs)
    return xk - design @ beta


def exact_partial_linear_impact(joint: DiscreteJoint, k=0):
    """Partial linear mean impact of X_k: |E[Y Xtilde_k]| / SD(Xtilde_k)."""
    resid = _population_residual(joint, k)
    s = _sd(joint, resid)
    if s <= 0.0:
        raise DegenerateCovariate(
            f"covariate {k} is determined by the other covariates")
    return abs(_expect(joint, joint.y * resid)) / s


def exact_partial_mean_impact(joint: DiscreteJoint, k=0):
    """Partial (non-linear) mean impact of X_k.

    Equals the weighted norm of E(Y|X) after projecting out the span of
    {1, X_j (j != k)} in L2 of the covariate marginal.
    """
    others = [j for j in range(joint.m) if j != k]
    _, totals, means = _conditional_mean_y(joint, list(range(joint.m)))
    # collapse to the covariate marginal
    keys = list(totals.keys())
    w = np.array([totals[key][0] for key in keys])
    h = np.array([means[key] for key in keys])
    xs = np.array(keys)
    design = np.column_stack([np.ones(len(keys)), xs[:, others]])
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(design * sw[:, None], h * sw, rcond=None)
    resid = h - design @ coef
    return math.sqrt(max(float(np.dot(w, resid ** 2)), 0.0))


def constrained_sup_check(joint: DiscreteJoint, n_cap=10 ** 6):
    """Best mean change over disturbances obeying delta >= -1 pointwise.

    Evaluates the truncated-and-rebalanced sequence
    ``delta_n = (eta_n * dhat_plus - min(dhat_minus, n)) / n`` built from
    ``dhat = E(Y|X) - E(Y)`` and returns ``(sup ratio, mean impact)``.
    On a finite support the ratio is constant once n exceeds
    ``max(dhat_minus)`` (truncation stops binding and eta_n = 1), so only
    the distinct prefix of n values is scanned.
    """
    if n_cap < 1:
        raise OutOfRange("n_cap must be >= 1")
    _, totals, means = _conditional_mean_y(joint, list(range(joint.m)))
    keys = list(totals.keys())
    w = np.array([totals[key][0] for key in keys])
    h = np.array([means[key] for key in keys])
    ey = float(np.dot(w, h))
    dhat = h - ey
    iota = math.sqrt(max(float(np.dot(w, dhat ** 2)), 0.0))
    if iota <= 1e-15:
        return 0.0, 0.0
    d_plus = np.maximum(dhat, 0.0)
    d_minus = np.maximum(-dhat, 0.0)
    e_plus = float(np.dot(w, d_plus))

    n_max = min(n_cap, max(int(math.ceil(d_minus.max())), 1))
    best = -math.inf
    for n in range(1, n_max + 1):
        capped = np.minimum(d_minus, float(n))
        eta = float(np.dot(w, capped)) / e_plus if e_plus > 0 else 1.0
        delta = (eta * d_plus - capped) / n
        if not np.all(delta >= -1.0 - 1e-12):
            raise InvariantViolation("delta_n must stay >= -1")
        sd = math.sqrt(max(float(np.dot(w, delta ** 2))
                           - float(np.dot(w, delta)) ** 2, 0.0))
        if sd <= 0.0:
            continue
        ratio = float(np.dot(w, h * delta)) / sd
        best = max(best, ratio)
    if best == -math.inf:
        return 0.0, iota
    if not best <= iota + 1e-12 * max(1.0, iota):
        raise InvariantViolation(
            f"constrained supremum {best!r} exceeds the mean impact {iota!r}")
    return best, iota


def quadratic_slope_closed_form(theta1, theta2, moments):
    """Signed population slope for E(Y|X) = c + theta1 X + theta2 X^2.

    ``moments`` maps EX, VarX and central3 (third central moment of X).
    """
    ex = float(moments["EX"])
    var = float(moments["VarX"])
    c3 = float(moments["central3"])
    if var <= 0.0:
        raise DegenerateCovariate("VarX must be positive")
    return float(theta1) + float(theta2) * (2.0 * ex + c3 / var)


def confounding_example_value(rho):
    """Partial linear impact in the exponential two-covariate example.

    Positive for rho in (sqrt(0.5), 1) even though E(Y|X) is a function
    of the second covariate only.
    """
    rho = float(rho)
    if not math.sqrt(0.5) <= rho < 1.0:
        raise OutOfRange("rho must lie in [sqrt(0.5), 1)")
    s = math.sqrt(1.0 - rho * rho)
    return 2.0 * rho * s * (rho - s)


def population_params(joint: DiscreteJoint):
    """All population parameters of a finite joint, by exact summation."""
    linear = {}
    partial = {}
    partial_linear = {}
    for k in range(joint.m):
        try:
            linear[k] = exact_linear_impact(joint, k)
        except DegenerateCovariate:
            linear[k] = None
        if joint.m > 1:
            try:
                partial[k] = exact_partial_mean_impact(joint, k)
                partial_linear[k] = exact_partial_linear_impact(joint, k)
            except (DegenerateCovariate, SingularMoments):
                partial[k] = None
                partial_linear[k] = None
    return PopulationParams(
        mean_impact=exact_mean_impact(joint),
        linear_impact=linear,
        partial_impact=partial,
        partial_linear_impact=partial_linear,
        mod=exact_mod(joint),
        theta=population_theta(joint),
    )
