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
                     InvalidConfig, InvariantViolation, OutOfRange,
                     SingularMoments)


def _row_groups(x):
    """Rows of the 2-d x sorted into groups of equal rows.

    Returns ``(perm, starts)``: ``perm`` sorts the rows lexicographically
    and stably, so equal rows (-0.0 and 0.0 being equal) sit together in
    support order, and ``starts[i]`` says whether sorted row i opens a
    group, i.e. differs from the row before it.
    """
    perm = np.lexsort(x.T)
    x = x[perm]
    starts = np.empty(x.shape[0], dtype=bool)
    starts[:1] = True
    np.any(x[1:] != x[:-1], axis=1, out=starts[1:])
    return perm, starts


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
        if not (np.isfinite(support).all() and np.isfinite(probs).all()):
            raise InvalidConfig("support and probs must be finite")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise InvalidConfig("probs must be nonnegative and sum to 1")
        if not _row_groups(support)[1].all():
            raise InvalidConfig("support atoms must be distinct")
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
    """E(Y | X_cols) as an atom-aligned vector, and its groups.

    Returns ``(cond_mean, w, h, keys)``: per group (atoms with equal
    X_cols, -0.0 and 0.0 being equal), its weight, its mean of Y and its
    first atom's X_cols, the groups in order of first appearance.  Each
    group's sums add its atoms' terms in support order, from 0.0.
    """
    x = joint.x[:, cols]
    perm, starts = _row_groups(x)
    # a group's first atom opens it in the stable sort
    first = perm[starts]
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    group = np.empty_like(perm)
    group[perm] = rank[np.cumsum(starts) - 1]
    w = np.bincount(group, weights=joint.probs, minlength=order.size)
    wy = np.bincount(group, weights=joint.probs * joint.y,
                     minlength=order.size)
    h = np.divide(wy, w, out=np.zeros_like(w), where=w > 0)
    return h[group], w, h, x[first[order]]


def exact_mean_impact(joint: DiscreteJoint, conditioning=None):
    """SD of E(Y | X_conditioning); the maximal standardized mean change."""
    if conditioning is None:
        conditioning = list(range(joint.m))
    cols = list(conditioning)
    if not cols:
        return 0.0
    cond_mean, _, _, _ = _conditional_mean_y(joint, cols)
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


def _projection(joint: DiscreteJoint, cols, target, singular):
    """``(design, beta)``: the population least-squares coefficients of
    ``target`` on ``[1, X_cols]``, by the weighted normal equations;
    ``SingularMoments(singular)`` if their matrix is singular."""
    design = np.column_stack([np.ones(joint.support.shape[0]),
                              joint.x[:, cols]])
    weighted = (design * joint.probs[:, None]).T
    moments = weighted @ design
    rank = np.linalg.matrix_rank(moments, tol=1e-12 * abs(moments).max())
    if rank < moments.shape[0]:
        raise SingularMoments(singular)
    return design, np.linalg.solve(moments, weighted @ target)


def population_theta(joint: DiscreteJoint):
    """Population least-squares coefficients (intercept first)."""
    return _projection(
        joint, slice(None), joint.y,
        "population design second-moment matrix is singular")[1]


def _population_residual(joint: DiscreteJoint, k):
    """Atom values of X_k minus its population projection on the other X."""
    others = [j for j in range(joint.m) if j != k]
    xk = joint.x[:, k]
    design, beta = _projection(joint, others, xk,
                               "covariate moment matrix is singular")
    return xk - design @ beta


def exact_partial_linear_impact(joint: DiscreteJoint, k=0):
    """Partial linear mean impact of X_k: |E[Y Xtilde_k]| / SD(Xtilde_k).

    ``DegenerateCovariate`` when SD(Xtilde_k) is at most 1e-12 SD(X_k):
    X_k is then determined by the other covariates, and its residual is
    rounding noise of X_k's size, not 0.
    """
    resid = _population_residual(joint, k)
    s = _sd(joint, resid)
    if s <= 1e-12 * _sd(joint, joint.x[:, k]):
        raise DegenerateCovariate(
            f"covariate {k} is determined by the other covariates")
    return abs(_expect(joint, joint.y * resid)) / s


def exact_partial_mean_impact(joint: DiscreteJoint, k=0):
    """Partial (non-linear) mean impact of X_k.

    Equals the weighted norm of E(Y|X) after projecting out the span of
    {1, X_j (j != k)} in L2 of the covariate marginal.
    """
    others = [j for j in range(joint.m) if j != k]
    # collapse to the covariate marginal
    _, w, h, xs = _conditional_mean_y(joint, list(range(joint.m)))
    design = np.column_stack([np.ones(len(w)), xs[:, others]])
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(design * sw[:, None], h * sw, rcond=None)
    resid = h - design @ coef
    return math.sqrt(max(float(np.dot(w, resid ** 2)), 0.0))


def constrained_sup_check(joint: DiscreteJoint, n_cap=10 ** 6):
    """Best mean change over disturbances obeying delta >= -1 pointwise.

    Builds the truncated-and-rebalanced disturbance
    ``delta_n = (eta_n * dhat_plus - min(dhat_minus, n)) / n`` from
    ``dhat = E(Y|X) - E(Y)``, with ``eta_n`` making its mean 0, and
    returns ``(sup ratio, mean impact)``: the sup over integers
    1 <= n <= N of ``Cov(Y, delta_n) / SD(delta_n)``, where
    N = min(n_cap, max(ceil(max dhat_minus), 1)), read off at n = N alone.

    That is exact because the ratio never decreases in n.  Write
    a = dhat_plus and b = dhat_minus (so ab = 0 and A = E a = E b > 0),
    P = E a^2, and, at a real t > 0, u = min(b, t), q = Pr(b > t),
    r = E(b - t)^+, V = E u^2 and eta = E u / A = 1 - r/A.  Since
    au = 0 and bu = u^2 + t(b - t)^+, the ratio is

        R(t) = (eta P + V + t r) / sqrt(eta^2 P + V).

    R is continuous, and between the values b takes, where r' = -q,
    V' = 2tq and eta' = q/A, dR/dt has the sign of

        r [q (P V / A^2 - 2 t eta P / A - t^2) + eta^2 P + V].

    As V >= q t^2, the bracket is P (eta - q t / A)^2 plus
    (V - q t^2)(1 + q P / A^2), so it is >= 0.  Once n >= max b the
    truncation stops binding (r = 0), eta_n = 1 and R is constant, equal
    to the mean impact; so a binding ``n_cap`` returns R(n_cap), which
    may fall short of it.  The cost does not depend on the units of Y,
    and neither does the zero test: a mean impact of at most 1e-15 times
    the largest |E(Y | X)| is rounding, and returns ``(0.0, 0.0)``.
    """
    if n_cap < 1:
        raise OutOfRange("n_cap must be >= 1")
    _, w, h, _ = _conditional_mean_y(joint, list(range(joint.m)))
    ey = float(np.dot(w, h))
    dhat = h - ey
    iota = math.sqrt(max(float(np.dot(w, dhat ** 2)), 0.0))
    # a mean impact within rounding of 0: dhat = E(Y|X) - E(Y) is exact
    # to a few ulps of the largest |E(Y|X)|, so the cut-off has Y's units
    if iota <= 1e-15 * float(np.abs(h).max()):
        return 0.0, 0.0
    d_plus = np.maximum(dhat, 0.0)
    d_minus = np.maximum(-dhat, 0.0)
    e_plus = float(np.dot(w, d_plus))

    n = min(n_cap, max(int(math.ceil(d_minus.max())), 1))
    capped = np.minimum(d_minus, float(n))
    eta = float(np.dot(w, capped)) / e_plus if e_plus > 0 else 1.0
    delta = (eta * d_plus - capped) / n
    if not np.all(delta >= -1.0 - 1e-12):
        raise InvariantViolation("delta_n must stay >= -1")
    sd = math.sqrt(max(float(np.dot(w, delta ** 2))
                       - float(np.dot(w, delta)) ** 2, 0.0))
    if sd <= 0.0:
        return 0.0, iota
    best = float(np.dot(w, h * delta)) / sd
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
