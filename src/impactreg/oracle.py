"""Exact population association parameters on finite discrete joints.

Ground truth for the estimator tests: everything here is computed by
exact summation over the support (no sampling), plus the closed-form
special cases for the quadratic and exponential-confounding examples.
"""

from __future__ import annotations

import math
import operator
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


def _check_k(joint: DiscreteJoint, k):
    """The covariate index ``k`` as an int in [0, m): ``InvalidConfig``
    for a non-integer (a bool included), ``OutOfRange`` outside."""
    try:
        if isinstance(k, bool):
            raise TypeError
        index = operator.index(k)
    except TypeError:
        raise InvalidConfig(
            f"covariate index must be an int, got {k!r}") from None
    if not 0 <= index < joint.m:
        raise OutOfRange(f"covariate index {index} outside [0, {joint.m})")
    return index


def exact_mean_impact(joint: DiscreteJoint, conditioning=None):
    """SD of E(Y | X_conditioning); the maximal standardized mean change."""
    if conditioning is None:
        conditioning = range(joint.m)
    cols = [_check_k(joint, k) for k in conditioning]
    if not cols:
        return 0.0
    cond_mean, _, _, _ = _conditional_mean_y(joint, cols)
    centred = cond_mean - _expect(joint, cond_mean)
    return math.sqrt(_expect(joint, centred ** 2))


def _spread(w, v, what, error=DegenerateCovariate):
    """``(v - E v, SD(v))`` under the weights ``w``, by two passes, for a
    vector or each column of a matrix.

    ``error(what)`` when an SD is below 1e-12 |E v| + 1e-300, the rule of
    ``impact._check_spread``: a constant's SD is rounding noise of its
    mean, not 0 (the mean of ten 0.1s does not round to 0.1).
    """
    mean = w @ v
    centred = v - mean
    sd = np.sqrt(w @ centred ** 2)
    if np.any(sd < 1e-12 * np.abs(mean) + 1e-300):
        raise error(what)
    return centred, sd


def exact_linear_impact(joint: DiscreteJoint, covariate=0):
    """|Cov(Y, X_covariate)| / SD(X_covariate) by exact summation."""
    k = _check_k(joint, covariate)
    w = joint.probs
    xc, sx = _spread(w, joint.x[:, k], f"covariate {k} is degenerate")
    yc = joint.y - _expect(joint, joint.y)
    return float(abs(np.dot(w, yc * xc)) / sx)


def exact_mod(joint: DiscreteJoint):
    """Measure of determination: mean_impact^2 / Var(Y)."""
    _, sy = _spread(joint.probs, joint.y, "response is degenerate")
    return float((exact_mean_impact(joint) / sy) ** 2)


def _project(w, x, target, singular):
    """``(beta, resid)``: the least-squares coefficients of ``target`` on
    ``[1, x]`` under the weights ``w``, intercept first, and the residual
    times sqrt(w).

    ``x`` and ``target`` are centred in two passes and each column of
    ``x`` is scaled to SD 1, so one orthogonal solve works on the
    design's own scale: a shifted covariate costs nothing, and the rank
    rule reads cond(X), not cond(X)^2.  ``SingularMoments(singular)``
    for a column that ``_spread`` finds constant, or a rank that
    ``lstsq`` at rcond 1e-12 finds short.
    """
    xc, sd = _spread(w, x, singular, SingularMoments)
    tc = target - np.dot(w, target)
    sw = np.sqrt(w)
    coef, _, rank, _ = np.linalg.lstsq(xc * (sw[:, None] / sd), tc * sw,
                                       rcond=1e-12)
    if rank < x.shape[1]:
        raise SingularMoments(singular)
    slopes = coef / sd
    intercept = np.dot(w, target - x @ slopes)
    return np.concatenate([[intercept], slopes]), (tc - xc @ slopes) * sw


def population_theta(joint: DiscreteJoint):
    """Population least-squares coefficients (intercept first)."""
    return _project(joint.probs, joint.x, joint.y,
                    "population design second-moment matrix is singular")[0]


def exact_partial_linear_impact(joint: DiscreteJoint, k=0):
    """Partial linear mean impact of X_k: |E[Y Xtilde_k]| / SD(Xtilde_k),
    where Xtilde_k is X_k minus its population projection on the other X.

    ``DegenerateCovariate`` when X_k is constant (``_spread``), or when
    SD(Xtilde_k) is at most 1e-12 SD(X_k): X_k is then determined by the
    other covariates, and its residual is rounding noise of X_k's size,
    not 0.
    """
    k = _check_k(joint, k)
    w = joint.probs
    xk = joint.x[:, k]
    _, sk = _spread(w, xk, f"covariate {k} is degenerate")
    others = [j for j in range(joint.m) if j != k]
    _, resid = _project(w, joint.x[:, others], xk,
                        "covariate moment matrix is singular")
    # the residual has mean 0, so its norm is its SD
    s = float(np.linalg.norm(resid))
    if s <= 1e-12 * sk:
        raise DegenerateCovariate(
            f"covariate {k} is determined by the other covariates")
    yc = joint.y - _expect(joint, joint.y)
    return abs(float(np.dot(yc * np.sqrt(w), resid))) / s


def exact_partial_mean_impact(joint: DiscreteJoint, k=0):
    """Partial (non-linear) mean impact of X_k.

    Equals the weighted norm of E(Y|X) after projecting out the span of
    {1, X_j (j != k)} in L2 of the covariate marginal.
    """
    k = _check_k(joint, k)
    others = [j for j in range(joint.m) if j != k]
    # collapse to the covariate marginal
    _, w, h, xs = _conditional_mean_y(joint, list(range(joint.m)))
    _, resid = _project(w, xs[:, others], h,
                        "covariate moment matrix is singular")
    return float(np.linalg.norm(resid))


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
    # iota > 0 puts delta_n > 0 and < 0 on atoms of positive weight
    _, sd = _spread(w, delta, "delta_n is constant", InvariantViolation)
    best = float(np.dot(w, h * delta)) / float(sd)
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
    """All population parameters of a finite joint, by exact summation.

    ``theta`` comes first: a joint on which a linear or partial impact
    raises also makes the full design singular, so it raises here.
    """
    theta = population_theta(joint)
    partial_ks = range(joint.m) if joint.m > 1 else ()
    return PopulationParams(
        mean_impact=exact_mean_impact(joint),
        linear_impact={k: exact_linear_impact(joint, k)
                       for k in range(joint.m)},
        partial_impact={k: exact_partial_mean_impact(joint, k)
                        for k in partial_ks},
        partial_linear_impact={k: exact_partial_linear_impact(joint, k)
                               for k in partial_ks},
        mod=exact_mod(joint),
        theta=theta,
    )
