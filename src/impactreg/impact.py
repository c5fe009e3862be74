"""Sample estimators of the model-free association parameters.

All second moments use 1/n normalization so that the cross-module
identities (impact = |slope| * sd of the residualized covariate, etc.)
hold exactly, not just asymptotically.  They are taken in two passes,
centring first: the one-pass E[a^2] - E[a]^2 cancels for data far from 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import (DegenerateCovariate, DimensionMismatch,
                     InvariantViolation, NonFinite, ZeroStdError)
from .regression import CoefficientTest, _focus_test, _norm, residualize


def cov_n(a, b):
    """Empirical covariance with 1/n normalization."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.mean((a - a.mean()) * (b - b.mean())))


def sd_n(a):
    """Empirical standard deviation with 1/n normalization."""
    a = np.asarray(a, dtype=float)
    d = a - a.mean()
    return float(np.sqrt(np.mean(d * d)))


@dataclass(frozen=True)
class ImpactEstimate:
    """A named association parameter estimate with an attached robust test."""

    kind: str  # linear_impact | linear_slope | partial_linear_impact |
               # partial_linear_slope | mod_r2
    value: float
    target: str = "y"
    focus: str = "x"
    adjusted_for: tuple[str, ...] = ()
    test: CoefficientTest | None = None

    def as_dict(self):
        d = {
            "kind": self.kind,
            "value": self.value,
            "target": self.target,
            "focus": self.focus,
            "adjusted_for": list(self.adjusted_for),
        }
        if self.test is not None:
            d["test"] = self.test._asdict()
        return d


def _check_pair(y, x):
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape or y.ndim != 1:
        raise DimensionMismatch("y and x must be 1-d vectors of equal length")
    if y.shape[0] < 2:
        raise DimensionMismatch("need at least 2 observations")
    # before any moment is taken: a nan would pass through them, and an
    # inf would warn in them
    if not (np.isfinite(y).all() and np.isfinite(x).all()):
        raise NonFinite("non-finite entries in y or x")
    return y, x


def _check_spread(x, what="covariate"):
    # a constant column is caught exactly first: its sd_n is rounding
    # noise (the mean of a column of 0.1 does not round exactly)
    s = sd_n(x)
    if np.ptp(x) == 0.0 or s < 1e-12 * abs(float(np.mean(x))) + 1e-300:
        raise DegenerateCovariate(f"{what} has (numerically) zero variance")
    return s


def _coefficient(y, X, names, flavor, reference):
    """``(estimate, test)`` of X's column 1: its ``_focus_test``, or, for
    an exact fit, whose test is degenerate, the coefficient and None.

    The one place where impact's estimators catch ``ZeroStdError``.
    """
    try:
        test = _focus_test(y, X, 1, names, flavor, reference, _norm(y))
    except ZeroStdError as exc:
        return exc.estimate, None
    return test.estimate, test


def _bivariate(y, x, focus, flavor, reference):
    """The checked pair's ``(cov_n(y, x), SD(x), the slope's test)``."""
    y, x = _check_pair(y, x)
    sx = _check_spread(x, focus)
    # column-major, so the kernel factors it where it lies
    X = np.empty((x.shape[0], 2), order="F")
    X[:, 0] = 1.0
    X[:, 1] = x
    _, test = _coefficient(y, X, ("intercept", "x"), flavor, reference)
    return cov_n(y, x), sx, test


def linear_mean_impact(y, x, target="y", focus="x", flavor="HC0",
                       reference="student_t"):
    """|Cov(y, x)| / SD(x), with White's robust slope test attached."""
    cov, sx, test = _bivariate(y, x, focus, flavor, reference)
    return ImpactEstimate(kind="linear_impact", value=abs(cov) / sx,
                          target=target, focus=focus, test=test)


def linear_mean_slope(y, x, signed=False, target="y", focus="x",
                      flavor="HC0", reference="student_t"):
    """Bivariate least-squares slope; equals linear impact / SD(x)."""
    cov, sx, test = _bivariate(y, x, focus, flavor, reference)
    slope = cov / sx ** 2
    return ImpactEstimate(kind="linear_slope",
                          value=slope if signed else abs(slope),
                          target=target, focus=focus, test=test)


def _partial_fit(y_col, focus, adjust, data: Dataset, flavor, reference):
    """Residualize the focus, check its spread, fit y on focus + adjust.

    Returns ``(y, x_res, sd(x_res), focus coefficient, focus test)``.
    """
    y = data.column(y_col)
    x_res = residualize(focus, adjust, data)
    sx = _check_spread(x_res, f"residualized {focus!r}")
    coef, test = _coefficient(y, data.design([focus, *adjust]),
                              ("intercept", focus, *adjust), flavor,
                              reference)
    return y, x_res, sx, coef, test


def partial_linear_mean_impact(y_col, focus, adjust, data: Dataset,
                               flavor="HC0", reference="student_t"):
    """Linear mean impact of the residualized focus covariate on y.

    The attached test is White's robust test of the focus coefficient in
    the multiple regression of y on focus + adjust; the two routes agree
    by construction, and ``InvariantViolation`` is raised if they do not.
    """
    adjust = tuple(adjust)
    y, x_res, sx, coef, test = _partial_fit(y_col, focus, adjust, data,
                                            flavor, reference)
    value = abs(cov_n(y, x_res)) / sx
    # Frisch-Waugh identity: |coef| * SD(residualized focus) == impact
    if not abs(abs(coef) * sx - value) <= 1e-8 * (value + 1e-8):
        raise InvariantViolation(
            "partial impact and multiple-regression routes disagree")
    return ImpactEstimate(kind="partial_linear_impact", value=value,
                          target=y_col, focus=focus, adjusted_for=adjust,
                          test=test)


def partial_linear_mean_slope(y_col, focus, adjust, data: Dataset,
                              signed=False, flavor="HC0",
                              reference="student_t"):
    """Multiple-regression coefficient of focus (absolute unless signed)."""
    adjust = tuple(adjust)
    _, _, _, coef, test = _partial_fit(y_col, focus, adjust, data, flavor,
                                       reference)
    value = coef if signed else abs(coef)
    return ImpactEstimate(kind="partial_linear_slope", value=value,
                          target=y_col, focus=focus, adjusted_for=adjust,
                          test=test)


def mod_r2(y, x, target="y", focus="x"):
    """Squared empirical correlation: conservative measure of determination."""
    y, x = _check_pair(y, x)
    sx = _check_spread(x, focus)
    sy = _check_spread(y, target)
    corr = cov_n(y, x) / (sx * sy)
    value = min(corr * corr, 1.0)
    return ImpactEstimate(kind="mod_r2", value=value, target=target,
                          focus=focus)
