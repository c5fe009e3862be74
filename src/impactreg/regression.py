"""Least-squares fitting with classical and Huber-White sandwich covariance.

The computational substrate for the impact estimators, the hierarchical
testing procedure and the simulation harness.  Every fit of this module
goes through one validated helper, ``_fit``, which checks the input and
calls the column-pivoted QR kernel of :mod:`impactreg.backend` once,
asking it only for the covariance rows its caller reads: ``fit_ols``
takes them all, ``residualize`` none, and the one-coefficient route
``_coefficient_row`` (the full-model comparator of ``simulate``,
``slope_identity_check`` and impact's tests) only the tested
coefficient's.  The hierarchy's steps call the kernel directly, with
their input checked once per hierarchy.  Every test, on any route, is
decided by ``_white_test``, so the exact-fit and zero-SE rule exists
once, and from the same bits: the kernel forms a row's variances alike
whatever else it is asked for.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, stdtr

from . import backend
from .dataset import Dataset
from .errors import (DimensionMismatch, InvalidConfig, NonFinite,
                     RankDeficient, ZeroStdError)

# A fit is exact when its residual norm is at most this share of the
# response norm.  The residuals of an exact fit are rounding noise of the
# size of y's own digits, so the uncentred norm is the scale; both norms
# scale with y and neither moves when the design is rescaled, so the
# decision does not depend on the units of the data.  It does depend on
# y's location: adding c to y leaves the residuals alone but grows ||y||,
# so once ||e|| <= 1e-13 ||y + c|| the residuals are within rounding of
# y's digits and the fit is reported as exact.
_EXACT_FIT_RTOL = 1e-13


def _norm(v):
    """Euclidean norm of a vector, summed by NumPy rather than BLAS.

    A BLAS dot product on a long vector runs on OpenBLAS's spare thread,
    which then spins beside the one-thread kernel (see ``backend``).
    """
    return math.sqrt(np.einsum("i,i->", v, v))


@dataclass(frozen=True)
class CoefficientTest:
    """Two-sided robust test of a single regression coefficient."""

    estimate: float
    std_error: float
    statistic: float
    p_value: float
    reference: str  # "student_t" or "normal"
    dof: int


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit with classical and sandwich covariance."""

    column_names: tuple[str, ...]
    coefficients: np.ndarray
    residuals: np.ndarray
    classical_cov: np.ndarray
    sandwich_cov: np.ndarray
    dof: int
    flavor: str
    response_norm: float  # Euclidean norm of y, the scale of an exact fit

    @property
    def n(self) -> int:
        return self.residuals.shape[0]

    @property
    def p(self) -> int:
        return self.coefficients.shape[0]


def two_sided_pvalue(statistic, dof, reference="student_t"):
    """2 * (1 - CDF(|statistic|)) under t(dof) or the standard normal."""
    a = abs(float(statistic))
    if reference == "student_t":
        return 2.0 * float(stdtr(dof, -a))
    if reference == "normal":
        return 2.0 * float(ndtr(-a))
    raise InvalidConfig(f"unknown reference {reference!r}")


def _validate(y, X):
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if y.ndim != 1 or X.ndim != 2:
        raise DimensionMismatch("y must be 1-d and X 2-d")
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatch(
            f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] <= X.shape[1]:
        raise DimensionMismatch(
            f"need n > p, got n={X.shape[0]}, p={X.shape[1]}")
    if not (np.isfinite(y).all() and np.isfinite(X).all()):
        raise NonFinite("non-finite entries in regression input")
    return y, X


@functools.cache
def _default_names(p):
    return tuple(f"x{j}" for j in range(p))


def _fit(y, X, column_names, flavor, rows):
    """The validated kernel call behind every fit of this module.

    Checks y, X, the flavor and the names, calls ``backend.ols_sandwich``
    once with ``rows`` (the covariance rows read), and raises
    ``RankDeficient`` naming the dependent column.  X is passed on in its
    own layout: the kernel makes the one column-major copy.  Returns
    ``(y, column_names, coef, resid, classical, sandwich)``.
    """
    y, X = _validate(y, X)
    p = X.shape[1]
    if flavor not in ("HC0", "HC1"):
        raise InvalidConfig(f"unknown sandwich flavor {flavor!r}")
    if column_names is None:
        column_names = _default_names(p)
    else:
        column_names = tuple(column_names)
        if len(column_names) != p:
            raise DimensionMismatch("column_names length does not match X")
    coef, resid, classical, sandwich, rank, piv = backend.ols_sandwich(
        X, y, flavor == "HC1", rows)
    if rank < p:
        raise RankDeficient(column_names[int(piv[rank])])
    return y, column_names, coef, resid, classical, sandwich


def fit_ols(y, X, column_names=None, flavor="HC0"):
    """Fit y on the design X (leading intercept column by convention).

    Raises ``RankDeficient`` naming the dependent column when X is not of
    full column rank at relative pivot tolerance ``backend.RANK_TOL``.
    """
    y, column_names, coef, resid, classical, sandwich = _fit(
        y, X, column_names, flavor, None)
    return FitResult(
        column_names=column_names,
        coefficients=coef,
        residuals=resid,
        classical_cov=classical,
        sandwich_cov=sandwich,
        dof=resid.shape[0] - coef.shape[0],
        flavor=flavor,
        response_norm=_norm(y),
    )


def coefficient_test(fit: FitResult, index: int, reference="student_t"):
    """White's robust test of H0: theta_index = 0.

    Raises ``ZeroStdError`` when the test is degenerate: the fit is exact
    (see ``_EXACT_FIT_RTOL``), or the residuals are invisible to the
    coefficient, i.e. its sandwich variance is at most ``_EXACT_FIT_RTOL``
    squared times its largest possible value for these residuals,
    ||e||^2 (X'X)^-1_jj = dof * classical_cov_jj.  Both are ratios of
    quantities that scale together, so the units of y and X cannot turn
    a test into an error.  The rule is not shift-free: a constant added
    to y so large that ||e|| <= 1e-13 ||y|| makes the fit exact (under
    ``analyze --hierarchy`` that is exit 3).
    """
    if not 0 <= index < fit.p:
        raise DimensionMismatch(f"coefficient index {index} out of range")
    return _white_test(float(fit.coefficients[index]),
                       float(fit.sandwich_cov[index, index]),
                       float(fit.classical_cov[index, index]), fit.dof,
                       _norm(fit.residuals), fit.response_norm, index,
                       reference)


def _coefficient_row(y, X, index, column_names=None, flavor="HC0"):
    """What the test of one coefficient reads from a validated fit.

    The fit is ``fit_ols(y, X, column_names, flavor)``'s, with the same
    checks and errors, but the kernel forms only coefficient ``index``'s
    covariance row, with the same bits as ``fit_ols``'s.  Returns
    ``_white_test``'s leading arguments:
    ``(estimate, variance, classical variance, dof, ||e||, ||y||)``.
    """
    y, _, coef, resid, classical, sandwich = _fit(y, X, column_names,
                                                  flavor, (index,))
    return (float(coef[index]), float(sandwich[0, 0]),
            float(classical[0, 0]), resid.shape[0] - coef.shape[0],
            _norm(resid), _norm(y))


def _white_test(estimate, variance, classical_variance, dof, resid_norm,
                response_norm, index, reference):
    """White's test of coefficient ``index`` from the scalars it reads.

    The one home of the exact-fit and zero-SE rule (see
    ``coefficient_test``); every route, the hierarchy's steps included,
    decides its tests here.
    """
    std_error = float(np.sqrt(max(variance, 0.0)))
    if (resid_norm <= _EXACT_FIT_RTOL * response_norm
            or variance <= _EXACT_FIT_RTOL ** 2 * (dof * classical_variance)):
        raise ZeroStdError(
            f"degenerate fit: robust standard error of coefficient {index} "
            f"is {std_error:.3e}")
    statistic = estimate / std_error
    return CoefficientTest(
        estimate=estimate,
        std_error=std_error,
        statistic=statistic,
        p_value=two_sided_pvalue(statistic, dof, reference),
        reference=reference,
        dof=dof,
    )


def residualize(target_column: str, on_columns, data: Dataset):
    """Empirical residual of a column after projecting on others + intercept.

    With no ``on_columns`` this is plain centering.
    """
    target = data.column(target_column)
    on_columns = list(on_columns)
    if not on_columns:
        return target - target.mean()
    X = np.column_stack([np.ones(data.n), data.columns(on_columns)])
    _, _, _, resid, _, _ = _fit(target, X, ("intercept", *on_columns),
                                "HC0", ())
    return resid
