"""Least-squares fitting with classical and Huber-White sandwich covariance.

The computational substrate for the impact estimators, the hierarchical
testing procedure and the simulation harness.  Every solve goes through
the column-pivoted QR kernel :func:`impactreg.backend.ols_sandwich`;
normal equations are never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, stdtr

from . import backend
from .dataset import Dataset
from .errors import (DimensionMismatch, NonFinite, RankDeficient,
                     ZeroStdError)

RANK_TOL = 1e-10


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
    xtx_inv: np.ndarray
    dof: int
    flavor: str

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
    raise ValueError(f"unknown reference {reference!r}")


def _validate(y, X):
    y = np.ascontiguousarray(y, dtype=float)
    X = np.ascontiguousarray(X, dtype=float)
    if y.ndim != 1 or X.ndim != 2:
        raise DimensionMismatch("y must be 1-d and X 2-d")
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatch(
            f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] <= X.shape[1]:
        raise DimensionMismatch(
            f"need n > p, got n={X.shape[0]}, p={X.shape[1]}")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(X))):
        raise NonFinite("non-finite entries in regression input")
    return y, X


def _check_flavor(flavor):
    if flavor not in ("HC0", "HC1"):
        raise ValueError(f"unknown sandwich flavor {flavor!r}")


def fit_ols(y, X, column_names=None, flavor="HC0"):
    """Fit y on the design X (leading intercept column by convention).

    Raises ``RankDeficient`` naming the dependent column when X is not of
    full column rank at relative pivot tolerance ``RANK_TOL``.
    """
    y, X = _validate(y, X)
    n, p = X.shape
    _check_flavor(flavor)
    if column_names is None:
        column_names = tuple(f"x{j}" for j in range(p))
    else:
        column_names = tuple(column_names)
        if len(column_names) != p:
            raise DimensionMismatch("column_names length does not match X")
    coef, resid, xtx_inv, classical, sandwich, rank, piv = backend.ols_sandwich(
        X, y, RANK_TOL, flavor == "HC1")
    if rank < p:
        raise RankDeficient(column_names[int(piv[rank])])
    return FitResult(
        column_names=column_names,
        coefficients=coef,
        residuals=resid,
        classical_cov=classical,
        sandwich_cov=sandwich,
        xtx_inv=xtx_inv,
        dof=n - p,
        flavor=flavor,
    )


def sandwich_covariance(fit: FitResult, X, flavor="HC0"):
    """(X'X)^-1 X' diag(e_i^2) X (X'X)^-1, times n/(n-p) for HC1."""
    X = np.ascontiguousarray(X, dtype=float)
    if X.shape != (fit.n, fit.p):
        raise DimensionMismatch("X does not match the fitted model")
    _check_flavor(flavor)
    return backend.sandwich(X, fit.residuals, fit.xtx_inv, flavor == "HC1")


def coefficient_test(fit: FitResult, index: int, reference="student_t"):
    """White's robust test of H0: theta_index = 0."""
    if not 0 <= index < fit.p:
        raise DimensionMismatch(f"coefficient index {index} out of range")
    estimate = float(fit.coefficients[index])
    variance = float(fit.sandwich_cov[index, index])
    std_error = float(np.sqrt(max(variance, 0.0)))
    if std_error < 1e-14:
        raise ZeroStdError(
            f"degenerate fit: robust standard error of coefficient {index} "
            f"is {std_error:.3e}")
    statistic = estimate / std_error
    return CoefficientTest(
        estimate=estimate,
        std_error=std_error,
        statistic=statistic,
        p_value=two_sided_pvalue(statistic, fit.dof, reference),
        reference=reference,
        dof=fit.dof,
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
    fit = fit_ols(target, X, column_names=("intercept", *on_columns))
    return fit.residuals
