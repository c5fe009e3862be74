"""Least-squares fitting with classical and Huber-White sandwich covariance.

The computational substrate for the impact estimators, the hierarchical
testing procedure and the simulation harness.

The checking rule.  The least-squares kernel of :mod:`impactreg.backend`
checks nothing.  An array from outside the package is checked once, by
``_validate``, in the public function that receives it, before any
work: y is 1-d and X 2-d with y's rows, both finite, and the column
names, if given, name every column of X.  A ``Dataset`` is checked once,
when it is built, and keeps no array that anything else can write.
Nothing downstream checks either again.  Two rules are left to the
place that reads the value: each fit, in ``_fit``, checks the sandwich
flavor and ``n > p`` at its own width, so a hierarchy can stop early on
a short sample before p reaches n, and ``two_sided_pvalue`` checks the
reference distribution.

Every fit then goes through ``_fit``, which calls the column-pivoted QR
kernel once, asking it only for the covariance rows its caller reads:
``fit_ols`` takes them all, ``residualize`` none, and ``_focus_test``,
the one home of the test of a single coefficient, only the tested
coefficient's.  It returns the test as a ``CoefficientTest``, a named
tuple: impact's tests attach it as it is, and the hierarchy's steps,
simulate's comparator and ``slope_identity_check`` read the fields they
need by name.  Every test, on any route, is built and decided by
``_white_test``, so the exact-fit and zero-SE rule exists once, and from
the same bits: a row's variances do not depend on the other rows asked
for (the row contract of :mod:`impactreg.backend`).

The kernel factors the design it is given in place.  A design from
outside the package is copied once, to column-major order, where it
enters: ``fit_ols`` copies it, so the caller's arrays are never written.
A design the package builds itself is handed over as it is, with no
second copy: ``residualize`` and impact's tests fit ``Dataset.design``
or a design of their own, and the hierarchy, the comparator and
``slope_identity_check`` fit buffers they own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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


class CoefficientTest(NamedTuple):
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


def _validate(y, X, column_names=None):
    """The checking rule of the module docstring, on y, X and the names.

    Returns ``(y, X, column_names)``: y and X as float arrays and the
    names as a tuple, by default ``x0``, ``x1``, ...
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if y.ndim != 1 or X.ndim != 2:
        raise DimensionMismatch("y must be 1-d and X 2-d")
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatch(
            f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if not (np.isfinite(y).all() and np.isfinite(X).all()):
        raise NonFinite("non-finite entries in regression input")
    if column_names is None:
        return y, X, _default_names(X.shape[1])
    column_names = tuple(column_names)
    if len(column_names) != X.shape[1]:
        raise DimensionMismatch("column_names length does not match X")
    return y, X, column_names


@functools.cache
def _default_names(p):
    return tuple(f"x{j}" for j in range(p))


def _fit(y, X, column_names, flavor, rows):
    """The kernel call behind every fit, on input known to be finite and
    to agree in rows.

    Checks the flavor and n > p, calls ``backend.ols_sandwich`` once with
    ``rows`` (the covariance rows read), and raises ``RankDeficient``
    naming the dependent column.  The kernel factors X in place: X is a column-major
    float64 buffer that the caller owns and does not read again.  Returns
    ``(coef, resid, classical, sandwich)``.
    """
    if flavor not in ("HC0", "HC1"):
        raise InvalidConfig(f"unknown sandwich flavor {flavor!r}")
    n, p = X.shape
    if n <= p:
        raise DimensionMismatch(f"need n > p, got n={n}, p={p}")
    coef, resid, classical, sandwich, rank, piv = backend.ols_sandwich(
        X, y, flavor == "HC1", rows)
    if rank < p:
        raise RankDeficient(column_names[int(piv[rank])])
    return coef, resid, classical, sandwich


def fit_ols(y, X, column_names=None, flavor="HC0"):
    """Fit y on the design X (leading intercept column by convention).

    Raises ``RankDeficient`` naming the dependent column when X is not of
    full column rank at relative pivot tolerance ``backend.RANK_TOL``.
    The kernel fits a column-major copy of X, so X is left as it was.
    """
    y, X, column_names = _validate(y, np.array(X, dtype=float, order="F"),
                                   column_names)
    coef, resid, classical, sandwich = _fit(y, X, column_names, flavor, None)
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
    return _white_test(
        float(fit.coefficients[index]), float(fit.sandwich_cov[index, index]),
        float(fit.classical_cov[index, index]), fit.dof,
        _norm(fit.residuals), fit.response_norm, index, reference)


def _focus_test(y, X, index, column_names, flavor, reference,
                response_norm):
    """White's test of coefficient ``index``, as a ``CoefficientTest``,
    on input known to be finite and to agree in rows.

    The one home of the test of a single coefficient: the kernel forms
    only that coefficient's covariance row, with the same bits as
    ``fit_ols``'s, so the result, or the error raised, is that of
    ``coefficient_test(fit_ols(y, X, column_names, flavor), index,
    reference)``.  ``response_norm`` is ||y||, taken once by a caller
    that tests several designs on one y.
    """
    n, p = X.shape
    coef, resid, classical, sandwich = _fit(y, X, column_names, flavor,
                                            index)
    return _white_test(float(coef[index]), float(sandwich),
                       float(classical), n - p, _norm(resid),
                       response_norm, index, reference)


def _white_test(estimate, variance, classical_variance, dof, resid_norm,
                response_norm, index, reference):
    """White's test of coefficient ``index`` from the scalars it reads,
    as a ``CoefficientTest``: the one place that builds one.

    The one home of the exact-fit and zero-SE rule (see
    ``coefficient_test``): every route decides its tests here.
    """
    std_error = math.sqrt(max(variance, 0.0))
    if (resid_norm <= _EXACT_FIT_RTOL * response_norm
            or variance <= _EXACT_FIT_RTOL ** 2 * (dof * classical_variance)):
        raise ZeroStdError(
            f"degenerate fit: robust standard error of coefficient {index} "
            f"is {std_error:.3e}", estimate)
    statistic = estimate / std_error
    return CoefficientTest(estimate, std_error, statistic,
                           two_sided_pvalue(statistic, dof, reference),
                           reference, dof)


def residualize(target_column: str, on_columns, data: Dataset):
    """Empirical residual of a column after projecting on others + intercept.

    With no ``on_columns`` this is plain centering.
    """
    target = data.column(target_column)
    on_columns = list(on_columns)
    if not on_columns:
        return target - target.mean()
    return _fit(target, data.design(on_columns), ("intercept", *on_columns),
                "HC0", ())[1]
