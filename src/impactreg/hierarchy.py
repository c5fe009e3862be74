"""Fixed-sequence hierarchical testing with data-dependent covariate order.

The ordering repeatedly picks the candidate with the smallest absolute
correlation to the current focus residual (to minimize collinearity) and
depends only on the covariate columns, never on the response.  Each step
k tests the focus coefficient, with White's robust test, in the
regression of y on the focus plus the first k ordered covariates;
testing stops at the first non-rejection.

Both loops call the least-squares kernel directly, on leading column
slices of one preallocated column-major design, so the kernel's copy of
each slice is one contiguous block, and ask it only for what they read:
the ordering's residualizations ask for no covariance row (``rows=()``),
and the steps ask for the focus row alone (``rows=(1,)``), check their
input once per hierarchy instead of once per fit, then test the focus
with ``regression``'s own rule.  By the kernel's row contract (see
:mod:`impactreg.backend`), the ordering and the step p-values keep the
bits of the ``fit_ols`` route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .dataset import Dataset
from .errors import (DegenerateCovariate, DimensionMismatch, InvalidConfig,
                     NonFinite, RankDeficient)
from .regression import _norm, _white_statistic, two_sided_pvalue


@dataclass(frozen=True)
class HierarchyResult:
    focus: str
    ordering: tuple[str, ...]
    step_pvalues: tuple    # None past the first non-rejection
    rejected_prefix: int
    confounders_adjusted: int
    alpha: float
    include_bivariate: bool

    def as_dict(self):
        return {
            "focus": self.focus,
            "ordering": list(self.ordering),
            "step_pvalues": list(self.step_pvalues),
            "rejected_prefix": self.rejected_prefix,
            "confounders_adjusted": self.confounders_adjusted,
            "alpha": self.alpha,
            "include_bivariate": self.include_bivariate,
        }


def order_indices(x_focus, candidates):
    """Data-dependent ordering of candidate columns (array form).

    ``candidates`` is n-by-q; returns a permutation of range(q).  Ties
    are broken by the smallest column position.  If a residualization
    collapses, the remaining candidates are appended in position order.
    """
    x_focus = np.asarray(x_focus, dtype=float)
    candidates = np.asarray(candidates, dtype=float)
    if x_focus.ndim != 1 or candidates.ndim != 2:
        raise DimensionMismatch("x_focus must be 1-d and candidates 2-d")
    n, q = candidates.shape
    if x_focus.shape[0] != n:
        raise DimensionMismatch(
            f"candidates have {n} rows but x_focus has {x_focus.shape[0]}")
    if q == 0:
        return []
    # the checks and the correlations read one column-major copy of the
    # candidates: reductions down its contiguous columns run several
    # times faster than down the rows of a row-major input
    centred = np.array(candidates, order="F")
    # constancy is tested exactly, as np.ptp tests it: the std of a
    # constant column whose mean does not round exactly is 1e-17..1e-13,
    # not 0
    if np.subtract(np.maximum.reduce(x_focus),
                   np.minimum.reduce(x_focus)) == 0.0:
        raise DegenerateCovariate("focus covariate is constant")
    if (np.subtract(np.maximum.reduce(centred), np.minimum.reduce(centred))
            == 0.0).any():
        raise DegenerateCovariate("a candidate covariate is constant")
    # the residualizations below call the kernel, which does not check
    # its input; with one candidate there is nothing to residualize
    if q > 1 and not (np.isfinite(x_focus).all()
                      and np.isfinite(centred).all()):
        raise NonFinite("non-finite entries in regression input")

    # one BLAS thread, as in the kernel (see backend): on tall data the
    # correlations' matmuls would otherwise share out work to threads that
    # only spin, and their last bits would follow the core count.  The
    # cap is entered once, so the nested fits skip their save and restore.
    with backend._ONE_BLAS_THREAD:
        # the candidates are centred and their norms taken once, each
        # column summed down its contiguous storage as mean(axis=0) sums
        # it.  The leading columns of the copy hold the remaining
        # candidates in position order: a pick's column is closed up
        # behind it, so each pass correlates the current focus residual
        # with a leading slice, laid out as NumPy's copy
        # centred[:, remaining] would be, and no column is copied out.
        centred -= np.add.reduce(centred) / n
        norms = np.sqrt(np.einsum("ij,ij->j", centred, centred))
        flat = centred.reshape(-1, order="F")
        # the picks so far, after an intercept column: each
        # residualization fits a leading slice of it
        design = np.empty((n, q + 1), order="F")
        design[:, 0] = 1.0
        remaining = list(range(q))
        order: list[int] = []
        resid = x_focus - np.add.reduce(x_focus) / n
        # a degenerate residual direction divides 0 by 0, and the nan is
        # handled below; the residualizations inside divide nothing, so
        # no warning of theirs is hidden
        with np.errstate(invalid="ignore", divide="ignore"):
            while (r := len(remaining)) > 1:
                v = resid - np.add.reduce(resid) / n
                corr = centred[:, :r].T @ v
                np.abs(corr, out=corr)
                corr /= math.sqrt(v @ v) * norms[:r]
                # argmin with position-order tie-break; nan (degenerate
                # residual direction) sorts last
                j = int(corr.argmin())
                if math.isnan(corr[j]):
                    corr[np.isnan(corr)] = np.inf
                    j = int(corr.argmin())
                pick = remaining.pop(j)
                order.append(pick)
                # close up the pick's column and norm; the overlapping
                # 1-d moves run front to back, as if through a copy
                flat[j * n:(r - 1) * n] = flat[(j + 1) * n:r * n]
                norms[j:r - 1] = norms[j + 1:r]
                p = len(order) + 1
                if n <= p:
                    # no row is left to explain the focus with
                    break
                design[:, p - 1] = candidates[:, pick]
                # only the residuals are read, so the kernel stops there
                resid = backend.ols_sandwich(design[:, :p], x_focus,
                                             rows=())[1]
                if resid is None:
                    # rank < p: the focus is now fully explained
                    break
    # the rest follow in position order
    order.extend(remaining)
    return order


def order_covariates(focus, candidates, data: Dataset):
    """Label-level wrapper around :func:`order_indices`."""
    candidates = list(candidates)
    if not candidates:
        raise InvalidConfig("need at least one candidate covariate")
    perm = order_indices(data.column(focus), data.columns(candidates))
    return [candidates[j] for j in perm]


def fixed_sequence_test(p_values, alpha):
    """Length of the maximal all-rejected prefix at local level alpha."""
    if not 0.0 < alpha < 1.0:
        raise InvalidConfig("alpha must be in (0, 1)")
    count = 0
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise InvalidConfig(f"p-value {p} outside [0, 1]")
        if p <= alpha:
            count += 1
        else:
            break
    return count


def hierarchy_pvalues(y, x_focus, ordered, alpha, include_bivariate=False,
                      flavor="HC0", reference="student_t", column_names=None):
    """Sequential step p-values with early stopping (array form).

    Returns ``(pvalues, rejected_prefix)``; p-values past the first
    non-rejection are ``None`` (never evaluated).  ``column_names`` names
    the columns of the full design (intercept, focus, ordered...), for
    the errors of the step fits; by default they are ``fit_ols``'s
    (``x0``, ``x1``, ...).

    Each step's p-value, and the error a step raises, are those of
    ``regression``'s one-coefficient route, ``_white_test(
    *_coefficient_row(y, design[:, :p], 1, names, flavor), 1, reference)``,
    on the step's leading slice of the design, and, by the kernel's row
    contract (see :mod:`impactreg.backend`), the same bits as
    ``coefficient_test(fit_ols(...), 1)``; the steps apply that route's
    rule, ``_white_statistic``, without building its result object.
    Only the checks are hoisted: y, the intercept and the focus are
    checked at the first step, and each later step looks up its new
    column's finiteness, taken for every column at once.
    """
    y = np.asarray(y, dtype=float)
    x_focus = np.asarray(x_focus, dtype=float)
    ordered = np.asarray(ordered, dtype=float)
    if y.ndim != 1 or x_focus.ndim != 1 or ordered.ndim != 2:
        raise DimensionMismatch(
            "y and x_focus must be 1-d and the ordered candidates 2-d")
    n = y.shape[0]
    q = ordered.shape[1]
    if x_focus.shape[0] != n or ordered.shape[0] != n:
        raise DimensionMismatch(
            f"y has {n} rows but x_focus has {x_focus.shape[0]} and the "
            f"ordered candidates {ordered.shape[0]}")
    steps = q + 1 if include_bivariate else q
    pvalues: list = [None] * steps
    rejected = 0
    # every step fits a leading slice of one design [1, x_focus, ordered]
    design = np.empty((n, q + 2), order="F")
    design[:, 0] = 1.0
    design[:, 1] = x_focus
    design[:, 2:] = ordered
    if column_names is not None and len(column_names) != q + 2:
        raise DimensionMismatch("column_names length does not match X")
    first = 2 if include_bivariate else 3
    # one cap for all the steps' fits (see backend)
    with backend._ONE_BLAS_THREAD:
        for step in range(steps):
            p = first + step
            if n <= p:
                raise DimensionMismatch(f"need n > p, got n={n}, p={p}")
            if step == 0:
                finite = np.isfinite(design).all(axis=0).tolist()
                if not (np.isfinite(y).all() and all(finite[:p])):
                    raise NonFinite("non-finite entries in regression input")
                if flavor not in ("HC0", "HC1"):
                    raise InvalidConfig(
                        f"unknown sandwich flavor {flavor!r}")
                response_norm = _norm(y)
            elif not finite[p - 1]:
                raise NonFinite("non-finite entries in regression input")
            coef, resid, classical, sandwich, rank, piv = \
                backend.ols_sandwich(design[:, :p], y, flavor == "HC1",
                                     (1,))
            if rank < p:
                j = int(piv[rank])
                raise RankDeficient(f"x{j}" if column_names is None
                                    else column_names[j])
            pvalue = two_sided_pvalue(_white_statistic(
                float(coef[1]), float(sandwich[0, 0]),
                float(classical[0, 0]), n - p, _norm(resid), response_norm,
                1)[1], n - p, reference)
            pvalues[step] = pvalue
            if pvalue <= alpha:
                rejected += 1
            else:
                break
    return pvalues, rejected


def run_hierarchy(y_col, focus, candidates, data: Dataset, alpha=0.05,
                  include_bivariate=False, ordering=None, flavor="HC0",
                  reference="student_t"):
    """Full hierarchical procedure on a labeled dataset."""
    candidates = list(candidates)
    y = data.column(y_col)
    x_focus = data.column(focus)
    if ordering is not None:
        ordering = list(ordering)
        if sorted(ordering) != sorted(candidates):
            raise InvalidConfig(
                "pre-specified ordering must permute the candidates")
    elif candidates:
        ordering = order_covariates(focus, candidates, data)
    else:
        ordering = []
        if not include_bivariate:
            raise InvalidConfig(
                "no candidates and no bivariate step: nothing to test")
    ordered = data.columns(ordering) if ordering else np.empty((data.n, 0))
    pvalues, rejected = hierarchy_pvalues(
        y, x_focus, ordered, alpha, include_bivariate=include_bivariate,
        flavor=flavor, reference=reference,
        column_names=("intercept", focus, *ordering))
    confounders = max(0, rejected - 1) if include_bivariate else rejected
    return HierarchyResult(
        focus=focus,
        ordering=tuple(ordering),
        step_pvalues=tuple(pvalues),
        rejected_prefix=rejected,
        confounders_adjusted=confounders,
        alpha=alpha,
        include_bivariate=include_bivariate,
    )
