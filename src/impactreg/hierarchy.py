"""Fixed-sequence hierarchical testing with data-dependent covariate order.

The ordering repeatedly picks the candidate with the smallest absolute
correlation to the current focus residual (to minimize collinearity) and
depends only on the covariate columns, never on the response.  Each step
k tests the focus coefficient, with White's robust test, in the
regression of y on the focus plus the first k ordered covariates;
testing stops at the first non-rejection.

Each function checks its whole input once, by the checking rule of
:mod:`impactreg.regression`, before any work.  Both loops fit leading
column slices of one preallocated column-major design, so the kernel's
copy of each slice is one contiguous block, and ask only for what they
read: the ordering's residualizations call the kernel for no covariance
row (``rows=()``), and each step is ``regression``'s one-coefficient
test of the focus (``rows=(1,)``).  By the kernel's row contract (see
:mod:`impactreg.backend`), the ordering and the step p-values keep the
bits of the ``fit_ols`` route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .dataset import Dataset
from .errors import DegenerateCovariate, DimensionMismatch, InvalidConfig
from .regression import _focus_test, _norm, _validate


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
    candidates = np.asarray(candidates, dtype=float)
    # the checks and the correlations read one column-major copy of the
    # candidates: reductions down its contiguous columns run several
    # times faster than down the rows of a row-major input
    x_focus, centred, _ = _validate(x_focus, np.array(candidates, order="F"))
    n, q = centred.shape
    if q == 0:
        return []
    # constancy is tested exactly, as np.ptp tests it: the std of a
    # constant column whose mean does not round exactly is 1e-17..1e-13,
    # not 0
    if np.subtract(np.maximum.reduce(x_focus),
                   np.minimum.reduce(x_focus)) == 0.0:
        raise DegenerateCovariate("focus covariate is constant")
    if (np.subtract(np.maximum.reduce(centred), np.minimum.reduce(centred))
            == 0.0).any():
        raise DegenerateCovariate("a candidate covariate is constant")
    if q == 1:
        return [0]

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
    ``regression``'s one-coefficient test, ``_focus_test``, on the step's
    leading slice of the design, and so, by the kernel's row contract
    (see :mod:`impactreg.backend`), the same bits as
    ``coefficient_test(fit_ols(...), 1)``.  The whole input is checked
    up front, by the checking rule of :mod:`impactreg.regression`, so a
    non-finite column raises ``NonFinite`` even where the steps would
    stop before it; only ``n > p`` is left to each step.
    """
    x_focus = np.asarray(x_focus, dtype=float)
    ordered = np.asarray(ordered, dtype=float)
    if (x_focus.ndim != 1 or ordered.ndim != 2
            or x_focus.shape[0] != ordered.shape[0]):
        raise DimensionMismatch(
            "x_focus must be 1-d and the ordered candidates 2-d, with as "
            "many rows")
    n, q = ordered.shape
    # every step fits a leading slice of one design [1, x_focus, ordered]
    design = np.empty((n, q + 2), order="F")
    design[:, 0] = 1.0
    design[:, 1] = x_focus
    design[:, 2:] = ordered
    y, design, column_names = _validate(y, design, flavor, column_names)
    response_norm = _norm(y)
    steps = q + 1 if include_bivariate else q
    pvalues: list = [None] * steps
    rejected = 0
    first = 2 if include_bivariate else 3
    # one cap for all the steps' fits (see backend)
    with backend._ONE_BLAS_THREAD:
        for step in range(steps):
            pvalue = _focus_test(y, design[:, :first + step], 1,
                                 column_names, flavor, reference,
                                 response_norm).p_value
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
