"""Fixed-sequence hierarchical testing with data-dependent covariate order.

The ordering repeatedly picks the candidate with the smallest absolute
correlation to the current focus residual (to minimize collinearity) and
depends only on the covariate columns, never on the response.  Each step
k tests the focus coefficient, with White's robust test, in the
regression of y on the focus plus the first k ordered covariates;
testing stops at the first non-rejection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backend
from .dataset import Dataset
from .errors import (DegenerateCovariate, DimensionMismatch, InvalidConfig,
                     RankDeficient)
from .regression import coefficient_test, fit_ols


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
    n, q = candidates.shape
    if q == 0:
        return []
    if np.ptp(x_focus) == 0.0:
        raise DegenerateCovariate("focus covariate is constant")
    sd = candidates.std(axis=0)
    if np.any(sd == 0.0):
        raise DegenerateCovariate("a candidate covariate is constant")

    # one BLAS thread, as in the kernel (see backend): on tall data the
    # correlations' matmuls would otherwise share out work to threads that
    # only spin, and their last bits would follow the core count.  The
    # cap is entered once, so the nested fits skip their save and restore.
    with backend._ONE_BLAS_THREAD:
        # the candidates are centred and their norms taken once; each pass
        # correlates the current focus residual with the remaining
        # columns.  The copy is column-major, like the copy
        # candidates[:, remaining] that NumPy's indexing returns, so each
        # column is summed in the same order and the correlations keep
        # every bit of centring that copy.
        centred = np.array(candidates, order="F")
        centred -= centred.mean(axis=0)
        norms = np.sqrt(np.einsum("ij,ij->j", centred, centred))
        remaining = list(range(q))
        order: list[int] = []
        resid = x_focus - x_focus.mean()
        while len(remaining) > 1:
            v = resid - resid.mean()
            with np.errstate(invalid="ignore", divide="ignore"):
                corr = (np.abs(centred[:, remaining].T @ v)
                        / (np.sqrt(v @ v) * norms[remaining]))
            # argmin with position-order tie-break; nan (degenerate
            # residual direction) sorts last
            corr = np.where(np.isnan(corr), np.inf, corr)
            pick = remaining[int(np.argmin(corr))]
            order.append(pick)
            remaining.remove(pick)
            X = np.column_stack([np.ones(n), candidates[:, order]])
            try:
                resid = fit_ols(x_focus, X).residuals
            except (RankDeficient, DimensionMismatch):
                # focus is now fully explained, or no row is left to
                # explain it with: append the rest in position order
                break
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
                      flavor="HC0", reference="student_t"):
    """Sequential step p-values with early stopping (array form).

    Returns ``(pvalues, rejected_prefix)``; p-values past the first
    non-rejection are ``None`` (never evaluated).
    """
    n = y.shape[0]
    q = ordered.shape[1]
    steps = q + 1 if include_bivariate else q
    pvalues: list = [None] * steps
    rejected = 0
    ones = np.ones(n)
    for step in range(steps):
        if include_bivariate:
            n_adjust = step
        else:
            n_adjust = step + 1
        X = np.column_stack([ones, x_focus, ordered[:, :n_adjust]])
        p = coefficient_test(fit_ols(y, X, flavor=flavor), 1,
                             reference).p_value
        pvalues[step] = p
        if p <= alpha:
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
        flavor=flavor, reference=reference)
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
