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
from .errors import DegenerateCovariate, RankDeficient, ZeroStdError
from .regression import RANK_TOL, two_sided_pvalue


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


def _abs_corr(v, M):
    """|corr(v, column)| for every column of M; 0-variance columns -> nan."""
    v = v - v.mean()
    M = M - M.mean(axis=0)
    sv = np.sqrt(v @ v)
    sm = np.sqrt(np.einsum("ij,ij->j", M, M))
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.abs(M.T @ v) / (sv * sm)
    return r


def _ols(X, y, hc1=False):
    coef, resid, xtx_inv, classical, sandwich, rank, piv = backend.ols_sandwich(
        X, y, RANK_TOL, hc1)
    if coef is None:
        raise RankDeficient(int(piv[rank]))
    return coef, resid, sandwich


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

    remaining = list(range(q))
    order: list[int] = []
    resid = x_focus - x_focus.mean()
    while len(remaining) > 1:
        corr = _abs_corr(resid, candidates[:, remaining])
        # argmin with position-order tie-break; nan (degenerate residual
        # direction) sorts last
        corr = np.where(np.isnan(corr), np.inf, corr)
        pick = remaining[int(np.argmin(corr))]
        order.append(pick)
        remaining.remove(pick)
        X = np.column_stack([np.ones(n), candidates[:, order]])
        try:
            _, resid, _ = _ols(X, x_focus)
        except RankDeficient:
            # focus is now fully explained; append the rest in position order
            order.extend(remaining)
            return order
    order.extend(remaining)
    return order


def order_covariates(focus, candidates, data: Dataset):
    """Label-level wrapper around :func:`order_indices`."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("need at least one candidate covariate")
    perm = order_indices(data.column(focus), data.columns(candidates))
    return [candidates[j] for j in perm]


def fixed_sequence_test(p_values, alpha):
    """Length of the maximal all-rejected prefix at local level alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    count = 0
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value {p} outside [0, 1]")
        if p <= alpha:
            count += 1
        else:
            break
    return count


def hierarchy_pvalues(y, x_focus, ordered, alpha, include_bivariate=False,
                      hc1=False, reference="student_t"):
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
        coef, resid, sandwich = _ols(X, y, hc1)
        var = sandwich[1, 1]
        se = np.sqrt(var) if var > 0 else 0.0
        if se < 1e-14:
            raise ZeroStdError("degenerate robust standard error in hierarchy")
        stat = coef[1] / se
        p = two_sided_pvalue(stat, n - X.shape[1], reference)
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
            raise ValueError("pre-specified ordering must permute the candidates")
    elif candidates:
        ordering = order_covariates(focus, candidates, data)
    else:
        ordering = []
        if not include_bivariate:
            raise ValueError("no candidates and no bivariate step: nothing to test")
    ordered = data.columns(ordering) if ordering else np.empty((data.n, 0))
    pvalues, rejected = hierarchy_pvalues(
        y, x_focus, ordered, alpha, include_bivariate=include_bivariate,
        hc1=(flavor == "HC1"), reference=reference)
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
