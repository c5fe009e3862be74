"""Fixed-sequence hierarchical testing with data-dependent covariate order.

The ordering repeatedly picks the candidate with the smallest absolute
correlation to the current focus residual (to minimize collinearity) and
depends only on the covariate columns, never on the response.  Each step
k tests the focus coefficient, with White's robust test, in the
regression of y on the focus plus the first k ordered covariates;
testing stops at the first non-rejection.

The array forms, ``order_indices`` and ``hierarchy_pvalues``, check
their whole input once, at entry, by the checking rule of
:mod:`impactreg.regression`; the label forms read a ``Dataset``, whose
values were checked when it was built, and check no array again.  The
step loop checks its level and that there is a step to test, so both
forms reject the same calls.

The kernel factors each design in place (see :mod:`impactreg.backend`),
so each loop fits leading slices of one column-major buffer of its own
and fills a slice from a column-major source just before the fit.  The
source is never written: it is the dataset's table, or, for the array
forms, a column-major copy of the caller's arrays (the candidates
themselves, if they are column-major float64 already).  Apart from that
copy and the buffer, no copy of the table is made.

The ordering's buffer, (n, q+1), is laid out as ``[1 | picks, raw, in
pick order | remaining candidates, centred, in position order]``.  On
each pick, the centred columns before the pick shift one place right,
over its slot; then ``[1 | picks]`` is refilled from the source, the
pick's raw column at the boundary, and fitted.  Each correlation pass
reads the remaining candidates as one contiguous slice, in position
order, which no fit touches.  The steps' buffer is (n, q+2): each step
fills its leading slice with its design ``[1, focus, first ordered
candidates]`` and fits it.  Both loops ask only for what they read:
the ordering's residualizations call the kernel for the residuals alone
(``rows=()``), and each step is ``regression``'s one-coefficient test of
the focus, ``_focus_test``, which asks for the focus's row alone (the
int ``rows=1``) and of which the step reads the p-value.  By the
kernel's row contract (see :mod:`impactreg.backend`), the ordering and
the step p-values keep the bits of the ``fit_ols`` route.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import backend
from .dataset import Dataset
from .errors import DegenerateCovariate, DimensionMismatch, InvalidConfig
from .regression import _default_names, _focus_test, _norm, _validate


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
        return asdict(self)


def order_indices(x_focus, candidates):
    """Data-dependent ordering of candidate columns (array form).

    ``candidates`` is n-by-q; returns a permutation of range(q).  Ties
    are broken by the smallest column position.  If a residualization
    collapses, the remaining candidates are appended in position order.
    """
    x_focus, candidates, _ = _validate(x_focus, candidates)
    n, q = candidates.shape
    # the raw candidates, column-major: the fits' prefixes are refilled
    # from it, and it is never written
    source = np.asfortranarray(candidates)
    buffer = np.empty((n, q + 1), order="F")
    buffer[:, 0] = 1.0
    buffer[:, 1:] = source
    return _order(x_focus, buffer, source, np.arange(q))


def _refill(design, source, columns):
    """Write ``[1, source[:, columns]...]`` over the column-major
    ``design``, one column wider than ``columns``, which the fit before
    factored in place.

    ``source`` is column-major, so its columns are the rows of the
    row-major ``source.T``, and one ``take`` gathers them straight into
    the rows of ``design.T``, with no copy of the selection on the way.
    Its ``clip`` mode (the positions are in range) lets ``take`` write
    into ``design`` itself; the default mode writes to a temporary first.
    """
    rows = design.T
    rows[0] = 1.0
    # by position: axis, out, mode
    source.T.take(columns, 0, rows[1:], "clip")


def _order(x_focus, buffer, source, columns):
    """The ordering of the candidates ``source[:, columns]``, as positions
    in ``columns`` (an integer array).

    ``buffer`` is the column-major ``[1, candidates...]``, which becomes
    the buffer of the module docstring.  ``source`` is column-major and
    never written: each fit's ``[1 | picks]`` is refilled from it.  The
    input is known to be finite and to agree in rows.
    """
    n = x_focus.shape[0]
    q = len(columns)
    if q == 0:
        return []
    # constancy is tested exactly, as np.ptp tests it: the std of a
    # constant column whose mean does not round exactly is 1e-17..1e-13,
    # not 0
    if np.subtract(np.maximum.reduce(x_focus),
                   np.minimum.reduce(x_focus)) == 0.0:
        raise DegenerateCovariate("focus covariate is constant")
    centred = buffer[:, 1:]
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
        # it; norms[i] belongs to buffer column i + 1.  With k picks made,
        # the remaining candidates fill columns k+1.. in position order,
        # so each pass correlates the current focus residual with one
        # contiguous slice, laid out as NumPy's copy centred[:, remaining]
        # would be, and each residualization fits the leading [1 | picks]
        # slice.
        centred -= np.add.reduce(centred) / n
        norms = np.sqrt(np.einsum("ij,ij->j", centred, centred))
        flat = buffer.reshape(-1, order="F")
        remaining = list(range(q))
        order: list[int] = []
        picks = np.empty(q, dtype=np.intp)  # their source columns
        resid = x_focus - np.add.reduce(x_focus) / n
        # a degenerate residual direction divides 0 by 0, and the nan is
        # handled below; the residualizations inside divide nothing, so
        # no warning of theirs is hidden
        with np.errstate(invalid="ignore", divide="ignore"):
            while (r := len(remaining)) > 1:
                k = q - r
                # the residual is the loop's own: centred in its place.
                # x.dot(v) is x @ v, the same BLAS call, at less call cost
                resid -= np.add.reduce(resid) / n
                corr = buffer[:, k + 1:].T.dot(resid)
                np.abs(corr, out=corr)
                corr /= math.sqrt(resid.dot(resid)) * norms[k:]
                # argmin with position-order tie-break; nan (degenerate
                # residual direction) sorts last
                j = int(corr.argmin())
                if math.isnan(corr[j]):
                    corr[np.isnan(corr)] = np.inf
                    j = int(corr.argmin())
                pick = remaining.pop(j)
                order.append(pick)
                picks[k] = columns[pick]
                # the j columns before the pick, and their norms, shift
                # one place right over its slot; an overlapping 1-d move
                # runs as memmove, with no copy
                flat[(k + 2) * n:(k + j + 2) * n] = \
                    flat[(k + 1) * n:(k + j + 1) * n]
                norms[k + 1:k + j + 1] = norms[k:k + j]
                p = k + 2
                if n <= p:
                    # no row is left to explain the focus with
                    break
                # the last fit overwrote [1 | picks]: refill it, the
                # pick's raw column at the boundary.  Only the residuals
                # are read, so the kernel stops there
                prefix = buffer[:, :p]
                _refill(prefix, source, picks[:k + 1])
                resid = backend.ols_sandwich(prefix, x_focus, rows=())[1]
                if resid is None:
                    # rank < p: the focus is now fully explained
                    break
    # the rest follow in position order
    order.extend(remaining)
    return order


def order_covariates(focus, candidates, data: Dataset):
    """Label-level wrapper around :func:`order_indices`.

    The ordering's buffer is filled straight from the dataset, whose
    values are finite by construction.
    """
    candidates = list(candidates)
    if not candidates:
        raise InvalidConfig("need at least one candidate covariate")
    perm = _order(data.column(focus), data.design(candidates), data.values,
                  np.array([data.index(c) for c in candidates], dtype=np.intp))
    return [candidates[j] for j in perm]


def _check_alpha(alpha, name="alpha"):
    """``InvalidConfig`` unless alpha is a real number in (0, 1], and
    not a bool: the one rule for a local level, wherever it is given;
    ``name`` is how the message calls it.  alpha = 1 rejects every
    p-value, so every step is evaluated.
    """
    # the range is false for nan too
    if (isinstance(alpha, bool) or not isinstance(alpha, numbers.Real)
            or not 0.0 < alpha <= 1.0):
        raise InvalidConfig(f"{name} must be in (0, 1], got {alpha!r}")


def fixed_sequence_test(p_values, alpha):
    """Length of the maximal all-rejected prefix at local level alpha."""
    _check_alpha(alpha)
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
    non-rejection are ``None`` (never evaluated).  The errors of the step
    fits name the columns of the full design (intercept, focus,
    ordered...) as ``fit_ols`` does by default: ``x0``, ``x1``, ...;
    :func:`run_hierarchy` names them by the dataset's labels.

    Each step's p-value, and the error a step raises, are those of
    ``regression``'s one-coefficient test, ``_focus_test``, on the step's
    leading slice of the design, and so, by the kernel's row contract
    (see :mod:`impactreg.backend`), the same bits as
    ``coefficient_test(fit_ols(...), 1)``.  The whole input is checked
    at entry, by the checking rule of :mod:`impactreg.regression`, so a
    non-finite column raises ``NonFinite`` even where the steps would
    stop before it; the flavor and ``n > p`` are left to each step's fit.
    """
    x_focus = np.asarray(x_focus, dtype=float)
    ordered = np.asarray(ordered, dtype=float)
    if (x_focus.ndim != 1 or ordered.ndim != 2
            or x_focus.shape[0] != ordered.shape[0]):
        raise DimensionMismatch(
            "x_focus must be 1-d and the ordered candidates 2-d, with as "
            "many rows")
    n, q = ordered.shape
    # the steps' source: the column-major [x_focus, ordered...]
    source = np.empty((n, q + 1), order="F")
    source[:, 0] = x_focus
    source[:, 1:] = ordered
    y, _, _ = _validate(y, source)
    return _steps(y, source, np.arange(q + 1), alpha, include_bivariate,
                  flavor, reference)


def _steps(y, source, columns, alpha, include_bivariate, flavor, reference,
           column_names=None):
    """The step loop of :func:`hierarchy_pvalues` on the design
    ``[1, source[:, columns]...]``, that is ``[1, x_focus, ordered...]``.

    y and ``source`` are checked already; ``source`` is column-major and
    never written.  Raises ``InvalidConfig`` for an alpha outside (0, 1]
    (``_check_alpha``) and when there is no step to test.  Each step
    builds its leading slice of the design in one column-major buffer,
    which the kernel factors in place.  ``column_names`` name the
    design's columns, by default ``x0``, ``x1``, ...
    """
    _check_alpha(alpha)
    steps = len(columns) if include_bivariate else len(columns) - 1
    if steps < 1:
        raise InvalidConfig(
            "no candidates and no bivariate step: nothing to test")
    if column_names is None:
        column_names = _default_names(len(columns) + 1)
    response_norm = _norm(y)
    design = np.empty((y.shape[0], len(columns) + 1), order="F")
    pvalues: list = [None] * steps
    rejected = 0
    first = 2 if include_bivariate else 3
    # one cap for all the steps' fits (see backend)
    with backend._ONE_BLAS_THREAD:
        for step in range(steps):
            p = first + step
            prefix = design[:, :p]
            _refill(prefix, source, columns[:p - 1])
            pvalue = _focus_test(y, prefix, 1, column_names, flavor,
                                 reference, response_norm).p_value
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
    data.index(focus)  # an unknown focus raises before the ordering
    if ordering is not None:
        ordering = list(ordering)
        if sorted(ordering) != sorted(candidates):
            raise InvalidConfig(
                "pre-specified ordering must permute the candidates")
    else:
        ordering = (order_covariates(focus, candidates, data)
                    if candidates else [])
    columns = np.array([data.index(c) for c in (focus, *ordering)],
                       dtype=np.intp)
    pvalues, rejected = _steps(y, data.values, columns, alpha,
                               include_bivariate, flavor, reference,
                               ("intercept", focus, *ordering))
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
