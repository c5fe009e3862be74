"""The least-squares kernel behind every fit in the package.

One column-pivoted QR factorization X P = Q R per call; normal equations
are never formed and neither is Q.  The fit is c = Q'y, R w = c[:p] and
coef = P w; the residuals are e = Q [0; c[p:]].  Row j of B = P R^-1,
the factor of (X'X)^-1 = B B', is z' with R'z = e_k, k being j's pivot
position.  For the rows a caller asks for, stacked in Z, the classical
covariance block is s^2 Z'Z and the sandwich block is A'A with
A = diag(e) Q [Z; 0], never an explicit (X'X)^-1 product, so its error
grows with cond(X), not cond(X)^2.  This is the single place that
builds the Huber-White matrix and applies the HC1 factor n/(n-p).

Callers name the covariance rows they read (``rows``).
``regression.fit_ols``, the public route, takes every row.  The
one-coefficient route of ``regression`` (simulate's full-model
comparator, ``slope_identity_check``, impact's slope and partial tests)
and the steps of ``hierarchy.hierarchy_pvalues`` take the focus row
alone; the steps call the kernel directly, with their input checked once
per hierarchy rather than once per step.  The residualizations of
``hierarchy.order_indices`` and ``regression.residualize`` take no row
and read only the residuals.  Each requested row is solved, multiplied
by Q and summed on its own, so its variances are the same bits whatever
else is asked for: ``coefficient_test(fit_ols(...), j)`` and the
one-coefficient route give the same p-value.  The price is one
single-column solve and reflector product per row where ``fit_ols``
could make one product of p columns.  A one-row request, the route of
every test in the package, takes a direct path: it looks up the row's
pivot position and solves, multiplies and sums one column, without the
masks, slices and copies of the k-row loop, whose column it equals bit
for bit.

The kernel runs on one BLAS thread.  At the package's sizes OpenBLAS's
extra threads gain nothing on the kernel's LAPACK calls and matmuls: they
spin beside it and double its CPU time.  Parallelism is the job of
``simulate``'s process pool.  Each call holds every loaded OpenBLAS that
exports ``openblas_set_num_threads_local`` at one thread and restores the
previous count on the way out; with any other BLAS it runs unchanged.
The cap is depth-counted: only the outermost entry sets and restores the
counts, and the calls nested in it set nothing.  It is entered once per
chunk of replications by ``simulate._replicate_chunk`` (the serial study
is one chunk), once per ordering by ``hierarchy.order_indices``, whose
correlation passes are the package's other matmuls on tall data, and
once per hierarchy by ``hierarchy.hierarchy_pvalues``.  The only BLAS
calls left outside the cap are the normal-equation solves and dot
products of ``oracle``, which no ``analyze`` or ``simulate`` path
reaches.

The factorization and the solves call LAPACK (``dgeqp3``, ``dormqr``,
``dtrtrs``) through ``scipy.linalg.lapack`` directly: at 500 rows the
input checks, batching and workspace queries of ``scipy.linalg.qr`` and
``solve_triangular`` cost about 35-40% of a fit.  Q is never formed:
``dormqr`` applies its Householder reflectors to the few columns that
need them (y, the residual's and the requested rows'), X is copied once
to column-major order and not read again, and the factorization's
optimal ``lwork`` is queried once per shape, then reused.
``tests/test_regression.py`` keeps the explicit-Q SciPy
composition, ``qr(X, mode="economic", pivoting=True)`` with two
``solve_triangular`` calls, as the reference and checks the kernel
against it within a cond(X)-scaled tolerance.
"""

from __future__ import annotations

import ctypes
import functools
import threading

import numpy as np
from scipy.linalg.lapack import dgeqp3, dormqr, dtrtrs

BACKEND_NAME = "python"

# relative pivot tolerance: pivot j is zero when |R[j,j]| < RANK_TOL * |R[0,0]|
RANK_TOL = 1e-10


@functools.cache
def _openblas_setters():
    """``openblas_set_num_threads_local`` of each OpenBLAS mapped in.

    Looked up at the first kernel call, not at import; empty where the
    process map cannot be read or no OpenBLAS exports the function.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return ()
    paths = dict.fromkeys(f[5].strip() for f in fields
                          if len(f) == 6 and "openblas" in f[5].lower())
    setters = []
    for path in paths:
        try:
            set_threads = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        set_threads.argtypes = (ctypes.c_int,)
        set_threads.restype = ctypes.c_int
        setters.append(set_threads)
    return tuple(setters)


class _OneBlasThread:
    """Holds every loaded OpenBLAS at one thread while a kernel call runs.

    ``openblas_set_num_threads_local`` sets the library's process-wide
    count and returns the previous one, so calls that overlap in several
    Python threads share one cap: the first to enter saves the counts and
    the last to leave restores them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = tuple(set_threads(1)
                                    for set_threads in _openblas_setters())
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_threads, count in zip(_openblas_setters(),
                                              self._saved):
                    set_threads(count)


_ONE_BLAS_THREAD = _OneBlasThread()


# optimal lwork of each (routine, shape of its first argument): the
# query's answer depends on the shape alone.  Only the factorization
# queries, so there is one small entry per distinct (n, p) fitted.
_LWORK: dict = {}


def _lapack(routine, *args, **kwargs):
    """Outputs of ``routine`` run with its optimal workspace, as SciPy does.

    The workspace is queried once per routine and shape of the first
    argument, then reused.  The query and the call both pass
    ``overwrite_a=1``: the first argument is a column-major array owned
    by the kernel, so neither copies it (the query leaves it untouched).
    """
    key = (routine, args[0].shape)
    lwork = _LWORK.get(key)
    if lwork is None:
        lwork = _LWORK[key] = int(
            routine(*args, lwork=-1, overwrite_a=1, **kwargs)[-2][0])
    *outputs, info = routine(*args, lwork=lwork, overwrite_a=1, **kwargs)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of "
                         f"{routine.__name__}")
    return outputs[:-1]


def _apply_q(trans, factor, tau, c):
    """Q c (``trans="N"``) or Q'c (``trans="T"``), in c's place.

    Q is applied from its Householder reflectors, below R's diagonal in
    ``factor``, on the minimal workspace of one double per column of c,
    which needs no query.  ``dormqr`` takes its unblocked path for fewer
    reflectors than its block size (32) whatever the workspace, so an
    optimal one would buy nothing below 32 columns.
    """
    c, _, info = dormqr("L", trans, factor, tau, c, c.shape[1],
                        overwrite_c=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dormqr")
    return c


def _solve(factor, b, trans):
    """R^-1 b (``trans=0``) or R'^-1 b (``trans=1``), in b's place.

    R is the upper triangle of the leading p rows of the n x p
    column-major ``factor``; ``dtrtrs`` solves the leading p rows of b
    and reads nothing else, so the Householder vectors below R's
    diagonal stay where they are.
    """
    x, info = dtrtrs(factor, b, trans=trans, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    return x


def ols_sandwich(X, y, hc1=False, rows=None):
    """Fit least squares and compute classical + sandwich covariance rows.

    Parameters
    ----------
    X : (n, p) design matrix (leading intercept column by convention),
        in any memory layout.
    y : (n,) response.  X and y must be finite; the callers
        (``regression``'s fit helper and the two loops of ``hierarchy``)
        check that, so the kernel does not.
    hc1 : scale the sandwich by n/(n-p).
    rows : the coefficients whose covariance rows are read, or ``None``
        for all of them.  The covariances returned are the
        ``len(rows)`` x ``len(rows)`` blocks of the full p x p matrices
        at ``rows``, in that order; with ``rows=()`` both are ``None``.
        The coefficients, residuals, rank and pivots are the same bits
        for any ``rows``, and so are a row's variances, the blocks'
        diagonal entries; the off-diagonal entries agree to rounding.

    Returns
    -------
    (coef, resid, classical, sandwich, rank, pivots)
    where all arrays are ``None`` when ``rank < p`` at relative pivot
    tolerance ``RANK_TOL``; ``pivots`` is the column permutation chosen
    by the factorization (decreasing pivot magnitude), so
    ``pivots[rank]`` names a dependent column.  The call runs on one BLAS
    thread (see the module docstring).
    """
    with _ONE_BLAS_THREAD:
        # X P = Q R: dgeqp3 leaves R in the upper triangle of its
        # column-major copy of X and the Householder vectors below it
        factor, piv, tau = _lapack(dgeqp3,
                                   np.array(X, dtype=float, order="F"))
        n, p = factor.shape
        piv -= 1  # LAPACK numbers columns from 1
        # p Python floats: counted faster than as an array at these sizes
        diag = factor.diagonal().tolist()
        if diag[0] == 0.0:
            rank = 0
        else:
            tol = RANK_TOL * abs(diag[0])
            rank = sum(abs(d) >= tol for d in diag)
        if rank < p:
            return None, None, None, None, rank, piv

        # c = Q'y; R w = c[:p], solved in place; e = Q [0; c[p:]]
        c = _apply_q("T", factor, tau, np.array(y, dtype=float)[:, None])
        c = _solve(factor, c, 0)
        coef = np.empty(p)
        coef[piv] = c[:p, 0]
        c[:p] = 0.0
        resid = _apply_q("N", factor, tau, c)[:, 0]
        if rows is None:
            rows = range(p)
        if not rows:
            return coef, resid, None, None, rank, piv
        scale = float(resid @ resid) / (n - p) if n > p else 0.0
        if len(rows) == 1:
            # the route of every test in the package: R'z = e_k, k the
            # row's pivot position, and a = diag(e) Q [z; 0], with the
            # same LAPACK calls and products as a column of the loop
            # below but none of its masks, slices and copies
            a = np.zeros((n, 1), order="F")
            a[piv.tolist().index(rows[0])] = 1.0
            a = _solve(factor, a, 1)
            classical = np.array([[(a[:p, 0] @ a[:p, 0]) * scale]])
            a = _apply_q("N", factor, tau, a)[:, 0]
            a *= resid
            sandwich = np.array([[a @ a]])
            if hc1:
                sandwich *= n / (n - p)
            return coef, resid, classical, sandwich, rank, piv

        # R'Z = E, E's columns the unit vectors at the rows' pivot
        # positions; then A = Q [Z; 0], scaled row by row by e.  Each
        # column is solved and multiplied on its own, and the diagonal
        # entries are summed as k separate one-column products, as a
        # one-row call sums them, so a row's variances are the same bits
        # whatever else is asked for.
        k = len(rows)
        A = np.zeros((n, k), order="F")
        A[:p] = piv[:, None] == np.asarray(rows)
        for i in range(k):
            A[:, i:i + 1] = _solve(factor, A[:, i:i + 1], 1)
        Z = A[:p].copy(order="F")
        for i in range(k):
            A[:, i:i + 1] = _apply_q("N", factor, tau, A[:, i:i + 1])
        A *= resid[:, None]
        classical = Z.T @ Z
        sandwich = A.T @ A
        for block, cols in ((classical, Z.T), (sandwich, A.T)):
            block[np.diag_indices(k)] = np.matmul(cols[:, None],
                                                  cols[..., None]).flat
        classical *= scale
        if hc1:
            sandwich *= n / (n - p)
        return coef, resid, classical, sandwich, rank, piv
