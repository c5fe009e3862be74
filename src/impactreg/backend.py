"""The least-squares kernel behind every fit in the package.

One column-pivoted QR factorization X P = Q R per call; normal equations
are never formed.  With B = P R^-1 the classical covariance is s^2 B B'
and the sandwich is B (H'H) B' with H = diag(e) Q, never an explicit
(X'X)^-1 product, so its error grows with cond(X), not cond(X)^2.  This
is the single place that builds the Huber-White matrix and applies the
HC1 factor n/(n-p).

It has three callers, each asking only for what it reads.
``regression.fit_ols``, the public route, takes every output.  The steps
of ``hierarchy.hierarchy_pvalues`` call the kernel directly, with their
input checked once per hierarchy rather than once per step, and test the
focus with the same rule as ``regression.coefficient_test``.  The
residualizations of ``hierarchy.order_indices`` pass
``covariances=False`` and read only the residuals.

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

The factorization and the triangular solves call LAPACK (``dgeqp3``,
``dorgqr``, ``dtrtrs``) through ``scipy.linalg.lapack`` directly: at 500
rows the input checks, batching and workspace queries of
``scipy.linalg.qr`` and ``solve_triangular`` cost about 35-40% of a fit.
The calls mirror the layouts SciPy uses -- X copied once to column-major
order, the optimal ``lwork`` (queried once per routine and shape, then
reused), R passed to ``dtrtrs`` as its lower-triangular transpose with
``trans=1`` -- so the outputs are bit for bit those of
``qr(X, mode="economic", pivoting=True)`` followed by two
``solve_triangular`` calls; ``tests/test_regression.py`` keeps that
composition as the reference and checks it.
"""

from __future__ import annotations

import ctypes
import functools
import threading

import numpy as np
from scipy.linalg.lapack import dgeqp3, dorgqr, dtrtrs

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
# query's answer depends on the shape alone.  Two small entries per
# distinct (n, p) that the process fits.
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


@functools.cache
def _identity(p):
    """A read-only column-major p x p identity, copied by each fit."""
    eye = np.eye(p, order="F")
    eye.flags.writeable = False
    return eye


def _solve_upper(R, b):
    """R^-1 b for R in the upper triangle of a C-ordered array.

    As ``solve_triangular`` does for C-ordered input, ``dtrtrs`` gets the
    column-major R.T and solves (R')' x = b from its lower triangle; it
    reads nothing else, so the Householder vectors below R's diagonal may
    stay there.
    """
    x, info = dtrtrs(R.T, b, lower=1, trans=1, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    return x


def ols_sandwich(X, y, hc1=False, covariances=True):
    """Fit least squares and compute classical + sandwich covariance.

    Parameters
    ----------
    X : (n, p) design matrix (leading intercept column by convention).
    y : (n,) response.  X and y must be finite; the callers
        (``fit_ols`` and the two loops of ``hierarchy``) check that, so
        the kernel does not.
    hc1 : scale the sandwich by n/(n-p).
    covariances : when False, return right after the residuals, with
        ``None`` for both covariances: the ordering's residualizations
        read nothing else.  The coefficients, residuals, rank and pivots
        are the same bits either way.

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
        X = np.ascontiguousarray(X, dtype=float)
        y = np.ascontiguousarray(y, dtype=float)
        n, p = X.shape
        # X P = Q R: dgeqp3 leaves R in the upper triangle of its copy of
        # X and the Householder vectors below it
        factor, piv, tau = _lapack(dgeqp3, np.array(X, order="F"))
        piv -= 1  # LAPACK numbers columns from 1
        diag = np.abs(factor.diagonal())
        if diag[0] == 0.0:
            rank = 0
        else:
            rank = int(np.count_nonzero(diag >= RANK_TOL * diag[0]))
        if rank < p:
            return None, None, None, None, rank, piv
        # dorgqr overwrites the factor with Q, so R is copied out first
        R = np.ascontiguousarray(factor[:p])
        Q, = _lapack(dorgqr, factor, tau)

        w = _solve_upper(R, Q.T @ y)
        coef = np.empty(p)
        coef[piv] = w
        resid = y - X @ coef
        if not covariances:
            return coef, resid, None, None, rank, piv

        # B = P R^-1, so (X'X)^-1 = B B'
        B = np.empty((p, p))
        # dtrtrs solves in place, so it gets a copy of the identity
        B[piv] = _solve_upper(R, np.array(_identity(p), order="F"))

        sigma2 = float(resid @ resid) / (n - p) if n > p else 0.0
        classical = sigma2 * (B @ B.T)
        # H = diag(e) Q, formed in Q's place: Q is not read again
        Q *= resid[:, None]
        sandwich = B @ (Q.T @ Q) @ B.T
        if hc1:
            sandwich *= n / (n - p)
        return (coef, resid, 0.5 * (classical + classical.T),
                0.5 * (sandwich + sandwich.T), rank, piv)
