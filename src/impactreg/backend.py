"""The least-squares kernel behind every fit in the package.

One column-pivoted QR factorization X P = Q R per call; normal equations
are never formed.  With B = P R^-1 the classical covariance is s^2 B B'
and the sandwich is B (H'H) B' with H = diag(e) Q, never an explicit
(X'X)^-1 product, so its error grows with cond(X), not cond(X)^2.  This
is the single place that builds the Huber-White matrix and applies the
HC1 factor n/(n-p).

The kernel runs on one BLAS thread.  At the package's sizes OpenBLAS's
extra threads gain nothing on the kernel's LAPACK calls and matmuls: they
spin beside it and double its CPU time.  Parallelism is the job of
``simulate``'s process pool.  Each call holds every loaded OpenBLAS that
exports ``openblas_set_num_threads_local`` at one thread and restores the
previous count on the way out; with any other BLAS it runs unchanged.
"""

from __future__ import annotations

import ctypes
import functools
import threading

import numpy as np
from scipy.linalg import qr, solve_triangular

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


def ols_sandwich(X, y, hc1=False):
    """Fit least squares and compute classical + sandwich covariance.

    Parameters
    ----------
    X : (n, p) design matrix (leading intercept column by convention).
    y : (n,) response.  X and y must be finite; ``fit_ols`` checks that,
        so the factorization and the solves skip SciPy's own check.
    hc1 : scale the sandwich by n/(n-p).

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
        Q, R, piv = qr(X, mode="economic", pivoting=True, check_finite=False)
        diag = np.abs(np.diag(R))
        if diag[0] == 0.0:
            rank = 0
        else:
            rank = int(np.sum(diag >= RANK_TOL * diag[0]))
        if rank < p:
            return None, None, None, None, rank, piv

        w = solve_triangular(R, Q.T @ y, check_finite=False)
        coef = np.empty(p)
        coef[piv] = w
        resid = y - X @ coef

        # B = P R^-1, so (X'X)^-1 = B B'
        B = np.empty((p, p))
        B[piv] = solve_triangular(R, np.eye(p), check_finite=False)

        sigma2 = float(resid @ resid) / (n - p) if n > p else 0.0
        classical = sigma2 * (B @ B.T)
        H = Q * resid[:, None]
        sandwich = B @ (H.T @ H) @ B.T
        if hc1:
            sandwich *= n / (n - p)
        return (coef, resid, 0.5 * (classical + classical.T),
                0.5 * (sandwich + sandwich.T), rank, piv)
