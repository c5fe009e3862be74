"""The least-squares kernel behind every fit in the package.

One column-pivoted QR factorization per call; normal equations are never
formed.  :func:`sandwich` is the single place that builds the Huber-White
covariance and applies the HC1 factor n/(n-p).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import qr, solve_triangular

BACKEND_NAME = "python"


def sandwich(X, resid, xtx_inv, hc1=False):
    """(X'X)^-1 X' diag(e_i^2) X (X'X)^-1, times n/(n-p) for HC1."""
    n, p = X.shape
    e2 = resid * resid
    meat = (X * e2[:, None]).T @ X
    cov = xtx_inv @ meat @ xtx_inv
    if hc1:
        cov *= n / (n - p)
    return 0.5 * (cov + cov.T)


def ols_sandwich(X, y, rank_tol=1e-10, hc1=False):
    """Fit least squares and compute classical + sandwich covariance.

    Parameters
    ----------
    X : (n, p) design matrix (leading intercept column by convention).
    y : (n,) response.
    rank_tol : relative pivot tolerance; pivot j is zero when
        ``|R[j, j]| < rank_tol * |R[0, 0]|``.
    hc1 : scale the sandwich by n/(n-p).

    Returns
    -------
    (coef, resid, xtx_inv, classical, sandwich, rank, pivots)
    where all matrices are ``None`` when ``rank < p``; ``pivots`` is the
    column permutation chosen by the factorization (decreasing pivot
    magnitude), so ``pivots[rank]`` names a dependent column.
    """
    X = np.ascontiguousarray(X, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    n, p = X.shape
    Q, R, piv = qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(diag >= rank_tol * diag[0]))
    if rank < p:
        return None, None, None, None, None, rank, piv

    w = solve_triangular(R, Q.T @ y)
    coef = np.empty(p)
    coef[piv] = w
    resid = y - X @ coef

    r_inv = solve_triangular(R, np.eye(p))
    xtx_inv_perm = r_inv @ r_inv.T
    xtx_inv = np.empty((p, p))
    xtx_inv[np.ix_(piv, piv)] = xtx_inv_perm

    sigma2 = float(resid @ resid) / (n - p) if n > p else 0.0
    classical = sigma2 * xtx_inv
    classical = 0.5 * (classical + classical.T)
    return (coef, resid, xtx_inv, classical, sandwich(X, resid, xtx_inv, hc1),
            rank, piv)
