"""The least-squares kernel behind every fit in the package.

One column-pivoted QR factorization X P = Q R per call; normal equations
are never formed.  With B = P R^-1 the classical covariance is s^2 B B'
and the sandwich is B (H'H) B' with H = diag(e) Q, never an explicit
(X'X)^-1 product, so its error grows with cond(X), not cond(X)^2.  This
is the single place that builds the Huber-White matrix and applies the
HC1 factor n/(n-p).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import qr, solve_triangular

BACKEND_NAME = "python"

# relative pivot tolerance: pivot j is zero when |R[j,j]| < RANK_TOL * |R[0,0]|
RANK_TOL = 1e-10


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
    ``pivots[rank]`` names a dependent column.
    """
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
