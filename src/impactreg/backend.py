"""The least-squares kernel behind every fit in the package.

One column-pivoted QR factorization X P = Q R per call; normal equations
are never formed and neither is Q.  The fit is c = Q'y, R w = c[:p] and
coef = P w; the residuals are e = Q [0; c[p:]].  Row j of B = P R^-1,
the factor of (X'X)^-1 = B B', is z' with R'z = e_k, k being j's pivot
position.  With the rows stacked in Z, the classical covariance is
s^2 Z'Z and the sandwich is A'A with A = diag(e) Q [Z; 0], never an
explicit (X'X)^-1 product, so its error grows with cond(X), not
cond(X)^2.  This is the single place that builds the Huber-White matrix
and applies the HC1 factor n/(n-p).

Callers name the covariance rows they read (``rows``), in one of three
forms, and the kernel does only the work those rows need.
``rows=None`` is every row: ``regression.fit_ols``, the public route,
gets the p x p matrices.  An integer j, of any integer type, is row j
alone: the one-coefficient test of ``regression`` (the steps of
``hierarchy.hierarchy_pvalues``, simulate's full-model comparator,
``slope_identity_check``, impact's slope and partial tests) names the
focus row and gets its two variances as scalars.  ``rows=()`` is no
row: the residualizations of ``hierarchy.order_indices`` and
``regression.residualize`` get the residuals alone, and the kernel
returns them before it solves for the coefficients.

The row contract, which the other modules rely on: the residuals, rank
and pivots are the same bits for any ``rows``, the coefficients too
wherever they are returned, and so are a row's variances, whether
returned as scalars or as the diagonal entries of the matrices.  It
holds by construction: one function, ``_row``, does every row's work,
solving for it, multiplying it by Q and summing both products, and both
forms that read rows call it, the int form once and the full form once
per row, so ``coefficient_test(fit_ols(...), j)`` and the
one-coefficient route give the same p-value.  The full form's
off-diagonal entries, products of the stacked rows, agree with any other
summation to rounding.  The price is one single-column solve and
reflector product per row where ``fit_ols`` could make one product of p
columns.

The kernel runs on one BLAS thread.  At the package's sizes OpenBLAS's
extra threads gain nothing on the kernel's LAPACK calls and matmuls: they
spin beside it and double its CPU time.  Parallelism is the job of
``simulate``'s process pool.  Each call holds every loaded OpenBLAS that
exports ``openblas_set_num_threads_local`` at one thread and restores the
previous count on the way out; with any other BLAS it runs unchanged.
That cap is what keeps the bits of wide fits: from 128 columns on,
LAPACK's blocked factorization updates run through BLAS calls whose
last bits follow the thread count, so where no loaded OpenBLAS exports
that function (MKL, BLIS, an older OpenBLAS) a design of 128 or more
columns may give different bits on machines with different core
counts.
The cap is depth-counted: only the outermost entry sets and restores the
counts, and the calls nested in it set nothing.  It is entered once per
chunk of replications by ``simulate._replicate_chunk`` (the serial study
is one chunk), once per ordering by ``hierarchy._order``, whose
correlation passes are the package's other matmuls on tall data, and
once per hierarchy by ``hierarchy._steps``, the step loop that both
``hierarchy_pvalues`` and ``run_hierarchy`` enter.  The only BLAS calls
left outside the cap are the normal-equation solves and dot products of
``oracle``, which no ``analyze`` or ``simulate`` path reaches.

The kernel factors the design it is given in place.  ``dgeqp3``
overwrites X with R and its Householder vectors, and the kernel never
copies X: the callers hand over a writeable column-major float64 buffer
they own and do not read again (see ``ols_sandwich``).  Where X has
another layout or dtype, f2py makes the column-major copy that LAPACK
needs and the caller's array is left as it was; a read-only X is
refused, since f2py would write through it.  So the designs the package
builds (``Dataset.design``, the ordering's buffer, the steps' design,
the comparator's design, impact's stacks) are factored where they lie,
and the callers that take a design from outside copy it once, at
``regression``'s boundary.

The factorization and the solves call LAPACK (``dgeqp3``, ``dormqr``,
``dtrtrs``) through ``scipy.linalg.lapack`` directly: at 500 rows the
input checks, batching and workspace queries of ``scipy.linalg.qr`` and
``solve_triangular`` cost about 35-40% of a fit.  Q is never formed:
``dormqr`` applies its Householder reflectors to the few columns that
need them (y, the residual's and the requested rows'), and the
factorization's optimal ``lwork`` is queried once per shape, then
reused.  ``tests/test_regression.py`` keeps the explicit-Q SciPy
composition, ``qr(X, mode="economic", pivoting=True)`` with two
``solve_triangular`` calls, as the reference and checks the kernel
against it within a cond(X)-scaled tolerance.
"""

from __future__ import annotations

import ctypes
import functools
import operator
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


# optimal lwork of the factorization for each shape (n, p) fitted: the
# query's answer depends on the shape alone
_LWORK: dict = {}


def _factor(a):
    """``dgeqp3`` of a, in a's place when a is column-major float64:
    (factor, piv, tau).

    The optimal workspace is queried once per shape, then reused, as
    SciPy would query it on every call.  The query and the call both
    pass ``overwrite_a=1``: the caller gives a up, so neither copies a
    column-major float64 a (the query leaves it untouched).  As in every
    LAPACK call here, the arguments go by position (``lwork``,
    ``overwrite_a``): f2py parses keywords at about the cost of a small
    solve.
    """
    lwork = _LWORK.get(a.shape)
    if lwork is None:
        lwork = _LWORK[a.shape] = int(dgeqp3(a, -1, 1)[-2][0])
    factor, piv, tau, _, info = dgeqp3(a, lwork, 1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgeqp3")
    return factor, piv, tau


def _apply_q(trans, factor, tau, c):
    """Q c (``trans="N"``) or Q'c (``trans="T"``), in c's place.

    Q is applied from its Householder reflectors, below R's diagonal in
    ``factor``, on the minimal workspace of one double per column of c,
    which needs no query.  ``dormqr`` takes its unblocked path for fewer
    reflectors than its block size (32) whatever the workspace, so an
    optimal one would buy nothing below 32 columns.
    """
    # by position: lwork, then overwrite_c=1
    c, _, info = dormqr("L", trans, factor, tau, c, c.shape[1], 1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dormqr")
    return c


def _solve(factor, b, trans):
    """R^-1 b (``trans=0``) or R'^-1 b (``trans=1``), in b's place.

    R is the upper triangle of the leading p rows of the n x p
    column-major ``factor``; ``dtrtrs`` solves the leading p rows of b
    and reads nothing else, so the Householder vectors below R's
    diagonal stay where they are.  By position: upper, ``trans``,
    non-unit diagonal, lda = n, overwrite b.
    """
    x, info = dtrtrs(factor, b, 0, trans, 0, factor.shape[0], 1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    return x


def _row(factor, tau, resid, a, k, z=None):
    """One covariance row's work, the only code that does it.

    Writes e_k into the zero (n, 1) column-major column ``a``, k being
    the row's pivot position, solves R'z = e_k in place and takes z'z;
    copies z into ``z`` when a row of Z is given; then forms
    diag(e) Q [z; 0] in a's place and takes its square norm.  Returns
    ``(z'z, a'a)``.
    """
    a[k] = 1.0
    a = _solve(factor, a, 1)
    zz = a[:factor.shape[1], 0]
    if z is not None:
        z[:] = zz
    zz = zz.dot(zz)
    a = _apply_q("N", factor, tau, a)[:, 0]
    a *= resid
    # x.dot(x) is x @ x, the same BLAS ddot, at half the call cost
    return zz, a.dot(a)


def ols_sandwich(X, y, hc1=False, rows=None):
    """Fit least squares and compute classical + sandwich covariance rows.

    Parameters
    ----------
    X : (n, p) design matrix (leading intercept column by convention),
        overwritten: it is factored in place when it is a column-major
        float64 array, and copied to one by f2py otherwise.  It must be
        writeable; the caller does not read it again.
    y : (n,) response.  X and y must be finite; the callers check
        that, by the checking rule of :mod:`impactreg.regression`, so
        the kernel does not.
    hc1 : scale the sandwich by n/(n-p).
    rows : the covariance rows read: ``None`` for all of them, an
        integer j (a NumPy integer too) for row j alone, or ``()`` for
        none.  What keeps its bits whatever ``rows`` is: see the module
        docstring.

    Returns
    -------
    (coef, resid, classical, sandwich, rank, pivots)
    where ``classical`` and ``sandwich`` are the full p x p matrices,
    or with an int j the two variances of coefficient j as scalars.
    With ``rows=()`` only ``resid`` is computed, and the other three are
    ``None``.  All four are ``None`` when ``rank < p`` at relative pivot
    tolerance ``RANK_TOL``; ``pivots`` is the column permutation chosen
    by the factorization (decreasing pivot magnitude), so
    ``pivots[rank]`` names a dependent column.  The call runs on one BLAS
    thread (see the module docstring).
    """
    if not X.flags.writeable:
        raise ValueError("the kernel factors X in place: X is read-only")
    # the three forms of rows, told apart by type: a NumPy integer's
    # ``== ()`` is an array, not a bool
    residual_only = isinstance(rows, tuple)
    if not (residual_only or rows is None):
        rows = operator.index(rows)
    with _ONE_BLAS_THREAD:
        # X P = Q R: dgeqp3 leaves R in the upper triangle of X and the
        # Householder vectors below it
        factor, piv, tau = _factor(X)
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

        # c = Q'y; R w = c[:p], solved in place; e = Q [0; c[p:]].  The
        # residuals alone read c[p:] only, so c[:p] is not solved
        c = _apply_q("T", factor, tau, np.array(y, dtype=float)[:, None])
        coef = None
        if not residual_only:
            c = _solve(factor, c, 0)
            coef = np.empty(p)
            coef.put(piv, c[:p, 0])
        c[:p].fill(0.0)
        resid = _apply_q("N", factor, tau, c)[:, 0]
        if residual_only:
            return None, resid, None, None, rank, piv
        scale = resid.dot(resid) / (n - p) if n > p else 0.0
        hc = n / (n - p) if hc1 else 1.0
        position = piv.tolist().index
        if rows is not None:
            zz, aa = _row(factor, tau, resid, np.zeros((n, 1), order="F"),
                          position(rows))
            return coef, resid, zz * scale, aa * hc, rank, piv
        # column i of A is a_i, formed in its place; A.T is laid out as
        # the (p, n) row-major stack of the a_i
        Zt = np.empty((p, p))
        A = np.zeros((n, p), order="F")
        sums = [_row(factor, tau, resid, A[:, i:i + 1], position(i), Zt[i])
                for i in range(p)]
        classical = Zt @ Zt.T
        sandwich = A.T @ A
        # each diagonal entry from its own row's sums
        zz, aa = zip(*sums)
        np.fill_diagonal(classical, zz)
        np.fill_diagonal(sandwich, aa)
        classical *= scale
        sandwich *= hc
        return coef, resid, classical, sandwich, rank, piv
