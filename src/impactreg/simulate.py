"""Seeded Monte Carlo harness for the hierarchical-testing study.

Data are generated from the quadratic-confounder design: independent
standard normal Xt_1, X_2..X_m and noise; the observed focus covariate
is X_1 = Xt_1 + beta * sum of the first k confounders, and

    Y = theta1 * Xt_1 + sum_j X_j + sum_j X_j^2
        + gamma * (pairwise products within the confounder set) + eps.

Each replication draws from its own counter-based Philox stream keyed by
(seed, replication index), so results are bit-identical for any worker
count.  Each thread keeps one generator and resets it to the fresh state
of the next key instead of building one per stream, and X is returned as
a view of the buffer the normals were drawn into.
"""

from __future__ import annotations

import math
import operator
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict

import numpy as np

from . import backend
from .dataset import Dataset
from .errors import ImpactregError, InvalidConfig
from .hierarchy import _check_alpha, hierarchy_pvalues, order_indices
from .regression import _default_names, _focus_test, _norm, _validate

# beta per m used in the tables (R^2_x about 0.8 at k = m - 1)
TABLE_BETA = {5: 1.00, 8: 0.75, 10: 0.65, 20: 0.45, 50: 0.30}

# the largest magnitude of a standard normal draw of NumPy's ziggurat:
# below its last layer, at r = 3.6541528853610088, draws are less than
# r; the tail draws r - ln(1 - u) / r from a u in [0, 1 - 2^-53], so
# at most r + 53 ln 2 / r, about 13.708
_ZIGGURAT_R = 3.6541528853610088
_MAX_DRAW = _ZIGGURAT_R + 53 * math.log(2) / _ZIGGURAT_R


def _check_int(value, name):
    """value as an int, or ``InvalidConfig`` naming it.

    Any integer type is taken (a NumPy integer too), but not a bool and
    not a float, even an integral one: the one rule for every count and
    seed of a study.
    """
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise InvalidConfig(f"{name} must be an int, got {value!r}")


def _check_key(value, name):
    """value as an int in [0, 2^64), or ``InvalidConfig`` naming it.

    The seed and the replication index fill the upper and the lower 64
    bits of a replication's Philox key, so outside that range two values
    would share a stream (-1 and 2^64 - 1, 5 and 2^64 + 5) while their
    reports recorded different ones.
    """
    key = _check_int(value, name)
    if not 0 <= key < 2 ** 64:
        raise InvalidConfig(
            f"{name} must be an int in [0, 2**64), got {value!r}")
    return key


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo study of the quadratic-confounder design.

    The coefficients are bounded so that the generated data cannot
    overflow: with every draw at most Z = 13.708 in magnitude (see
    ``_MAX_DRAW``), the focus is at most Z (1 + |beta| k) and y at most
    Z (|theta1| + m) + Z^2 (m - 1 + |gamma| k (k - 1) / 2), and both
    must be at most sqrt(DBL_MAX / n), so that n times the square of
    either, the largest sum of squares a fit or the ordering takes, is
    finite.  A larger magnitude raises ``InvalidConfig``, before any
    replication runs.
    """

    m: int = 5
    k: int = 4
    beta: float = 1.0
    gamma: float = 0.0
    theta1: float = 0.0
    n: int = 500
    replications: int = 10_000
    alpha: float = 0.05
    seed: int = 0
    include_bivariate: bool = False
    flavor: str = "HC0"
    reference: str = "student_t"

    def __post_init__(self):
        object.__setattr__(self, "seed", _check_key(self.seed, "seed"))
        for name in ("m", "k", "n", "replications"):
            object.__setattr__(self, name,
                               _check_int(getattr(self, name), name))
        if not isinstance(self.include_bivariate, bool):
            raise InvalidConfig(f"include_bivariate must be a bool, got "
                                f"{self.include_bivariate!r}")
        if self.m < 2:
            raise InvalidConfig("need m >= 2")
        if not 1 <= self.k <= self.m - 1:
            raise InvalidConfig("need 1 <= k <= m - 1")
        if self.n <= self.m + 1:
            raise InvalidConfig("need n > m + 1")
        if self.replications < 1:
            raise InvalidConfig("need at least one replication")
        # a non-finite coefficient would fail every replication, after
        # the whole study's cost
        for name in ("beta", "gamma", "theta1"):
            value = getattr(self, name)
            try:
                finite = math.isfinite(value)
            except TypeError:
                finite = False
            if not finite:
                raise InvalidConfig(f"{name} must be a finite number, "
                                    f"got {value!r}")
        # the bounds of the class docstring; y's is reported under the
        # coefficient with the larger share of it
        z, m, k = _MAX_DRAW, self.m, self.k
        limit = math.sqrt(sys.float_info.max / self.n)
        bounds = {"beta": z * (1.0 + abs(self.beta) * k)}
        y_shares = {"theta1": z * abs(self.theta1),
                    "gamma": k * (k - 1) // 2 * abs(self.gamma) * z * z}
        y_bound = z * m + z * z * (m - 1) + sum(y_shares.values())
        bounds[max(y_shares, key=y_shares.get)] = y_bound
        for name, bound in bounds.items():
            if bound > limit:
                raise InvalidConfig(
                    f"{name} is too large for n = {self.n}: generated "
                    f"values may reach {bound:.3g}, and n times their "
                    f"square overflows")
        _check_alpha(self.alpha)
        if self.flavor not in ("HC0", "HC1"):
            raise InvalidConfig(f"unknown sandwich flavor {self.flavor!r}")
        if self.reference not in ("student_t", "normal"):
            raise InvalidConfig(f"unknown reference {self.reference!r}")

    def as_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class SimReport:
    config: SimConfig
    type1_hierarchical: float | None
    type1_full: float | None
    mean_confounders_hier: float
    mean_confounders_full: float
    reject_final_hier: float
    reject_final_full: float
    mc_stderr_reject_hier: float
    mc_stderr_reject_full: float
    failed_replications: int

    def as_dict(self):
        return asdict(self)


# one generator per thread, reset by ``_rng`` for every stream it draws
_STREAMS = threading.local()


def _rng(seed, replication_index):
    """Independent Philox substream keyed by (seed, replication index).

    The stream is ``Generator(Philox(key=seed << 64 | index))``'s, bit for
    bit.  Rather than build that generator, which also reads OS entropy
    for a seed sequence the key makes unused, the calling thread's own
    generator is reset to the fresh state of that key: counter 0 and an
    empty buffer.  The generator returned is valid until the thread's
    next call.
    """
    index = _check_key(replication_index, "replication_index")
    rng = getattr(_STREAMS, "rng", None)
    if rng is None:
        rng = _STREAMS.rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (index, seed)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
    }
    return rng


def generate_arrays(config: SimConfig, replication_index: int):
    """Draw one replication; returns (y, X) with X = (X_1 .. X_m).

    X is a view of the draw buffer, whose rows hold (X_1 .. X_m, eps):
    X_1 is formed in Xt_1's place once y has read Xt_1, so no draw is
    copied.
    """
    rng = _rng(config.seed, replication_index)
    n, m, k = config.n, config.m, config.k
    z = rng.standard_normal((n, m + 1))  # Xt_1, X_2..X_m, eps
    xt1 = z[:, 0]
    xj = z[:, 1:m]                       # X_2 .. X_m
    eps = z[:, m]
    confounders = xj[:, :k]              # the k covariates tied to X_1
    total = np.add.reduce(xj, axis=1)
    # y = theta1 Xt_1 + sum X_j + sum X_j^2 + eps, added left to right in
    # one buffer
    y = config.theta1 * xt1
    y += total
    y += np.add.reduce(np.square(xj), axis=1)
    y += eps
    if config.gamma != 0.0 and k >= 2:
        inter = np.zeros(n)
        for a in range(k):
            for b in range(a + 1, k):
                inter += confounders[:, a] * confounders[:, b]
        y += config.gamma * inter
    # X_1 in Xt_1's place; with k = m - 1, as in the tables, the
    # confounders are all of X_2..X_m and their sum is already taken
    xt1 += config.beta * (total if k == m - 1 else confounders.sum(axis=1))
    return y, z[:, :m]


def generate_dataset(config: SimConfig, replication_index: int) -> Dataset:
    y, X = generate_arrays(config, replication_index)
    names = ("y", "x1") + tuple(f"x{j}" for j in range(2, config.m + 1))
    return Dataset(names, np.column_stack([y, X]))


def _replicate(config: SimConfig, replication_index: int):
    """One replication: hierarchical procedure plus full-model comparator.

    Returns (false_reject_hier, confounders_hier, final_reject_hier,
    reject_full, failed).  Under theta1 = 0 a hypothesis in the sequence
    is true only once its adjustment set covers all k confounders (the
    earlier, partially adjusted associations are genuinely nonzero), so
    the type I indicator is a rejection at or beyond that step.
    """
    try:
        y, X = generate_arrays(config, replication_index)
        x1 = X[:, 0]
        cand = X[:, 1:]
        perm = order_indices(x1, cand)
        ordered = cand[:, perm]
        pvals, rejected = hierarchy_pvalues(
            y, x1, ordered, config.alpha,
            include_bivariate=config.include_bivariate,
            flavor=config.flavor, reference=config.reference)
        steps = len(pvals)
        confounders = max(0, rejected - 1) if config.include_bivariate else rejected
        final_reject = rejected == steps

        # first step whose adjustment set contains all confounders
        # (candidate indices 0..k-1); only steps from there on are true
        # null hypotheses under theta1 = 0
        last_conf_pos = max(map(perm.index, range(config.k)))
        first_true_step = last_conf_pos + 1
        if config.include_bivariate:
            first_true_step += 1
        false_reject = rejected >= first_true_step

        # column-major, so the kernel factors it where it lies.  The
        # generated data are finite by construction (see SimConfig), so
        # they skip regression's input check
        design = np.empty((config.n, config.m + 1), order="F")
        design[:, 0] = 1.0
        design[:, 1:] = X
        pvalue = _focus_test(y, design, 1, _default_names(config.m + 1),
                             config.flavor, config.reference,
                             _norm(y)).p_value
        reject_full = pvalue <= config.alpha
        return false_reject, confounders, final_reject, reject_full, False
    except (ImpactregError, np.linalg.LinAlgError):
        return False, 0, False, False, True


def _replicate_chunk(config: SimConfig, indices):
    # one BLAS-thread cap for the whole chunk (see backend), so the
    # replications' fits skip their own save and restore
    with backend._ONE_BLAS_THREAD:
        return [_replicate(config, i) for i in indices]


def run_study(config: SimConfig, threads: int = 1) -> SimReport:
    """Run all replications and aggregate; deterministic given the seed."""
    threads = _check_int(threads, "threads")
    if threads < 1:
        raise InvalidConfig(f"need threads >= 1, got {threads}")
    reps = config.replications
    if threads > 1:
        # the chunks are consecutive runs of indices, and map returns
        # their outputs in chunk order, so the results are in index order
        chunks = np.array_split(np.arange(reps), min(threads * 4, reps))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = [rec for out in pool.map(
                _replicate_chunk, [config] * len(chunks), chunks)
                for rec in out]
    else:
        results = _replicate_chunk(config, range(reps))

    rows = np.array([r[:4] for r in results], dtype=float)
    failed = np.array([r[4] for r in results], dtype=bool)
    ok = rows[~failed]
    n_ok = ok.shape[0]
    if n_ok == 0:
        raise InvalidConfig("all replications failed")
    any_hier = float(ok[:, 0].mean())
    conf_hier = float(ok[:, 1].mean())
    final_hier = float(ok[:, 2].mean())
    rej_full = float(ok[:, 3].mean())
    is_null = config.theta1 == 0.0
    steps_full = config.m - 1

    def mc_se(p):
        return math.sqrt(p * (1.0 - p) / n_ok)

    return SimReport(
        config=config,
        type1_hierarchical=any_hier if is_null else None,
        type1_full=rej_full if is_null else None,
        mean_confounders_hier=conf_hier,
        mean_confounders_full=steps_full * rej_full,
        reject_final_hier=final_hier,
        reject_final_full=rej_full,
        mc_stderr_reject_hier=mc_se(final_hier),
        mc_stderr_reject_full=mc_se(rej_full),
        failed_replications=int(failed.sum()),
    )


@dataclass(frozen=True)
class SlopeIdentity:
    estimate: float
    target: float
    std_error: float


def slope_identity_check(model, params=None, n=10 ** 6, seed=0):
    """Simulate a semi-linear family and compare theta1-hat to its target.

    ``model`` is one of semi_linear, interaction, semi_quadratic; the
    focus covariate is X_1 = b0 + b2 X_2 + Xt_1 with Xt_1 independent of
    X_2 and everything normal.  Returns the fitted slope, the closed-form
    target and the robust standard error of the fit.
    """
    seed = _check_key(seed, "seed")
    params = dict(params or {})
    th1 = float(params.get("theta1", 1.0))
    th2 = float(params.get("theta2", 1.0))
    b0 = float(params.get("b0", 0.0))
    b2 = float(params.get("b2", 0.5))
    rng = _rng(seed, 0)
    z = rng.standard_normal((n, 3))
    x2 = z[:, 0]
    xt1 = z[:, 1]
    eps = z[:, 2]
    x1 = b0 + b2 * x2 + xt1
    g2 = x2 ** 2  # the non-linear additive nuisance term

    if model == "semi_linear":
        y = th1 * x1 + g2 + eps
        target = th1
    elif model == "interaction":
        g1 = x2 ** 2
        y = th1 * x1 + th2 * g1 * x1 + g2 + eps
        target = th1 + th2 * 1.0  # E[X_2^2] = 1
    elif model == "semi_quadratic":
        y = th1 * x1 + th2 * x1 ** 2 + g2 + eps
        ex1 = b0  # E(X_1); Xt_1 is symmetric so its third moment vanishes
        target = th1 + th2 * 2.0 * ex1
    else:
        raise InvalidConfig(f"unknown model {model!r}")

    # built column-major, so the kernel factors it where it lies; the
    # parameters come from outside, so the data are checked
    X = np.empty((n, 3), order="F")
    X[:, 0] = 1.0
    X[:, 1] = x1
    X[:, 2] = x2
    y, X, names = _validate(y, X)
    test = _focus_test(y, X, 1, names, "HC0", "student_t", _norm(y))
    return SlopeIdentity(estimate=test.estimate, target=target,
                         std_error=test.std_error)
