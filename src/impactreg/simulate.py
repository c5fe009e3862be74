"""Seeded Monte Carlo harness for the hierarchical-testing study.

Data are generated from the quadratic-confounder design: independent
standard normal Xt_1, X_2..X_m and noise; the observed focus covariate
is X_1 = Xt_1 + beta * sum of the first k confounders, and

    Y = theta1 * Xt_1 + sum_j X_j + sum_j X_j^2
        + gamma * (pairwise products within the confounder set) + eps.

Each replication draws from its own counter-based Philox stream keyed by
(seed, replication index), so results are bit-identical for any worker
count.
"""

from __future__ import annotations

import math
import operator
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict

import numpy as np

from . import backend
from .dataset import Dataset
from .errors import ImpactregError, InvalidConfig
from .hierarchy import hierarchy_pvalues, order_indices
from .regression import _coefficient_row, _white_test

# beta per m used in the tables (R^2_x about 0.8 at k = m - 1)
TABLE_BETA = {5: 1.00, 8: 0.75, 10: 0.65, 20: 0.45, 50: 0.30}


def _check_seed(seed):
    """The seed as an int in [0, 2^64), or ``InvalidConfig``.

    Any integer type is taken (a NumPy integer too, not a bool).  The
    seed fills the upper 64 bits of each replication's Philox key, so
    outside that range two seeds would share a stream (-1 and 2^64 - 1,
    5 and 2^64 + 5) while their reports recorded different seeds.
    """
    try:
        value = operator.index(seed)
    except TypeError:
        value = None
    if isinstance(seed, bool) or value is None or not 0 <= value < 2 ** 64:
        raise InvalidConfig(
            f"seed must be an int in [0, 2**64), got {seed!r}")
    return value


@dataclass(frozen=True)
class SimConfig:
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
        object.__setattr__(self, "seed", _check_seed(self.seed))
        if self.m < 2:
            raise InvalidConfig("need m >= 2")
        if not 1 <= self.k <= self.m - 1:
            raise InvalidConfig("need 1 <= k <= m - 1")
        if self.n <= self.m + 1:
            raise InvalidConfig("need n > m + 1")
        if self.replications < 1:
            raise InvalidConfig("need at least one replication")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidConfig("alpha must be in (0, 1)")
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
    elapsed: float

    def as_dict(self, include_elapsed=True):
        d = {
            "config": self.config.as_dict(),
            "type1_hierarchical": self.type1_hierarchical,
            "type1_full": self.type1_full,
            "mean_confounders_hier": self.mean_confounders_hier,
            "mean_confounders_full": self.mean_confounders_full,
            "reject_final_hier": self.reject_final_hier,
            "reject_final_full": self.reject_final_full,
            "mc_stderr_reject_hier": self.mc_stderr_reject_hier,
            "mc_stderr_reject_full": self.mc_stderr_reject_full,
            "failed_replications": self.failed_replications,
        }
        # elapsed is excluded from serialized reports so that identical
        # (seed, config) runs are byte-identical regardless of timing
        if include_elapsed:
            d["elapsed"] = self.elapsed
        return d


def _rng(seed, replication_index):
    """Independent Philox substream keyed by (seed, replication index)."""
    key = seed << 64 | (int(replication_index) & (2 ** 64 - 1))
    return np.random.Generator(np.random.Philox(key=key))


def generate_arrays(config: SimConfig, replication_index: int):
    """Draw one replication; returns (y, X) with X = (X_1 .. X_m)."""
    rng = _rng(config.seed, replication_index)
    n, m, k = config.n, config.m, config.k
    z = rng.standard_normal((n, m + 1))  # Xt_1, X_2..X_m, eps
    xt1 = z[:, 0]
    xj = z[:, 1:m]                       # X_2 .. X_m
    eps = z[:, m]
    confounders = xj[:, :k]              # the k covariates tied to X_1
    x1 = xt1 + config.beta * confounders.sum(axis=1)
    y = (config.theta1 * xt1 + xj.sum(axis=1) + (xj ** 2).sum(axis=1) + eps)
    if config.gamma != 0.0 and k >= 2:
        inter = np.zeros(n)
        for a in range(k):
            for b in range(a + 1, k):
                inter += confounders[:, a] * confounders[:, b]
        y = y + config.gamma * inter
    X = np.column_stack([x1, xj])
    return y, X


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
        last_conf_pos = max(perm.index(c) for c in range(config.k))
        first_true_step = last_conf_pos + 1
        if config.include_bivariate:
            first_true_step += 1
        false_reject = rejected >= first_true_step

        design = np.column_stack([np.ones(config.n), X])
        test = _white_test(*_coefficient_row(y, design, 1,
                                             flavor=config.flavor),
                           1, config.reference)
        reject_full = test.p_value <= config.alpha
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
    if threads < 1:
        raise InvalidConfig(f"need threads >= 1, got {threads}")
    start = time.perf_counter()
    reps = config.replications
    if threads > 1:
        chunks = np.array_split(np.arange(reps), min(threads * 4, reps))
        results: list = [None] * reps
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for chunk, out in zip(
                    chunks,
                    pool.map(_replicate_chunk, [config] * len(chunks), chunks)):
                for i, rec in zip(chunk, out):
                    results[i] = rec
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
        elapsed=time.perf_counter() - start,
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
    seed = _check_seed(seed)
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

    X = np.column_stack([np.ones(n), x1, x2])
    test = _white_test(*_coefficient_row(y, X, 1), 1, "student_t")
    return SlopeIdentity(estimate=test.estimate, target=target,
                         std_error=test.std_error)
