"""Layers of impactreg as the traced run sees them, and the per-layer metrics.

A layer is a package module; the span names below say which public
functions are wrapped for it.  ``backend.ols_sandwich`` (the
least-squares kernel) counts towards ``regression``.  ``dataset`` is a
container whose cost falls inside the ``transforms`` and ``impact``
spans; ``oracle`` is not on any workload's path.
"""

from __future__ import annotations

import os
import statistics
from collections import Counter, defaultdict

from tracing import self_times

LAYERS = ("simulate", "hierarchy", "regression", "impact", "transforms",
          "cli")

# Kernel calls are split by the shape of their design matrix.
N_CLASSES = (("short", 5_000), ("tall", None))
P_CLASSES = (("p2-4", 4), ("p5-8", 8), ("p9plus", None))


def _shape_class(n, p):
    def pick(value, classes):
        return next(label for label, top in classes
                    if top is None or value <= top)
    return f"{pick(n, N_CLASSES)}_{pick(p, P_CLASSES)}"


KERNEL_CLASSES = tuple(f"{a}_{b}" for a, _ in N_CLASSES for b, _ in P_CLASSES)

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = (
    ("regression.kernel.calls_per_op", "count", "lower",
     "latency_s_min on sim_table2_serial, analyze_csv and "
     "estimate_inmem (exact: 18/rep at m=10, 8/rep at m=5, 6/request)"),
    ("regression.kernel.self_us_per_call", "us", "lower",
     "latency_s_min on sim_table2_serial, analyze_csv and "
     "estimate_inmem"),
    *((f"regression.kernel.self_us_per_call.{c}", "us", "lower",
       "same as regression.kernel.self_us_per_call, for calls of this "
       "(n, p) class") for c in KERNEL_CLASSES),
    ("regression.kernel.share", "fraction", "lower",
     "latency_s_min on sim_table2_serial"),
    ("regression.fit_ols.self_ms_per_op", "ms", "lower",
     "latency_s_min on sim_table2_serial, analyze_csv and "
     "estimate_inmem"),
    ("hierarchy.order.self_ms_per_op", "ms", "lower",
     "latency_s_min on sim_table2_serial and analyze_csv; "
     "no change on estimate_inmem"),
    ("hierarchy.steps.self_ms_per_op", "ms", "lower",
     "latency_s_min on sim_table2_serial and analyze_csv; "
     "no change on estimate_inmem"),
    ("hierarchy.steps_per_op", "count", "lower",
     "latency_s_min on sim_table2_serial (exact count)"),
    ("hierarchy.early_stop_ratio", "fraction", "lower",
     "latency_s_min on sim_table2_serial (steps evaluated / steps "
     "possible; about 1.0 today)"),
    ("simulate.generate.self_ms_per_rep", "ms", "lower",
     "latency_s_min on sim_table2_serial; no change on analyze_csv or "
     "estimate_inmem"),
    ("simulate.pool.speedup", "x", "higher",
     "serial / threads=nproc time of the Table-1 study (m=5, 1000 reps) "
     "run by the traced sim_table2_serial; ROADMAP item 1's pool fix"),
    ("simulate.pool.efficiency", "fraction", "higher",
     "simulate.pool.speedup / nproc, same workload"),
    ("transforms.read_csv.self_s", "s", "lower",
     "latency_s_min on analyze_csv; no change on sim_table2_serial or "
     "estimate_inmem"),
    ("transforms.read_csv.mb_per_s", "MB/s", "higher",
     "latency_s_min on analyze_csv"),
    ("transforms.apply_transforms.self_ms", "ms", "lower",
     "latency_s_min on analyze_csv"),
    ("impact.self_ms_per_request", "ms", "lower",
     "latency_s_min on estimate_inmem (run by name) and, by a small "
     "share, analyze_csv"),
    ("impact.kernel_calls_per_request", "count", "lower",
     "latency_s_min on estimate_inmem (exact: 6 per request)"),
    ("cli.main.self_ms", "ms", "lower", "latency_s_min on analyze_csv"),
    ("cli.report_bytes", "bytes", "lower",
     "latency_s_min on analyze_csv (exact count)"),
    *((f"{layer}.self_share", "fraction", "lower",
       "the share of traced op time this layer's own code takes; "
       "says which layer a gain on that workload came from")
      for layer in LAYERS),
    ("trace.overhead", "fraction", "lower",
     "none: traced call time / untraced call time - 1"),
)


def targets():
    """(span name, module, attribute, on_call, on_return) to wrap."""
    from impactreg import (backend, cli, hierarchy, impact, regression,
                           simulate, transforms)

    def replication(tracer, args, kwargs):
        tracer.op = int(kwargs["replication_index"]
                        if "replication_index" in kwargs else args[1])

    def study_config(span, args, result):
        # with the op ids of the generate spans, this makes every
        # replication replayable with generate_dataset(config, op)
        span.attrs["config"] = args[0].as_dict()

    def kernel_shape(span, args, result):
        span.attrs["n"], span.attrs["p"] = (int(d) for d in args[0].shape)

    def steps(span, args, result):
        pvalues, _ = result
        span.attrs["steps"] = sum(p is not None for p in pvalues)
        span.attrs["possible"] = len(pvalues)

    def csv_size(span, args, result):
        if isinstance(args[0], (str, os.PathLike)):
            span.attrs["bytes"] = os.path.getsize(args[0])

    return [
        ("simulate.run_study", simulate, "run_study", None, study_config),
        ("simulate.generate", simulate, "generate_arrays", replication,
         None),
        ("hierarchy.run", hierarchy, "run_hierarchy", None, None),
        ("hierarchy.order", hierarchy, "order_covariates", None, None),
        ("hierarchy.order", hierarchy, "order_indices", None, None),
        ("hierarchy.steps", hierarchy, "hierarchy_pvalues", None, steps),
        ("regression.fit_ols", regression, "fit_ols", None, None),
        ("regression.coefficient_test", regression, "coefficient_test",
         None, None),
        ("regression.residualize", regression, "residualize", None, None),
        ("regression.kernel", backend, "ols_sandwich", None, kernel_shape),
        *((f"impact.{fn}", impact, fn, None, None) for fn in (
            "linear_mean_impact", "linear_mean_slope", "mod_r2",
            "partial_linear_mean_impact", "partial_linear_mean_slope")),
        ("transforms.read_csv", transforms, "read_csv", None, csv_size),
        ("transforms.apply_transforms", transforms, "apply_transforms",
         None, None),
        ("cli.main", cli, "main", None, None),
    ]


def _per(total, count):
    return total / count if count else 0.0


def layer_metrics(spans, ops, calls, traced_s, untraced_s, report_bytes,
                  pool=None):
    """Per-layer metrics from the spans of the traced calls.

    ``ops`` counts replications or requests over all traced calls and
    ``calls`` the traced calls; ``traced_s`` and ``untraced_s`` are the
    wall times of the same call with and without tracing.  ``pool`` is
    (serial seconds, pooled seconds, workers) of the workload's pool twin,
    when it has one.  ``report_bytes`` is the size of one call's report
    (0 without the CLI).
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    self_by_name = Counter()
    count_by_name = Counter()
    self_by_layer = Counter()
    for s in spans:
        self_by_name[s.name] += own[s.id]
        count_by_name[s.name] += 1
        self_by_layer[s.layer] += own[s.id]
    wall = sum(s.duration for s in spans if s.parent is None)

    kernels = [s for s in spans if s.name == "regression.kernel"]
    kernel_self = defaultdict(list)
    impact_kernel_calls = 0
    for s in kernels:
        if "n" in s.attrs:  # absent when the kernel raised
            kernel_self[_shape_class(s.attrs["n"], s.attrs["p"])].append(
                own[s.id])
        parent = s.parent
        while parent is not None:
            if by_id[parent].layer == "impact":
                impact_kernel_calls += 1
                break
            parent = by_id[parent].parent
    step_spans = [s for s in spans if s.name == "hierarchy.steps"]
    steps = sum(s.attrs.get("steps", 0) for s in step_spans)
    possible = sum(s.attrs.get("possible", 0) for s in step_spans)
    csv_bytes = sum(s.attrs.get("bytes", 0) for s in spans
                    if s.name == "transforms.read_csv")
    csv_self = self_by_name["transforms.read_csv"]

    speedup = efficiency = 0.0
    if pool:
        serial_s, pooled_s, workers = pool
        speedup = serial_s / pooled_s
        efficiency = speedup / workers
    return {
        "regression.kernel.calls_per_op": _per(len(kernels), ops),
        "regression.kernel.self_us_per_call":
            1e6 * _per(self_by_name["regression.kernel"], len(kernels)),
        **{f"regression.kernel.self_us_per_call.{c}":
           1e6 * _per(sum(kernel_self[c]), len(kernel_self[c]))
           for c in KERNEL_CLASSES},
        "regression.kernel.share":
            _per(self_by_name["regression.kernel"], wall),
        "regression.fit_ols.self_ms_per_op":
            1e3 * _per(self_by_name["regression.fit_ols"], ops),
        "hierarchy.order.self_ms_per_op":
            1e3 * _per(self_by_name["hierarchy.order"], ops),
        "hierarchy.steps.self_ms_per_op":
            1e3 * _per(self_by_name["hierarchy.steps"], ops),
        "hierarchy.steps_per_op": _per(steps, ops),
        "hierarchy.early_stop_ratio": _per(steps, possible),
        "simulate.generate.self_ms_per_rep":
            1e3 * _per(self_by_name["simulate.generate"], ops),
        "simulate.pool.speedup": speedup,
        "simulate.pool.efficiency": efficiency,
        "transforms.read_csv.self_s": _per(csv_self, calls),
        "transforms.read_csv.mb_per_s": _per(csv_bytes / 1e6, csv_self),
        "transforms.apply_transforms.self_ms":
            1e3 * _per(self_by_name["transforms.apply_transforms"], calls),
        "impact.self_ms_per_request": 1e3 * _per(self_by_layer["impact"],
                                                 calls),
        "impact.kernel_calls_per_request": _per(impact_kernel_calls, calls),
        "cli.main.self_ms": 1e3 * _per(self_by_name["cli.main"],
                                       count_by_name["cli.main"]),
        "cli.report_bytes": report_bytes,
        **{f"{layer}.self_share": _per(self_by_layer[layer], wall)
           for layer in LAYERS},
        "trace.overhead": (statistics.median(traced_s)
                           / statistics.median(untraced_s) - 1.0),
    }
