"""Benchmark of impactreg: end-to-end metrics, output checks, per-layer trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim_table2_serial --seed 1 \\
        --seconds 45 --trace 0

The package is imported from ``src/`` of the checkout; nothing is built
(without Cython the pure NumPy/SciPy kernel is the one measured).  With
``--trace 0`` the run times closed-loop calls of one workload for
``--seconds`` and prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced calls, then times the workload's pool twin
if it has one, and prints the per-layer metrics, writing the spans to
``perfbench/.work/trace_<workload>.jsonl``.  Every output is checked;
failures are counted into ``failed`` (error rate = failed / attempted,
counted in replications or requests).  Lines before the last one are for
people: the environment, and each metric with its unit and sample count.
The last line is the JSON result.

BLAS thread variables are reported as found and never set, so that
process-pool oversubscription stays visible.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from layers import PER_LAYER, layer_metrics, targets
from tracing import Tracer, patched, tail

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKDIR = HERE / ".work"
SETUP_SAMPLES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")

# (name, unit, better, meaning): the metrics the JSON result carries.
# Timings are the least of the run: on a shared host the median call time
# flips between a fast and a ~1.6x slower mode from one minute to the
# next, so only the fastest call is steady from run to run.  The median,
# the tail and the throughput are printed beside them.
END_TO_END = (
    ("setup_s", "s", "lower",
     "fresh interpreter importing impactreg.cli, median of "
     f"{SETUP_SAMPLES}"),
    ("latency_s_min", "s", "lower",
     "wall time of the fastest study or request of the run"),
    ("cpu_ms_per_op_min", "ms", "lower",
     "least user+system CPU of the process and its children in one call, "
     "per replication or request"),
    ("peak_rss_mb", "MB", "lower",
     "peak RSS of the process plus that of its largest child"),
)
# Printed for people, with their sample counts; not in the JSON result.
REPORTED = (
    ("ops_per_s", "1/s", "replications or requests per second over the run"),
    ("latency_s_p50", "s", "median wall time of one study or request"),
    ("latency_s_tail", "s",
     "the same at the highest percentile with 10 samples beyond it"),
    ("cpu_ms_per_op", "ms", "CPU per replication or request over the run"),
)


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def environment():
    import numpy
    import scipy

    import impactreg

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]
        except (TypeError, KeyError):
            return None
        return {k: info["blas"].get(k) for k in
                ("name", "version", "openblas configuration")}

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "impactreg_backend": impactreg.BACKEND_NAME,
        "start_method": multiprocessing.get_start_method(),
    }


def setup_times(samples):
    """Wall time of a fresh interpreter importing impactreg.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import impactreg.cli"],
                       env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


class Tally:
    """Attempted and failed units over every checked call of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, outcome):
        self.attempted += outcome.units
        self.failed += outcome.failed
        self.errors.extend(outcome.errors)


def checked_call(workload, fn, tally):
    """Time ``fn()``; check its output into ``tally``.

    Returns (output or None, wall seconds, CPU seconds).  An exception
    from the program is a failed call, not a crash of the benchmark.
    """
    from workloads import Outcome

    c0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        output = fn()
    except Exception as exc:  # the program under test failed
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        traceback.print_exc()
        tally.add(Outcome(workload.units, workload.units,
                          [f"{type(exc).__name__}: {exc}"]))
        return None, wall, cpu
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    tally.add(workload.check(output))
    return output, wall, cpu


def end_to_end(workload, seconds, tally):
    """Closed-loop calls for ``seconds``; (metrics, reported) rows.

    A row is name -> (value, sample count, note).
    """
    latencies, cpus = [], []
    deadline = time.perf_counter() + seconds
    while True:
        _, wall, cpu = checked_call(workload, workload.call, tally)
        latencies.append(wall)
        cpus.append(cpu)
        if time.perf_counter() >= deadline:
            break
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup = setup_times(SETUP_SAMPLES)
    n = len(latencies)
    units = n * workload.units
    pct, tail_s = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), len(setup), ""),
        "latency_s_min": (min(latencies), n, ""),
        "cpu_ms_per_op_min": (1e3 * min(cpus) / workload.units, n, ""),
        "peak_rss_mb": ((own + children) / 1024.0, 1, ""),
    }
    reported = {
        "ops_per_s": (units / sum(latencies), n,
                      f"{units} {workload.unit}s"),
        "latency_s_p50": (statistics.median(latencies), n, ""),
        "latency_s_tail": (tail_s, n, f"p{pct}"),
        "cpu_ms_per_op": (1e3 * sum(cpus) / units, n, ""),
    }
    return metrics, reported


def pool_times(twin, tally):
    """(serial, pooled) wall seconds of one study of ``twin``, checked."""
    for outcome in twin.prepare():
        tally.add(outcome)
    serial = checked_call(twin, twin.serial_call, tally)[1]
    pooled = checked_call(twin, twin.call, tally)[1]
    return serial, pooled


def traced(workload, seconds, tally, trace_path):
    tracer = Tracer()

    def traced_call():
        with tracer.span("bench.call"):
            return workload.call()

    traced_s, untraced_s = [], []
    ops = calls = report_bytes = 0
    deadline = time.perf_counter() + seconds
    while True:
        _, wall, _ = checked_call(workload, workload.call, tally)
        untraced_s.append(wall)
        tracer.op = tracer.call = calls
        with patched(tracer, targets()):
            output, wall, _ = checked_call(workload, traced_call, tally)
        traced_s.append(wall)
        calls += 1
        ops += workload.units
        if isinstance(output, tuple):  # (exit code, report) from the CLI
            report_bytes = len(output[1])
        if time.perf_counter() >= deadline:
            break
    twin = workload.pool_twin
    pool = (*pool_times(twin, tally), twin.threads) if twin else None

    tracer.write_jsonl(trace_path, {"workload": workload.name,
                                    "config": workload.config})
    print(f"# spans: {len(tracer.spans)} written to {trace_path}")
    values = layer_metrics(tracer.spans, ops, calls, traced_s, untraced_s,
                           report_bytes, pool)
    return {name: (values[name], calls, target)
            for name, _, _, target in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "impactreg" / "__init__.py").is_file():
        print(f"perfbench: no impactreg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WHY:
        parser.error(f"--workload must be one of {', '.join(workloads.WHY)}")
    WORKDIR.mkdir(exist_ok=True)
    env = environment()
    print(json.dumps({"environment": env}, sort_keys=True))
    workload = workloads.make(args.workload, args.seed, WORKDIR, env["nproc"])
    tally = Tally()
    try:
        for outcome in workload.prepare():
            tally.add(outcome)
        reported = {}
        if args.trace:
            rows = traced(workload, args.seconds, tally,
                          WORKDIR / f"trace_{workload.name}.jsonl")
            units = {name: unit for name, unit, _, _ in PER_LAYER}
        else:
            rows, reported = end_to_end(workload, args.seconds, tally)
            units = {name: unit for name, unit, _, _ in END_TO_END}
    finally:
        workload.close()

    units.update((name, unit) for name, unit, _ in REPORTED)
    for name, (value, samples, note) in {**reported, **rows}.items():
        print(f"# {name} = {value!r} {units[name]} (n={samples}) {note}")
    error_rate = tally.failed / tally.attempted
    print(f"# error_rate = {error_rate!r} ({tally.failed} of "
          f"{tally.attempted} {workload.unit}s failed)")
    for error in tally.errors[:10]:
        print(f"# check failed: {error}")
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _, _) in rows.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
