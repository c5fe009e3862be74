"""Record the performance of this checkout in ``BENCH_<PR>.json``.

Usage, from the root of a checkout::

    python3 tools/bench_record.py --pr 8 --seed 1

It runs, one at a time and waiting for each to finish:

* ``python3 perfbench/run.py --workload W --seed S --seconds 45 --trace 0``
  for every workload listed in ``BENCHMARK.json``; it keeps the last line
  (the end-to-end metrics and the output checks) and, from the first line,
  ``nproc``, the BLAS builds and the BLAS thread variables;
* the same with ``--seconds 15 --trace 1`` for every workload, keeping the
  last line's per-layer metrics;
* the tier-1 test command (``python -m pytest -q
  --continue-on-collection-errors`` with ``src`` on ``PYTHONPATH``) and its
  wall time;
* ``impactreg simulate`` with the Table-1 (m=5) and Table-2 (m=10) presets
  at ``--threads 1`` and ``--threads nproc``, in this process, as
  replications per second over 3 studies of 1,000 replications each.

It also records ``git rev-parse HEAD``, whether the checkout differs
from it (``git status --porcelain`` lists anything) and the sha256 of
``git diff HEAD --binary`` (``null`` when that diff is empty), taken
before the runs, so each file's rows name the tree they measured: HEAD
plus that diff, which covers staged new files but not untracked ones.
All three are ``null`` outside a git checkout.  Every BENCH file is
recorded at these fixed run lengths, so their rows can be compared.  The
file is written to the root of the checkout.  Nothing under
``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
STUDIES = (("table1", 5), ("table2", 10))
SECONDS = 45  # length of each perfbench run
TRACE_SECONDS = 15  # length of each traced perfbench run
REPS = 1000  # replications per simulate study
REPEATS = 3  # simulate studies per preset and thread count


def git_tree():
    """HEAD's commit, whether the checkout differs from it, and how."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              check=True).stdout

    try:
        diff = git("diff", "HEAD", "--binary")
        return {"commit": git("rev-parse", "HEAD").decode().strip(),
                "dirty": bool(git("status", "--porcelain").strip()),
                "diff_sha256": hashlib.sha256(diff).hexdigest()
                if diff else None}
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None, "diff_sha256": None}


def perfbench(workload, seed, seconds=SECONDS, trace=0):
    """(environment, result) from the first and last lines of run.py."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    return json.loads(lines[0])["environment"], json.loads(lines[-1])


def tier1():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = done.stdout.strip().splitlines()[-1] if done.stdout else ""
    return {"command": ["python", *TIER1], "wall_s": wall,
            "returncode": done.returncode, "summary": summary}


def simulate_rates(nproc, seed):
    """Replications per second of the preset studies, in this process."""
    sys.path.insert(0, str(SRC))
    from impactreg import cli

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "report.json")
        for preset, m in STUDIES:
            for threads in sorted({1, nproc}):
                argv = ["simulate", "--preset", preset, "--m", str(m),
                        "--reps", str(REPS), "--seed", str(seed),
                        "--threads", str(threads), "--out", out]
                rates = []
                for _ in range(REPEATS):
                    t0 = time.perf_counter()
                    if cli.main(argv) != 0:
                        raise RuntimeError(f"simulate failed: {argv}")
                    rates.append(REPS / (time.perf_counter() - t0))
                rows.append({"preset": preset, "m": m, "threads": threads,
                             "reps": REPS, "reps_per_s": rates,
                             "reps_per_s_median": statistics.median(rates)})
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    tree = git_tree()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {}
    per_layer = {}
    for workload in benchmark["workloads"]:
        env, result = perfbench(workload["name"], args.seed)
        end_to_end[workload["name"]] = {"seed": args.seed,
                                        "seconds": SECONDS, **result}
    for workload in benchmark["workloads"]:
        _, result = perfbench(workload["name"], args.seed, TRACE_SECONDS, 1)
        per_layer[workload["name"]] = {"seed": args.seed,
                                       "seconds": TRACE_SECONDS, **result}
    record = {
        "pr": args.pr,
        "git": tree,
        "environment": {key: env[key] for key in
                        ("nproc", "numpy_blas", "scipy_blas", "thread_env",
                         "python", "numpy", "scipy", "start_method")},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "tier1": tier1(),
        "simulate": simulate_rates(env["nproc"], args.seed),
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
