"""Paired A/B runs of the benchmark on two git revisions.

Usage, from anywhere inside a checkout::

    python3 tools/ab.py --base HEAD~1 --head HEAD \\
        --workload sim_table2_serial --pairs 10 --seconds 45 --seed 601

Both revisions are exported with ``git archive`` into a temporary
directory, so each side runs from a fresh tree with no bytecode cache
(the runs set ``PYTHONDONTWRITEBYTECODE=1``).  Pair i runs the unchanged
``perfbench/run.py --workload W --seed S0+i --seconds S --trace 0`` once
on each side, one after the other; the base runs first in even pairs and
the head first in odd ones, so a drift of the host's speed falls on both
sides alike.

For every end-to-end metric of ``BENCHMARK.json`` it prints the medians
and quartiles of both sides, the wins of the head out of N pairs, the
ratio of the medians (head / base) and a verdict:

* ``improved``: the head is better in at least 9 of every 10 pairs, and
  its median is better than the base's by more than the base's
  interquartile range;
* ``regressed``: the same with the sides swapped;
* ``unchanged``: the medians differ by no more than the base's
  interquartile range;
* ``unresolved``: anything else.

With fewer than 10 pairs, "9 of every 10" is a share: a 1-pair run is a
smoke test, not evidence.  It also prints the failed operations of each
side, and writes all of it, each run's metrics included, to ``--out``
(by default ``AB_<workload>.json`` in the current directory).  Nothing
under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

# the head must win at least 9 of every 10 pairs, counted in integers
WINS, OF = 9, 10


def quartiles(values):
    """(q1, median, q3) of ``values``, the quartiles interpolated
    between the sorted values (``statistics.quantiles``' inclusive
    method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(base, head, better):
    """Compare the paired runs of one metric; ``better`` is "lower" or
    "higher".  Returns the summary that ``main`` prints and records."""
    if len(base) != len(head) or not base:
        raise ValueError("need the same positive number of runs per side")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    q1, base_median, q3 = quartiles(base)
    head_q1, head_median, head_q3 = quartiles(head)
    gap = sign * (base_median - head_median)  # > 0 when the head is better
    if gap > q3 - q1 and OF * wins >= WINS * len(base):
        outcome = "improved"
    elif -gap > q3 - q1 and OF * losses >= WINS * len(base):
        outcome = "regressed"
    elif abs(gap) <= q3 - q1:
        outcome = "unchanged"
    else:
        outcome = "unresolved"
    return {
        "base": {"q1": q1, "median": base_median, "q3": q3},
        "head": {"q1": head_q1, "median": head_median, "q3": head_q3},
        "wins": wins,
        "pairs": len(base),
        "ratio": head_median / base_median if base_median else None,
        "verdict": outcome,
    }


def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                          check=True).stdout


def export(rev, root, target):
    """Extract ``git archive rev`` into ``target``; returns the commit and
    the tree hash of its ``src`` directory."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev, cwd=root))) as tar:
        tar.extractall(target, filter="data")
    return {"rev": rev,
            "commit": git("rev-parse", f"{rev}^{{commit}}",
                          cwd=root).decode().strip(),
            "src_tree": git("rev-parse", f"{rev}:src",
                            cwd=root).decode().strip()}


def run(tree, workload, seed, seconds):
    """The last line of one untraced ``perfbench/run.py`` run, parsed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = Path(git("rev-parse", "--show-toplevel",
                    cwd=Path.cwd()).decode().strip())
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "head")}
        revisions = {side: export(getattr(args, side), root, tree)
                     for side, tree in trees.items()}
        benchmark = json.loads((trees["head"] / "BENCHMARK.json").read_text())
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            record = {"pair": pair, "seed": seed, "first": order[0]}
            for side in order:
                record[side] = run(trees[side], args.workload, seed,
                                   args.seconds)
                print(f"pair {pair} seed {seed} {side}: "
                      + json.dumps(record[side]["metrics"]), file=sys.stderr)
            runs.append(record)

    metrics = {}
    for spec in benchmark["end_to_end"]:
        name = spec["name"]
        values = {side: [r[side]["metrics"][name]["value"] for r in runs]
                  for side in ("base", "head")}
        metrics[name] = {"unit": spec["unit"], "better": spec["better"],
                         **verdict(values["base"], values["head"],
                                   spec["better"])}
    failed = {side: {"failed": sum(r[side]["failed"] for r in runs),
                     "attempted": sum(r[side]["attempted"] for r in runs),
                     "incorrect_runs": sum(not r[side]["correct"]
                                           for r in runs)}
              for side in ("base", "head")}

    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s, "
          f"seeds {args.seed}..{args.seed + args.pairs - 1}")
    print(f"{'metric':20s} {'base median [q1, q3]':>32s} "
          f"{'head median [q1, q3]':>32s} {'wins':>6s} {'ratio':>7s}  verdict")
    for name, m in metrics.items():
        def cell(side):
            s = m[side]
            return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
        ratio = "-" if m["ratio"] is None else f"{m['ratio']:.3f}"
        print(f"{name:20s} {cell('base'):>32s} {cell('head'):>32s} "
              f"{m['wins']:>3d}/{m['pairs']:<2d} {ratio:>7s}  {m['verdict']}")
    for side, f in failed.items():
        print(f"{side}: {f['failed']} of {f['attempted']} operations failed, "
              f"{f['incorrect_runs']} runs with a failed output check")

    out = Path(args.out or f"AB_{args.workload}.json")
    out.write_text(json.dumps({
        "workload": args.workload, "pairs": args.pairs,
        "seconds": args.seconds, "seeds": [r["seed"] for r in runs],
        "revisions": revisions, "metrics": metrics, "failed": failed,
        "runs": runs}, indent=2, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
