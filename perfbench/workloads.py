"""The benchmark's workloads: inputs made from a seed, one timed call, checks.

Each workload builds its inputs from the seed alone and hands the program
only those inputs.  ``call()`` is the operation a user waits for (one
Monte Carlo study, or one request); ``check(output)`` verifies it
independently and returns an :class:`Outcome`.  Load is one closed-loop
client in one process.  The only parallelism is the program's own process
pool, at ``threads = nproc``, in ``pool_twin``: the traced run of
``sim_table2_serial`` checks and times the Table-1 study on it.  That
study is not an end-to-end workload, because from one call to the next
it takes 5-30 s on 2 vCPUs.

Functions are always reached through their module (``cli.main``,
``impact.mod_r2``) so that the tracer's rebinding of those names is seen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

import impactreg
from impactreg import cli, impact
from impactreg.dataset import Dataset

SCHEMA = json.loads(
    (Path(impactreg.__file__).parent / "report_schema.json").read_text())
REL_TOL = 1e-9


@dataclass
class Outcome:
    """Units attempted (replications or requests), units failed, and why."""

    units: int
    failed: int = 0
    errors: list = field(default_factory=list)


def _rel_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _run_cli(argv, out_path):
    """Run ``impactreg`` in-process; return (exit code, report bytes)."""
    out_path = Path(out_path)
    if out_path.exists():
        out_path.unlink()
    rc = cli.main([*argv, "--out", str(out_path)])
    report = out_path.read_bytes() if out_path.exists() else b""
    return rc, report


def _report_errors(rc, report):
    """Errors common to every CLI report: exit code, JSON, schema."""
    if rc != 0:
        return None, [f"exit code {rc}"]
    try:
        doc = json.loads(report)
        jsonschema.validate(doc, SCHEMA)
    except (ValueError, jsonschema.ValidationError) as exc:
        return None, [f"invalid report: {str(exc).splitlines()[0]}"]
    return doc, []


class Workload:
    """One call is what a user waits for; ``units`` is the work it holds."""

    name = ""
    unit = "request"
    units = 1
    pool_twin = None  # a study on the process pool, timed in the traced run

    def close(self):
        """Remove large scratch inputs."""


class SimStudy(Workload):
    """``impactreg simulate`` with a table preset: one call is one study.

    A call runs on ``threads`` workers, and every report must equal, byte
    for byte, the serial report that ``prepare`` makes first.
    """

    unit = "replication"

    def __init__(self, name, seed, workdir, preset, m, reps, threads=1):
        self.name = name
        self.units = reps
        self.threads = threads
        self.argv = ["simulate", "--preset", preset, "--m", str(m),
                     "--n", "500", "--reps", str(reps), "--seed", str(seed)]
        self.out = Path(workdir) / f"{name}.json"
        self.reference = None
        self.config = dict(preset=preset, m=m, n=500, reps=reps, seed=seed,
                           threads=threads)

    def _study(self, threads):
        return _run_cli([*self.argv, "--threads", str(threads)], self.out)

    def call(self):
        return self._study(self.threads)

    def serial_call(self):
        return self._study(1)

    def prepare(self):
        """Run the serial study whose report every later study must equal."""
        output = self.serial_call()
        self.reference = output[1]
        return [self.check(output)]

    def check(self, output):
        rc, report = output
        doc, errors = _report_errors(rc, report)
        if errors:
            return Outcome(self.units, self.units, errors)
        if report != self.reference:
            return Outcome(self.units, self.units,
                           ["report differs from the serial run of the "
                            "same config and seed"])
        failed = int(doc["failed_replications"])
        errors = [f"{failed} failed replications"] if failed else []
        return Outcome(self.units, failed, errors)


def analyze_table(seed, rows):
    """Response y, focus x1 and ten candidates c1..c10.

    c9 is log-normal (for the log step) and c10 carries the exclusion.
    """
    rng = np.random.default_rng([seed, 1])
    c = rng.standard_normal((rows, 10))
    c[:, 8] = np.exp(0.5 * c[:, 8])
    x1 = rng.standard_normal(rows) + 0.5 * c[:, :3].sum(axis=1)
    y = (0.4 * x1 + c[:, :5].sum(axis=1) + (c[:, :3] ** 2).sum(axis=1)
         + rng.standard_normal(rows))
    names = ("y", "x1") + tuple(f"c{j}" for j in range(1, 11))
    return names, np.column_stack([y, x1, c])


class AnalyzeCsv(Workload):
    """``impactreg analyze --hierarchy --transforms`` on a generated CSV."""

    name = "analyze_csv"
    SPEC = [
        {"op": "exclude_rows", "column": "c10", "comparator": ">",
         "threshold": 2.5},
        {"op": "log", "column": "c9"},
        {"op": "standardize", "column": "x1"},
    ]

    def __init__(self, seed, workdir, rows=100_000):
        self.names, self.values = analyze_table(seed, rows)
        self.csv = Path(workdir) / "analyze_csv.csv"
        self.out = Path(workdir) / "analyze_csv.json"
        self.argv = ["analyze", "--data", str(self.csv), "--response", "y",
                     "--focus", "x1", "--hierarchy",
                     "--transforms", json.dumps(self.SPEC)]
        self.config = dict(rows=rows, seed=seed, spec=self.SPEC)
        self.slope = None

    def call(self):
        return _run_cli(self.argv, self.out)

    def close(self):
        self.csv.unlink(missing_ok=True)

    def prepare(self):
        with open(self.csv, "w", encoding="utf-8") as fh:
            fh.write(",".join(self.names) + "\n")
            np.savetxt(fh, self.values, fmt="%.17g", delimiter=",")
        # reference slope of y on the standardized x1 over the kept rows;
        # %.17g round-trips float64, so this equals what the CSV holds
        v = self.values[self.values[:, 11] <= 2.5]
        x = v[:, 1]
        x = (x - x.mean()) / x.std()
        design = np.column_stack([np.ones(len(x)), x])
        self.slope = float(np.linalg.lstsq(design, v[:, 0], rcond=None)[0][1])
        return [self.check(self.call())]

    def check(self, output):
        doc, errors = _report_errors(*output)
        if not errors:
            slopes = [e["value"] for e in doc["estimates"]
                      if e["kind"] == "linear_slope"]
            if len(slopes) != 1 or doc["hierarchy"] is None:
                errors.append("report lacks the slope or the hierarchy")
            elif _rel_gap(slopes[0], self.slope) > REL_TOL:
                errors.append(f"slope {slopes[0]!r} differs from lstsq "
                              f"{self.slope!r}")
        return Outcome(1, int(bool(errors)), errors)


class EstimateInMemory(Workload):
    """The five estimators of ``analyze --adjust`` on an in-memory Dataset."""

    name = "estimate_inmem"
    ADJUST = ("a1", "a2", "a3", "a4", "a5")

    def __init__(self, seed, rows=50_000):
        rng = np.random.default_rng([seed, 2])
        a = rng.standard_normal((rows, 10))
        x1 = rng.standard_normal(rows) + 0.5 * a[:, :5].sum(axis=1)
        y = (0.3 * x1 + a[:, :5].sum(axis=1) + (a[:, :2] ** 2).sum(axis=1)
             + rng.standard_normal(rows))
        names = ("y", "x1") + tuple(f"a{j}" for j in range(1, 11))
        self.data = Dataset(names, np.column_stack([y, x1, a]))
        self.config = dict(rows=rows, seed=seed, adjust=list(self.ADJUST))
        self.sd_residual = None

    def call(self):
        d = self.data
        y, x = d.column("y"), d.column("x1")
        return [
            impact.linear_mean_impact(y, x, target="y", focus="x1"),
            impact.linear_mean_slope(y, x, signed=True, target="y",
                                     focus="x1"),
            impact.mod_r2(y, x, target="y", focus="x1"),
            impact.partial_linear_mean_impact("y", "x1", self.ADJUST, d),
            impact.partial_linear_mean_slope("y", "x1", self.ADJUST, d,
                                             signed=True),
        ]

    def prepare(self):
        d = self.data
        design = np.column_stack([np.ones(d.n), d.columns(self.ADJUST)])
        x = d.column("x1")
        resid = x - design @ np.linalg.lstsq(design, x, rcond=None)[0]
        self.sd_residual = float(np.sqrt(np.mean(resid ** 2)
                                         - np.mean(resid) ** 2))
        return [self.check(self.call())]

    def check(self, output):
        kinds = {e.kind: e.value for e in output}
        expected = abs(kinds["partial_linear_slope"]) * self.sd_residual
        errors = []
        if _rel_gap(kinds["partial_linear_impact"], expected) > REL_TOL:
            errors.append("partial impact != |partial slope| * "
                          "SD(residualized focus)")
        return Outcome(1, int(bool(errors)), errors)


WHY = {
    "sim_table2_serial": "Table-2 study at m=10, threads=1: long hierarchies "
                         "(up to 18 kernel calls per replication), so "
                         "regression and hierarchy dominate",
    "analyze_csv": "analyze --hierarchy --transforms on a 100k x 12 CSV: "
                   "CSV parsing plus few kernel calls on tall matrices",
    "estimate_inmem": "the five analyze --adjust estimators on an in-memory "
                      "50k x 12 Dataset: no parsing, no hierarchy, duplicate "
                      "fits in impact dominate",
}


def make(name, seed, workdir, nproc):
    """Build workload ``name`` for ``seed``, with scratch files in workdir."""
    if name == "sim_table2_serial":
        workload = SimStudy(name, seed, workdir, "table2", m=10, reps=50)
        workload.pool_twin = SimStudy("sim_table1_pool", seed, workdir,
                                      "table1", m=5, reps=1000,
                                      threads=nproc)
        return workload
    if name == "analyze_csv":
        return AnalyzeCsv(seed, workdir)
    if name == "estimate_inmem":
        return EstimateInMemory(seed)
    raise ValueError(f"unknown workload {name!r}")
