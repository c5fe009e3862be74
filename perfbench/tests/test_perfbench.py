"""Tests of the benchmark's own arithmetic, counters and metric tables.

Run from the root of the repository::

    python3 -m pytest -q perfbench/tests
"""

import json
import statistics
from pathlib import Path

import pytest

import run
import workloads
from layers import PER_LAYER, targets
from tracing import Span, Tracer, patched, self_times, tail

BENCHMARK = json.loads(
    (Path(run.__file__).resolve().parent.parent / "BENCHMARK.json")
    .read_text())


def _span(id, parent, start, end, name="x.y"):
    s = Span(id, name, parent, None, None, start)
    s.end = end
    return s


def test_self_time_subtracts_child_coverage_once():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),   # overlaps child 2 on [3, 4]
        _span(2, 0, 3.0, 6.0),
        _span(3, 1, 2.0, 3.0),   # grandchild: only its parent loses it
        _span(4, 0, 9.0, 12.0),  # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)


def test_tracer_nests_spans_and_computes_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("regression.kernel", lambda: None)

    def outer():
        inner()
        inner()

    tracer.wrap("regression.fit_ols", outer)()
    fit, k1, k2 = tracer.spans
    assert (k1.parent, k2.parent, fit.parent) == (fit.id, fit.id, None)
    own = self_times(tracer.spans)
    assert fit.duration == 5.0 and own[fit.id] == 3.0
    assert own[k1.id] == own[k2.id] == 1.0


@pytest.mark.parametrize("n, pct", [(1000, 99), (100, 90), (30, 66),
                                    (21, 52), (11, 50), (1, 50)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    samples = [float(i) for i in range(n)]
    got_pct, value = tail(samples[::-1])
    assert got_pct == pct
    if pct > 50:
        assert sum(x > value for x in samples) >= 10
        next_rank = -(-(pct + 1) * n // 100)
        assert n - next_rank < 10
    else:
        assert value == statistics.median(samples)


def test_tail_falls_back_to_the_median_below_21_samples():
    assert tail([1.0, 2.0, 3.0, 10.0]) == (50, 2.5)


COUNTS = ("regression.kernel.calls_per_op", "hierarchy.steps_per_op",
          "impact.kernel_calls_per_request", "cli.report_bytes")


def _traced_counts(workload, tmp_path):
    tally = run.Tally()
    for outcome in workload.prepare():
        tally.add(outcome)
    rows = run.traced(workload, 0, tally, tmp_path / "trace.jsonl")
    workload.close()
    assert tally.failed == 0 and not tally.errors
    return {name: rows[name][0] for name in COUNTS}


@pytest.mark.parametrize("make", [
    lambda seed, d: workloads.SimStudy("sim", seed, d, "table2", m=10,
                                       reps=4),
    lambda seed, d: workloads.SimStudy("sim", seed, d, "table1", m=5,
                                       reps=4),
    lambda seed, d: workloads.AnalyzeCsv(seed, d, rows=3000),
    lambda seed, d: workloads.EstimateInMemory(seed, rows=3000),
])
def test_count_metrics_repeat_exactly_for_a_seed(make, tmp_path):
    first = _traced_counts(make(5, tmp_path), tmp_path)
    second = _traced_counts(make(5, tmp_path), tmp_path)
    assert first == second


def test_known_exact_counts(tmp_path):
    est = _traced_counts(workloads.EstimateInMemory(1, rows=3000),
                         tmp_path)
    assert est["impact.kernel_calls_per_request"] == 6
    assert est["regression.kernel.calls_per_op"] == 6
    sim = _traced_counts(workloads.SimStudy("sim", 1, tmp_path, "table2",
                                            m=10, reps=4),
                         tmp_path)
    # 8 ordering fits, the evaluated steps, and the full-model fit
    assert sim["regression.kernel.calls_per_op"] == \
        8 + sim["hierarchy.steps_per_op"] + 1


def test_trace_lines_replay_replications(tmp_path):
    workload = workloads.SimStudy("sim", 3, tmp_path, "table1", m=5, reps=2)
    tally = run.Tally()
    for outcome in workload.prepare():
        tally.add(outcome)
    run.traced(workload, 0, tally, tmp_path / "trace.jsonl")
    lines = [json.loads(x) for x in
             (tmp_path / "trace.jsonl").read_text().splitlines()]
    study = next(x for x in lines if x.get("name") == "simulate.run_study")
    ops = sorted({x["op"] for x in lines if x.get("name") ==
                  "simulate.generate"})
    assert ops == [0, 1]
    from impactreg import SimConfig, generate_dataset
    data = generate_dataset(SimConfig(**study["config"]), ops[-1])
    assert data.n == 500


def test_pool_twin_report_equals_the_serial_one(tmp_path):
    twin = workloads.SimStudy("pool", 3, tmp_path, "table1", m=5, reps=8,
                              threads=2)
    tally = run.Tally()
    serial_s, pooled_s = run.pool_times(twin, tally)
    assert serial_s > 0 and pooled_s > 0
    assert tally.failed == 0 and not tally.errors
    assert tally.attempted == 3 * 8


def test_patched_restores_every_binding():
    from impactreg import backend, hierarchy, regression
    before = (backend.ols_sandwich, regression.fit_ols, hierarchy.order_indices)
    with patched(Tracer(), targets()):
        assert backend.ols_sandwich is not before[0]
    assert (backend.ols_sandwich, regression.fit_ols,
            hierarchy.order_indices) == before


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert all(w["why"] == workloads.WHY[w["name"]]
               for w in BENCHMARK["workloads"])
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]] == \
        [row[:3] for row in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == \
        [row[:3] for row in PER_LAYER]
    assert any(m["name"] == "setup_s" and m["bound"] == max(
        x["bound"] for x in BENCHMARK["end_to_end"])
        for m in BENCHMARK["end_to_end"])
