"""Every committed ``BENCH_<N>.json`` holds the rows the benchmark defines.

``tools/bench_record.py --pr N`` writes these files; a file that lacks a
workload, an end-to-end metric or the machine it ran on cannot be
compared with the next one.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
FILES = sorted(ROOT.glob("BENCH_*.json"))


def pr_number(path):
    return int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_bench_file_is_complete(path):
    n = pr_number(path)
    record = json.loads(path.read_text())
    assert record["pr"] == n

    metrics = {m["name"] for m in BENCHMARK["end_to_end"]}
    for workload in BENCHMARK["workloads"]:
        row = record["end_to_end"][workload["name"]]
        assert row["correct"] is True, workload["name"]
        assert set(row["metrics"]) >= metrics, workload["name"]

    env = record["environment"]
    assert isinstance(env["nproc"], int) and env["nproc"] >= 1
    assert env["numpy_blas"] and env["scipy_blas"]

    if n >= 9:
        assert record["git"]["commit"]
        assert isinstance(record["git"]["dirty"], bool)
    if n >= 10:
        # a tree with tracked changes is named by its diff against HEAD
        digest = record["git"]["diff_sha256"]
        assert digest is None or re.fullmatch(r"[0-9a-f]{64}", digest)
        layers = {m["name"] for m in BENCHMARK["per_layer"]}
        for workload in BENCHMARK["workloads"]:
            row = record["per_layer"][workload["name"]]
            assert row["correct"] is True, workload["name"]
            assert set(row["metrics"]) >= layers, workload["name"]
