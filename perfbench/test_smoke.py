"""Smoke test of the benchmark: each workload briefly, every metric present, nothing failed.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True, proc.stdout
    return lines, result["metrics"]


def _assert_metrics(metrics, declared):
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert set(metrics[m["name"]]) == {"value", "unit"}
        assert metrics[m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    lines, metrics = _result(_run(workload, 0))
    _assert_metrics(metrics, BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values())
    fail_ratio = [line.split() for line in lines if line.startswith("fail_ratio ")]
    assert fail_ratio and float(fail_ratio[0][1]) == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_per_layer_metrics(workload):
    _, metrics = _result(_run(workload, 1))
    _assert_metrics(metrics, BENCH["per_layer"])
    assert metrics["trace.ops"]["value"] > 0 and metrics["trace.overhead"]["value"] > 0
    if workload == "q-characterize":
        # is_weighted_ep solves the group inverse three times on a weighted-EP input
        assert metrics["characterize.group_inverse_per_ep"]["value"] == 3


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
