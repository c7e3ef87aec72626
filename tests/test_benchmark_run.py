"""A traced benchmark run of each workload ends in one strict JSON result line
that carries every per-layer metric BENCHMARK.json names."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _refuse(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_traced_benchmark_run_reports_every_per_layer_metric(workload):
    # the last stdout line is the result; a removed wrap target drops metrics,
    # a wrapped call on a worker thread breaks the span stack, and a
    # non-finite metric is written as NaN, which is not JSON
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "1"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1], parse_constant=_refuse)
    assert (result["correct"], result["failed"]) == (True, 0), res.stderr
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCH["per_layer"])
    assert "missing wrap target" not in res.stderr
