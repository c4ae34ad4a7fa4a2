"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, seed: int, seconds: float, trace: int, cwd: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_the_traced_metrics():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (m["name"], m["unit"], m["better"]) for m in tracing.LAYER_METRICS
    ]


def exact(name: str, unit: str) -> bool:
    return unit == "count" or name.endswith(("_per_call", "fallback_ratio"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = run_bench(workload, 5, 10, 1, tmp_path)
    second = run_bench(workload, 5, 10, 1, tmp_path)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = {k: v["value"] for k, v in first["metrics"].items() if exact(k, v["unit"])}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert any(counts.values())


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    result = run_bench("file_commands", 5, 1, 0, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 82
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
