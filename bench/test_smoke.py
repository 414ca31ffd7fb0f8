"""Smoke test of the benchmark itself: shape and counts, never timings.

    python3 -m pytest bench/test_smoke.py -q

Runs karate-cli at minimal length, untraced once and traced twice.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Counts that depend only on the input, so two runs must agree exactly.
EXACT = ("complexes.simplices", "complexes.arcs", "walk.step_nnz", "walk.arc_steps",
         "walk.phase_groups", "community.seeds")


def _run(cwd: Path, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "karate-cli", "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(trace: int) -> dict:
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 8
    return result


def _assert_metrics(result: dict, spec: list[dict]) -> None:
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


def test_untraced_run_reports_end_to_end_metrics():
    result = _result(trace=0)
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_traced_runs_report_layers_and_repeat_counts():
    first, second = _result(trace=1), _result(trace=1)
    _assert_metrics(first, SPEC["per_layer"])
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("trace", [0, 1])
def test_fails_without_the_library(tmp_path, trace):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, trace)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
