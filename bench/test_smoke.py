"""Fast smoke test of the benchmark itself, on a tiny scene.

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

TINY = run.Workload(vehicles=12, duration=1.2, model="cv", mix=run.TURNING_MIX, eval_frames=6)

EXPECTED_CHECKS = {
    "synth exit code",
    "synth rerun byte-identical",
    "scene covers the eval window",
    "one fused frame per input frame",
    "eval exit code",
    "eval CSV has the all and turning rows",
    "fusion raises AP on subset all",
    "inverse exit code",
    "inverse writes every frame",
    "inverse attaches bicycle parameters to every box",
    "fuse exit code",
    "streaming pass byte-identical to boxfuse fuse",
}


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_unit_and_checks_run(trace):
    metrics, checks = run.run_workload(TINY, seed=3, seconds=0.0, trace=trace)
    result = json.loads(run.result_line(metrics, checks, trace))

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert result["metrics"] == {
        name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()
    }
    assert EXPECTED_CHECKS <= set(checks.names)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(checks.names)


def test_tracing_restores_the_program():
    from boxfuse import evaluation, fusion

    before = (fusion.forward_frame, evaluation.bev_iou)
    run.run_workload(TINY, seed=3, seconds=0.0, trace=True)
    assert (fusion.forward_frame, evaluation.bev_iou) == before


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stream-200", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
