"""Smoke test of the benchmark at a tiny size.

Each workload runs for 1.5 seconds on shrunken inputs. The test asserts that
every metric named in BENCHMARK.json comes back with its unit, and that the
correctness checks ran and passed. It also asserts that ``run.py`` fails
without a result line where the checkout holds no source tree.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"per_class": 16, "combos": 8, "batch_size": 32, "epochs_pretrain": 3, "epochs_finetune": 50}
CHECKS = {
    "model_sha256_identical",
    "holdout_quality_gates",
    "reports_identical",
    "classify_body_parity",
    "classify_all_200",
    "queries_fresh",
    "servers_exit_0",
}


@pytest.mark.parametrize(
    "name, trace",
    [(name, False) for name in sorted(workloads.WORKLOADS)]
    + [("pipeline-default", True), ("serve-classify", True)],
)
def test_workload_reports_every_metric_and_passes_its_checks(tmp_path, name, trace):
    workload = dataclasses.replace(workloads.WORKLOADS[name], **TINY)
    result = workloads.run_workload(workload, seed=3, seconds=1.5, trace=trace, out_dir=tmp_path)

    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    ran = {check.name for check in result["checks"]}
    assert CHECKS | ({"trace_spans_recorded"} if trace else set()) == ran
    assert [c for c in result["checks"] if not c.passed] == []
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline-default", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
