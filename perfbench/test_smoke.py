"""Smoke test of the benchmark: every workload at the tiny size, untraced and traced.

    python3 -m pytest -q perfbench/test_smoke.py

Asserts that each run emits exactly the metrics BENCHMARK.json lists, with
their units, and that no operation failed its output check.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seconds", "1", "--size", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], float) and math.isfinite(emitted["value"])
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stdout
    assert result["correct"] is True


def test_all_workloads_print_the_named_metrics():
    proc = _run()
    assert proc.returncode == 0, proc.stderr
    for name in ("setup_s", "train_seq_per_s", "eval_seq_per_s", "grid_cells_per_h", "peak_rss_mb",
                 "failed_frac"):
        assert f"  {name} " in proc.stdout
    assert json.loads(proc.stdout.strip().splitlines()[-1])["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run("--workload", "adding-irnn-train", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
