"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

The smoke runs use a small K, so they check every gate except reaching the
workload tolerance.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    # With --trace 1 the repetitions alternate untraced and traced, and every
    # one must leave the same trace records as the first, untraced one.
    assert detail["records_identical"]
    if trace:
        assert result["metrics"]["network.mix.calls"]["value"] > 0
        assert result["metrics"]["problems.local_grads.calls"]["value"] > 0
        assert (ROOT / detail["spans_file"]).is_file()


def test_workloads_match_benchmark_json():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "pca_dense", "--seed", "0", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_the_union_of_child_intervals():
    # Span 1 has two children that overlap, as sweep candidates on two
    # threads do; span 2 has one child of its own.
    sp = {"id": np.array([1, 2, 3, 4]), "parent": np.array([0, 1, 1, 2]),
          "start": np.array([0, 10, 30, 20]), "end": np.array([100, 50, 70, 40])}
    assert spans.self_times(sp).tolist() == [40, 20, 40, 20]
