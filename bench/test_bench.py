"""Smoke test of the benchmark harness, so that it cannot rot.

Runs every workload on tiny inputs, untraced and traced, and checks that
every metric BENCHMARK.json names is emitted with its unit, that no
operation fails on the current code, and that a seed repeats its digest.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def record(workload: str, seed: int, trace: int) -> dict:
    return json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit_and_no_failures(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_repeats_for_a_seed_and_differs_across_seeds(workload):
    digests = []
    for seed in (5, 5, 6):
        assert smoke(workload, 0, seed).returncode == 0
        digests.append(record(workload, seed, 0)["digest"])
    assert digests[0] == digests[1] != digests[2]


def test_traced_layers_add_up_to_the_job_time():
    proc = smoke("federation-join", 1)
    metrics = {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    layers = ("cli", "serialize", "policies", "model", "analyze", "compose", "rules", "bench")
    assert sum(metrics[f"{layer}.self_ms"] for layer in layers) == pytest.approx(
        metrics["trace.job_ms_mean"], rel=1e-9)
    assert metrics["rules.apply_rule.calls"] == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = smoke("translate-bulk", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
