"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs in its own process through the runner, as the full
benchmark does, with tiny inputs and a one-second measurement.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_all(seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def printed_names(lines):
    return [line.split()[0] for line in lines if line.startswith("  ")]


@pytest.mark.parametrize("seed", [3, 4])
def test_untraced_runs_print_every_end_to_end_metric_and_pass_checks(seed):
    lines, result = run_all(seed, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    names = printed_names(lines)
    for metric in SPEC["end_to_end"]:
        assert names.count(metric["name"]) == len(WORKLOADS)
        for workload in WORKLOADS:
            got = result["metrics"][f"{workload}.{metric['name']}"]
            assert got["unit"] == metric["unit"] and got["value"] > 0
    assert names.count("failed_frac") == len(WORKLOADS)


def test_traced_runs_print_every_per_layer_metric_and_pass_checks():
    lines, result = run_all(5, trace=1)
    assert result["correct"] and result["failed"] == 0
    names = printed_names(lines)
    for metric in SPEC["per_layer"]:
        assert names.count(metric["name"]) == len(WORKLOADS)
        for workload in WORKLOADS:
            assert result["metrics"][f"{workload}.{metric['name']}"]["unit"] == metric["unit"]
    assert any("recomposed_equals_run_pipeline: ok" in line for line in lines)
    assert any("recomposed_equals_train: ok" in line for line in lines)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", WORKLOADS[0],
         "--seconds", "1", "--tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
