"""Smoke test for the benchmark itself (about two minutes):

    python3 -m pytest benchmarks/test_smoke.py

Short runs of every workload, traced and untraced, must pass their own
checks and print every metric BENCHMARK.json names; a wrong expected
checksum must fail the run; and without the source tree the benchmark
must refuse to run.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join("benchmarks", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_prints_every_metric(workload, trace):
    declared = SPEC["end_to_end" if trace == 0 else "per_layer"]
    proc, result = run("--workload", workload, "--seed", "7",
                       "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_expected_checksum_fails_the_run():
    proc, result = run("--workload", "publish", "--seconds", "1",
                       "--wrong-checksum")
    assert proc.returncode == 1
    assert result is not None and not result["correct"]
    assert result["failed"] > 0


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, result = run("--workload", "publish", "--seconds", "1",
                       cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
