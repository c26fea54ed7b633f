"""Smoke tests of the benchmark itself: reduced inputs, digests checked, no
timing asserted.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_matches_frozen_outputs(workload, trace):
    proc = bench("--workload", workload, "--smoke", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(expected)


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert tuple((m["name"], m["unit"]) for m in spec["end_to_end"]) == run.END_TO_END
    assert tuple((m["name"], m["unit"]) for m in spec["per_layer"]) == run.PER_LAYER


def test_wrong_output_fails_the_run_and_known_failure_does_not():
    b = run.Bench("engine-cold", 1, 0, False, True)
    try:
        b.check("count_G(0,1,(2100,))", "RecursionError", None)
        assert (b.correct, b.failed) == (True, 1)
        b.check("count_G(0,1,(200,))", "RecursionError", None)
        assert (b.correct, b.failed) == (False, 2)
    finally:
        b.close()
    b = run.Bench("verify-all", 1, 0, False, True)
    try:
        b.check("verify --suite closed-forms", "ok", "0" * 64)
        assert (b.correct, b.failed) == (False, 1)
    finally:
        b.close()


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "engine-cold", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
