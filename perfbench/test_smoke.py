"""Smoke test of the benchmark harness at tiny sizes; it never gates on timings.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs for half a second with and without tracing.  The test
checks that every metric ``BENCHMARK.json`` names is emitted with its unit,
that no job failed, that the traced self times fit inside the traced wall
time, and that without the engine's sources the harness refuses to run.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_harness(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [*SPEC["command"], "--workload", workload, "--seed", "5", "--seconds", "0.5",
            "--trace", str(trace), "--size", "tiny"]
    argv[0] = sys.executable
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_and_no_job_fails(workload, trace):
    proc = run_harness(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stderr
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected

    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    for key in ("python", "nproc", "platform", "git_revision", "source_sha256", "diagram_caches"):
        assert key in env
    assert env["diagram_caches"], "every diagram-layer cache reports its cache_info()"

    details = json.loads((HERE / "out" / f"result-{workload}-trace{trace}.json").read_text())["details"]
    assert details["failed_frac"] == 0
    if trace:
        values = {name: entry["value"] for name, entry in result["metrics"].items()}
        self_times = [v for name, v in values.items() if name.endswith(".self_s") and name != "harness.self_s"]
        assert min(self_times) >= 0
        assert values["harness.self_s"] >= 0, "layer self times exceed the traced wall time"


def test_refuses_to_run_without_the_engine():
    stripped = HERE / "out" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    (stripped / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, stripped / "perfbench")
    try:
        proc = run_harness("arith", 0, cwd=stripped)
    finally:
        shutil.rmtree(stripped)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
