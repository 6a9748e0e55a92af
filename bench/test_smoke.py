"""Smoke test of the benchmark at tiny bounds (``verify --suite all --max 2``).

    python3 -m pytest bench/test_smoke.py -q

It checks that each mode emits exactly the metrics BENCHMARK.json names,
that the correctness gate fails every check when the pinned reference hash
is wrong, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_named_metric_is_emitted(trace, group):
    proc = bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0 and result["attempted"] % run.WORKLOADS["smoke"].checks == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    # every metric is printed by name before the result line
    for name in expected:
        assert f"  {name} " in proc.stdout


@pytest.mark.parametrize("trace", [False, True])
def test_wrong_reference_hash_fails_every_check(trace):
    wrong = dataclasses.replace(run.WORKLOADS["smoke"], sha256="0" * 64)
    _, r = run.measure(wrong, seed=1, seconds=1, trace=trace)
    assert r.attempted > 0
    assert r.failed == r.attempted  # failed share 1


def test_refuses_to_run_without_the_program():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "oracle-k3", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
