"""Smoke test of the benchmark itself: every workload at p = 64, untraced and traced.

    python3 -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=175)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    out = bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", trace, "--small")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, out.stderr
    expect = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expect
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench(tmp_path, "--workload", "krige", "--seed", "1", "--seconds", "1")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_self_time_subtracts_children():
    spans = [{"id": 0, "name": "op", "parent": None, "start": 0.0, "end": 10.0},
             {"id": 1, "name": "a", "parent": 0, "start": 1.0, "end": 4.0},
             {"id": 2, "name": "b", "parent": 0, "start": 5.0, "end": 7.0},
             {"id": 3, "name": "c", "parent": 2, "start": 5.5, "end": 6.0}]
    assert run.self_times(spans) == {"op": [5.0], "a": [3.0], "b": [1.5], "c": [0.5]}
