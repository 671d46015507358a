"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They drive the benchmark command itself, so the counter test takes a few
minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: per-layer counters that must repeat exactly for the same seed
DETERMINISTIC = re.compile(
    r".*\.launches|.*\.gflop|kernels\.entries|compress\.rank_.*|update\.patch_launches"
)


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_are_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_deterministic_counters_repeat(workload):
    first, second = (_result(_run(workload, trace=1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    counters = [name for name in first["metrics"] if DETERMINISTIC.fullmatch(name)]
    assert counters
    for name in counters:
        assert first["metrics"][name] == second["metrics"][name], name


def test_end_to_end_run_reports_every_metric():
    result = _result(_run("gauss_oneshot", trace=0))
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    proc = _run("gauss_oneshot", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
