"""Tests for the measured host envelope and the CI perf gate.

The profile round trip uses a fixed synthetic :class:`MachineProfile`; the
one real measurement is checked only for finite, positive fields, so no
test depends on the wall clock of the machine running the suite.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

from repro import MachineProfile
from repro.backends.calibration import measure_profile


@pytest.fixture
def profile():
    """A fixed synthetic profile."""
    return MachineProfile(launch_overhead=5.0e-6, peak_gflops=80.0, mem_bandwidth=3.0e10)


# ======================================================================
# MachineProfile serialization + measurement
# ======================================================================
class TestMachineProfile:
    def test_json_round_trip(self, profile, tmp_path):
        path = tmp_path / "profile.json"
        profile.save(path)
        loaded = MachineProfile.load(path)
        assert loaded == profile
        # the on-disk form is plain JSON of the three measured fields
        raw = json.loads(path.read_text())
        assert raw == {
            "launch_overhead": 5.0e-6,
            "peak_gflops": 80.0,
            "mem_bandwidth": 3.0e10,
        }

    def test_from_dict_rejects_unknown_keys(self, profile):
        data = profile.to_dict()
        data["frobnication_factor"] = 7
        with pytest.raises(ValueError, match="frobnication_factor"):
            MachineProfile.from_dict(data)

    def test_measure_profile_fields_finite_and_positive(self):
        # roofline reports divide by peak_gflops and mem_bandwidth
        measured = measure_profile(repeats=1)
        for value in (
            measured.launch_overhead,
            measured.peak_gflops,
            measured.mem_bandwidth,
        ):
            assert math.isfinite(value) and value > 0


# ======================================================================
# check_bench: the CI perf gate
# ======================================================================
def _load_check_bench():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "check_bench.py"
    spec = importlib.util.spec_from_file_location("check_bench", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def check_bench():
    return _load_check_bench()


BASE_COUNTERS = {
    "n": 2048,
    "launches_per_solve": 16,
    "factor_launches": 24,
    "construction_flops": 1.0e9,
    "factor_plan_bytes": 4.0e6,
}


class TestCheckBench:
    def test_identical_counters_pass(self, check_bench):
        reg, imp, rows = check_bench.compare_counters(BASE_COUNTERS, BASE_COUNTERS)
        assert reg == [] and imp == []
        assert all(r["status"] == "ok" for r in rows)
        # "n" is descriptive, not a gated counter
        assert "n" not in {r["key"] for r in rows}

    def test_launch_regression_fails(self, check_bench):
        current = dict(BASE_COUNTERS, launches_per_solve=17)  # +6% > 2% tol
        reg, _imp, rows = check_bench.compare_counters(current, BASE_COUNTERS)
        assert any("launches_per_solve" in r for r in reg)
        assert any(r["status"] == "REGRESSION" for r in rows)

    def test_flops_within_tolerance_pass(self, check_bench):
        current = dict(BASE_COUNTERS, construction_flops=1.04e9)  # +4% < 5% tol
        reg, _imp, _rows = check_bench.compare_counters(current, BASE_COUNTERS)
        assert reg == []

    def test_bytes_regression_fails(self, check_bench):
        current = dict(BASE_COUNTERS, factor_plan_bytes=4.5e6)  # +12.5%
        reg, _imp, _rows = check_bench.compare_counters(current, BASE_COUNTERS)
        assert any("factor_plan_bytes" in r for r in reg)

    def test_missing_counter_is_regression(self, check_bench):
        current = {k: v for k, v in BASE_COUNTERS.items() if k != "factor_launches"}
        reg, _imp, rows = check_bench.compare_counters(current, BASE_COUNTERS)
        assert any("missing" in r for r in reg)
        assert any(r["status"] == "MISSING" for r in rows)

    def test_improvement_reported_not_failed(self, check_bench):
        current = dict(BASE_COUNTERS, launches_per_solve=12)
        reg, imp, _rows = check_bench.compare_counters(current, BASE_COUNTERS)
        assert reg == []
        assert any("launches_per_solve" in i for i in imp)

    def test_new_counter_is_informational(self, check_bench):
        current = dict(BASE_COUNTERS, apply_launches_per_matvec=9)
        reg, _imp, rows = check_bench.compare_counters(current, BASE_COUNTERS)
        assert reg == []
        assert any(r["status"] == "new" for r in rows)

    def test_main_exit_codes(self, check_bench, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"counters": BASE_COUNTERS}))
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"counters": BASE_COUNTERS}))
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"counters": dict(BASE_COUNTERS, launches_per_solve=32)})
        )
        summary = tmp_path / "summary.md"
        argv_ok = [
            "--current", str(good), "--baseline", str(baseline),
            "--summary", str(summary),
        ]
        assert check_bench.main(argv_ok) == 0
        assert "Perf gate" in summary.read_text()
        argv_bad = ["--current", str(bad), "--baseline", str(baseline)]
        assert check_bench.main(argv_bad) == 1

    def test_bench_markdown_keeps_speedup_orientation(self, check_bench):
        # a row whose measured side is slower (speedup < 1) must not render
        # its two times swapped under "fast" / "slow" headings
        payload = {"benchmarks": {
            "gaussian_matvec_apply_loop": {"batched_s": 0.5504, "loop_s": 0.5051,
                                           "speedup": 0.92},
            "multi_rhs_solve": {"fused_s": 0.0614, "sequential_s": 0.5179,
                                "speedup": 8.43},
        }}
        lines = check_bench.bench_markdown(payload).splitlines()
        assert "| gaussian_matvec_apply_loop | batched | 0.5504 | loop | 0.5051 | 0.92x |" in lines
        assert "| multi_rhs_solve | fused | 0.0614 | sequential | 0.5179 | 8.43x |" in lines

    def test_main_requires_counters_section(self, check_bench, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"benchmarks": {}}))
        ok = tmp_path / "ok.json"
        ok.write_text(json.dumps({"counters": BASE_COUNTERS}))
        assert check_bench.main(["--current", str(ok), "--baseline", str(empty)]) == 1
        assert check_bench.main(["--current", str(empty), "--baseline", str(ok)]) == 1
