"""The thread pool for whole independent solves.

Only sweeps and portfolios put work on host threads; every solve runs the
serial level-batched schedule.  Covers:

* ``run_tasks`` mechanics: task-order results despite reversed completion,
  exception propagation, worker traces absorbed in task order, and the
  inline ``workers=1`` path with zero pool submissions;
* whole solves on worker threads agree with caller-thread solves to
  1e-12, real and complex, with identical kernel traces run after run;
* sweep, config-sweep and portfolio fan-out equal to their serial runs;
* worker-count validation at the ``run_sweep`` / ``solve_portfolio``
  boundary.
"""

import threading

import numpy as np
import pytest

from conftest import complex_test_matrix, hodlr_friendly_matrix

import repro
from repro import run_sweep, solve_portfolio
from repro.api import CompressionConfig, SolverConfig
from repro.backends.counters import get_recorder
from repro.backends.parallel import (
    pool_stats,
    reset_pool_stats,
    run_tasks,
    shutdown_pool,
)

VARIANTS = ["recursive", "batched"]

#: worker count that forces pool execution on any host
WORKERS = 2


@pytest.fixture(autouse=True)
def _pool_isolation():
    """Each test starts and ends with no pool and a zeroed counter."""
    shutdown_pool()
    reset_pool_stats()
    yield
    shutdown_pool()
    reset_pool_stats()


def _config(variant="batched", **kw):
    return SolverConfig(
        variant=variant,
        compression=CompressionConfig(tol=1e-12, method="svd"),
        **kw,
    )


def _rel_diff(a, b):
    denom = max(float(np.linalg.norm(b)), 1e-300)
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) / denom


def _trace_key(trace):
    """Everything counter-like about a trace, in event order."""
    return [
        (e.kernel, e.buckets, e.batch, e.flops, e.bytes_moved, e.level, e.tag)
        for e in trace.events
    ]


# ======================================================================
# worker-count validation at the API boundary
# ======================================================================
class TestConfig:
    @pytest.mark.parametrize(
        "bad", ["bogus", True, {"wrkrs": 2}, 2.5, 0, -1, "auto"]
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError, match="worker count"):
            run_sweep("gaussian_kernel", [{"n": 64}], n=64, parallel=bad)
        with pytest.raises(ValueError, match="worker count"):
            solve_portfolio([{"problem": "gaussian_kernel", "n": 64}], parallel=bad)
        assert pool_stats().submissions == 0


# ======================================================================
# run_tasks mechanics
# ======================================================================
class TestRunTasks:
    def test_results_in_task_order_despite_completion_order(self):
        # task 0 blocks until task 1 has finished: completion order is
        # provably reversed, submission order must still win
        gate = threading.Event()

        def first():
            assert gate.wait(timeout=30.0)
            return "first"

        def second():
            gate.set()
            return "second"

        out = run_tasks([first, second], WORKERS)
        assert out == ["first", "second"]
        assert pool_stats().submissions == 2

    def test_inline_path_zero_submissions(self):
        out = run_tasks([lambda: 1, lambda: 2], 1)
        assert out == [1, 2]
        assert pool_stats().submissions == 0
        assert not pool_stats().active

    def test_exceptions_propagate(self):
        def boom():
            raise RuntimeError("inside worker")

        with pytest.raises(RuntimeError, match="inside worker"):
            run_tasks([boom, lambda: 1], WORKERS)

    def test_worker_traces_absorbed_in_task_order(self):
        from repro.backends.batched import gemm_strided_batched

        rng = np.random.default_rng(0)
        mats = [rng.standard_normal((1, k, k)) for k in (2, 3, 4, 5)]

        def task(A):
            return gemm_strided_batched(A, A)

        rec = get_recorder()
        with rec.recording() as serial:
            run_tasks([lambda A=A: task(A) for A in mats], 1)
        with rec.recording() as parallel:
            run_tasks([lambda A=A: task(A) for A in mats], WORKERS)
        assert pool_stats().submissions == 4
        assert _trace_key(parallel) == _trace_key(serial)


# ======================================================================
# whole solves on worker threads
# ======================================================================
class TestEquivalence:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_solve_matches_serial(self, variant, kind):
        n = 256
        A = (
            hodlr_friendly_matrix(n, seed=3)
            if kind == "real"
            else complex_test_matrix(n, seed=3)
        )
        rng = np.random.default_rng(7)
        b = rng.standard_normal(n)
        if kind == "complex":
            b = b + 1j * rng.standard_normal(n)
        serial = repro.solve(A, b, _config(variant), cache=False)
        items = [{"problem": A, "b": b}] * 2
        on_workers = solve_portfolio(
            items, _config(variant), parallel=WORKERS, cache=False
        )
        assert pool_stats().submissions == 2
        for res in on_workers:
            assert _rel_diff(res.x, serial.x) <= 1e-12
        assert serial.relative_residual <= 1e-8

    def test_solve_off_zero_submissions(self):
        A = hodlr_friendly_matrix(256, seed=3)
        b = np.random.default_rng(7).standard_normal(256)
        repro.solve(A, b, _config("batched"), cache=False)
        assert pool_stats().submissions == 0
        assert not pool_stats().active

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_trace_counters_deterministic_across_runs(self, variant):
        A = hodlr_friendly_matrix(256, seed=3)
        b = np.random.default_rng(7).standard_normal(256)
        items = [{"problem": A, "b": b}] * 2
        rec = get_recorder()

        def traced(workers):
            with rec.recording() as trace:
                solve_portfolio(items, _config(variant), parallel=workers, cache=False)
            return _trace_key(trace)

        serial_key = traced(1)
        first = traced(WORKERS)
        second = traced(WORKERS)
        assert first == second, "worker-thread trace varies between identical runs"
        assert first == serial_key, "worker-thread trace differs from serial"


# ======================================================================
# sweep- and portfolio-level fan-out
# ======================================================================
class TestSweepParallel:
    def test_parameter_sweep_matches_serial(self):
        steps = [{"kappa": 10.0}, {"kappa": 12.0}, {"n": 192}, {"n": 224}]
        serial = run_sweep("helmholtz_kernel", steps, n=256)
        assert pool_stats().submissions == 0
        parallel = run_sweep("helmholtz_kernel", steps, n=256, parallel=WORKERS)
        assert pool_stats().submissions >= 2  # the two non-recycled steps
        assert [s.params for s in parallel.steps] == [s.params for s in serial.steps]
        assert [s.recycled for s in parallel.steps] == [s.recycled for s in serial.steps]
        for a, b in zip(parallel.steps, serial.steps):
            assert _rel_diff(a.x, b.x) <= 1e-12

    def test_config_sweep_matches_serial(self):
        cfgs = [_config("batched"), _config("recursive"), _config("batched")]
        serial = run_sweep("gaussian_kernel", cfgs, n=256)
        assert pool_stats().submissions == 0
        parallel = run_sweep("gaussian_kernel", cfgs, n=256, parallel=WORKERS)
        assert pool_stats().submissions >= 3
        assert [s.recycled for s in parallel.steps] == [s.recycled for s in serial.steps]
        for a, b in zip(parallel.steps, serial.steps):
            assert _rel_diff(a.x, b.x) <= 1e-12


class TestPortfolio:
    ITEMS = [
        {"problem": "gaussian_kernel", "n": 192},
        {"problem": "gaussian_kernel", "n": 256},
        {"problem": "helmholtz_kernel", "n": 192, "kappa": 12.0},
    ]

    def test_matches_serial_in_order(self):
        serial = solve_portfolio(self.ITEMS, cache=False)
        assert pool_stats().submissions == 0
        parallel = solve_portfolio(self.ITEMS, parallel=WORKERS, cache=False)
        assert pool_stats().submissions >= len(self.ITEMS)
        assert len(parallel) == len(serial) == len(self.ITEMS)
        for a, b in zip(parallel, serial):
            assert a.x.shape == b.x.shape
            assert _rel_diff(a.x, b.x) <= 1e-12

    def test_dense_entries_and_shared_config(self):
        A = hodlr_friendly_matrix(192, seed=5)
        b = np.random.default_rng(11).standard_normal(192)
        items = [{"problem": A, "b": b}, {"problem": A, "b": b}]
        out = solve_portfolio(items, _config("batched"), parallel=WORKERS, cache=False)
        assert len(out) == 2
        assert _rel_diff(out[0].x, out[1].x) == 0.0

    def test_mapping_without_problem_key_rejected(self):
        with pytest.raises(TypeError, match="problem"):
            solve_portfolio([{"n": 128}])

    def test_shared_cache_reuses_operator(self):
        items = [
            {"problem": "gaussian_kernel", "n": 192},
            {"problem": "gaussian_kernel", "n": 192},
        ]
        cache = repro.OperatorCache(maxsize=4)
        first, second = solve_portfolio(items, cache=cache)
        assert first.operator is second.operator
