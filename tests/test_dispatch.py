"""Tests for the backend dispatch layer: shape-bucketed planning, the
vectorised batched LU kernels, the ArrayBackend registry, and the dispatch
constants as the batched primitives and the solver follow them.

The crossovers are fixed constants, so each side of each one is reached
through the inputs: bucket sizes and block widths on either side of
``GEMM_PACK_MAX_ELEMENTS``, ``LU_FACTOR_MIN_BATCH`` / ``LU_FACTOR_MAX_N``
and ``LU_SOLVE_MIN_BATCH_RATIO``.
"""

import numpy as np
import pytest

from repro.backends.batched import (
    gemm_batched,
    getrf_batched,
    getrs_batched,
)
from repro.backends.counters import gemm_flops, get_recorder
from repro.backends.dispatch import (
    GEMM_PACK_MAX_ELEMENTS,
    LU_FACTOR_MIN_BATCH,
    BackendUnavailableError,
    NumpyBackend,
    available_backends,
    get_backend,
    plan_batch,
    register_backend,
    registered_backends,
)


class TestBatchPlanner:
    def test_mixed_shapes_grouped_into_buckets(self):
        keys = [(3, 5), (4, 4), (3, 5), (4, 4), (3, 5), (2, 2)]
        plan = plan_batch(keys)
        assert plan.nbatch == 6
        assert plan.num_buckets == 3
        by_key = {b.key: b.indices for b in plan.buckets}
        assert by_key[(3, 5)] == (0, 2, 4)
        assert by_key[(4, 4)] == (1, 3)
        assert by_key[(2, 2)] == (5,)

    def test_bucket_order_follows_first_occurrence(self):
        plan = plan_batch(["b", "a", "b", "c", "a"])
        assert [b.key for b in plan.buckets] == ["b", "a", "c"]

    def test_singleton_buckets(self):
        plan = plan_batch([(1,), (2,), (3,)])
        assert plan.num_buckets == 3
        assert all(len(b) == 1 for b in plan.buckets)

    def test_uniform_batch_is_one_bucket(self):
        plan = plan_batch([(8, 8)] * 10)
        assert plan.num_buckets == 1
        assert len(plan.buckets[0]) == 10
        assert plan.buckets[0].indices == tuple(range(10))

    def test_empty_batch(self):
        plan = plan_batch([])
        assert plan.nbatch == 0
        assert plan.num_buckets == 0
        assert plan.buckets == ()


class TestBackendRegistry:
    def test_numpy_backend_is_default(self):
        xb = get_backend("numpy")
        assert isinstance(xb, NumpyBackend)
        assert get_backend("numpy") is xb  # cached instance

    def test_numpy_and_cupy_are_registered(self):
        names = registered_backends()
        assert "numpy" in names and "cupy" in names
        # numpy always imports; cupy only on CUDA machines
        assert "numpy" in available_backends()

    def test_unknown_backend_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown array backend"):
            get_backend("no-such-backend")

    def test_register_custom_backend(self):
        class Custom(NumpyBackend):
            name = "custom-test"

        register_backend("custom-test", Custom, overwrite=True)
        assert isinstance(get_backend("custom-test"), Custom)
        with pytest.raises(ValueError):
            register_backend("custom-test", Custom)  # no silent overwrite

    def test_unavailable_backend_excluded(self):
        def broken():
            raise BackendUnavailableError("missing dependency")

        register_backend("broken-test", broken, overwrite=True)
        assert "broken-test" in registered_backends()
        assert "broken-test" not in available_backends()


class TestBucketedGemm:
    def test_empty_batch_returns_empty(self):
        assert gemm_batched([], []) == []

    def test_heterogeneous_batch_bucketed_equivalence(self, rng):
        """Bucketed execution matches a per-block NumPy product to 1e-12."""
        A = (
            [rng.standard_normal((5, 7)) for _ in range(4)]
            + [rng.standard_normal((6, 2)) for _ in range(3)]
            + [rng.standard_normal((9, 9))]
        )
        B = (
            [rng.standard_normal((7, 3)) for _ in range(4)]
            + [rng.standard_normal((2, 4)) for _ in range(3)]
            + [rng.standard_normal((9, 1))]
        )
        bucketed = gemm_batched(A, B)
        for xb_out, a, b in zip(bucketed, A, B):
            np.testing.assert_allclose(xb_out, a @ b, rtol=1e-12, atol=1e-12)

    def test_alpha_beta_bucketed(self, rng):
        A = [rng.standard_normal((4, 4)) for _ in range(3)]
        B = [rng.standard_normal((4, 4)) for _ in range(3)]
        C = [rng.standard_normal((4, 4)) for _ in range(3)]
        out = gemm_batched(A, B, C=C, alpha=2.0, beta=-1.0)
        for i in range(3):
            np.testing.assert_allclose(out[i], 2.0 * A[i] @ B[i] - C[i])

    def test_conjugate_transpose_bucketed(self, rng):
        A = [rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7)) for _ in range(3)]
        B = [rng.standard_normal((5, 2)) for _ in range(3)]
        out = gemm_batched(A, B, conjugate_a=True)
        for i in range(3):
            np.testing.assert_allclose(out[i], A[i].conj().T @ B[i])

    def test_vector_rhs_bucket(self, rng):
        A = [rng.standard_normal((4, 6)) for _ in range(3)]
        B = [rng.standard_normal(6) for _ in range(3)]
        out = gemm_batched(A, B)
        for i in range(3):
            assert out[i].shape == (4,)
            np.testing.assert_allclose(out[i], A[i] @ B[i])

    def test_event_records_buckets_and_strided(self, rng):
        rec = get_recorder()
        A = [rng.standard_normal((3, 3))] * 4 + [rng.standard_normal((5, 5))] * 2
        B = [rng.standard_normal((3, 2))] * 4 + [rng.standard_normal((5, 2))] * 2
        with rec.recording() as trace:
            gemm_batched(A, B)
        (event,) = trace.events
        assert event.kernel == "gemm_batched"
        assert event.batch == 6
        assert event.buckets == 2
        assert event.strided  # >= 2 equal-shape blocks execute as strided buckets
        assert trace.num_kernel_launches == 2
        assert trace.num_bucketed_launches == 2

    def test_flops_match_between_policies(self, rng):
        """Per-bucket accounting equals the per-block gemm totals."""
        rec = get_recorder()
        A = [rng.standard_normal((5, 7)) for _ in range(4)] + [rng.standard_normal((2, 3))]
        B = [rng.standard_normal((7, 3)) for _ in range(4)] + [rng.standard_normal((3, 1))]
        with rec.recording() as bucketed_trace:
            gemm_batched(A, B)
        flops = sum(gemm_flops(a.shape[0], b.shape[1], b.shape[0], False) for a, b in zip(A, B))
        nbytes = sum((a.size + b.size + a.shape[0] * b.shape[1]) * 8 for a, b in zip(A, B))
        assert bucketed_trace.total_flops == pytest.approx(flops)
        assert bucketed_trace.total_bytes == pytest.approx(nbytes)


    def test_gemm_crossover_sides(self, rng, monkeypatch):
        """Small multi-block buckets run packed (one ``matmul`` each);
        singleton buckets and blocks above ``GEMM_PACK_MAX_ELEMENTS`` run as
        a per-problem loop inside their launch.  Both match NumPy."""
        big = int(np.sqrt(GEMM_PACK_MAX_ELEMENTS)) + 2  # big*big entries > the constant
        A = (
            [rng.standard_normal((5, 7)) for _ in range(4)]
            + [rng.standard_normal((big, big)) for _ in range(3)]
            + [rng.standard_normal((9, 9))]
        )
        B = (
            [rng.standard_normal((7, 3)) for _ in range(4)]
            + [rng.standard_normal((big, 2)) for _ in range(3)]
            + [rng.standard_normal((9, 1))]
        )
        packed = []
        original = NumpyBackend.matmul

        def counted(self, a, b):
            packed.append(a.shape)
            return original(self, a, b)

        monkeypatch.setattr(NumpyBackend, "matmul", counted)
        rec = get_recorder()
        with rec.recording() as trace:
            out = gemm_batched(A, B)
        assert packed == [(4, 5, 7)]  # only the small multi-block bucket packs
        assert trace.events[0].buckets == 3  # still one launch per bucket
        for o, a, b in zip(out, A, B):
            np.testing.assert_allclose(o, a @ b, rtol=1e-12, atol=1e-12)


#: which side of the LU dispatch constants a ``TestBucketedLU`` population
#: lands on: ``count`` equal blocks below ``LU_FACTOR_MIN_BATCH`` run the
#: per-problem LAPACK loop, at or above it (and at least
#: ``LU_SOLVE_MIN_BATCH_RATIO * n`` for the solve) the vectorised batched
#: elimination and substitution
LOOP_SIDE = {"count": 5, "vectorised": False}
VECTORISED_SIDE = {"count": 32, "vectorised": True}
assert VECTORISED_SIDE["count"] >= LU_FACTOR_MIN_BATCH > LOOP_SIDE["count"]


def _assert_side(lu_paths, policy):
    assert (lu_paths["factor_vectorised"] > 0) == policy["vectorised"]


class TestBucketedLU:
    def _mixed_problems(self, rng, shift=6.0, count=5):
        """``count`` blocks of 6 with two-column right-hand sides, plus a
        3-block bucket of 4 with vector right-hand sides (always the loop
        side)."""
        mats = [rng.standard_normal((6, 6)) + shift * np.eye(6) for _ in range(count)] + [
            rng.standard_normal((4, 4)) + shift * np.eye(4) for _ in range(3)
        ]
        rhs = [rng.standard_normal((6, 2)) for _ in range(count)] + [
            rng.standard_normal(4) for _ in range(3)
        ]
        return mats, rhs

    @pytest.mark.parametrize("policy", [LOOP_SIDE, VECTORISED_SIDE])
    def test_bucketed_matches_per_block_loop_to_1e12(self, rng, policy, lu_paths):
        from scipy import linalg as sla

        mats, rhs = self._mixed_problems(rng, count=policy["count"])
        fast = getrs_batched(getrf_batched(mats), rhs)
        _assert_side(lu_paths, policy)
        assert (lu_paths["solve_vectorised"] > 0) == policy["vectorised"]
        assert lu_paths["factor_loop"] > 0 and lu_paths["solve_loop"] > 0
        slow = [sla.lu_solve(sla.lu_factor(A), b) for A, b in zip(mats, rhs)]
        for a, b in zip(fast, slow):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_bucketed_roundtrip_residual(self, rng):
        mats, rhs = self._mixed_problems(rng)
        xs = getrs_batched(getrf_batched(mats), rhs)
        for A, b, x in zip(mats, rhs, xs):
            np.testing.assert_allclose(A @ x, b, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("policy", [LOOP_SIDE, VECTORISED_SIDE])
    def test_pivot_false_bucketed(self, rng, policy, lu_paths):
        # diagonally dominant
        mats, rhs = self._mixed_problems(rng, shift=12.0, count=policy["count"])
        lu = getrf_batched(mats, pivot=False)
        assert not lu.pivot
        xs = getrs_batched(lu, rhs)
        _assert_side(lu_paths, policy)
        ref = [np.linalg.solve(A, b) for A, b in zip(mats, rhs)]
        for a, b in zip(xs, ref):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("policy", [LOOP_SIDE, VECTORISED_SIDE])
    def test_pivot_false_zero_pivot_raises_in_bucket(self, policy, lu_paths):
        singular_leading = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            getrf_batched([singular_leading] * policy["count"], pivot=False)
        _assert_side(lu_paths, policy)

    def test_empty_batch(self):
        lu = getrf_batched([])
        assert len(lu) == 0
        assert getrs_batched(lu, []) == []

    @pytest.mark.parametrize("policy", [LOOP_SIDE, VECTORISED_SIDE])
    def test_complex_bucketed(self, rng, policy, lu_paths):
        mats = [
            rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) + 5 * np.eye(5)
            for _ in range(policy["count"])
        ]
        rhs = [
            rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
            for _ in range(policy["count"])
        ]
        xs = getrs_batched(getrf_batched(mats), rhs)
        _assert_side(lu_paths, policy)
        for A, b, x in zip(mats, rhs, xs):
            np.testing.assert_allclose(A @ x, b, rtol=1e-10, atol=1e-12)

    def test_cross_policy_factors_interoperate(self, rng, lu_paths):
        """Factors from the vectorised kernel plug into SciPy's per-block solve."""
        from scipy import linalg as sla

        count = VECTORISED_SIDE["count"]
        mats = [rng.standard_normal((6, 6)) + 6 * np.eye(6) for _ in range(count)]
        rhs = [rng.standard_normal((6, 1)) for _ in range(count)]
        lu_fast = getrf_batched(mats)
        _assert_side(lu_paths, VECTORISED_SIDE)
        xs = [sla.lu_solve((lu, piv), b) for lu, piv, b in zip(lu_fast.lu, lu_fast.piv, rhs)]
        for A, b, x in zip(mats, rhs, xs):
            np.testing.assert_allclose(A @ x, b, rtol=1e-10, atol=1e-12)

    def test_event_records_buckets(self, rng):
        rec = get_recorder()
        mats = [rng.standard_normal((4, 4)) + 4 * np.eye(4) for _ in range(3)] + [
            rng.standard_normal((6, 6)) + 6 * np.eye(6) for _ in range(2)
        ]
        with rec.recording() as trace:
            lu = getrf_batched(mats)
            getrs_batched(lu, [np.ones((4, 1))] * 3 + [np.ones((6, 1))] * 2)
        getrf_event, getrs_event = trace.events
        assert getrf_event.buckets == 2 and getrf_event.strided
        assert getrs_event.buckets == 2 and getrs_event.strided

    def test_logdet_from_vectorised_factors(self, rng, lu_paths):
        mats = [
            rng.standard_normal((5, 5)) + 5 * np.eye(5)
            for _ in range(VECTORISED_SIDE["count"])
        ]
        signs, logs = getrf_batched(mats).logdet()
        _assert_side(lu_paths, VECTORISED_SIDE)
        for i, A in enumerate(mats):
            s_ref, l_ref = np.linalg.slogdet(A)
            assert np.real(signs[i]) * s_ref > 0
            assert logs[i] == pytest.approx(l_ref, rel=1e-10)


class TestVectorisedKernelDirect:
    def test_lu_factor_batch_matches_scipy(self, rng):
        from scipy import linalg as sla

        stack = rng.standard_normal((6, 8, 8)) + 8 * np.eye(8)
        lu3, piv3 = NumpyBackend().lu_factor_batch(stack)
        for i in range(6):
            lu_ref, piv_ref = sla.lu_factor(stack[i], check_finite=False)
            np.testing.assert_allclose(lu3[i], lu_ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(piv3[i], piv_ref)

    def test_lu_solve_batch_matches_scipy(self, rng):
        from scipy import linalg as sla

        stack = rng.standard_normal((5, 7, 7)) + 7 * np.eye(7)
        rhs = rng.standard_normal((5, 7, 3))
        xb = NumpyBackend()
        lu3, piv3 = xb.lu_factor_batch(stack)
        x3 = xb.lu_solve_batch(lu3, piv3, rhs)
        for i in range(5):
            ref = sla.lu_solve((lu3[i], piv3[i]), rhs[i], check_finite=False)
            np.testing.assert_allclose(x3[i], ref, rtol=1e-12, atol=1e-12)


class TestSolverThreading:
    @pytest.fixture()
    def small_hodlr(self):
        from conftest import hodlr_friendly_matrix
        from repro import ClusterTree, build_hodlr

        n = 300  # non-power-of-two => heterogeneous leaf/level shapes
        A = hodlr_friendly_matrix(n, seed=3)
        tree = ClusterTree.balanced(n, leaf_size=32)
        return A, build_hodlr(A, tree, tol=1e-11, method="svd")

    @pytest.mark.parametrize("variant", ["recursive", "batched"])
    def test_named_backend_accepted(self, small_hodlr, variant, rng):
        from repro import ExecutionContext, HODLRSolver

        A, H = small_hodlr
        ctx = ExecutionContext(backend="numpy")
        solver = HODLRSolver(H, variant=variant, context=ctx).factorize()
        b = rng.standard_normal(A.shape[0])
        x = solver.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-8

    def test_dispatch_policy_threaded_to_batched_variant(self, small_hodlr, rng, lu_paths):
        """The compiled plan follows the LU dispatch constants through its
        inputs: leaves of 9-10 (32-leaf tree) loop per problem, while 44
        leaves of 5 (a 64-leaf tree of the same matrix) vectorise."""
        from repro import ClusterTree, HODLRSolver, build_hodlr

        A, H = small_hodlr
        H5 = build_hodlr(A, ClusterTree.balanced(300, leaf_size=5), tol=1e-11, method="svd")
        b = rng.standard_normal(A.shape[0])
        for hodlr, vectorised in ((H, False), (H5, True)):
            lu_paths.clear()
            solver = HODLRSolver(hodlr).factorize()
            x = solver.solve(b)
            assert (lu_paths["factor_vectorised"] > 0) == vectorised
            ref = HODLRSolver(hodlr, variant="recursive").factorize().solve(b)
            np.testing.assert_allclose(x, ref, rtol=1e-10, atol=1e-10)
            events = [e for e in solver.factor_trace.events if e.kernel == "getrf_batched"]
            assert events and all(e.strided for e in events)

    def test_bucketed_launches_counted_by_perfmodel(self, small_hodlr, rng):
        from repro import HODLRSolver, PerformanceModel

        _, H = small_hodlr
        solver = HODLRSolver(H).factorize()
        est = PerformanceModel().estimate(solver.factor_trace)
        assert est.num_kernel_launches >= est.num_launches
