"""Compiled FactorPlan/SolvePlan (PR 5).

Covers the acceptance criteria of the plan refactor:

* plan-vs-reference equivalence to 1e-12: the compiled plan
  (``"batched"``) against the textbook recursion
  of :class:`repro.baselines.RecursiveFactorization` (real/complex,
  adaptive ranks, non-power-of-two N);
* launch-count assertions: ``num_kernel_launches`` per solve equals the
  compiled plan's ``launches_per_solve`` (and every one is a plan replay);
* float32 factor storage accuracy plus the refinement round-trip;
* identity-bordered LU padding exactness (the packing the plan patch uses
  for clean leaves of mixed sizes).
"""

import numpy as np
import pytest
from scipy import linalg as sla

from conftest import complex_test_matrix, hodlr_friendly_matrix

from repro import (
    ClusterTree,
    ExecutionContext,
    HODLROperator,
    HODLRSolver,
    PrecisionPolicy,
    build_hodlr,
)
from repro.api import SolverConfig
from repro.backends.dispatch import NumpyBackend, pad_identity_stack, pad_pivot_stack
from repro.baselines import RecursiveFactorization

VARIANTS = ["recursive", "batched"]


def make_problem(n=256, leaf=32, tol=1e-12, seed=0, kind="real", method="svd",
                 max_rank=None):
    if kind == "complex":
        A = complex_test_matrix(n, seed=seed)
    else:
        A = hodlr_friendly_matrix(n, seed=seed)
    tree = ClusterTree.balanced(n, leaf_size=leaf)
    H = build_hodlr(A, tree, tol=tol, method=method, max_rank=max_rank)
    return A, H


def factorize(H, variant, **kw):
    """The recursive oracle, or the compiled plan."""
    if variant == "recursive":
        return RecursiveFactorization(hodlr=H).factorize()
    return HODLRSolver(H, variant=variant, **kw).factorize()


def other_engine_solve(H, variant, b):
    """Solve with the engine ``variant`` is checked against: the recursive
    oracle for the plan, the plan for the oracle."""
    if variant == "recursive":
        return HODLRSolver(H).factorize().solve(b)
    return RecursiveFactorization(hodlr=H).factorize().solve(b)


# ======================================================================
# plan-vs-reference equivalence
# ======================================================================
class TestPlanEquivalence:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_plan_matches_sweep(self, variant, kind, rng):
        """The compiled plan matches the reference sweep, the per-node
        recursion of equation (8), to 1e-12 (checked from both sides)."""
        n = 192 if kind == "complex" else 256
        A, H = make_problem(n=n, leaf=24, kind=kind)
        fac = factorize(H, variant)
        b = rng.standard_normal(n)
        if kind == "complex":
            b = b + 1j * rng.standard_normal(n)
        if variant != "recursive":
            assert fac.solve_plan is not None
        x = fac.solve(b)
        x_other = other_engine_solve(H, variant, b)
        assert np.linalg.norm(x - x_other) / np.linalg.norm(x_other) < 1e-12
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-9

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_adaptive_ranks_non_power_of_two(self, variant, rng):
        """Adaptive (uncapped) randomized ranks over a 300-point tree:
        heterogeneous node sizes and per-level ranks through the plan."""
        n = 300
        A = hodlr_friendly_matrix(n, seed=11)
        tree = ClusterTree.balanced(n, leaf_size=40)
        H = build_hodlr(A, tree, tol=1e-11, method="randomized")
        fac = factorize(H, variant)
        b = rng.standard_normal(n)
        x_plan = fac.solve(b)
        x_ref = other_engine_solve(H, variant, b)
        assert np.linalg.norm(x_plan - x_ref) / np.linalg.norm(x_ref) < 1e-12
        assert np.linalg.norm(A @ x_plan - b) / np.linalg.norm(b) < 1e-8

    def test_all_variants_agree_through_shared_plan(self, rng):
        A, H = make_problem(seed=3)
        b = rng.standard_normal(A.shape[0])
        sols = [factorize(H, v).solve(b) for v in VARIANTS]
        ref = np.linalg.norm(sols[0])
        assert np.linalg.norm(sols[0] - sols[1]) / ref < 1e-12

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_multiple_rhs_through_plan(self, variant, rng):
        A, H = make_problem()
        fac = factorize(H, variant)
        B = rng.standard_normal((A.shape[0], 5))
        X = fac.solve(B)
        assert X.shape == B.shape
        assert np.linalg.norm(A @ X - B) / np.linalg.norm(B) < 1e-9

    def test_pivot_false_through_plan(self, rng):
        A, H = make_problem()
        fac = HODLRSolver(H, pivot=False).factorize()
        b = rng.standard_normal(A.shape[0])
        x_plan = fac.solve(b)
        x_ref = other_engine_solve(H, "batched", b)
        assert np.linalg.norm(x_plan - x_ref) / np.linalg.norm(x_ref) < 1e-12
        assert np.linalg.norm(A @ x_plan - b) / np.linalg.norm(b) < 1e-9

    def test_loop_policy_still_compiles_plan(self, rng, lu_paths):
        """Which side of the LU dispatch constants a bucket lands on only
        changes how each packed launch executes: with leaves of 64 every LU
        bucket loops per problem, with 32 leaves of 8 the leaf buckets
        vectorise, and either way the solver compiles the plan, every solve
        replays it, and the answer matches the recursive reference."""
        for leaf, vectorised in ((64, False), (8, True)):
            A, H = make_problem(n=256, leaf=leaf)
            lu_paths.clear()
            solver = HODLRSolver(H).factorize()
            assert solver.solve_plan is not None
            b = rng.standard_normal(A.shape[0])
            x = solver.solve(b)
            assert (lu_paths["factor_vectorised"] > 0) == vectorised
            assert (lu_paths["solve_vectorised"] > 0) == vectorised
            trace = solver.last_solve_trace
            assert trace.num_plan_launches == solver.solve_plan.launches_per_solve
            x_ref = other_engine_solve(H, "batched", b)
            assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
            assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-9

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_slogdet_unchanged_by_plan(self, variant):
        A, H = make_problem(n=192, leaf=24, seed=7)
        fac = factorize(H, variant)
        sign_ref, logdet_ref = np.linalg.slogdet(A)
        sign, logabs = fac.slogdet()
        assert np.real(sign) * sign_ref > 0
        assert logabs == pytest.approx(logdet_ref, rel=1e-8)


# ======================================================================
# launch accounting
# ======================================================================
class TestLaunchCounts:
    def test_solve_launches_equal_plan_size(self, rng):
        _, H = make_problem(n=256, leaf=32)
        solver = HODLRSolver(H, variant="batched").factorize()
        b = rng.standard_normal(256)
        solver.solve(b)
        plan = solver.solve_plan
        trace = solver.last_solve_trace
        assert plan is not None
        assert trace.num_kernel_launches == plan.launches_per_solve
        # every launch of a compiled solve is a plan replay
        assert trace.num_plan_launches == plan.launches_per_solve

    def test_launches_scale_with_levels_not_nodes(self, rng):
        _, H = make_problem(n=512, leaf=32)
        solver = HODLRSolver(H, variant="batched").factorize()
        solver.solve(rng.standard_normal(512))
        tree = H.tree
        plan = solver.solve_plan
        # uniform tree: 1 leaf bucket + (2 gemm + 1 getrs) per level
        assert plan.launches_per_solve <= 1 + 3 * tree.levels
        assert plan.launches_per_solve < tree.num_nodes

    def test_repeated_solves_reuse_plan(self, rng):
        _, H = make_problem(n=256, leaf=32)
        solver = HODLRSolver(H, variant="batched").factorize()
        plan_first = solver.solve_plan
        for _ in range(3):
            solver.solve(rng.standard_normal(256))
        assert solver.solve_plan is plan_first


# ======================================================================
# precision: float32 factor storage + refinement round-trip
# ======================================================================
class TestFactorPrecision:
    def test_float32_factor_accuracy_and_footprint(self, rng):
        A, H = make_problem(n=256, leaf=32)
        b = rng.standard_normal(256)
        op64 = HODLROperator(H).factorize()
        op32 = HODLROperator(
            H, precision=PrecisionPolicy(factor="float32")
        ).factorize()
        x64 = op64.solve(b)
        x32 = op32.solve(b)
        res64 = np.linalg.norm(A @ x64 - b) / np.linalg.norm(b)
        res32 = np.linalg.norm(A @ np.asarray(x32, float) - b) / np.linalg.norm(b)
        assert res64 < 1e-12
        assert res32 < 1e-4  # single-precision-grade
        assert res32 > res64  # genuinely demoted
        p64 = op64.solver.factor_plan
        p32 = op32.solver.factor_plan
        assert p32.demoted and not p64.demoted
        assert p32.nbytes < 0.75 * p64.nbytes
        # the output dtype is unchanged (float64 accumulation)
        assert np.asarray(x32).dtype == np.float64
        # same launch count as the full-precision plan
        assert p32.launches_per_solve == p64.launches_per_solve

    def test_refinement_roundtrip(self, rng):
        A, H = make_problem(n=256, leaf=32)
        b = rng.standard_normal(256)
        op64 = HODLROperator(H)
        opref = HODLROperator(
            H, precision=PrecisionPolicy(factor="float32", refine=True)
        )
        res64 = np.linalg.norm(A @ op64.solve(b) - b) / np.linalg.norm(b)
        resref = np.linalg.norm(A @ opref.solve(b) - b) / np.linalg.norm(b)
        # one refinement step restores ~full precision
        assert resref < 1e-10
        assert abs(resref - res64) < 1e-10

    def test_factor_min_level_demotes_deep_levels_only(self):
        _, H = make_problem(n=256, leaf=32)
        ctx = ExecutionContext(
            precision=PrecisionPolicy(factor="float32", factor_min_level=3)
        )
        solver = HODLRSolver(H, context=ctx).factorize()
        dtypes = solver.factor_plan.storage_dtypes()
        for level, dt in dtypes.items():
            expected = np.float32 if level >= 3 else np.float64
            assert dt == np.dtype(expected), (level, dt)

    def test_complex_factor_demotion(self, rng):
        A, H = make_problem(n=192, leaf=24, kind="complex")
        ctx = ExecutionContext(precision=PrecisionPolicy(factor="float32"))
        solver = HODLRSolver(H, context=ctx).factorize()
        dtypes = set(solver.factor_plan.storage_dtypes().values())
        assert dtypes == {np.dtype("complex64")}
        b = rng.standard_normal(192) + 1j * rng.standard_normal(192)
        x = solver.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-3

    def test_precision_policy_serialises(self):
        cfg = SolverConfig(
            precision=PrecisionPolicy(factor="float32", factor_min_level=2, refine=True)
        )
        rt = SolverConfig.from_dict(cfg.to_dict())
        assert rt == cfg
        assert rt.precision.factor == "float32"
        assert rt.precision.factor_min_level == 2

    def test_invalid_factor_dtype_rejected(self):
        with pytest.raises(ValueError):
            PrecisionPolicy(factor="int32")
        with pytest.raises(ValueError):
            PrecisionPolicy(factor_min_level=-1)


# ======================================================================
# identity-bordered LU padding (the patch path's mixed-size leaf groups)
# ======================================================================
class TestPaddedLU:
    SIZES = [7, 8, 8, 7, 8, 7, 8, 8] * 4

    def _blocks(self, rng):
        return [rng.standard_normal((m, m)) + m * np.eye(m) for m in self.SIZES]

    def test_getrf_padded_factors_exact(self, rng):
        """LU of an identity-bordered stack holds each block's own factor and
        never pivots into the border."""
        blocks = self._blocks(rng)
        xb = NumpyBackend()
        lu3, piv3 = xb.lu_factor_batch(pad_identity_stack(xb, blocks, 8, np.float64))
        for j, (blk, m) in enumerate(zip(blocks, self.SIZES)):
            lu, piv = sla.lu_factor(blk)
            np.testing.assert_allclose(lu3[j, :m, :m], lu, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(piv3[j, :m], piv)
            np.testing.assert_array_equal(piv3[j, m:], np.arange(m, 8))

    def test_getrs_padded_solutions_exact(self, rng):
        """Per-block factors packed with ``pad_identity_stack`` /
        ``pad_pivot_stack`` solve zero-padded right-hand sides exactly."""
        blocks = self._blocks(rng)
        factors = [sla.lu_factor(blk) for blk in blocks]
        rhs3 = np.zeros((len(blocks), 8, 2))
        for j, m in enumerate(self.SIZES):
            rhs3[j, :m] = rng.standard_normal((m, 2))
        xb = NumpyBackend()
        lu3 = pad_identity_stack(xb, [lu for lu, _ in factors], 8, np.float64)
        piv3 = pad_pivot_stack([piv for _, piv in factors], self.SIZES, 8)
        x3 = xb.lu_solve_many(lu3, piv3, rhs3)
        for j, m in enumerate(self.SIZES):
            ref = sla.lu_solve(factors[j], rhs3[j, :m])
            np.testing.assert_allclose(x3[j, :m], ref, rtol=1e-12, atol=1e-13)
            np.testing.assert_array_equal(x3[j, m:], 0.0)

    def test_padded_bucket_mixing_real_and_complex_blocks(self, rng):
        """A stack packed at a complex dtype keeps every member's imaginary
        part, whatever the members' own dtypes."""
        blocks = self._blocks(rng)[:4]
        blocks[1] = blocks[1] + 1j * rng.standard_normal(blocks[1].shape)
        stack = pad_identity_stack(NumpyBackend(), blocks, 8, np.complex128)
        for j, blk in enumerate(blocks):
            m = blk.shape[0]
            np.testing.assert_array_equal(stack[j, :m, :m], blk)
            np.testing.assert_array_equal(stack[j, m:, m:], np.eye(8 - m))


# ======================================================================
# precedence: SolverConfig.precision reaches the solver's context
# ======================================================================
class TestPrecedenceRegression:
    def test_from_config_without_overrides_unchanged(self):
        _, H = make_problem(n=128, leaf=32)
        cfg = SolverConfig(precision=PrecisionPolicy(factor="float32"))
        solver = HODLRSolver.from_config(H, cfg)
        assert solver.context.precision.factor == "float32"
        # an explicit context= replaces the one the config would build
        ctx = ExecutionContext()
        assert HODLRSolver.from_config(H, cfg, context=ctx).context is ctx
