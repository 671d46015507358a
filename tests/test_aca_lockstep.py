"""Lockstep rook ACA: a whole shape bucket in one cross-approximation loop.

``rook_pivot_compress_blocks`` advances every block of a bucket together;
pivots and the stopping rule are per block, so each block's factor must be
the one the same kernel produces for that block alone (B=1).
"""

import numpy as np
import pytest

import repro
from repro import ClusterTree, CompressionConfig, build_hodlr
from repro.backends.dispatch import plan_batch
from repro.core.compression import (
    compress_block_stack,
    lift_gather,
    rook_pivot_compress_blocks,
)
from repro.core.low_rank import LowRankFactor
from repro.kernels.kernel_matrix import KernelMatrix
from repro.kernels.radial import GaussianKernel, HelmholtzKernel2D

#: rank_profile() of repro.solve("gaussian_kernel", n=4096, seed=0) as built
#: by the per-block rook loop this kernel replaced
GAUSS_4096_PROFILE = [152, 90, 75, 51, 39, 27]


def level_buckets(tree, level):
    """``(rows (B, m), cols (B, n))`` of each shape bucket of a tree level."""
    row_sets, col_sets = [], []
    for left, right in tree.sibling_pairs(level):
        row_sets += [left.indices, right.indices]
        col_sets += [right.indices, left.indices]
    plan = plan_batch([(r.size, c.size) for r, c in zip(row_sets, col_sets)])
    return [
        (np.stack([row_sets[i] for i in b.indices]),
         np.stack([col_sets[i] for i in b.indices]))
        for b in plan.buckets
    ]


def assert_lockstep_matches_single(gather, rows, cols, **kw):
    together = rook_pivot_compress_blocks(gather, rows, cols, **kw)
    for b, f in enumerate(together):
        alone = rook_pivot_compress_blocks(gather, rows[b : b + 1], cols[b : b + 1], **kw)[0]
        assert f.rank == alone.rank
        ref = alone.U @ alone.V.conj().T
        prod = f.U @ f.V.conj().T
        scale = max(np.linalg.norm(ref), np.finfo(float).tiny)
        assert np.linalg.norm(prod - ref) <= 1e-12 * scale
    return together


def reference_rook(block, tol, max_rank=None, max_rook_steps=3):
    """The scalar per-block rook ACA that the lockstep kernel replaced, kept as
    the reference (same arithmetic, so the same pivots even on noise-level ties)."""
    m, n = block.shape
    rank_cap = min(m, n) if max_rank is None else min(max_rank, m, n)
    capacity = min(rank_cap, 8)
    U_arr = np.empty((m, capacity), dtype=block.dtype)
    V_arr = np.empty((n, capacity), dtype=block.dtype)
    k, used, approx_norm2, next_row = 0, set(), 0.0, 0
    rng = np.random.default_rng(12345)

    def residual_row(i):
        row = block[i].copy()
        return row - V_arr[:, :k].conj() @ U_arr[i, :k] if k else row

    def residual_col(j):
        col = block[:, j].copy()
        return col - U_arr[:, :k] @ V_arr[j, :k].conj() if k else col

    for _ in range(rank_cap):
        i = next_row
        while i in used:
            i = (i + 1) % m
        row = residual_row(i)
        j = int(np.argmax(np.abs(row)))
        col = residual_col(j)
        for _ in range(max_rook_steps):
            i_new = int(np.argmax(np.abs(col)))
            if i_new == i:
                break
            i = i_new
            row = residual_row(i)
            j_new = int(np.argmax(np.abs(row)))
            if j_new == j:
                break
            j = j_new
            col = residual_col(j)
        if row[j] == 0:
            candidates = [r for r in range(m) if r not in used]
            if not candidates:
                break
            i = int(rng.choice(candidates))
            row = residual_row(i)
            j = int(np.argmax(np.abs(row)))
            if row[j] == 0:
                break
            col = residual_col(j)
        u, v = col / row[j], row.conj()
        cross_norm2 = float(np.linalg.norm(u) ** 2 * np.linalg.norm(v) ** 2)
        cross_terms = 0.0
        if k:
            cu = U_arr[:, :k].conj().T @ u
            cv = V_arr[:, :k].conj().T @ v
            cross_terms = 2.0 * float(np.sum(np.abs(cu * cv)))
        if k == capacity:
            capacity = min(rank_cap, 2 * capacity)
            U_arr = np.concatenate([U_arr[:, :k], np.empty((m, capacity - k), block.dtype)], 1)
            V_arr = np.concatenate([V_arr[:, :k], np.empty((n, capacity - k), block.dtype)], 1)
        U_arr[:, k], V_arr[:, k] = u, v
        k += 1
        used.add(i)
        next_row = (i + 1) % m
        approx_norm2 += cross_norm2 + cross_terms
        if approx_norm2 > 0 and cross_norm2 <= tol**2 * approx_norm2:
            break
    if k == 0:
        return LowRankFactor.zeros(m, n, block.dtype)
    return LowRankFactor(U=U_arr[:, :k], V=V_arr[:, :k]).recompress(tol, max_rank)


def gaussian_km(n, seed=0, leaf_size=64):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (n, 2))
    tree, perm = ClusterTree.from_points(pts, leaf_size=leaf_size)
    km = KernelMatrix(GaussianKernel(lengthscale=0.25), pts[perm], diagonal_shift=1.0)
    return km, tree


class TestLockstepMatchesSingleBlock:
    def test_uniform_buckets_gaussian_2048(self):
        km, tree = gaussian_km(2048)
        for level in range(1, tree.levels + 1):
            (rows, cols), = level_buckets(tree, level)
            assert_lockstep_matches_single(km.entries_blocks, rows, cols, tol=1e-10)

    def test_non_uniform_buckets(self):
        n = 1800
        x = np.sort(np.random.default_rng(1).uniform(0.0, 1.0, n))
        km = KernelMatrix(GaussianKernel(lengthscale=0.1), x, diagonal_shift=1.0)
        tree = ClusterTree.balanced(n, leaf_size=64)
        assert {leaf.size for leaf in tree.leaves} == {56, 57}
        shapes = set()
        for level in range(1, tree.levels + 1):
            for rows, cols in level_buckets(tree, level):
                shapes.add((rows.shape[1], cols.shape[1]))
                assert_lockstep_matches_single(km.entries_blocks, rows, cols, tol=1e-10)
        assert {(56, 57), (57, 56)} <= shapes

    def test_complex_helmholtz(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.0, 1.0, (512, 2))
        tree, perm = ClusterTree.from_points(pts, leaf_size=32)
        km = KernelMatrix(HelmholtzKernel2D(kappa=15.0), pts[perm], diagonal_shift=1024.0)
        for level in (1, tree.levels):
            (rows, cols), = level_buckets(tree, level)
            fs = assert_lockstep_matches_single(
                km.entries_blocks, rows, cols, tol=1e-8, dtype=np.complex128
            )
            assert all(f.U.dtype == np.complex128 for f in fs)
        H, perm = KernelMatrix(HelmholtzKernel2D(kappa=15.0), pts, 1024.0).to_hodlr(
            leaf_size=32, tol=1e-8, method="rook"
        )
        dense = km.dense()
        assert np.linalg.norm(H.to_dense() - dense) <= 1e-6 * np.linalg.norm(dense)

    def test_binding_max_rank(self):
        km, tree = gaussian_km(1024)
        (rows, cols), = level_buckets(tree, 1)
        fs = assert_lockstep_matches_single(
            km.entries_blocks, rows, cols, tol=1e-14, max_rank=5
        )
        assert [f.rank for f in fs] == [5, 5]

    def test_all_zero_block_takes_zero_pivot_fallback(self):
        rng = np.random.default_rng(3)
        stack = np.stack([rng.standard_normal((40, 3)) @ rng.standard_normal((3, 30))
                          for _ in range(4)])
        stack[1] = 0.0
        stack[2, :20] = 0.0  # a zero first pivot row in an otherwise live block
        cfg = CompressionConfig(tol=1e-12, method="rook")
        fs = compress_block_stack(stack, cfg)
        for b, f in enumerate(fs):
            alone = compress_block_stack(stack[b : b + 1], cfg)[0]
            assert f.rank == alone.rank
            np.testing.assert_allclose(f.to_dense(), alone.to_dense(), rtol=0, atol=1e-12)
        assert [f.rank for f in fs] == [3, 0, 3, 3]
        for f, blk in zip(fs, stack):
            assert np.linalg.norm(f.to_dense() - blk) <= 1e-10 * max(np.linalg.norm(blk), 1)

    def test_bare_callable_without_entries_blocks(self):
        km, tree = gaussian_km(1024)

        def entries(rows, cols):
            return km.entries(rows, cols)

        assert not hasattr(entries, "entries_blocks")
        (rows, cols), = level_buckets(tree, 2)
        lifted = rook_pivot_compress_blocks(lift_gather(entries), rows, cols, tol=1e-10)
        gathered = rook_pivot_compress_blocks(km.entries_blocks, rows, cols, tol=1e-10)
        for a, b in zip(lifted, gathered):
            assert a.rank == b.rank
            np.testing.assert_allclose(a.to_dense(), b.to_dense(), rtol=0, atol=1e-12)
        H_bare = build_hodlr(entries, tree, tol=1e-10, method="rook")
        H_km = build_hodlr(km, tree, tol=1e-10, method="rook")
        assert H_bare.rank_profile() == H_km.rank_profile()
        x = np.random.default_rng(4).standard_normal(1024)
        np.testing.assert_allclose(H_bare.matvec(x), H_km.matvec(x), rtol=1e-12, atol=1e-12)

    def test_batched_build_matches_loop_build(self):
        """Every block of the level-batched build equals the one-block call
        of the lockstep kernel on that block alone."""
        km, tree = gaussian_km(1024)
        Hb = build_hodlr(km, tree, config=CompressionConfig(tol=1e-10, method="rook"))
        for level in range(1, tree.levels + 1):
            for left, right in tree.sibling_pairs(level):
                for a, b in ((left, right), (right, left)):
                    f = rook_pivot_compress_blocks(
                        km.entries_blocks, a.indices[None], b.indices[None], tol=1e-10
                    )[0]
                    assert Hb.U[a.index].shape[1] == f.rank
                    np.testing.assert_allclose(
                        Hb.U[a.index] @ Hb.V[b.index].conj().T, f.to_dense(),
                        rtol=1e-12, atol=1e-12,
                    )


class TestMatchesScalarReference:
    @pytest.mark.parametrize("seed", range(24))
    def test_random_blocks(self, seed):
        """Same pivots and stopping as the scalar per-block loop: exact-rank,
        noisy, partly zero, complex and rank-capped blocks."""
        rng = np.random.default_rng(seed)
        m, n, r = int(rng.integers(2, 48)), int(rng.integers(2, 48)), int(rng.integers(1, 10))
        A = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        if seed % 3 == 0:
            A = A + 1j * (rng.standard_normal((m, r)) @ rng.standard_normal((r, n)))
        if seed % 4 == 1:
            A = A + 1e-9 * rng.standard_normal((m, n))
        if seed % 5 == 2:
            A[: m // 2] = 0.0
        tol = (1e-12, 1e-8, 1e-4)[seed % 3]
        max_rank = 3 if seed % 6 == 5 else None
        ref = reference_rook(A, tol, max_rank)
        f = compress_block_stack(A[None], CompressionConfig(tol=tol, max_rank=max_rank))[0]
        assert f.rank == ref.rank
        scale = max(np.linalg.norm(ref.to_dense()), np.finfo(float).tiny)
        assert np.linalg.norm(f.to_dense() - ref.to_dense()) <= 1e-12 * scale


class TestCallCount:
    def test_entries_blocks_calls_per_level_bounded_by_rank(self):
        """Per level, gather calls scale with the rank, not the block count."""
        km, tree = gaussian_km(2048)
        calls = {}

        class Counting(KernelMatrix):
            def entries_blocks(self, rows, cols):
                # a rook gather is one row or one column of each block; the
                # other side's length names the level's block size
                if min(rows.shape[1], cols.shape[1]) == 1:
                    size = max(rows.shape[1], cols.shape[1])
                    calls[size] = calls.get(size, 0) + 1
                return super().entries_blocks(rows, cols)

        counting = Counting(km.kernel, km.points, km.diagonal_shift)
        H = build_hodlr(counting, tree, tol=1e-10, method="rook")
        max_rook_steps = 3
        for level, rank in enumerate(H.rank_profile(), start=1):
            sizes = {nd.size for nd in tree.level_nodes(level)}
            assert len(sizes) == 1  # one shape bucket per level
            assert calls[sizes.pop()] <= (2 + 2 * max_rook_steps) * (rank + 1)


class TestRankProfile:
    def test_gaussian_4096_profile_unchanged(self):
        res = repro.solve("gaussian_kernel", n=4096, seed=0, cache=False)
        assert res.operator.solver.hodlr.rank_profile() == GAUSS_4096_PROFILE


class TestNonFinite:
    def test_non_finite_leaf_diagonal_raises(self):
        km, tree = gaussian_km(512)
        pts = km.points.copy()
        pts[70] = np.nan
        bad = KernelMatrix(km.kernel, pts, km.diagonal_shift)
        leaf = next(lf for lf in tree.leaves if lf.start <= 70 < lf.stop)
        where = rf"level {tree.levels}, rows {leaf.start}:{leaf.stop}"
        with pytest.raises(ValueError, match=where):
            build_hodlr(bad, tree, tol=1e-10, method="rook")

    def test_non_finite_aca_factor_raises(self):
        n = 256
        x = np.linspace(0.0, 1.0, n)
        A = np.exp(-np.abs(x[:, None] - x[None, :])) + n * np.eye(n)
        A[0, n - 1] = np.nan  # inside the level-1 block A(0:128, 128:256)
        tree = ClusterTree.balanced(n, leaf_size=32)
        where = "level 1: non-finite entries in the block at rows 0:128"
        with pytest.raises(ValueError, match=where):
            build_hodlr(A, tree, tol=1e-10, method="rook")

    @staticmethod
    def _dense_with_inf(n=512):
        km, _ = gaussian_km(n)
        A = km.entries(np.arange(n), np.arange(n))
        A[3, 400] = np.inf  # inside the level-1 block A(0:256, 256:512)
        return A, ClusterTree.balanced(n, leaf_size=64)

    @pytest.mark.parametrize("method", ["svd", "randomized", "rook"])
    def test_non_finite_dense_source_raises(self, method):
        """A dense source is scanned once, so every compressor fails fast —
        rook included, although its cross approximation might never sample
        the bad entry."""
        A, tree = self._dense_with_inf()
        where = "level 1: non-finite entries in the block at rows 0:256"
        with pytest.raises(ValueError, match=where):
            build_hodlr(A, tree, tol=1e-9, method=method)
        from repro.api import CompressionConfig as ApiCompressionConfig, SolverConfig

        config = SolverConfig(compression=ApiCompressionConfig(method=method))
        with pytest.raises(ValueError, match="non-finite"):
            repro.solve(A, np.ones(A.shape[0]), config=config)

    @pytest.mark.parametrize("method", ["svd", "randomized"])
    @pytest.mark.parametrize("gather", [False, True])
    def test_non_finite_evaluator_block_raises(self, method, gather):
        """A failing stack compressor triggers a scan that names the block
        instead of surfacing LAPACK's convergence error."""
        A, tree = self._dense_with_inf()

        class Source:
            def entries(self, rows, cols):
                return A[np.ix_(rows, cols)]

            if gather:
                def entries_blocks(self, rows, cols):
                    return A[rows[:, :, None], cols[:, None, :]]

        where = "level 1: non-finite entries in the block at rows 0:256"
        with pytest.raises(ValueError, match=where):
            build_hodlr(Source(), tree, tol=1e-9, method=method)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_solve_rejects_non_finite_rhs(self, bad):
        b = np.ones(256)
        b[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            repro.solve("gaussian_kernel", b, n=256, cache=False)
        with pytest.raises(ValueError, match="non-finite"):
            repro.solve_many("gaussian_kernel", np.stack([b, b], axis=1), n=256, cache=False)

    def test_update_operator_rejects_non_finite_data(self):
        res = repro.solve("gaussian_kernel", n=256, cache=False)
        op = res.operator
        X = np.ones((256, 1))
        X[5, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            repro.update_operator(op, low_rank=(X, np.ones((256, 1))))
        with pytest.raises(ValueError, match="non-finite"):
            repro.update_operator(op, diag_shift=np.inf)
        x = op.solve(np.ones(256))
        assert np.isfinite(x).all()
