"""Unit tests for the concatenated Ubig/Vbig/Dbig data structure (Figs. 3-4)."""

import numpy as np
import pytest

from repro import BigMatrices, ClusterTree, build_hodlr
from conftest import hodlr_friendly_matrix


@pytest.fixture
def packed(small_dense, small_tree, small_hodlr):
    return BigMatrices.from_hodlr(small_hodlr)


class TestLayout:
    def test_shapes(self, packed, small_tree):
        n = small_tree.n
        total = sum(packed.level_ranks)
        assert packed.Ubig.shape == (n, total)
        assert packed.Vbig.shape == (n, total)
        assert packed.total_rank_cols == total
        assert len(packed.level_ranks) == small_tree.levels

    def test_column_offsets_are_cumulative(self, packed):
        assert packed.col_offsets[0] == 0
        for i, r in enumerate(packed.level_ranks):
            assert packed.col_offsets[i + 1] - packed.col_offsets[i] == r

    def test_level_cols_and_prefix(self, packed, small_tree):
        for level in range(1, small_tree.levels + 1):
            cols = packed.level_cols(level)
            assert cols.stop - cols.start == packed.rank_at_level(level)
        prefix = packed.cols_up_to(small_tree.levels)
        assert prefix.stop == packed.total_rank_cols
        assert packed.cols_up_to(0).stop == 0

    def test_level_out_of_range(self, packed, small_tree):
        with pytest.raises(ValueError):
            packed.level_cols(0)
        with pytest.raises(ValueError):
            packed.level_cols(small_tree.levels + 1)
        with pytest.raises(ValueError):
            packed.cols_up_to(small_tree.levels + 1)

    def test_level_ranks_are_max_over_nodes(self, small_hodlr, packed, small_tree):
        for level in range(1, small_tree.levels + 1):
            ranks = [small_hodlr.U[i].shape[1] for i in small_tree.level_indices(level)]
            ranks += [small_hodlr.V[i].shape[1] for i in small_tree.level_indices(level)]
            assert packed.rank_at_level(level) == max(ranks)


class TestRoundTrip:
    def test_bases_recovered_with_padding(self, small_hodlr, packed, small_tree):
        """Each node's U block occupies its row range, zero-padded to the level rank."""
        for level in range(1, small_tree.levels + 1):
            cols = packed.level_cols(level)
            for idx in small_tree.level_indices(level):
                node = small_tree.node(idx)
                u = small_hodlr.U[idx]
                stored = packed.Ubig[node.start : node.stop, cols]
                np.testing.assert_array_equal(stored[:, : u.shape[1]], u)
                np.testing.assert_array_equal(stored[:, u.shape[1] :], 0.0)

    def test_off_diagonal_blocks_reproduced(self, small_dense, small_hodlr, packed, small_tree):
        """Ubig/Vbig column blocks reproduce every off-diagonal block of the matrix."""
        for level in range(1, small_tree.levels + 1):
            cols = packed.level_cols(level)
            for left, right in small_tree.sibling_pairs(level):
                Ul = packed.Ubig[left.start : left.stop, cols]
                Vr = packed.Vbig[right.start : right.stop, cols]
                block = Ul @ Vr.conj().T
                ref = small_dense[left.start : left.stop, right.start : right.stop]
                assert np.linalg.norm(block - ref) / np.linalg.norm(ref) < 1e-9

    def test_diagonal_blocks_copied(self, small_hodlr, packed, small_tree):
        for leaf in small_tree.leaves:
            np.testing.assert_array_equal(packed.Dbig[leaf.index], small_hodlr.diag[leaf.index])

    def test_storage_matches_hodlr_up_to_padding(self, small_hodlr, packed):
        assert packed.nbytes >= small_hodlr.nbytes
        # padding should not blow memory up by more than the rank spread
        assert packed.nbytes <= 3 * small_hodlr.nbytes


class TestViews:
    def test_uniform_leaf_size(self, packed):
        leaves = packed.tree.leaves
        assert {leaf.size for leaf in leaves} == {32}
        stacked = np.stack([packed.Dbig[leaf.index] for leaf in leaves])
        assert stacked.shape == (packed.tree.num_leaves, 32, 32)

    def test_non_uniform_leaf_size(self):
        A = hodlr_friendly_matrix(100, seed=7)
        tree = ClusterTree.balanced(100, leaf_size=16)
        H = build_hodlr(A, tree, tol=1e-10, method="svd")
        packed = BigMatrices.from_hodlr(H)
        assert len({leaf.size for leaf in tree.leaves}) > 1
        for leaf in tree.leaves:
            assert packed.Dbig[leaf.index].shape == (leaf.size, leaf.size)
            np.testing.assert_array_equal(
                packed.Ubig[leaf.start : leaf.stop, packed.level_cols(tree.levels)][
                    :, : H.U[leaf.index].shape[1]
                ],
                H.U[leaf.index],
            )

    def test_block_rows_are_views(self, packed, small_tree):
        level = small_tree.levels
        cols = packed.level_cols(level)
        blocks = [packed.Ubig[nd.start : nd.stop, cols] for nd in small_tree.level_nodes(level)]
        assert len(blocks) == 2 ** level
        blocks[0][0, 0] = 123.456
        assert packed.Ubig[0, cols.start] == 123.456

    def test_copy_and_astype(self, packed):
        c = packed.copy()
        c.Ubig[0, 0] += 1.0
        assert packed.Ubig[0, 0] != c.Ubig[0, 0]
        f32 = packed.astype(np.float32)
        assert f32.dtype == np.float32
        assert f32.Dbig[packed.tree.leaves[0].index].dtype == np.float32
