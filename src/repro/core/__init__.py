"""Core HODLR data structures and factorization algorithms.

Layout of the subpackage (bottom-up):

* :mod:`cluster_tree`     -- Definition 1: binary cluster trees over index sets.
* :mod:`low_rank`         -- ``U V*`` low-rank factors and truncation utilities.
* :mod:`compression`      -- SVD / rook-pivoted LU / randomized compression.
* :mod:`hodlr`            -- Definition 2: the HODLR matrix container.
* :mod:`bigdata`          -- the paper's concatenated ``Ubig/Vbig/Dbig/Kbig`` layout.
* :mod:`factor_plan`      -- Algorithms 1-4 as one compiled, packed factor/solve plan.
* :mod:`solver`           -- user-facing :class:`HODLRSolver`.
* :mod:`spd`              -- symmetric factorization of SPD HODLR matrices.
"""

from .cluster_tree import ClusterTree, TreeNode
from .low_rank import LowRankFactor
from .compression import (
    CompressionConfig,
    compress_block,
    compress_blocks_batched,
    svd_compress,
    svd_compress_batched,
    rook_pivot_compress,
    randomized_compress,
    randomized_compress_batched,
)
from .apply_plan import ApplyPlan
from .factor_plan import FactorPlan, SolvePlan, build_factor_plan
from .hodlr import HODLRMatrix, build_hodlr, build_hodlr_from_dense
from .bigdata import BigMatrices
from .solver import HODLRSolver
from .spd import SymmetricFactorization
from .arithmetic import (
    add,
    add_diagonal,
    add_low_rank_update,
    diagonal,
    scale,
    trace,
    transpose,
)
from .peeling import peel_hodlr

__all__ = [
    "add",
    "add_diagonal",
    "add_low_rank_update",
    "diagonal",
    "scale",
    "trace",
    "transpose",
    "peel_hodlr",
    "ClusterTree",
    "TreeNode",
    "LowRankFactor",
    "CompressionConfig",
    "compress_block",
    "compress_blocks_batched",
    "svd_compress",
    "svd_compress_batched",
    "rook_pivot_compress",
    "randomized_compress",
    "randomized_compress_batched",
    "ApplyPlan",
    "FactorPlan",
    "SolvePlan",
    "build_factor_plan",
    "HODLRMatrix",
    "build_hodlr",
    "build_hodlr_from_dense",
    "BigMatrices",
    "HODLRSolver",
    "SymmetricFactorization",
]
