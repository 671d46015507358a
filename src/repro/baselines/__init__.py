"""Baseline solvers the paper compares against, and the reference recursion.

* :mod:`recursive`    — the textbook per-node recursion of section III-A,
  the reference oracle for the compiled plan of
  :class:`~repro.core.solver.HODLRSolver`;
* :mod:`dense_lu`     — classical dense LU (the O(N^3) reference the paper's
  introduction rules out for large N);
* :mod:`hodlrlib_cpu` — a HODLRlib-style CPU solver: the same recursive
  per-node factorization, parallelised only across nodes of a level, with a
  CPU cost model (the "HODLRlib" and "Serial HODLR Solver" columns);
* :mod:`block_sparse` — the Ho-Greengard extended block-sparse embedding
  solved with a sparse direct solver (the "Serial/Parallel Block-Sparse
  Solver" columns).

All four are registered as solver *variants*
(:func:`repro.core.solver.register_solver_variant`), so the paper-table
comparisons run through the same facade as the HODLR solver::

    repro.solve("gaussian_kernel", config=SolverConfig(variant="recursive"))
    repro.solve("gaussian_kernel", config=SolverConfig(variant="dense_lu"))
    repro.solve(problem, config=SolverConfig(variant="block_sparse"))
"""

from ..core.solver import register_solver_variant
from .dense_lu import DenseLUSolver
from .hodlrlib_cpu import HODLRlibStyleSolver
from .block_sparse import BlockSparseSolver, extended_sparse_system
from .recursive import RecursiveFactorization


def _recursive_variant(hodlr, solver):
    """``variant="recursive"``: the per-node recursion of section III-A."""
    return RecursiveFactorization(hodlr=hodlr, backend=solver.context.backend).factorize()


def _dense_lu_variant(hodlr, solver):
    """``variant="dense_lu"``: densify the HODLR approximation and LU it."""
    impl = DenseLUSolver(matrix=hodlr.to_dense()).factorize()
    impl.factorization_nbytes = lambda: int(impl._lu.nbytes + impl._piv.nbytes)
    return impl


def _block_sparse_variant(hodlr, solver):
    """``variant="block_sparse"``: Ho-Greengard extended sparse embedding."""
    impl = BlockSparseSolver(hodlr=hodlr).factorize()
    impl.factorization_nbytes = lambda: int(impl.memory_gb * 1.0e9)
    return impl


def _hodlrlib_cpu_variant(hodlr, solver):
    """``variant="hodlrlib_cpu"``: per-node recursive CPU execution model."""
    impl = HODLRlibStyleSolver(hodlr=hodlr).factorize()
    impl.factorization_nbytes = lambda: int(impl._impl.factorization_nbytes())
    impl.slogdet = impl._impl.slogdet
    return impl


register_solver_variant("recursive", _recursive_variant)
register_solver_variant("dense_lu", _dense_lu_variant)
register_solver_variant("block_sparse", _block_sparse_variant)
register_solver_variant("hodlrlib_cpu", _hodlrlib_cpu_variant)

__all__ = [
    "RecursiveFactorization",
    "DenseLUSolver",
    "HODLRlibStyleSolver",
    "BlockSparseSolver",
    "extended_sparse_system",
]
