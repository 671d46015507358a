"""Streaming point updates of an existing :class:`~repro.core.hodlr.HODLRMatrix`.

Production kernel systems change incrementally — points arrive, leave, or
move — and a k-point change touches only the O(log N) tree blocks whose
row/column ranges intersect the changed indices.  This module implements
the update/downdate kernel layer:

* :func:`update_points`  — insert k new points (rows *and* columns) into the
  matrix.  Only the dirty path (the leaves containing the insertions plus
  their ancestors) is re-evaluated, and only O(k N) new kernel entries are
  ever computed: each dirty off-diagonal block ``U V*`` is *bordered* with
  the new rows/columns in factored form and recompressed, never rebuilt
  from a dense block.
* :func:`remove_points`  — delete k points.  Deleting rows of the stored
  bases keeps the factorization exact on the surviving indices, so no
  kernel evaluation happens at all; dirty blocks are recompressed to shed
  the rank the deletions freed.
* :func:`move_points`    — re-evaluate k points in place (a removal followed
  by an insertion at the same positions).

All dirty-block recompressions run batched through
:func:`repro.core.compression.recompress_stack` (the factored-form companion
of the level-major ``compress_block_stack`` path), so an update costs
O(shape buckets) kernel launches, not O(dirty blocks).

The result is a :class:`HODLRUpdate` carrying the new matrix, the dirty
node set (the contract consumed by ``ApplyPlan.patch`` / ``FactorPlan.
patch``), and the old-to-new index map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..backends.context import ExecutionContext, resolve_context
from .cluster_tree import ClusterTree
from .compression import recompress_bordered, recompress_stack
from .hodlr import HODLRMatrix, _resolve_evaluator
from .low_rank import LowRankFactor


class PatchUnsupportedError(RuntimeError):
    """The change cannot be absorbed incrementally (e.g. an emptied leaf, or
    a registered solver variant that holds no compiled plan to patch);
    callers should fall back to a full rebuild."""


@dataclass(frozen=True)
class HODLRUpdate:
    """The result of an incremental point update.

    Attributes
    ----------
    matrix:
        The updated :class:`HODLRMatrix`.  Clean blocks share storage with
        the input matrix (they are reused by reference), dirty blocks are
        fresh.
    dirty_nodes:
        Indices of the tree nodes whose row/column range intersects the
        changed points — the dirty leaves plus all their ancestors
        (ancestor-closed by construction).  Node indices are identical in
        the old and new trees (the topology is preserved).  This is the set
        ``ApplyPlan.patch`` / ``FactorPlan.patch`` consume.
    kind:
        ``"insert"``, ``"remove"``, or ``"move"``.
    old_to_new:
        Length ``n_old`` map from old to new global indices (``-1`` for
        removed points).  Surviving points keep their relative order.
    inserted:
        Sorted new-ordering indices of the inserted points (empty for
        ``"remove"``).
    """

    matrix: HODLRMatrix
    dirty_nodes: frozenset
    kind: str
    old_to_new: np.ndarray
    inserted: np.ndarray

    @property
    def dirty_blocks(self) -> int:
        return dirty_block_counts(self.matrix.tree, self.dirty_nodes)[0]

    @property
    def total_blocks(self) -> int:
        return dirty_block_counts(self.matrix.tree, self.dirty_nodes)[1]

    @property
    def dirty_fraction(self) -> float:
        dirty, total = dirty_block_counts(self.matrix.tree, self.dirty_nodes)
        return dirty / total if total else 0.0


def dirty_block_counts(tree: ClusterTree, dirty_nodes) -> Tuple[int, int]:
    """``(dirty, total)`` HODLR block counts for a dirty node set.

    A leaf diagonal block is dirty iff its leaf is; an off-diagonal sibling
    block is dirty iff either sibling is (its row *or* column basis
    changed).
    """
    dirty = sum(1 for leaf in tree.leaves if leaf.index in dirty_nodes)
    total = tree.num_leaves
    for level in range(1, tree.levels + 1):
        for left, right in tree.sibling_pairs(level):
            total += 2
            if left.index in dirty_nodes or right.index in dirty_nodes:
                dirty += 2
    return dirty, total


# ----------------------------------------------------------------------
# tree surgery helpers
# ----------------------------------------------------------------------
def _shifted_tree(tree: ClusterTree, boundary_map, n_new: int) -> ClusterTree:
    """New tree with every split moved through ``boundary_map``.

    ``boundary_map(p)`` maps an old boundary position ``p`` in ``[0,
    n_old]`` to its new position; leaves containing changes grow or shrink,
    every other node's range merely shifts.
    """
    splits: Dict[int, int] = {}
    for level in range(tree.levels):
        for idx in tree.level_indices(level):
            splits[idx] = int(boundary_map(tree.node(2 * idx).stop))
    return ClusterTree(n_new, tree.levels, splits=splits)


def _dirty_set(tree: ClusterTree, changed: np.ndarray) -> frozenset:
    """Nodes of ``tree`` whose range contains a changed (sorted) index."""
    dirty = set()
    for node in tree:
        lo = int(np.searchsorted(changed, node.start))
        hi = int(np.searchsorted(changed, node.stop))
        if hi > lo:
            dirty.add(node.index)
    return frozenset(dirty)


def _local_split(where: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The changed indices falling in ``[start, stop)``, made range-local."""
    lo = int(np.searchsorted(where, start))
    hi = int(np.searchsorted(where, stop))
    return where[lo:hi] - start


def _keep_mask(size: int, removed: np.ndarray) -> np.ndarray:
    """Boolean mask over ``range(size)`` that is False at ``removed``.

    Equivalent to ``setdiff1d(arange(size), removed)`` as a row selector but
    without sorting an O(size) arange per block — the dirty path touches
    blocks up to N/2 rows tall, so this sits on the downdate hot path.
    """
    mask = np.ones(size, dtype=bool)
    mask[removed] = False
    return mask


def _coerce(xb, a, dtype):
    out = xb.asarray(a)
    if out.dtype != np.dtype(dtype):
        out = out.astype(dtype)
    return out


def _dirty_offdiag_pairs(tree: ClusterTree, dirty_nodes):
    """Yield the ``(row_node, col_node)`` off-diagonal blocks on the dirty
    path, level by level (both directions of each dirty sibling pair)."""
    for level in range(1, tree.levels + 1):
        for left, right in tree.sibling_pairs(level):
            if left.index in dirty_nodes or right.index in dirty_nodes:
                yield left, right
                yield right, left


# ----------------------------------------------------------------------
# insert
# ----------------------------------------------------------------------
def update_points(
    hodlr: HODLRMatrix,
    source,
    where,
    tol: float = 1e-12,
    max_rank: Optional[int] = None,
    context: Optional[ExecutionContext] = None,
) -> HODLRUpdate:
    """Insert k points into an existing HODLR matrix.

    Parameters
    ----------
    hodlr:
        The matrix to update (not modified; clean blocks are shared).
    source:
        Entry evaluator over the **new** ordering (a callable
        ``entries(rows, cols)``, or an object exposing ``.entries`` such as
        a :class:`~repro.kernels.kernel_matrix.KernelMatrix` over the
        extended point set).  Only O(k N) entries are evaluated: the new
        rows/columns of the dirty path.
    where:
        Sorted (or sortable) global indices *in the new ordering* where the
        inserted points land; ``len(where) = k`` and the new dimension is
        ``n + k``.
    tol, max_rank:
        Recompression tolerance / rank cap for the dirty blocks (use the
        construction tolerance to preserve accuracy).
    """
    ctx = resolve_context(context)
    xb = ctx.backend
    tree = hodlr.tree
    n_old = tree.n
    where = np.unique(np.asarray(where, dtype=np.intp).ravel())
    k = int(where.size)
    n_new = n_old + k
    if k == 0:
        return HODLRUpdate(
            matrix=hodlr,
            dirty_nodes=frozenset(),
            kind="insert",
            old_to_new=np.arange(n_old, dtype=np.intp),
            inserted=where,
        )
    if where[0] < 0 or where[-1] >= n_new:
        raise ValueError(
            f"insert indices must lie in [0, {n_new}) of the new ordering"
        )
    entries, _ = _resolve_evaluator(source)
    dt = hodlr.dtype

    # new global position of each surviving old point (relative order kept)
    keep = np.ones(n_new, dtype=bool)
    keep[where] = False
    old_pos = np.flatnonzero(keep).astype(np.intp)

    def boundary(p: int) -> int:
        if p <= 0:
            return 0
        if p >= n_old:
            return n_new
        return int(old_pos[p])

    new_tree = _shifted_tree(tree, boundary, n_new)
    dirty = _dirty_set(new_tree, where)

    diag = dict(hodlr.diag)
    U = dict(hodlr.U)
    V = dict(hodlr.V)

    # --- dirty leaf diagonal blocks: scatter the old block, evaluate only
    # the new rows and columns ---------------------------------------------
    for leaf in new_tree.leaves:
        if leaf.index not in dirty:
            continue
        old_leaf = tree.node(leaf.index)
        ins_local = _local_split(where, leaf.start, leaf.stop)
        surv_global = old_pos[old_leaf.start : old_leaf.stop]
        surv_local = surv_global - leaf.start
        m = leaf.size
        block = xb.zeros((m, m), dtype=dt)
        block[np.ix_(surv_local, surv_local)] = xb.asarray(diag[leaf.index])
        cols = np.arange(leaf.start, leaf.stop, dtype=np.intp)
        block[ins_local, :] = _coerce(xb, entries(ins_local + leaf.start, cols), dt)
        if surv_local.size:
            block[np.ix_(surv_local, ins_local)] = _coerce(
                xb, entries(surv_global, ins_local + leaf.start), dt
            )
        diag[leaf.index] = block

    # --- dirty off-diagonal blocks: border the stored factor with the new
    # rows/columns and recompress (batched) ---------------------------------
    pending: List[LowRankFactor] = []
    owners: List[Tuple[int, int]] = []
    for rn, cn in _dirty_offdiag_pairs(new_tree, dirty):
        rn_old, cn_old = tree.node(rn.index), tree.node(cn.index)
        r_ins = _local_split(where, rn.start, rn.stop)
        c_ins = _local_split(where, cn.start, cn.stop)
        kr, kc = int(r_ins.size), int(c_ins.size)
        r_surv_global = old_pos[rn_old.start : rn_old.stop]
        r_surv = r_surv_global - rn.start
        c_surv = old_pos[cn_old.start : cn_old.stop] - cn.start
        U_old = _coerce(xb, hodlr.U[rn.index], dt)
        V_old = _coerce(xb, hodlr.V[cn.index], dt)
        r0 = U_old.shape[1]
        m, n = rn.size, cn.size

        # A window of arrivals lands in one node per level, so almost every
        # dirty block is bordered on exactly one side: the other side's
        # border is identity rows disjoint from the surviving support, and
        # the structured recompression skips that side's full QR entirely.
        if kc and not kr:
            # new columns only: rn is untouched, so U_old needs no scatter
            C = _coerce(xb, entries(r_surv_global, c_ins + cn.start), dt)
            f = recompress_bordered(
                dense=xb.concat([U_old, C], axis=1),
                compact=V_old,
                ins=c_ins,
                size=n,
                dense_is_row_side=True,
                tol=tol,
                max_rank=max_rank,
                context=ctx,
            )
            U[rn.index], V[cn.index] = f.U, f.V
            continue
        if kr and not kc:
            # new rows only: cn is untouched, so V_old needs no scatter
            cols = np.arange(cn.start, cn.stop, dtype=np.intp)
            R = _coerce(xb, entries(r_ins + rn.start, cols), dt)
            f = recompress_bordered(
                dense=xb.concat([V_old, xb.asarray(R).conj().T], axis=1),
                compact=U_old,
                ins=r_ins,
                size=m,
                dense_is_row_side=False,
                tol=tol,
                max_rank=max_rank,
                context=ctx,
            )
            U[rn.index], V[cn.index] = f.U, f.V
            continue

        # term 1: the old block scattered to the surviving positions
        U1 = xb.zeros((m, r0), dtype=dt)
        U1[r_surv] = U_old
        V1 = xb.zeros((n, r0), dtype=dt)
        V1[c_surv] = V_old
        u_parts, v_parts = [U1], [V1]
        # term 2: new columns against surviving rows, C e_j* form
        if kc:
            C = _coerce(xb, entries(r_surv_global, c_ins + cn.start), dt)
            U2 = xb.zeros((m, kc), dtype=dt)
            U2[r_surv] = C
            V2 = xb.zeros((n, kc), dtype=dt)
            V2[c_ins] = xb.eye(kc, dtype=dt)
            u_parts.append(U2)
            v_parts.append(V2)
        # term 3: new rows against *all* columns (covers the new/new corner)
        if kr:
            cols = np.arange(cn.start, cn.stop, dtype=np.intp)
            R = _coerce(xb, entries(r_ins + rn.start, cols), dt)
            U3 = xb.zeros((m, kr), dtype=dt)
            U3[r_ins] = xb.eye(kr, dtype=dt)
            u_parts.append(U3)
            v_parts.append(xb.asarray(R).conj().T)
        pending.append(
            LowRankFactor(U=xb.concat(u_parts, axis=1), V=xb.concat(v_parts, axis=1))
        )
        owners.append((rn.index, cn.index))

    for (ri, ci), f in zip(
        owners, recompress_stack(pending, tol=tol, max_rank=max_rank, context=ctx)
    ):
        U[ri] = f.U
        V[ci] = f.V

    return HODLRUpdate(
        matrix=HODLRMatrix(tree=new_tree, diag=diag, U=U, V=V),
        dirty_nodes=dirty,
        kind="insert",
        old_to_new=old_pos,
        inserted=where,
    )


# ----------------------------------------------------------------------
# remove
# ----------------------------------------------------------------------
def remove_points(
    hodlr: HODLRMatrix,
    where,
    tol: float = 1e-12,
    max_rank: Optional[int] = None,
    context: Optional[ExecutionContext] = None,
    recompress: bool = False,
) -> HODLRUpdate:
    """Delete k points from an existing HODLR matrix (no evaluator needed).

    Deleting rows of the stored ``U``/``V`` bases keeps the factorization
    *exact* on the surviving indices, and — unlike an insert — can never
    *grow* a block's rank, so no recompression is required for correctness
    or for plan-patch compatibility.  ``recompress=True`` additionally runs
    a rank-shedding QR pass over the dirty blocks; for ``k`` much smaller
    than the block sizes the deletion frees essentially no rank, so
    streaming callers leave it off and amortise the shed by recompressing
    periodically (or on the next insert, which recompresses its dirty
    blocks anyway).  ``where`` holds global indices in the **old**
    ordering.  Raises :class:`PatchUnsupportedError` when a leaf would be
    emptied (the tree cannot absorb the deletion).
    """
    ctx = resolve_context(context)
    xb = ctx.backend
    tree = hodlr.tree
    n_old = tree.n
    where = np.unique(np.asarray(where, dtype=np.intp).ravel())
    k = int(where.size)
    old_to_new = np.arange(n_old, dtype=np.intp)
    if k == 0:
        return HODLRUpdate(
            matrix=hodlr,
            dirty_nodes=frozenset(),
            kind="remove",
            old_to_new=old_to_new,
            inserted=np.empty(0, dtype=np.intp),
        )
    if where[0] < 0 or where[-1] >= n_old:
        raise ValueError(f"remove indices must lie in [0, {n_old})")
    n_new = n_old - k
    bounds = np.fromiter(
        (lf.start for lf in tree.leaves), dtype=np.intp, count=tree.num_leaves
    )
    bounds = np.append(bounds, n_old)
    survivors = np.diff(bounds) - np.diff(np.searchsorted(where, bounds))
    if np.any(survivors < 1):
        emptied = tree.leaves[int(np.argmax(survivors < 1))].index
        raise PatchUnsupportedError(
            f"removing {k} points empties leaf {emptied}; rebuild the "
            "tree instead"
        )
    if n_new < 2:
        raise PatchUnsupportedError("fewer than two points would remain")

    old_to_new = old_to_new - np.searchsorted(where, old_to_new).astype(np.intp)
    old_to_new[where] = -1

    def boundary(p: int) -> int:
        if p <= 0:
            return 0
        if p >= n_old:
            return n_new
        return int(p - np.searchsorted(where, p))

    new_tree = _shifted_tree(tree, boundary, n_new)
    dirty = _dirty_set(tree, where)  # ranges in the *old* tree contain `where`

    diag = dict(hodlr.diag)
    U = dict(hodlr.U)
    V = dict(hodlr.V)

    for leaf in tree.leaves:
        if leaf.index not in dirty:
            continue
        keep_local = _keep_mask(leaf.size, _local_split(where, leaf.start, leaf.stop))
        block = xb.asarray(diag[leaf.index])
        diag[leaf.index] = block[np.ix_(keep_local, keep_local)]

    pending: List[LowRankFactor] = []
    owners: List[Tuple[int, int]] = []
    for rn, cn in _dirty_offdiag_pairs(tree, dirty):
        r_keep = _keep_mask(rn.size, _local_split(where, rn.start, rn.stop))
        c_keep = _keep_mask(cn.size, _local_split(where, cn.start, cn.stop))
        pending.append(
            LowRankFactor(
                U=xb.asarray(hodlr.U[rn.index])[r_keep],
                V=xb.asarray(hodlr.V[cn.index])[c_keep],
            )
        )
        owners.append((rn.index, cn.index))

    if recompress:
        pending = recompress_stack(pending, tol=tol, max_rank=max_rank, context=ctx)
    for (ri, ci), f in zip(owners, pending):
        U[ri] = f.U
        V[ci] = f.V

    return HODLRUpdate(
        matrix=HODLRMatrix(tree=new_tree, diag=diag, U=U, V=V),
        dirty_nodes=dirty,
        kind="remove",
        old_to_new=old_to_new,
        inserted=np.empty(0, dtype=np.intp),
    )


# ----------------------------------------------------------------------
# move
# ----------------------------------------------------------------------
def move_points(
    hodlr: HODLRMatrix,
    source,
    where,
    tol: float = 1e-12,
    max_rank: Optional[int] = None,
    context: Optional[ExecutionContext] = None,
) -> HODLRUpdate:
    """Re-evaluate k points in place (their rows *and* columns changed).

    Equivalent to :func:`remove_points` at ``where`` followed by
    :func:`update_points` at the same positions: removing position ``p``
    and re-inserting at position ``p`` restores every surviving point to
    its original index, so ``where`` means the same thing in the old and
    new orderings and ``source`` evaluates the *updated* operator over the
    unchanged ordering.
    """
    removed = remove_points(hodlr, where, tol=tol, max_rank=max_rank, context=context)
    inserted = update_points(
        removed.matrix, source, where, tol=tol, max_rank=max_rank, context=context
    )
    n = hodlr.tree.n
    return HODLRUpdate(
        matrix=inserted.matrix,
        dirty_nodes=removed.dirty_nodes | inserted.dirty_nodes,
        kind="move",
        old_to_new=np.arange(n, dtype=np.intp),
        inserted=inserted.inserted,
    )
