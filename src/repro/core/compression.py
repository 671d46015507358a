"""Low-rank compression kernels for off-diagonal HODLR blocks.

The paper constructs HODLR approximations on the CPU before copying them to
the GPU, using

* HODLRlib's ``LowRank::rookPiv()`` — an approximate partial-pivoted LU
  ("rook pivoting" / ACA-style cross approximation) — for kernel matrices
  (section IV-A), and
* the proxy-surface technique for BIE matrices (sections IV-B/IV-C; the
  proxy machinery itself lives in :mod:`repro.bie.proxy` because it needs
  geometry, but it reuses :func:`randomized_compress` from here).

This module implements three interchangeable compressors plus a config
object and a dispatcher:

* :func:`svd_compress`         — exact truncated SVD (reference / testing);
* :func:`rook_pivot_compress_blocks` — adaptive cross approximation with
  rook pivot searches on a bucket of blocks, requiring only entry evaluation;
* :func:`randomized_compress`  — randomized range finder + small SVD,
  requiring only matvec access to the block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np
from scipy import linalg as sla

from ..backends.batched import gemm_strided_batched, qr_batched, svd_batched
from ..backends.context import ExecutionContext, resolve_context
from ..backends.dispatch import ArrayBackend, plan_batch
from .low_rank import LowRankFactor, _truncation_count

#: Evaluates a sub-block of the operator: ``entries(rows, cols) -> ndarray``.
BlockEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]
#: Evaluates a stack of equal-shape sub-blocks: ``gather(rows (B, m), cols
#: (B, n)) -> (B, m, n)``, e.g. ``KernelMatrix.entries_blocks``.
BlockGather = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class CompressionConfig:
    """Options controlling off-diagonal block compression.

    Parameters
    ----------
    tol:
        Relative tolerance for the low-rank approximation (the paper uses
        1e-12 for the "high accuracy" solvers and ~1e-4 for the
        preconditioner runs).
    max_rank:
        Hard cap on the rank (None = no cap).
    method:
        ``"svd"``, ``"rook"``, or ``"randomized"``.
    oversampling:
        Extra random samples for the randomized range finder.
    rng:
        Seeded generator for reproducibility of the randomized path.
    construction:
        ``"batched"`` (default) drives :func:`repro.core.build_hodlr`
        level-major: kernel entries for a whole tree level are gathered in
        one vectorized call and sibling blocks are compressed through the
        shape-bucketed batched kernels.  ``method="rook"`` never
        materialises a block: the batched schedule runs one lockstep
        :func:`rook_pivot_compress_blocks` per shape bucket.  ``"peeling"``
        builds from matvecs alone (:func:`repro.core.peeling.peel_hodlr`).
    """

    tol: float = 1e-12
    max_rank: Optional[int] = None
    method: str = "rook"
    oversampling: int = 10
    rng: Optional[np.random.Generator] = None
    construction: str = "batched"

    def generator(self) -> np.random.Generator:
        return self.rng if self.rng is not None else np.random.default_rng(0)


# ----------------------------------------------------------------------
# SVD (reference)
# ----------------------------------------------------------------------
def svd_compress(
    block: np.ndarray, tol: float = 1e-12, max_rank: Optional[int] = None
) -> LowRankFactor:
    """Optimal (truncated SVD) compression of a dense block."""
    return LowRankFactor.from_dense(block, tol=tol, max_rank=max_rank)


# ----------------------------------------------------------------------
# Rook-pivoted cross approximation (HODLRlib's rookPiv analogue)
# ----------------------------------------------------------------------
def lift_gather(entries: BlockEvaluator) -> BlockGather:
    """A stack gather from a single-block evaluator: one call per block."""

    def gather(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        if len(rows) == 1:
            return np.asarray(entries(rows[0], cols[0]))[None]
        return np.stack([np.asarray(entries(r, c)) for r, c in zip(rows, cols)])

    return gather


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, summed exactly as ``np.linalg.norm`` sums a vector."""
    parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
    return np.sqrt(sum(np.matmul(p[:, None, :], p[:, :, None])[:, 0, 0] for p in parts))


def rook_pivot_compress_blocks(
    gather: BlockGather,
    rows: np.ndarray,
    cols: np.ndarray,
    tol: float = 1e-12,
    max_rank: Optional[int] = None,
    max_rook_steps: int = 3,
    dtype=np.float64,
    context: Optional[ExecutionContext] = None,
) -> List[LowRankFactor]:
    """Adaptive cross approximation with rook pivoting, blocks in lockstep.

    Block ``b`` is ``entries(rows[b], cols[b])``; ``gather(R, C)`` evaluates
    the stack of ``(R[t], C[t])`` sub-blocks.  Each block grows as ``sum_k
    u_k v_k*``: a rook search (alternate row/column argmax of the lazily
    evaluated residual) picks each pivot, and a block stops when its cross
    norm drops below ``tol`` times the running ACA estimate of its norm, so
    only ``O((m + n) r)`` entries of a block are evaluated.  Active blocks
    advance together — one row and one column gather per step, plus
    refinement gathers for blocks whose pivot moved — with batched residual
    matmuls over ``(B, m, cap)`` / ``(B, n, cap)`` storage.  Pivots,
    stopping and the zero-pivot retry (a random unused row from the block's
    own ``default_rng(12345)``) are per block, and every product is the
    one-block gemv or dot, so a block's factor does not depend on its bucket
    down to the last bit.  One :func:`recompress_stack` pass tightens the
    ranks.  Raises :class:`ValueError` when a block's crosses are not finite.
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    (nblocks, m), n = rows.shape, cols.shape[1]
    rank_cap = min(m, n) if max_rank is None else min(max_rank, m, n)
    if rank_cap == 0 or nblocks == 0:
        return [LowRankFactor.zeros(m, n, dtype) for _ in range(nblocks)]
    raw: List[Optional[LowRankFactor]] = [None] * nblocks
    rngs: dict = {}
    capacity = min(rank_cap, 8)
    # the active blocks' state; W holds conj(V) (the residual rows) and
    # norm2 the running estimate of ||B||_F^2 built from the crosses
    act = {
        "ids": np.arange(nblocks), "rows": rows, "cols": cols,
        "U": np.empty((nblocks, m, capacity), dtype=dtype),
        "W": np.empty((nblocks, n, capacity), dtype=dtype),
        "used": np.zeros((nblocks, m), dtype=bool),
        "next": np.zeros(nblocks, dtype=np.intp), "norm2": np.zeros(nblocks),
    }

    def residual(sel, piv, of_row):
        """Residual rows (``of_row``) or columns ``piv`` of active blocks ``sel``.

        All active blocks take one batched matmul on views of the storage; a
        subset loops per block, as indexing the storage would copy it.
        """
        r, c, t = act["rows"][sel], act["cols"][sel], np.arange(sel.size)
        if of_row:
            fresh, basis, coef = gather(r[t, piv][:, None], c), act["W"], act["U"][sel, piv, :k]
        else:
            fresh, basis, coef = gather(r, c[t, piv][:, None]), act["U"], act["W"][sel, piv, :k]
        res = np.asarray(fresh, dtype=dtype).reshape(sel.size, -1)
        if k and sel.size == every.size:
            res -= np.matmul(basis[:, :, :k], coef[:, :, None])[:, :, 0]
        elif k:
            for t, b in enumerate(sel):
                res[t] -= basis[b, :, :k] @ coef[t]
        return res

    def retire(done, rank):
        """Move the ``done`` blocks' rank-``rank`` factors out of the active set."""
        nonlocal act
        for t in np.flatnonzero(done):
            U, W = act["U"][t, :, :rank], act["W"][t, :, :rank]
            raw[act["ids"][t]] = LowRankFactor(np.array(U), np.conjugate(W))
        act = {key: v[~done] for key, v in act.items()}

    for k in range(rank_cap):
        every = np.arange(act["ids"].size)
        # --- rook pivot search, starting from the next unused row ----------
        i, used = act["next"].copy(), act["used"]
        if used[every, i].any():
            taken = np.flatnonzero(used[every, i])
            order = (i[taken, None] + np.arange(m)) % m
            i[taken] = order[np.arange(taken.size), np.argmax(~used[taken[:, None], order], 1)]
        row = residual(every, i, True)
        j = np.abs(row).argmax(axis=1)
        col = residual(every, j, False)
        moving = every
        for _ in range(max_rook_steps):
            i_new = np.abs(col[moving]).argmax(axis=1)
            moving, i_new = moving[i_new != i[moving]], i_new[i_new != i[moving]]
            if not moving.size:
                break
            i[moving] = i_new
            row[moving] = residual(moving, i_new, True)
            j_new = np.abs(row[moving]).argmax(axis=1)
            moving, j_new = moving[j_new != j[moving]], j_new[j_new != j[moving]]
            if not moving.size:
                break
            j[moving] = j_new
            col[moving] = residual(moving, j_new, False)

        pivot = row[every, j]
        for t in np.flatnonzero(pivot == 0) if not pivot.all() else ():
            # residual row is identically zero; try a random unused row before
            # concluding the block is (numerically) exhausted.
            free = np.flatnonzero(~used[t])
            if free.size:
                rng = rngs.setdefault(act["ids"][t], np.random.default_rng(12345))
                i[t] = rng.choice(free)
                row[t] = residual(every[t : t + 1], i[t : t + 1], True)[0]
                j[t] = np.argmax(np.abs(row[t]))
                pivot[t] = row[t, j[t]]
            if pivot[t] != 0:
                col[t] = residual(every[t : t + 1], j[t : t + 1], False)[0]
        if not pivot.all():
            live = pivot != 0
            retire(~live, k)
            i, j, row, col, pivot = i[live], j[live], row[live], col[live], pivot[live]
            every = np.arange(live.sum())
            if not every.size:
                break

        # --- add the cross -------------------------------------------------
        u = col / pivot[:, None]
        cross_norm2 = _row_norms(u) ** 2 * _row_norms(row) ** 2
        # ||B_k||^2 ~= ||B_{k-1}||^2 + 2 Re <prev, new> + ||new||^2, with the
        # inner products against all previous crosses as two batched GEMVs
        cross_terms = 0.0
        if k:
            cu = np.matmul(act["U"][:, :, :k].conj().transpose(0, 2, 1), u[:, :, None])[:, :, 0]
            cv = np.matmul(act["W"][:, :, :k].transpose(0, 2, 1), row.conj()[:, :, None])[:, :, 0]
            cross_terms = 2.0 * np.abs(cu * cv).sum(axis=1)
        if k == capacity:
            capacity = min(rank_cap, 2 * capacity)
            for key, size in (("U", m), ("W", n)):
                fresh = np.empty((every.size, size, capacity - k), dtype=dtype)
                act[key] = np.concatenate([act[key][:, :, :k], fresh], axis=2)
        act["U"][:, :, k], act["W"][:, :, k] = u, row
        act["used"][every, i] = True
        act["next"] = (i + 1) % m
        act["norm2"] += cross_norm2 + cross_terms
        norm2 = act["norm2"]
        # a non-finite cross stops its block; the check below reports it
        done = (norm2 > 0) & (cross_norm2 <= tol**2 * norm2) | ~np.isfinite(cross_norm2)
        if k + 1 == rank_cap or done.all():
            retire(np.ones(every.size, dtype=bool), k + 1)
            break
        if done.any():
            retire(done, k + 1)

    for b, f in enumerate(raw):
        if not (np.isfinite(f.U).all() and np.isfinite(f.V).all()):
            raise ValueError(
                f"non-finite entries in the block at rows {rows[b].min()}:{rows[b].max() + 1}"
            )
    return recompress_stack(raw, tol=tol, max_rank=max_rank, context=context)


def rook_pivot_compress(
    entries: BlockEvaluator,
    m: int,
    n: int,
    tol: float = 1e-12,
    max_rank: Optional[int] = None,
    max_rook_steps: int = 3,
    dtype=np.float64,
) -> LowRankFactor:
    """Rook-pivoted ACA of the ``m x n`` block ``entries(rows, cols)``: the
    one-block case of :func:`rook_pivot_compress_blocks`."""
    return rook_pivot_compress_blocks(
        lift_gather(entries), np.arange(m)[None], np.arange(n)[None], tol=tol,
        max_rank=max_rank, max_rook_steps=max_rook_steps, dtype=dtype,
    )[0]


def rook_pivot_compress_dense(
    block: np.ndarray, tol: float = 1e-12, max_rank: Optional[int] = None
) -> LowRankFactor:
    """Rook-pivoted compression of an explicitly stored block."""
    return compress_block_stack(np.asarray(block)[None], CompressionConfig(tol=tol, max_rank=max_rank))[0]


# ----------------------------------------------------------------------
# Randomized range finder
# ----------------------------------------------------------------------
def randomized_compress(
    matvec: Callable[[np.ndarray], np.ndarray],
    rmatvec: Callable[[np.ndarray], np.ndarray],
    m: int,
    n: int,
    tol: float = 1e-12,
    max_rank: Optional[int] = None,
    oversampling: int = 10,
    rng: Optional[np.random.Generator] = None,
    block_size: int = 16,
    dtype=np.float64,
) -> LowRankFactor:
    """Adaptive randomized low-rank approximation from matvec access.

    Uses blocked adaptive range finding (Halko–Martinsson–Tropp): draw
    Gaussian test matrices in blocks, orthogonalise the sampled range, and
    stop when the norm of the newest block of samples (a stochastic estimate
    of the residual spectral norm) falls below ``tol`` times the largest
    observed sample norm.  The final factor is obtained from the small
    projected matrix ``Q* B`` via an SVD.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    rank_cap = min(m, n) if max_rank is None else min(max_rank + oversampling, m, n)
    if rank_cap == 0 or m == 0 or n == 0:
        return LowRankFactor.zeros(m, n, dtype)

    Q = np.zeros((m, 0), dtype=dtype)
    first_block_norm = None
    while Q.shape[1] < rank_cap:
        nb = min(block_size, rank_cap - Q.shape[1])
        Omega = rng.standard_normal((n, nb)).astype(dtype, copy=False)
        if np.issubdtype(np.dtype(dtype), np.complexfloating):
            Omega = Omega + 1j * rng.standard_normal((n, nb))
        Y = np.asarray(matvec(Omega))
        if Q.shape[1] > 0:
            Y = Y - Q @ (Q.conj().T @ Y)
        block_norm = float(np.linalg.norm(Y))
        if first_block_norm is None:
            first_block_norm = max(block_norm, np.finfo(float).tiny)
        elif block_norm <= tol * first_block_norm:
            # the residual range is exhausted; appending these (numerically
            # meaningless) directions would destroy Q's orthonormality.
            break
        if Q.shape[1] > 0:
            # second projection pass for numerical orthogonality
            Y = Y - Q @ (Q.conj().T @ Y)
        Qb, _ = np.linalg.qr(Y)
        if Q.shape[1] > 0:
            # re-orthogonalise the panel itself: when the sampled residual is
            # at the round-off floor, qr(Y) returns directions with O(eps /
            # ||Y||) components inside span(Q); appending them un-projected
            # destroys Q's orthonormality and with it the final projection
            Qb = Qb - Q @ (Q.conj().T @ Qb)
            Qb, _ = np.linalg.qr(Qb)
        Q = np.hstack([Q, Qb])
        if block_norm <= tol * first_block_norm:
            break

    # project: B* Q has shape (n, q); SVD of the small matrix gives the factor.
    Bt_Q = np.asarray(rmatvec(Q))  # = B^* Q, shape (n, q)
    W, s, Zh = sla.svd(Bt_Q.conj().T, full_matrices=False, check_finite=False)  # Q^T B = W s Zh
    keep = _truncation_count(s, tol, max_rank)
    U = Q @ (W[:, :keep] * s[:keep])
    V = Zh[:keep, :].conj().T
    return LowRankFactor(U=U, V=V)


def randomized_compress_dense(
    block: np.ndarray,
    tol: float = 1e-12,
    max_rank: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> LowRankFactor:
    """Randomized compression of an explicitly stored block."""
    block = np.asarray(block)
    return randomized_compress(
        matvec=lambda X: block @ X,
        rmatvec=lambda X: block.conj().T @ X,
        m=block.shape[0],
        n=block.shape[1],
        tol=tol,
        max_rank=max_rank,
        rng=rng,
        dtype=block.dtype,
    )


# ----------------------------------------------------------------------
# batched (level-parallel) compression
# ----------------------------------------------------------------------
def _svd_stack(
    stack: np.ndarray, tol: float, max_rank: Optional[int], xb: ArrayBackend
) -> List[LowRankFactor]:
    """Truncated-SVD compression of one uniform ``(batch, m, n)`` stack."""
    U3, s3, Vh3 = svd_batched(stack, backend=xb)
    out = []
    for j in range(stack.shape[0]):
        keep = _truncation_count(s3[j], tol, max_rank)
        out.append(
            LowRankFactor(U=U3[j][:, :keep] * s3[j][:keep], V=Vh3[j][:keep, :].conj().T)
        )
    return out


def _randomized_stack(
    stack: np.ndarray,
    tol: float,
    max_rank: Optional[int],
    oversampling: int,
    rng: np.random.Generator,
    xb: ArrayBackend,
) -> List[LowRankFactor]:
    """Randomized compression of one uniform stack with a shared test matrix.

    One Gaussian test matrix serves the whole stack, so the sampling
    products, the orthogonalisation, and the projected SVD each execute as a
    single strided batched kernel (``gemmStridedBatched`` + ``geqrfBatched``
    + ``gesvdjBatched`` in cuBLAS/cuSOLVER terms).

    The sample count starts at ``max_rank + oversampling`` when a rank cap
    is given (the paper's fixed-rank regime) and at a small default
    otherwise.  Blocks whose spectrum is not resolved by the shared sample
    count — adaptive-rank stragglers — stay in for a doubled-sample round; a
    final lone straggler falls back to the per-block adaptive range finder
    (:func:`randomized_compress_dense`).
    """
    nbatch, m, n = stack.shape
    minmn = min(m, n)
    results: List[Optional[LowRankFactor]] = [None] * nbatch
    if minmn == 0:
        return [LowRankFactor.zeros(m, n, stack.dtype) for _ in range(nbatch)]
    dtype = stack.dtype
    cplx = np.issubdtype(dtype, np.complexfloating)
    if max_rank is not None:
        nsamples = min(minmn, max_rank + oversampling)
    else:
        nsamples = min(minmn, max(16, oversampling + 8))
    pending = np.arange(nbatch)
    while pending.size:
        omega = rng.standard_normal((n, nsamples))
        if cplx:
            omega = omega + 1j * rng.standard_normal((n, nsamples))
        # the Gaussian test matrix is drawn on the host (reproducible rng)
        # and moved to the backend once per round
        omega = xb.from_host(omega.astype(dtype, copy=False))
        # first round covers the whole stack: no gather copy
        sub = stack if pending.size == nbatch else stack[pending]
        Y = gemm_strided_batched(
            sub, xb.broadcast_to(omega, (pending.size, n, nsamples)), backend=xb
        )
        Q, _ = qr_batched(Y, backend=xb)
        G = gemm_strided_batched(Q, sub, conjugate_a=True, backend=xb)
        W3, s3, Zh3 = svd_batched(G, backend=xb)
        stragglers = []
        for j, p in enumerate(pending):
            s = s3[j]
            keep = _truncation_count(s, tol, max_rank)
            resolved = (
                keep < s.size
                or nsamples >= minmn
                or (max_rank is not None and keep >= max_rank)
            )
            if not resolved:
                stragglers.append(p)
                continue
            results[p] = LowRankFactor(
                U=Q[j] @ (W3[j][:, :keep] * s[:keep]), V=Zh3[j][:keep, :].conj().T
            )
        if not stragglers:
            break
        if len(stragglers) == 1:
            # a single adaptive-rank straggler: the per-block adaptive range
            # finder is cheaper than another stack-wide round
            p = stragglers[0]
            results[p] = randomized_compress_dense(
                stack[p], tol=tol, max_rank=max_rank, rng=rng
            )
            break
        pending = np.array(stragglers)
        nsamples = min(minmn, 2 * nsamples)
    return results  # type: ignore[return-value]


def compress_block_stack(
    stack: np.ndarray,
    config: CompressionConfig,
    rng: Optional[np.random.Generator] = None,
    context: Optional[ExecutionContext] = None,
) -> List[LowRankFactor]:
    """Compress a uniform ``(batch, m, n)`` stack of dense blocks per ``config``.

    The zero-copy entry point of the level-major builder: a gathered level
    stack goes straight into the batched kernels without per-block
    unpacking.  ``rook`` runs the lockstep
    :func:`rook_pivot_compress_blocks` over the stack (the level-major
    builder calls it on kernel gathers instead, never materialising the
    blocks).  A device-resident ``context`` keeps the stack and factors
    there.
    """
    ctx = resolve_context(context)
    xb = ctx.backend
    stack = xb.asarray(stack)
    if stack.ndim != 3:
        raise ValueError("compress_block_stack expects a (batch, m, n) stack")
    if config.method == "rook":
        # block b of the stack is rows b*m .. b*m + m - 1 of the flattened stack
        nblocks, m, n = stack.shape
        flat = xb.to_host(stack).reshape(nblocks * m, n)
        return rook_pivot_compress_blocks(
            lambda r, c: flat[r[:, :, None], c[:, None, :]],
            np.arange(nblocks * m).reshape(nblocks, m),
            np.broadcast_to(np.arange(n), (nblocks, n)),
            tol=config.tol, max_rank=config.max_rank, dtype=stack.dtype, context=ctx,
        )
    if config.method == "randomized":
        rng = rng if rng is not None else config.generator()
        return _randomized_stack(
            stack, config.tol, config.max_rank, config.oversampling, rng, xb
        )
    if config.method == "svd":
        return _svd_stack(stack, config.tol, config.max_rank, xb)
    raise ValueError(f"unknown compression method {config.method!r}")


def compress_blocks_batched(
    blocks: Sequence[np.ndarray],
    config: CompressionConfig,
    context: Optional[ExecutionContext] = None,
) -> List[LowRankFactor]:
    """Compress a list of dense blocks per ``config``, batched per shape bucket.

    Blocks sharing a shape are packed into one strided stack and compressed
    by :func:`compress_block_stack` (ranks may differ per block); the
    randomized path draws every bucket's test matrices from one generator.
    """
    ctx = resolve_context(context)
    rng = config.generator()
    results: List[Optional[LowRankFactor]] = [None] * len(blocks)
    for bucket in plan_batch([np.shape(b) for b in blocks]).buckets:
        stack = ctx.backend.stack([np.asarray(blocks[i]) for i in bucket.indices])
        for i, f in zip(bucket.indices, compress_block_stack(stack, config, rng=rng, context=ctx)):
            results[i] = f
    return results  # type: ignore[return-value]


def svd_compress_batched(
    blocks: Sequence[np.ndarray],
    tol: float = 1e-12,
    max_rank: Optional[int] = None,
    context: Optional[ExecutionContext] = None,
) -> List[LowRankFactor]:
    """Truncated-SVD compression of many dense blocks, one batched SVD per shape."""
    config = CompressionConfig(tol=tol, max_rank=max_rank, method="svd")
    return compress_blocks_batched(blocks, config, context=context)


def randomized_compress_batched(
    blocks: Sequence[np.ndarray],
    tol: float = 1e-12,
    max_rank: Optional[int] = None,
    oversampling: int = 10,
    rng: Optional[np.random.Generator] = None,
    context: Optional[ExecutionContext] = None,
) -> List[LowRankFactor]:
    """Randomized compression of many dense blocks with shared test matrices."""
    config = CompressionConfig(
        tol=tol, max_rank=max_rank, method="randomized", oversampling=oversampling, rng=rng
    )
    return compress_blocks_batched(blocks, config, context=context)


def recompress_stack(
    factors: Sequence[LowRankFactor],
    tol: float = 1e-12,
    max_rank: Optional[int] = None,
    context: Optional[ExecutionContext] = None,
) -> List[LowRankFactor]:
    """Batched QR+SVD recompression of many :class:`LowRankFactor` objects.

    The factored-form companion of :func:`compress_block_stack`: factors
    sharing a ``(m, n, rank)`` signature are packed into strided 3-D stacks
    and re-orthogonalised with one ``qr_batched`` launch per side, one
    strided gemm for the small cores, and one ``svd_batched`` for the
    truncation — the per-block :meth:`LowRankFactor.recompress` loop becomes
    O(shape buckets) kernel launches.  Truncation counts are applied per
    block (ranks may differ after truncation).  This is the path the
    streaming update/downdate engine sends its dirty concatenated factors
    through.
    """
    ctx = resolve_context(context)
    xb = ctx.backend
    if not factors:
        return []
    results: List[Optional[LowRankFactor]] = [None] * len(factors)
    keys = []
    for f in factors:
        m, n = f.shape
        keys.append((m, n, f.rank))
    for bucket in plan_batch(keys).buckets:
        idx = bucket.indices
        m, n, r = bucket.key
        if r == 0 or min(m, n) == 0:
            for i in idx:
                f = factors[i]
                results[i] = LowRankFactor.zeros(f.shape[0], f.shape[1], f.dtype)
            continue
        if len(idx) == 1 or r == 1:
            # a lone factor (or rank-1, where QR is trivial) gains nothing
            # from the strided path
            for i in idx:
                results[i] = factors[i].recompress(tol=tol, max_rank=max_rank)
            continue
        U3 = xb.stack([xb.asarray(factors[i].U) for i in idx])
        V3 = xb.stack([xb.asarray(factors[i].V) for i in idx])
        Qu3, Ru3 = qr_batched(U3, backend=xb)
        Qv3, Rv3 = qr_batched(V3, backend=xb)
        core3 = gemm_strided_batched(
            Ru3, xb.asarray(Rv3).conj().transpose(0, 2, 1), backend=xb
        )
        Uc3, s3, Vch3 = svd_batched(core3, backend=xb)
        for j, i in enumerate(idx):
            keep = _truncation_count(s3[j], tol, max_rank)
            results[i] = LowRankFactor(
                U=Qu3[j] @ (Uc3[j][:, :keep] * s3[j][:keep]),
                V=Qv3[j] @ Vch3[j][:keep, :].conj().T,
            )
    return results  # type: ignore[return-value]


def recompress_bordered(
    dense: np.ndarray,
    compact: np.ndarray,
    ins: np.ndarray,
    size: int,
    dense_is_row_side: bool,
    tol: float = 1e-12,
    max_rank: Optional[int] = None,
    context: Optional[ExecutionContext] = None,
) -> LowRankFactor:
    """Recompress a bordered factor whose *other* side is an identity border.

    A localised insert borders a dirty block ``U V^H`` on one side with
    dense new entries and on the other side with identity rows landing at
    the inserted positions ``ins``: that side's full factor is
    ``[scatter(compact) | e_ins]`` where ``scatter`` zero-fills the ``ins``
    rows.  Because the identity border's rows are disjoint from the
    surviving support, its columns are already orthonormal *and* orthogonal
    to the scattered old basis — the structured side's QR is
    ``Q = [scatter(Q_c) | e_ins]``, ``R = blockdiag(R_c, I)`` with
    ``Q_c R_c = qr(compact)``.  Only the compact ``(size-k, r0)`` old basis
    needs orthogonalising instead of the generic ``(size, r0+k)`` factor;
    the dense side pays the full QR it needs anyway.  Mathematically
    identical to :meth:`LowRankFactor.recompress` on the assembled factor.

    ``dense_is_row_side=True`` means ``dense`` is the row-space (``U``)
    factor of the block and the structured side is the column space;
    ``False`` is the mirror image.
    """
    ctx = resolve_context(context)
    xb = ctx.backend
    k = int(len(ins))
    r0 = compact.shape[1]
    dtype = dense.dtype
    Qd3, Rd3 = qr_batched(xb.asarray(dense)[None], backend=xb)
    Qd, Rd = Qd3[0], Rd3[0]
    if r0:
        Qc3, Rc3 = qr_batched(xb.asarray(compact)[None], backend=xb)
        Qc, Rc = Qc3[0], Rc3[0]
    else:
        Qc = xb.zeros((size - k, 0), dtype=dtype)
        Rc = xb.zeros((0, 0), dtype=dtype)
    if dense_is_row_side:
        # core = R_dense @ blockdiag(R_c, I)^H
        core = np.concatenate([Rd[:, :r0] @ Rc.conj().T, Rd[:, r0:]], axis=1)
    else:
        # core = blockdiag(R_c, I) @ R_dense^H
        core = np.concatenate(
            [Rc @ Rd[:, :r0].conj().T, Rd[:, r0:].conj().T], axis=0
        )
    Uc3, s3, Vch3 = svd_batched(core[None], backend=xb)
    Uc, s, Vch = Uc3[0], s3[0], Vch3[0]
    keep = _truncation_count(s, tol, max_rank)
    surv = np.ones(size, dtype=bool)
    surv[ins] = False
    if dense_is_row_side:
        Vst = Vch[:keep, :].conj().T
        V_new = xb.zeros((size, keep), dtype=dtype)
        V_new[surv] = Qc @ Vst[:r0]
        V_new[ins] = Vst[r0:]
        return LowRankFactor(U=Qd @ (Uc[:, :keep] * s[:keep]), V=V_new)
    Ust = Uc[:, :keep] * s[:keep]
    U_new = xb.zeros((size, keep), dtype=dtype)
    U_new[surv] = Qc @ Ust[:r0]
    U_new[ins] = Ust[r0:]
    return LowRankFactor(U=U_new, V=Qd @ Vch[:keep, :].conj().T)


# ----------------------------------------------------------------------
# dispatcher
# ----------------------------------------------------------------------
def compress_block(
    entries: BlockEvaluator,
    m: int,
    n: int,
    config: CompressionConfig,
    dtype=np.float64,
) -> LowRankFactor:
    """Compress the block defined by ``entries`` according to ``config``."""
    if config.method == "svd":
        block = np.asarray(entries(np.arange(m), np.arange(n)), dtype=dtype)
        return svd_compress(block, tol=config.tol, max_rank=config.max_rank)
    if config.method == "rook":
        return rook_pivot_compress(
            entries, m, n, tol=config.tol, max_rank=config.max_rank, dtype=dtype
        )
    if config.method == "randomized":
        block = np.asarray(entries(np.arange(m), np.arange(n)), dtype=dtype)
        return randomized_compress(
            lambda X: block @ X, lambda X: block.conj().T @ X, m, n, tol=config.tol,
            max_rank=config.max_rank, oversampling=config.oversampling,
            rng=config.generator(), dtype=dtype,
        )
    raise ValueError(f"unknown compression method {config.method!r}")
