"""NumPy implementations of the batched cuBLAS primitives used by the solver.

The GPU algorithms in the paper (Algorithms 3 and 4) are expressed entirely
in terms of four batched kernels:

=====================  ==============================================
cuBLAS routine          this module
=====================  ==============================================
``gemmBatched``         :func:`gemm_batched`
``gemmStridedBatched``  :func:`gemm_strided_batched`
``getrfBatched``        :func:`getrf_batched`
``getrsBatched``        :func:`getrs_batched`
=====================  ==============================================

Each function accepts either a 3-D array (the strided-batch layout, one
problem per leading index) or a list of 2-D arrays (the pointer-array
layout).  Every call emits a :class:`~repro.backends.counters.KernelEvent`
so that the performance model can reconstruct what the launch would have
cost on a GPU.

Design notes
------------
* Heterogeneous pointer-array batches are **shape bucketed** by the planner
  in :mod:`repro.backends.dispatch`: blocks with identical shapes are packed
  into strided 3-D storage and executed with a single vectorised ``matmul``
  or batched-LU call per bucket, so a batch with ``k`` distinct shapes costs
  ``k`` kernel launches instead of one Python iteration per block.  The
  recorded event carries ``buckets=k`` and ``strided=True`` so the
  performance model charges ``k`` launches.  This is the only schedule:
  there is no per-block or pad-to-bucket alternative.
* Buckets execute one after another on the calling thread.  Each logical
  launch records ONE event with analytic totals, computed per bucket
  rather than per block.  Within a bucket the dispatch constants of
  :mod:`repro.backends.dispatch` only choose how the NumPy emulation
  executes it (one vectorised call over packed storage, or a tight
  per-problem LAPACK loop); the launch count is the same either way.
  :func:`getrf_stack` / :func:`getrs_stack` hold that choice for LU
  buckets, shared by :func:`getrf_batched` / :func:`getrs_batched` and the
  compiled factor plan.
* All array arithmetic goes through the ``backend=`` argument, an
  :class:`~repro.backends.dispatch.ArrayBackend` (NumPy by default), which
  is the seam where real GPU backends (CuPy) plug in.
* LU factorization uses partial pivoting by default; ``pivot=False``
  emulates the paper's discussion of the non-pivoted variants of
  equation (9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .counters import (
    KernelEvent,
    gemm_flops,
    geqrf_flops,
    gesvd_flops,
    getrf_flops,
    getrs_flops,
    record_event,
)
from .dispatch import (
    ArrayBackend,
    get_backend,
    pack_gemm_bucket,
    plan_batch,
    vectorize_lu_factor,
    vectorize_lu_solve,
)

ArrayBatch = Union[np.ndarray, Sequence[np.ndarray]]


def _is_strided(batch: ArrayBatch) -> bool:
    return hasattr(batch, "ndim") and batch.ndim == 3


def _elem_dtype(x) -> np.dtype:
    """Dtype of one batch member without forcing a host conversion."""
    dt = getattr(x, "dtype", None)
    return np.dtype(dt) if dt is not None else np.asarray(x).dtype  # repro-lint: ignore[RL001] -- dtype probe on list-of-arrays input; no device data touched


def _is_complex(dtype: np.dtype) -> bool:
    return np.issubdtype(dtype, np.complexfloating)


def _batch_len(batch: ArrayBatch) -> int:
    if _is_strided(batch):
        return batch.shape[0]
    return len(batch)


# ----------------------------------------------------------------------
# gemm
# ----------------------------------------------------------------------
def _gemm_block(Ai, Bi, Ci, alpha, beta, transpose_a, conjugate_a):
    """One pointer-array gemm: the per-block generic path."""
    if transpose_a or conjugate_a:
        op_a = Ai.conj().T if conjugate_a else Ai.T
    else:
        op_a = Ai
    out = alpha * (op_a @ Bi)
    if Ci is not None and beta != 0.0:
        out = out + beta * Ci
    return out


def _gemm_accounting(Ai, Bi, out, cplx):
    """(m, n, k), flops, bytes for one gemm block, paper conventions."""
    m = out.shape[0]
    n = out.shape[1] if out.ndim == 2 else 1
    k = Bi.shape[0] if Bi.ndim >= 1 else 0
    flops = gemm_flops(m, n, k, cplx)
    nbytes = float((Ai.size + Bi.size + out.size) * out.dtype.itemsize)
    return (m, n, k), flops, nbytes


def gemm_batched(
    A: ArrayBatch,
    B: ArrayBatch,
    C: Optional[ArrayBatch] = None,
    alpha: float = 1.0,
    beta: float = 0.0,
    transpose_a: bool = False,
    conjugate_a: bool = False,
    backend: Optional[ArrayBackend] = None,
) -> List[np.ndarray]:
    """Pointer-array batched GEMM: ``C[i] = alpha * op(A[i]) @ B[i] + beta * C[i]``.

    ``op`` is identity, transpose, or conjugate transpose depending on
    ``transpose_a`` / ``conjugate_a`` (the HODLR algorithms only ever
    transpose the first operand, the ``V`` bases).

    Blocks sharing a shape are grouped into buckets and executed with one
    strided ``matmul`` per bucket (see module docstring); the returned list
    is in submission order regardless of bucketing.
    """
    nbatch = _batch_len(A)
    if _batch_len(B) != nbatch:
        raise ValueError("A and B batches must have the same length")
    if C is not None and _batch_len(C) != nbatch:
        raise ValueError("C batch must match A/B length")
    if nbatch == 0:
        return []

    xb = backend or get_backend()
    results: List[Optional[np.ndarray]] = [None] * nbatch
    total_flops = 0.0
    total_bytes = 0.0
    shape_rep: Tuple[int, int, int] = (0, 0, 0)

    plan = plan_batch([(np.shape(A[i]), np.shape(B[i])) for i in range(nbatch)])
    # accounting is analytic per bucket (shapes are uniform within a bucket):
    # no per-block Python bookkeeping on the fast path
    dtype = np.result_type(
        *[_elem_dtype(A[b.indices[0]]) for b in plan.buckets],
        *[_elem_dtype(B[b.indices[0]]) for b in plan.buckets],
    )
    cplx = _is_complex(dtype)
    itemsize = np.dtype(dtype).itemsize
    rep_size = -1
    for bucket in plan.buckets:
        idx = bucket.indices
        shape_a, shape_b = bucket.key
        if transpose_a or conjugate_a:
            m, k = shape_a[1], shape_a[0]
        else:
            m, k = shape_a
        n = shape_b[1] if len(shape_b) == 2 else 1
        a_elements = shape_a[0] * shape_a[1]
        b_elements = shape_b[0] * n if len(shape_b) == 2 else shape_b[0]
        if pack_gemm_bucket(len(idx), a_elements, b_elements):
            A3 = xb.stack([A[i] for i in idx])
            B3 = xb.stack([B[i] for i in idx])
            vector_rhs = B3.ndim == 2  # bucket of 1-D right-hand sides
            if vector_rhs:
                B3 = B3[:, :, None]
            if transpose_a or conjugate_a:
                opA3 = A3.transpose(0, 2, 1)
                if conjugate_a:
                    opA3 = opA3.conj()
            else:
                opA3 = A3
            out3 = alpha * xb.matmul(opA3, B3)
            if C is not None and beta != 0.0:
                C3 = xb.stack([C[i] for i in idx])
                out3 = out3 + beta * (C3[:, :, None] if C3.ndim == 2 else C3)
            for j, i in enumerate(idx):
                results[i] = out3[j, :, 0] if vector_rhs else out3[j]
        else:
            # blocks too large to amortise the pack copy (or a singleton
            # bucket): tight per-problem execution, still one planned launch
            _gemm_loose(idx, A, B, C, alpha, beta, transpose_a, conjugate_a, xb, results)
        total_flops += len(idx) * gemm_flops(m, n, k, cplx)
        total_bytes += float(len(idx) * (a_elements + b_elements + m * n) * itemsize)
        if len(idx) > rep_size:
            rep_size = len(idx)
            shape_rep = (m, n, k)
    _record_gemm(nbatch, shape_rep, total_flops, total_bytes, dtype,
                 strided=True, buckets=plan.num_buckets)
    return results  # type: ignore[return-value]


def _record_gemm(nbatch, shape_rep, flops, nbytes, dtype, strided, buckets):
    record_event(
        KernelEvent(
            kernel="gemm_batched",
            batch=nbatch,
            shape=shape_rep,
            flops=flops,
            bytes_moved=nbytes,
            dtype_size=np.dtype(dtype).itemsize,
            strided=strided,
            buckets=buckets,
        )
    )


def _gemm_loose(idx, A, B, C, alpha, beta, transpose_a, conjugate_a, xb, results):
    """Per-problem execution of one gemm bucket (no pack copy)."""
    for i in idx:
        Ci = xb.asarray(C[i]) if C is not None else None
        results[i] = _gemm_block(
            xb.asarray(A[i]), xb.asarray(B[i]), Ci, alpha, beta, transpose_a, conjugate_a
        )


def _storage_nbytes(a: np.ndarray) -> int:
    """Physical bytes behind an operand.

    A ``broadcast_to`` view (stride-0 batch axis — e.g. one test matrix
    shared by a whole sampling bucket) reports its *virtual* size through
    ``nbytes``; the traffic model should charge the actual storage once.
    """
    if isinstance(a, np.ndarray) and 0 in a.strides:
        return a.base.nbytes if a.base is not None else a.nbytes
    return a.nbytes


def gemm_strided_batched(
    A: np.ndarray,
    B: np.ndarray,
    C: Optional[np.ndarray] = None,
    alpha: float = 1.0,
    beta: float = 0.0,
    transpose_a: bool = False,
    conjugate_a: bool = False,
    backend: Optional[ArrayBackend] = None,
    plan: bool = False,
) -> np.ndarray:
    """Strided batched GEMM over 3-D operands (``batch x m x k`` etc.).

    This is the fast path the paper exploits when all low-rank bases at a
    level share the same shape (constant stride between consecutive
    problems).  Internally a single broadcasted ``matmul`` performs the
    whole batch.  ``plan=True`` marks the recorded event as a compiled-plan
    replay launch (see :class:`~repro.backends.counters.KernelEvent`).
    """
    if A.ndim != 3 or B.ndim != 3:
        raise ValueError("gemm_strided_batched expects 3-D operands")
    if A.shape[0] != B.shape[0]:
        raise ValueError("batch dimensions must agree")
    xb = backend or get_backend()

    if transpose_a or conjugate_a:
        opA = A.transpose(0, 2, 1).conj() if conjugate_a else A.transpose(0, 2, 1)
    else:
        opA = A
    out = alpha * xb.matmul(opA, B)
    if C is not None and beta != 0.0:
        out = out + beta * C

    nbatch, m, k = opA.shape
    n = B.shape[2]
    cplx = _is_complex(out.dtype)
    record_event(
        KernelEvent(
            kernel="gemm_strided_batched",
            batch=nbatch,
            shape=(m, n, k),
            flops=gemm_flops(m, n, k, cplx) * nbatch,
            bytes_moved=float(_storage_nbytes(A) + _storage_nbytes(B) + out.nbytes),
            dtype_size=out.dtype.itemsize,
            strided=True,
            plan=plan,
        )
    )
    return out


# ----------------------------------------------------------------------
# QR / SVD (batched construction kernels)
# ----------------------------------------------------------------------
def qr_batched(
    A: np.ndarray,
    backend: Optional[ArrayBackend] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Strided batched thin QR (cuSOLVER ``geqrfBatched`` + ``orgqr``).

    ``A`` is ``(batch, m, n)``; returns ``(Q, R)`` with ``Q`` of shape
    ``(batch, m, k)`` and ``R`` of shape ``(batch, k, n)``, ``k = min(m, n)``.
    One launch for the whole uniform batch — the construction stage packs
    heterogeneous levels into shape buckets before calling this.
    """
    if A.ndim != 3:
        raise ValueError("qr_batched expects a 3-D strided batch")
    xb = backend or get_backend()
    Q, R = xb.qr_batch(A)
    nbatch, m, n = A.shape
    cplx = _is_complex(A.dtype)
    record_event(
        KernelEvent(
            kernel="geqrf_batched",
            batch=nbatch,
            shape=(m, n, 0),
            flops=geqrf_flops(m, n, cplx) * nbatch,
            bytes_moved=float(A.nbytes + Q.nbytes + R.nbytes),
            dtype_size=A.dtype.itemsize,
            strided=True,
        )
    )
    return Q, R


def svd_batched(
    A: np.ndarray,
    backend: Optional[ArrayBackend] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strided batched economy SVD (cuSOLVER ``gesvdjBatched``).

    ``A`` is ``(batch, m, n)``; returns ``(U, s, Vh)`` in the
    ``full_matrices=False`` convention, one launch per uniform batch.
    """
    if A.ndim != 3:
        raise ValueError("svd_batched expects a 3-D strided batch")
    xb = backend or get_backend()
    U, s, Vh = xb.svd_batch(A)
    nbatch, m, n = A.shape
    cplx = _is_complex(A.dtype)
    record_event(
        KernelEvent(
            kernel="gesvd_batched",
            batch=nbatch,
            shape=(m, n, 0),
            flops=gesvd_flops(m, n, cplx) * nbatch,
            bytes_moved=float(A.nbytes + U.nbytes + s.nbytes + Vh.nbytes),
            dtype_size=A.dtype.itemsize,
            strided=True,
        )
    )
    return U, s, Vh


# ----------------------------------------------------------------------
# LU factorization / solve
# ----------------------------------------------------------------------
@dataclass
class BatchedLU:
    """Factorizations produced by :func:`getrf_batched`.

    Attributes
    ----------
    lu:
        List of packed LU factors, one per problem (as returned by
        ``scipy.linalg.lu_factor``).
    piv:
        List of pivot index arrays (empty arrays when ``pivot=False``).
    pivot:
        Whether partial pivoting was applied.
    """

    lu: List[np.ndarray]
    piv: List[np.ndarray]
    pivot: bool = True

    def __len__(self) -> int:
        return len(self.lu)

    @property
    def nbytes(self) -> int:
        return int(sum(m.nbytes for m in self.lu) + sum(p.nbytes for p in self.piv))

    def logdet(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return per-problem ``(sign, log|det|)`` from the stored factors."""
        signs = np.empty(len(self.lu), dtype=complex if _is_complex(self.lu[0].dtype) else float)  # repro-lint: ignore[RL001] -- host-side logdet analysis on downloaded factors
        logs = np.empty(len(self.lu), dtype=float)  # repro-lint: ignore[RL001] -- host-side logdet analysis on downloaded factors
        for i, (lu, piv) in enumerate(zip(self.lu, self.piv)):
            diag = np.diag(lu)  # repro-lint: ignore[RL001] -- host-side logdet analysis on downloaded factors
            logs[i] = float(np.sum(np.log(np.abs(diag))))
            sign = np.prod(diag / np.abs(diag)) if diag.size else 1.0
            if self.pivot and piv.size:
                # each row swap flips the determinant sign
                nswaps = int(np.sum(piv != np.arange(piv.size)))  # repro-lint: ignore[RL001] -- pivot-swap count over host pivot metadata
                sign = sign * ((-1.0) ** nswaps)
            signs[i] = sign
        return signs, logs


def getrf_stack(xb: ArrayBackend, A3, pivot: bool = True):
    """LU-factorize one packed ``(nb, n, n)`` shape bucket.

    The one execution body of an LU-factorization bucket, shared by
    :func:`getrf_batched` and the compiled factor plan: the vectorised
    batched elimination when :func:`~repro.backends.dispatch.
    vectorize_lu_factor` says so, blocked per-problem LAPACK otherwise.
    Returns ``(lu3, piv3)`` with full-length int64 pivots (``arange`` rows
    for the non-pivoted path), so downstream code never branches on pivot
    storage.  Records no event: each caller accounts for its own launch.
    """
    nb, n = A3.shape[0], A3.shape[1]
    if vectorize_lu_factor(nb, n):
        lu3, piv3 = xb.lu_factor_batch(A3, pivot=pivot)
        return lu3, np.asarray(piv3, dtype=np.int64)
    lu3 = xb.zeros(A3.shape, dtype=A3.dtype)
    piv3 = np.zeros((nb, n), dtype=np.int64)
    base = np.arange(n, dtype=np.int64)
    for i in range(nb):
        lu, piv = xb.lu_factor(A3[i], pivot=pivot)
        lu3[i] = lu
        piv3[i] = piv if (pivot and np.size(piv) == n) else base
    return lu3, piv3


def getrs_stack(xb: ArrayBackend, lu3, piv3, rhs3, pivot: bool = True):
    """Solve one packed ``(nb, n, nrhs)`` right-hand-side stack.

    The one execution body of an LU-solve bucket, shared by
    :func:`getrs_batched` and the compiled solve plan: the vectorised
    substitution when :func:`~repro.backends.dispatch.vectorize_lu_solve`
    says so, per-problem LAPACK otherwise.  The result carries the
    promoted dtype of ``lu3`` and ``rhs3``.  Records no event.
    """
    nb, n = rhs3.shape[0], rhs3.shape[1]
    out_dtype = np.result_type(lu3.dtype, rhs3.dtype)
    if rhs3.dtype != out_dtype:
        rhs3 = rhs3.astype(out_dtype)
    if vectorize_lu_solve(nb, n):
        return xb.lu_solve_batch(lu3, piv3, rhs3, pivot=pivot)
    many = getattr(xb, "lu_solve_many", None)
    if many is not None:
        return many(lu3, piv3, rhs3, pivot=pivot)
    x3 = xb.zeros(rhs3.shape, dtype=out_dtype)
    for i in range(nb):
        x3[i] = xb.lu_solve(lu3[i], piv3[i], rhs3[i], pivot=pivot)
    return x3


def getrf_batched(
    A: ArrayBatch,
    pivot: bool = True,
    backend: Optional[ArrayBackend] = None,
) -> BatchedLU:
    """Batched LU factorization (cuBLAS ``getrfBatched``).

    Parameters
    ----------
    A:
        Either a 3-D array of identically sized square matrices or a list of
        square matrices with possibly different sizes.  Equal-size matrices
        are packed and factorized by :func:`getrf_stack` (one launch per
        shape bucket).
    pivot:
        Apply partial pivoting (default).  The non-pivoted path exists to
        model the alternative formulations of equation (9) discussed in the
        paper, which trade pivoting for a right-hand-side shuffle.
    """
    nbatch = _batch_len(A)
    if nbatch == 0:
        return BatchedLU(lu=[], piv=[], pivot=pivot)
    xb = backend or get_backend()

    lus: List[Optional[np.ndarray]] = [None] * nbatch
    pivs: List[Optional[np.ndarray]] = [None] * nbatch
    total_flops = 0.0
    total_bytes = 0.0
    shape_rep = (0, 0, 0)
    empty_piv = np.empty(0, dtype=np.int64)

    plan = plan_batch([np.shape(A[i]) for i in range(nbatch)])
    for bucket in plan.buckets:
        if len(bucket.key) != 2 or bucket.key[0] != bucket.key[1]:
            raise ValueError("getrf_batched requires square matrices")
    dtype = np.result_type(*[_elem_dtype(A[b.indices[0]]) for b in plan.buckets])
    cplx = _is_complex(dtype)
    itemsize = np.dtype(dtype).itemsize
    rep_size = -1
    for bucket in plan.buckets:
        idx = bucket.indices
        n = bucket.key[0]
        lu3, piv3 = getrf_stack(xb, xb.stack([A[i] for i in idx]), pivot=pivot)
        for j, i in enumerate(idx):
            lus[i] = lu3[j]
            pivs[i] = piv3[j] if pivot else empty_piv
        total_flops += len(idx) * getrf_flops(n, cplx)
        total_bytes += float(len(idx) * 2 * n * n * itemsize)
        if len(idx) > rep_size:
            rep_size = len(idx)
            shape_rep = (n, n, 0)
    _record_lu("getrf_batched", nbatch, shape_rep, total_flops, total_bytes,
               dtype, strided=True, buckets=plan.num_buckets)
    return BatchedLU(lu=lus, piv=pivs, pivot=pivot)  # type: ignore[arg-type]


def getrs_batched(
    factors: BatchedLU,
    B: ArrayBatch,
    backend: Optional[ArrayBackend] = None,
) -> List[np.ndarray]:
    """Batched LU solve (cuBLAS ``getrsBatched``): ``X[i] = A[i]^{-1} B[i]``.

    Problems whose factor size and right-hand-side shape coincide are packed
    and solved by :func:`getrs_stack` (one launch per shape bucket).
    """
    nbatch = len(factors)
    if _batch_len(B) != nbatch:
        raise ValueError("right-hand-side batch must match the factor batch")
    if nbatch == 0:
        return []
    xb = backend or get_backend()

    xs: List[Optional[np.ndarray]] = [None] * nbatch
    total_flops = 0.0
    total_bytes = 0.0
    shape_rep = (0, 0, 0)

    rhs2d: List[np.ndarray] = []
    squeeze: List[bool] = []
    for i in range(nbatch):
        Bi = xb.asarray(B[i])
        squeeze.append(Bi.ndim == 1)
        rhs2d.append(Bi if Bi.ndim == 2 else Bi.reshape(-1, 1))

    plan = plan_batch(
        [(factors.lu[i].shape[0], rhs2d[i].shape[1]) for i in range(nbatch)]
    )
    dtype = np.result_type(*[rhs2d[b.indices[0]].dtype for b in plan.buckets])
    cplx = _is_complex(dtype)
    rhs_itemsize = np.dtype(dtype).itemsize
    rep_size = -1
    for bucket in plan.buckets:
        idx = bucket.indices
        n, nrhs = bucket.key
        lu3 = xb.stack([factors.lu[i] for i in idx])
        piv3 = xb.stack([factors.piv[i] for i in idx])
        rhs3 = xb.stack([rhs2d[i] for i in idx])
        x3 = getrs_stack(xb, lu3, piv3, rhs3, pivot=factors.pivot)
        for j, i in enumerate(idx):
            xs[i] = x3[j].ravel() if squeeze[i] else x3[j]
        total_flops += len(idx) * getrs_flops(n, nrhs, cplx)
        total_bytes += float(len(idx) * (n * n * lu3.dtype.itemsize + 2 * n * nrhs * rhs_itemsize))
        if len(idx) > rep_size:
            rep_size = len(idx)
            shape_rep = (n, nrhs, 0)
    _record_lu("getrs_batched", nbatch, shape_rep, total_flops, total_bytes,
               dtype, strided=True, buckets=plan.num_buckets)
    return xs  # type: ignore[return-value]


def _record_lu(kernel, nbatch, shape_rep, flops, nbytes, dtype, strided, buckets):
    record_event(
        KernelEvent(
            kernel=kernel,
            batch=nbatch,
            shape=shape_rep,
            flops=flops,
            bytes_moved=nbytes,
            dtype_size=np.dtype(dtype).itemsize,
            strided=strided,
            buckets=buckets,
        )
    )
