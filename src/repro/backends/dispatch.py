"""Backend dispatch and shape-bucketed batch planning.

The paper's GPU schedule reduces the HODLR factorization and solve to four
batched BLAS/LAPACK kernels.  cuBLAS executes a *uniform* batch (all
problems the same shape) as a single strided kernel; a heterogeneous
pointer-array batch degrades to the slow generic path.  The seed emulation
in :mod:`repro.backends.batched` mirrored that degradation with a pure
Python loop — one NumPy call per block — which is exactly the schedule the
paper is designed to avoid.

This module turns the emulation layer into a real dispatch seam:

:class:`ArrayBackend`
    A protocol describing the array-level primitives the batched kernels
    need (``matmul`` over 3-D stacks, batched LU factorization and solve,
    host transfers).  :class:`NumpyBackend` is the default implementation;
    :class:`CupyBackend` registers the same interface behind an optional
    ``cupy`` import so a real GPU backend plugs in without touching the
    solver code.  Backends are looked up by name via :func:`get_backend`.

:class:`BatchPlanner` / :func:`plan_batch`
    Groups a heterogeneous pointer-array batch into *shape buckets*:
    maximal index sets whose operands share identical shapes.  Each bucket
    is packed into strided 3-D storage and executed with one vectorised
    ``matmul``/LU call, so a batch with ``k`` distinct shapes costs ``k``
    kernel launches instead of one Python iteration per block.
    :meth:`BatchPlanner.plan_padded` additionally merges *near-equal*
    shapes into shared zero-padded buckets (opt-in via
    ``DispatchPolicy(pad_buckets=True)``), so trees with many singleton
    shapes stop degenerating into per-block launches.

:class:`DispatchPolicy`
    Tunables deciding when bucketing and the vectorised batched LU are
    profitable (bucket size thresholds, maximum per-problem LU size).

The planner is deliberately independent of the execution layer: it only
sees shape keys, so it is reusable for any batched primitive (and is unit
tested on bare tuples in ``tests/test_dispatch.py``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np
from scipy import linalg as sla


class BackendUnavailableError(RuntimeError):
    """Raised when a registered backend's runtime dependency is missing."""


# ======================================================================
# shape-bucketed batch planning
# ======================================================================
@dataclass(frozen=True)
class ShapeBucket:
    """A maximal subset of a batch whose problems share one shape key.

    Attributes
    ----------
    key:
        The hashable shape descriptor shared by every member (e.g.
        ``(A_i.shape, B_i.shape)`` for a gemm batch, ``n`` for an LU batch).
    indices:
        Positions of the members in the original batch, in submission
        order.  Results are scattered back to these positions so bucketed
        execution is invisible to the caller.
    """

    key: Hashable
    indices: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class BatchPlan:
    """The bucket decomposition of one heterogeneous batch."""

    buckets: Tuple[ShapeBucket, ...]
    nbatch: int

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)

    @property
    def max_bucket(self) -> int:
        return max((len(b) for b in self.buckets), default=0)

    def packed_buckets(self, min_bucket: int = 2) -> List[ShapeBucket]:
        """Buckets large enough to be packed into strided storage."""
        return [b for b in self.buckets if len(b) >= min_bucket]


class BatchPlanner:
    """Groups batch members into uniform shape buckets.

    Grouping preserves first-occurrence order of the keys and submission
    order within each bucket, so plans are deterministic and the scattered
    results are bit-for-bit reproducible across runs.
    """

    def plan(self, keys: Sequence[Hashable]) -> BatchPlan:
        groups: Dict[Hashable, List[int]] = {}
        for i, key in enumerate(keys):
            groups.setdefault(key, []).append(i)
        buckets = tuple(
            ShapeBucket(key=key, indices=tuple(idx)) for key, idx in groups.items()
        )
        return BatchPlan(buckets=buckets, nbatch=len(keys))

    def plan_padded(
        self, shapes: Sequence[Tuple[int, ...]], max_waste: float = 0.25
    ) -> BatchPlan:
        """Group integer shape tuples, merging near-equal shapes by padding.

        Unlike :meth:`plan` the keys must be tuples of non-negative ints (a
        per-member dimension vector).  Exact-shape groups are formed first;
        groups are then greedily merged — largest first — into a *target*
        shape (the dimension-wise maximum) whenever every member's padding
        waste ``1 - prod(shape) / prod(target)`` stays at or below
        ``max_waste``.  The returned bucket ``key`` is the target shape;
        members may be smaller and must be zero-padded to it by the
        executor.  Adaptive-rank trees, whose levels produce many singleton
        shapes differing by a column or two, collapse from one launch per
        block to one launch per padded bucket.
        """
        exact = self.plan(shapes)
        if max_waste <= 0.0 or exact.num_buckets <= 1:
            return exact

        def _volume(shape: Tuple[int, ...]) -> int:
            v = 1
            for d in shape:
                v *= int(d)
            return v

        # largest shapes first, ties broken by first occurrence for determinism
        order = sorted(
            range(exact.num_buckets),
            key=lambda i: (-_volume(exact.buckets[i].key), exact.buckets[i].indices[0]),
        )
        groups: List[Tuple[Tuple[int, ...], List[ShapeBucket]]] = []
        for i in order:
            bucket = exact.buckets[i]
            shape = bucket.key
            vol = _volume(shape)
            placed = False
            for g, (target, members) in enumerate(groups):
                if len(shape) != len(target):
                    continue
                if any(d > t for d, t in zip(shape, target)):
                    continue
                tvol = _volume(target)
                if tvol and 1.0 - vol / tvol <= max_waste:
                    members.append(bucket)
                    placed = True
                    break
            if not placed:
                groups.append((shape, [bucket]))

        merged = []
        for target, members in groups:
            indices: List[int] = []
            for b in members:
                indices.extend(b.indices)
            indices.sort()
            merged.append(ShapeBucket(key=target, indices=tuple(indices)))
        # deterministic output order: by first member, like plan()
        merged.sort(key=lambda b: b.indices[0])
        return BatchPlan(buckets=tuple(merged), nbatch=len(shapes))


def pad_identity_stack(xb, blocks, width: int, dtype):
    """Pack square blocks into ``(nb, width, width)`` with identity borders.

    The padded problem is ``blkdiag(A_i, I)``: LU factorization never
    pivots across the border (border rows are zero in every ``A`` column),
    the leading sub-block of the padded factor is the exact factor of
    ``A_i``, and padded right-hand-side rows solve against the identity —
    so the padding is exact for both ``getrf`` and ``getrs``.  This is the
    single implementation shared by the padded LU executors and the
    compiled factor plans.
    """
    out = xb.zeros((len(blocks), width, width), dtype=dtype)
    for j, blk in enumerate(blocks):
        m = blk.shape[0]
        out[j, :m, :m] = blk
        if m < width:
            out[j, m:, m:] = xb.eye(width - m, dtype=dtype)
    return out


def pad_pivot_stack(pivs, sizes: Sequence[int], width: int) -> np.ndarray:
    """``(nb, width)`` pivot stack matching :func:`pad_identity_stack`.

    Each row carries the member's pivots (``arange`` when the member has
    none, e.g. non-pivoted factors) followed by identity-border pivots
    ``m..width-1`` (the border never swaps rows).
    """
    out = np.zeros((len(pivs), width), dtype=np.int64)
    for j, (piv, m) in enumerate(zip(pivs, sizes)):
        out[j, :m] = piv if np.size(piv) == m else np.arange(m)
        if m < width:
            out[j, m:] = np.arange(m, width)
    return out


_PLANNER = BatchPlanner()


def plan_batch(keys: Sequence[Hashable]) -> BatchPlan:
    """Plan a batch with the module-level :class:`BatchPlanner`."""
    return _PLANNER.plan(keys)


def plan_batch_padded(
    shapes: Sequence[Tuple[int, ...]], max_waste: float = 0.25
) -> BatchPlan:
    """Pad-merging plan via the module-level :class:`BatchPlanner`."""
    return _PLANNER.plan_padded(shapes, max_waste=max_waste)


# ======================================================================
# dispatch policy
# ======================================================================
@dataclass(frozen=True)
class DispatchPolicy:
    """Tunables for the bucketed batch dispatch.

    Bucketing is a *schedule* decision: a planned call always costs one
    launch per shape bucket (recorded in the kernel event).  Within a
    bucket the NumPy emulation additionally chooses the fastest host
    execution — packed strided storage plus one vectorised call, or a tight
    per-problem LAPACK loop — using the measured crossovers below (a real
    GPU backend executes every bucket as one batched kernel regardless, so
    these thresholds only matter for the CPU emulation's wall clock).

    The class defaults are *fallback* constants measured once on one
    development machine.  :mod:`repro.backends.calibration` measures the
    real crossovers of the current host and derives a policy from them;
    request it with ``ExecutionContext(policy="auto")`` or
    ``repro.solve(..., tuning="auto")``.

    Parameters
    ----------
    bucketing:
        Group pointer-array batches into shape buckets.  ``False``
        reproduces the seed behaviour — the generic per-block Python loop
        with per-block accounting — and exists so the benchmarks can
        measure the improvement against it.
    min_bucket:
        Smallest bucket considered for packed execution; smaller buckets
        execute as individual calls (a strided batch of one is just a
        plain kernel).
    gemm_pack_max_elements:
        Largest per-block operand (entry count) that is packed into
        strided 3-D storage for a single broadcast ``matmul``.  Above this
        the pack copy costs more than the per-call overhead it saves and
        the bucket runs as a tight loop (measured crossover ~48x48 blocks
        on OpenBLAS).
    lu_vectorize:
        Allow the vectorised batched LU kernels at all.
    lu_factor_max_n / lu_factor_min_batch:
        Use the vectorised batched elimination for a factorization bucket
        only when the blocks are at most ``lu_factor_max_n`` wide and the
        bucket has at least ``lu_factor_min_batch`` problems; otherwise
        blocked per-problem LAPACK wins (the Python-level elimination
        costs O(n) interpreter steps and rank-1 updates instead of BLAS-3).
    lu_solve_max_n / lu_solve_min_batch_ratio:
        Use the vectorised batched substitution for a solve bucket when
        ``n <= lu_solve_max_n`` and ``batch >= ratio * n`` (substitution
        vectorises better than elimination: each of the O(n) steps is one
        batched matmul).
    pad_buckets / pad_max_waste:
        Opt-in pad-to-bucket packing: near-equal shapes are merged into
        one padded bucket when every member wastes at most
        ``pad_max_waste`` of the padded volume.  Adaptive-rank trees
        produce many singleton shapes (ranks differing by a column or two
        per node) that otherwise degenerate into per-block launches; with
        padding they execute as one strided kernel per merged bucket.
        Gemm batches zero-pad (exact: padded rows/columns contribute zeros
        that are sliced away).  LU batches (``getrf_batched``/
        ``getrs_batched`` and the compiled
        :class:`~repro.core.factor_plan.FactorPlan` buckets) pad with an
        **identity border** — the padded problem is ``blkdiag(A, I)``, so
        partial pivoting never crosses the border, the leading sub-block
        of the padded factor is the exact factor of ``A``, and padded
        right-hand-side rows solve against the appended identity — also
        exact.
    """

    bucketing: bool = True
    min_bucket: int = 2
    gemm_pack_max_elements: int = 2048
    lu_vectorize: bool = True
    lu_factor_max_n: int = 12
    lu_factor_min_batch: int = 24
    lu_solve_max_n: int = 48
    lu_solve_min_batch_ratio: float = 4.0
    pad_buckets: bool = False
    pad_max_waste: float = 0.25

    def replace(self, **changes) -> "DispatchPolicy":
        """A copy with the given tunables replaced (the policy is frozen)."""
        from dataclasses import replace as _replace

        return _replace(self, **changes)

    def pack_gemm_bucket(self, nblocks: int, a_elements: int, b_elements: int) -> bool:
        """Should a gemm bucket be packed into strided storage?"""
        return (
            nblocks >= self.min_bucket
            and max(a_elements, b_elements) <= self.gemm_pack_max_elements
        )

    def vectorize_lu_factor(self, nblocks: int, n: int) -> bool:
        """Should a factorization bucket use the vectorised batched LU?"""
        return (
            self.lu_vectorize
            and nblocks >= max(self.min_bucket, self.lu_factor_min_batch)
            and n <= self.lu_factor_max_n
        )

    def vectorize_lu_solve(self, nblocks: int, n: int) -> bool:
        """Should a solve bucket use the vectorised batched substitution?"""
        return (
            self.lu_vectorize
            and nblocks >= self.min_bucket
            and n <= self.lu_solve_max_n
            and nblocks >= self.lu_solve_min_batch_ratio * max(n, 1)
        )


#: default policy used by the batched primitives
DEFAULT_POLICY = DispatchPolicy()

#: seed-equivalent policy: pure per-block Python loop, no bucketing
LOOP_POLICY = DispatchPolicy(bucketing=False, lu_vectorize=False)


# ======================================================================
# vectorised batched LU kernels (generic over the array module)
# ======================================================================
def lu_factor_nopivot(a: np.ndarray) -> np.ndarray:
    """Doolittle LU without pivoting, packed into a single matrix."""
    a = np.array(a, copy=True)
    n = a.shape[0]
    for k in range(n - 1):
        pivot_val = a[k, k]
        if pivot_val == 0:
            raise np.linalg.LinAlgError("zero pivot encountered in non-pivoted LU")
        a[k + 1 :, k] /= pivot_val
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
    return a


def lu_solve_nopivot(lu: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triangular substitution against a packed non-pivoted LU factor."""
    y = sla.solve_triangular(lu, b, lower=True, unit_diagonal=True)
    return sla.solve_triangular(lu, y, lower=False)


def _lu_factor_batch(xp, a, pivot: bool = True):
    """Vectorised right-looking LU over the leading batch axis.

    ``a`` is ``(batch, n, n)``; returns ``(lu, piv)`` where ``lu`` packs the
    unit-lower and upper factors per problem and ``piv`` holds LAPACK-style
    0-based row-swap indices (``piv[:, k]`` is the row exchanged with row
    ``k`` at step ``k``), so individual problems interoperate with
    ``scipy.linalg.lu_solve``.  Each elimination step operates on the whole
    batch at once: the Python-level loop is O(n), not O(batch * n).
    """
    a = xp.array(a, copy=True)
    nbatch, n, _ = a.shape
    piv = xp.zeros((nbatch, n), dtype=np.int64)
    bi = xp.arange(nbatch)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n):
            if pivot:
                p = k + xp.argmax(xp.abs(a[:, k:, k]), axis=1)
                piv[:, k] = p
                rows_k = a[bi, k, :].copy()
                a[bi, k, :] = a[bi, p, :]
                a[bi, p, :] = rows_k
            else:
                piv[:, k] = k
            pivot_val = a[:, k, k]
            if k + 1 < n:
                # a zero *final* pivot is tolerated, matching the per-problem
                # lu_factor_nopivot (which only eliminates the first n-1 columns)
                if not pivot and bool(xp.any(pivot_val == 0)):
                    raise np.linalg.LinAlgError("zero pivot encountered in non-pivoted LU")
                a[:, k + 1 :, k] /= pivot_val[:, None]
                a[:, k + 1 :, k + 1 :] -= a[:, k + 1 :, k, None] * a[:, k, None, k + 1 :]
    return a, piv


def _lu_solve_batch(xp, lu, piv, b, pivot: bool = True):
    """Vectorised substitution for a batch of packed LU factors.

    ``lu`` is ``(batch, n, n)``, ``piv`` is ``(batch, n)`` (ignored when
    ``pivot=False``), ``b`` is ``(batch, n, nrhs)``.  Row substitutions are
    expressed as tiny batched matmuls so each of the O(n) steps is one
    vectorised kernel over the whole batch.
    """
    x = xp.array(b, copy=True)
    nbatch, n, _ = x.shape
    bi = xp.arange(nbatch)
    if pivot and n:
        for k in range(n):
            p = piv[:, k]
            rows_k = x[bi, k, :].copy()
            x[bi, k, :] = x[bi, p, :]
            x[bi, p, :] = rows_k
    # forward substitution with the unit-lower factor
    for i in range(1, n):
        x[:, i, :] -= (lu[:, i : i + 1, :i] @ x[:, :i, :])[:, 0, :]
    # back substitution with the upper factor
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[:, i, :] -= (lu[:, i : i + 1, i + 1 :] @ x[:, i + 1 :, :])[:, 0, :]
        x[:, i, :] /= lu[:, i, i][:, None]
    return x


# ======================================================================
# ArrayBackend protocol and implementations
# ======================================================================
@runtime_checkable
class ArrayBackend(Protocol):
    """Array-level primitives the batched kernels are written against.

    A backend owns one array library (NumPy, CuPy, ...) and provides the
    handful of operations the dispatch layer needs.  Everything above this
    seam — bucketing, kernel-event accounting, the factorization schedules
    — is backend agnostic.
    """

    name: str

    def asarray(self, x: Any) -> Any: ...

    def stack(self, xs: Sequence[Any]) -> Any: ...

    def concat(self, xs: Sequence[Any], axis: int = 0) -> Any: ...

    def zeros(self, shape: Tuple[int, ...], dtype: Any = np.float64) -> Any: ...

    def eye(self, n: int, dtype: Any = np.float64) -> Any: ...

    def broadcast_to(self, x: Any, shape: Tuple[int, ...]) -> Any: ...

    def matmul(self, a: Any, b: Any) -> Any: ...

    def norm(self, x: Any) -> float: ...

    def lu_factor(self, a: Any, pivot: bool = True) -> Tuple[Any, Any]: ...

    def lu_solve(self, lu: Any, piv: Any, b: Any, pivot: bool = True) -> Any: ...

    def lu_factor_batch(self, a: Any, pivot: bool = True) -> Tuple[Any, Any]: ...

    def lu_solve_batch(self, lu: Any, piv: Any, b: Any, pivot: bool = True) -> Any: ...

    def qr_batch(self, a: Any) -> Tuple[Any, Any]: ...

    def svd_batch(self, a: Any) -> Tuple[Any, Any, Any]: ...

    def to_host(self, x: Any) -> np.ndarray: ...

    def from_host(self, x: Any) -> Any: ...

    def synchronize(self) -> None: ...


class NumpyBackend:
    """Default CPU backend: NumPy arrays, LAPACK via SciPy for 2-D LU."""

    name = "numpy"

    def asarray(self, x):
        return np.asarray(x)

    def stack(self, xs):
        # np.asarray on a list of equal-shape arrays packs in one C-level
        # pass and is measurably faster than np.stack for many small blocks
        return np.asarray(xs if isinstance(xs, list) else list(xs))

    def concat(self, xs, axis: int = 0):
        return np.concatenate(list(xs), axis=axis)

    def zeros(self, shape, dtype=np.float64):
        return np.zeros(shape, dtype=dtype)

    def eye(self, n: int, dtype=np.float64):
        return np.eye(n, dtype=dtype)

    def broadcast_to(self, x, shape):
        return np.broadcast_to(x, shape)

    def matmul(self, a, b):
        return np.matmul(a, b)

    def norm(self, x):
        return np.linalg.norm(x)

    def lu_factor(self, a, pivot: bool = True):
        if pivot:
            return sla.lu_factor(a, check_finite=False)
        return lu_factor_nopivot(a), np.empty(0, dtype=np.int64)

    def lu_solve(self, lu, piv, b, pivot: bool = True):
        if pivot:
            return sla.lu_solve((lu, piv), b, check_finite=False)
        return lu_solve_nopivot(lu, b)

    def lu_factor_batch(self, a, pivot: bool = True):
        return _lu_factor_batch(np, np.asarray(a), pivot=pivot)

    def lu_solve_batch(self, lu, piv, b, pivot: bool = True):
        return _lu_solve_batch(np, np.asarray(lu), piv, np.asarray(b), pivot=pivot)

    def lu_solve_many(self, lu3, piv3, rhs3, pivot: bool = True):
        """Per-problem substitution over a packed ``(nb, n, n)`` LU stack.

        Semantically a loop of :meth:`lu_solve`, but bound once to the raw
        LAPACK ``getrs`` routine: the compiled solve plans replay this on
        every right-hand side, and scipy's per-call ``lu_solve`` wrapper
        (argument checking, function lookup) costs several times the actual
        n≈64 substitution.  Optional protocol method — backends without it
        fall back to the ``lu_solve`` loop.
        """
        out_dtype = np.result_type(lu3.dtype, rhs3.dtype)
        lu3 = np.asarray(lu3, dtype=out_dtype)
        rhs3 = np.asarray(rhs3, dtype=out_dtype)
        out = np.empty(rhs3.shape, dtype=out_dtype)
        if not pivot:
            for i in range(lu3.shape[0]):
                out[i] = lu_solve_nopivot(lu3[i], rhs3[i])
            return out
        if lu3.shape[0] == 0 or lu3.shape[1] == 0:
            return out
        getrs, = sla.get_lapack_funcs(("getrs",), (lu3, rhs3))
        for i in range(lu3.shape[0]):
            x, info = getrs(lu3[i], piv3[i], rhs3[i])
            if info != 0:  # pragma: no cover - defensive
                raise np.linalg.LinAlgError(f"getrs failed with info={info}")
            out[i] = x
        return out

    def qr_batch(self, a):
        # NumPy's qr vectorises over leading batch axes (one LAPACK call per
        # problem at C level, no Python-loop bookkeeping per block)
        return np.linalg.qr(np.asarray(a))

    def svd_batch(self, a):
        return np.linalg.svd(np.asarray(a), full_matrices=False)

    def to_host(self, x) -> np.ndarray:
        return np.asarray(x)

    def from_host(self, x):
        return np.asarray(x)

    def synchronize(self) -> None:
        return None


class CupyBackend:
    """GPU backend behind an optional ``cupy`` import.

    The batched kernels are expressed through the same vectorised helpers
    as the NumPy backend, so registering this class is all that is needed
    for the compiled factorization plan to run on a CUDA device.  Constructing
    it without ``cupy`` installed raises :class:`BackendUnavailableError`;
    the registry treats that as "not available" rather than an error.
    """

    name = "cupy"

    def __init__(self) -> None:
        try:
            import cupy  # noqa: F401 - optional dependency probed at runtime
        except ImportError as exc:  # pragma: no cover - exercised without cupy only
            raise BackendUnavailableError(
                "the 'cupy' backend requires the cupy package (pip install cupy-cuda12x)"
            ) from exc
        self._cp = cupy

    # everything below runs only when cupy imports, i.e. on a CUDA machine
    def asarray(self, x):  # pragma: no cover - requires cupy
        return self._cp.asarray(x)

    def stack(self, xs):  # pragma: no cover - requires cupy
        return self._cp.stack([self._cp.asarray(x) for x in xs])

    def concat(self, xs, axis: int = 0):  # pragma: no cover - requires cupy
        return self._cp.concatenate([self._cp.asarray(x) for x in xs], axis=axis)

    def zeros(self, shape, dtype=np.float64):  # pragma: no cover - requires cupy
        return self._cp.zeros(shape, dtype=dtype)

    def eye(self, n: int, dtype=np.float64):  # pragma: no cover - requires cupy
        return self._cp.eye(n, dtype=dtype)

    def broadcast_to(self, x, shape):  # pragma: no cover - requires cupy
        return self._cp.broadcast_to(self._cp.asarray(x), shape)

    def matmul(self, a, b):  # pragma: no cover - requires cupy
        return self._cp.matmul(a, b)

    def norm(self, x):  # pragma: no cover - requires cupy
        return self._cp.linalg.norm(x)

    def lu_factor(self, a, pivot: bool = True):  # pragma: no cover - requires cupy
        lu, piv = self.lu_factor_batch(self._cp.asarray(a)[None], pivot=pivot)
        return lu[0], (piv[0] if pivot else self._cp.zeros(0, dtype=np.int64))

    def lu_solve(self, lu, piv, b, pivot: bool = True):  # pragma: no cover - requires cupy
        b = self._cp.asarray(b)
        squeeze = b.ndim == 1
        rhs = b[:, None] if squeeze else b
        x = self.lu_solve_batch(lu[None], piv[None], rhs[None], pivot=pivot)[0]
        return x[:, 0] if squeeze else x

    def lu_factor_batch(self, a, pivot: bool = True):  # pragma: no cover - requires cupy
        return _lu_factor_batch(self._cp, self._cp.asarray(a), pivot=pivot)

    def lu_solve_batch(self, lu, piv, b, pivot: bool = True):  # pragma: no cover - requires cupy
        return _lu_solve_batch(self._cp, self._cp.asarray(lu), piv, self._cp.asarray(b), pivot=pivot)

    def qr_batch(self, a):  # pragma: no cover - requires cupy
        a = self._cp.asarray(a)
        try:
            return self._cp.linalg.qr(a)
        except Exception:
            # older cupy without batched qr: per-problem cuSOLVER calls
            qs, rs = zip(*(self._cp.linalg.qr(a[i]) for i in range(a.shape[0])))
            return self._cp.stack(qs), self._cp.stack(rs)

    def svd_batch(self, a):  # pragma: no cover - requires cupy
        return self._cp.linalg.svd(self._cp.asarray(a), full_matrices=False)

    def to_host(self, x) -> np.ndarray:  # pragma: no cover - requires cupy
        return self._cp.asnumpy(x)

    def from_host(self, x):  # pragma: no cover - requires cupy
        return self._cp.asarray(x)

    def synchronize(self) -> None:  # pragma: no cover - requires cupy
        self._cp.cuda.get_current_stream().synchronize()


# ======================================================================
# backend registry
# ======================================================================
#: guards the factory/instance dicts — registration and first-lookup
#: instantiation may now race with pool workers resolving backends
_REGISTRY_LOCK = threading.Lock()
_BACKEND_FACTORIES: Dict[str, Callable[[], ArrayBackend]] = {}
_BACKEND_INSTANCES: Dict[str, ArrayBackend] = {}


def register_backend(
    name: str, factory: Callable[[], ArrayBackend], overwrite: bool = False
) -> None:
    """Register an :class:`ArrayBackend` factory under ``name``.

    The factory is called lazily on the first :func:`get_backend` lookup; a
    factory may raise :class:`BackendUnavailableError` to signal a missing
    runtime dependency (the backend then shows as registered but not
    available).  Registration and lookup are thread-safe.
    """
    with _REGISTRY_LOCK:
        if not overwrite and name in _BACKEND_FACTORIES:
            raise ValueError(f"backend {name!r} is already registered")
        _BACKEND_FACTORIES[name] = factory
        _BACKEND_INSTANCES.pop(name, None)


def get_backend(name: str = "numpy") -> ArrayBackend:
    """Return the (cached) backend instance registered under ``name``.

    Thread-safe: concurrent first lookups of the same name instantiate the
    factory once (the lock is held across instantiation, which is cheap —
    backends bind module handles, they do not touch devices).
    """
    with _REGISTRY_LOCK:
        if name in _BACKEND_INSTANCES:
            return _BACKEND_INSTANCES[name]
        try:
            factory = _BACKEND_FACTORIES[name]
        except KeyError:
            raise KeyError(
                f"unknown array backend {name!r}; registered: "
                f"{sorted(_BACKEND_FACTORIES)}"
            ) from None
        instance = factory()
        _BACKEND_INSTANCES[name] = instance
        return instance


def registered_backends() -> List[str]:
    """Names of all registered backends (available or not)."""
    with _REGISTRY_LOCK:
        return sorted(_BACKEND_FACTORIES)


def available_backends() -> List[str]:
    """Names of registered backends whose runtime dependencies import."""
    out = []
    for name in registered_backends():
        try:
            get_backend(name)
        except BackendUnavailableError:
            continue
        out.append(name)
    return out


register_backend("numpy", NumpyBackend)
register_backend("cupy", CupyBackend)
