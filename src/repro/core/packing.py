"""Shared bucket-packing helpers for the compiled plans.

Both compiled plans — :class:`~repro.core.apply_plan.ApplyPlan` (the matvec
schedule) and :class:`~repro.core.factor_plan.FactorPlan` (the packed
factorization) — pack per-node blocks into per-level shape buckets of
strided 3-D storage and replay them with a handful of batched launches.
The packing mechanics they share live here:

* :func:`pack_stack` — stack equal-shape blocks through the array backend
  and cast to a (possibly precision-demoted) storage dtype;
* :func:`demote_rhs_dtype` — the dtype a right-hand side should carry into
  a demoted bucket's kernel (real storage meeting complex data picks the
  matching complex dtype);
* :class:`GatherScatter` — vectorised row gather/scatter between a big
  ``(n, k)`` array and a bucket's ``(nb, M, k)`` strided view, with an
  optional validity mask for members shorter than the bucket width: the
  factor plan's patch path packs clean leaves of mixed sizes under one
  dirty ancestor together, and masks out members whose rows it retired.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np


def demote_rhs_dtype(storage_dtype, x_dtype) -> np.dtype:
    """The dtype the right-hand side should carry into a bucket's kernel.

    The product runs at the bucket's (possibly demoted) precision: a float32
    bucket multiplies a float32 (or complex64) right-hand side so the kernel
    is genuinely half-traffic, instead of NumPy promoting the whole kernel
    back to float64.
    """
    storage_dtype = np.dtype(storage_dtype)
    x_dtype = np.dtype(x_dtype)
    if np.issubdtype(x_dtype, np.complexfloating) and storage_dtype.kind != "c":
        return (
            np.dtype("complex64")
            if storage_dtype.itemsize == 4
            else np.dtype("complex128")
        )
    return storage_dtype


def pack_stack(xb, members: Sequence, target_dtype) -> np.ndarray:
    """Stack equal-shape blocks through the backend and cast to ``target_dtype``."""
    stack = xb.stack(list(members))
    target = np.dtype(target_dtype)
    if stack.dtype != target:
        stack = stack.astype(target)
    return stack


class GatherScatter:
    """Vectorised row gather/scatter for one shape bucket.

    ``idx`` is the ``(nb, M)`` array of row indices of each member.  When a
    bucket holds members of *different* sizes (the patch path's mixed-size
    leaf groups and retired members), ``mask`` marks the valid rows: gathers zero the padded rows and
    scatters write only the valid ones (padded ``idx`` slots alias row 0
    and must never be written — an unmasked fancy scatter would collide).
    """

    __slots__ = ("idx", "mask", "_flat_idx", "_span")

    def __init__(self, idx: np.ndarray, mask: Optional[np.ndarray] = None) -> None:
        self.idx = idx
        self.mask = mask
        self._flat_idx = None if mask is None else idx[mask]
        # (start, stop) when the members are full-width and consecutive in
        # row order, so gathers/scatters reduce to one contiguous slice
        # copy instead of a per-row fancy gather (the common case on a
        # balanced tree); None otherwise
        self._span: Optional[Tuple[int, int]] = None

    @classmethod
    def from_ranges(cls, ranges: Sequence[Tuple[int, int]], width: int) -> "GatherScatter":
        """Build from contiguous ``(start, stop)`` row ranges padded to ``width``."""
        nb = len(ranges)
        idx = np.zeros((nb, width), dtype=np.intp)
        mask: Optional[np.ndarray] = None
        contiguous = True
        for j, (start, stop) in enumerate(ranges):
            m = stop - start
            idx[j, :m] = np.arange(start, stop, dtype=np.intp)
            if m < width or (j > 0 and start != ranges[j - 1][1]):
                contiguous = False
            if m < width:
                if mask is None:
                    mask = np.ones((nb, width), dtype=bool)
                mask[j, m:] = False
        gs = cls(idx, mask)
        if contiguous and nb:
            gs._span = (int(ranges[0][0]), int(ranges[-1][1]))
        return gs

    @classmethod
    def from_index_sets(cls, sets: Sequence[np.ndarray], width: int) -> "GatherScatter":
        """Build from explicit per-member row-index arrays padded to ``width``."""
        nb = len(sets)
        idx = np.zeros((nb, width), dtype=np.intp)
        mask: Optional[np.ndarray] = None
        for j, rows in enumerate(sets):
            m = rows.size
            idx[j, :m] = rows
            if m < width:
                if mask is None:
                    mask = np.ones((nb, width), dtype=bool)
                mask[j, m:] = False
        return cls(idx, mask)

    @property
    def sizes(self) -> List[int]:
        """Actual (unpadded) row count of each member."""
        if self.mask is None:
            return [self.idx.shape[1]] * self.idx.shape[0]
        return [int(c) for c in self.mask.sum(axis=1)]

    def take(self, x: np.ndarray) -> np.ndarray:
        """Gather ``x`` rows into ``(nb, M, k)`` strided form (padded rows zeroed)."""
        if self._span is not None:
            s0, s1 = self._span
            nb, width = self.idx.shape
            blk = x[s0:s1].reshape((nb, width) + x.shape[1:])
            # reshape of a non-contiguous slice already copied; otherwise
            # copy so callers own the result (fancy indexing always copies)
            return blk.copy() if blk.base is not None else blk
        out = x[self.idx]
        if self.mask is not None:
            out[~self.mask] = 0
        return out

    def put(self, x: np.ndarray, vals: np.ndarray) -> None:
        """Scatter ``vals`` back into ``x`` rows (padded rows discarded)."""
        if self._span is not None:
            s0, s1 = self._span
            x[s0:s1] = vals.reshape((s1 - s0,) + x.shape[1:])
        elif self.mask is None:
            x[self.idx] = vals
        else:
            x[self._flat_idx] = vals[self.mask]

    def sub(self, x: np.ndarray, vals: np.ndarray) -> None:
        """``x[rows] -= vals`` (member rows are disjoint, so no collisions)."""
        if self._span is not None:
            s0, s1 = self._span
            x[s0:s1] -= vals.reshape((s1 - s0,) + x.shape[1:])
        elif self.mask is None:
            x[self.idx] -= vals
        else:
            x[self._flat_idx] -= vals[self.mask]

    def add(self, x: np.ndarray, vals: np.ndarray) -> None:
        """``x[rows] += vals`` (member rows are disjoint, so no collisions)."""
        if self._span is not None:
            s0, s1 = self._span
            x[s0:s1] += vals.reshape((s1 - s0,) + x.shape[1:])
        elif self.mask is None:
            x[self.idx] += vals
        else:
            x[self._flat_idx] += vals[self.mask]

    @property
    def nbytes(self) -> int:
        total = self.idx.nbytes
        if self.mask is not None:
            total += self.mask.nbytes + self._flat_idx.nbytes
        return int(total)
