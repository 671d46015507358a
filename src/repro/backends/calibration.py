"""Measured host envelope: launch overhead, peak flop rate, copy bandwidth.

:func:`measure_profile` times three small synthetic kernels on the current
host and returns them as a :class:`MachineProfile`.  Roofline reports
divide attained GFLOP/s and GB/s by its ``peak_gflops`` and
``mem_bandwidth`` fields.

Nothing here feeds back into dispatch or precision: the dispatch
crossovers in :mod:`repro.backends.dispatch` are fixed constants, as the
paper's fixed schedule of batched kernels is, and
precision demotion is whatever :class:`~repro.backends.context.PrecisionPolicy`
the caller sets.
"""

from __future__ import annotations

import json
import os
import time  # repro-lint: file-ignore[RL004] -- calibration exists to measure kernel wall-clock; sweeps are not tests
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict

import numpy as np


@dataclass(frozen=True)
class MachineProfile:
    """The measured performance envelope of one host.

    ``launch_overhead`` is the wall-clock of a trivial 2x2 product in
    seconds, ``peak_gflops`` the attained rate of a 256x256 GEMM, and
    ``mem_bandwidth`` the bytes per second of a 32 MB copy (read plus
    write).
    """

    launch_overhead: float = 2.0e-6
    peak_gflops: float = 50.0
    mem_bandwidth: float = 2.0e10

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MachineProfile":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown MachineProfile keys: {sorted(unknown)}")
        return cls(**data)

    def save(self, path: os.PathLike) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: os.PathLike) -> "MachineProfile":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _best_of(fn: Callable[[], Any], repeats: int = 3) -> float:
    """Minimum wall-clock of ``repeats`` timed calls (after one warmup)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_profile(repeats: int = 3, seed: int = 0) -> MachineProfile:
    """Time the host's launch overhead, peak GEMM rate and copy bandwidth."""
    rng = np.random.default_rng(seed)
    tiny_a, tiny_b = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    launch = _best_of(lambda: tiny_a @ tiny_b, repeats=max(repeats, 5))
    launch = float(np.clip(launch, 1.0e-7, 1.0e-4))

    n = 256
    big_a, big_b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    t = _best_of(lambda: big_a @ big_b, repeats)
    peak_gflops = float(2.0 * n**3 / max(t, 1.0e-9) / 1.0e9)

    buf = rng.standard_normal(4 * 1024 * 1024)  # 32 MB
    dst = np.empty_like(buf)
    t = _best_of(lambda: np.copyto(dst, buf), repeats)
    bandwidth = float(2.0 * buf.nbytes / max(t, 1.0e-9))
    return MachineProfile(
        launch_overhead=launch, peak_gflops=peak_gflops, mem_bandwidth=bandwidth
    )
