"""Batched dense linear-algebra backend and device performance models.

The paper's GPU solver is built on four cuBLAS primitives:

* ``gemmBatched``          -> :func:`repro.backends.batched.gemm_batched`
* ``gemmStridedBatched``   -> :func:`repro.backends.batched.gemm_strided_batched`
* ``getrfBatched``         -> :func:`repro.backends.batched.getrf_batched`
* ``getrsBatched``         -> :func:`repro.backends.batched.getrs_batched`

This package provides NumPy implementations of those primitives together
with an instrumentation layer (:mod:`repro.backends.counters`) that records
every "kernel launch" (operation, batch size, operand shapes, flops, bytes)
and an analytic performance model (:mod:`repro.backends.perfmodel`) that
converts a recorded trace into estimated execution times on a V100-class
GPU, a dual-Xeon CPU, and over a PCIe link.  The performance model is the
documented substitution for the paper's physical hardware (see DESIGN.md).
"""

from .counters import KernelEvent, KernelTrace, TraceRecorder, get_recorder, record_event
from .dispatch import (
    ArrayBackend,
    BackendUnavailableError,
    BatchPlan,
    CupyBackend,
    NumpyBackend,
    ShapeBucket,
    available_backends,
    get_backend,
    plan_batch,
    register_backend,
    registered_backends,
)
from .context import (
    DEFAULT_CONTEXT,
    ExecutionContext,
    PrecisionPolicy,
    resolve_context,
)
from .batched import (
    gemm_batched,
    gemm_strided_batched,
    getrf_batched,
    getrs_batched,
)
from .device import DeviceSpec, CPU_XEON_6254_DUAL, GPU_V100, PCIE3_X16
from .perfmodel import PerformanceModel, ExecutionEstimate
from .streams import StreamPool
from .calibration import MachineProfile, measure_profile

__all__ = [
    "KernelEvent",
    "KernelTrace",
    "TraceRecorder",
    "get_recorder",
    "record_event",
    "ArrayBackend",
    "BackendUnavailableError",
    "BatchPlan",
    "CupyBackend",
    "NumpyBackend",
    "ShapeBucket",
    "available_backends",
    "get_backend",
    "plan_batch",
    "register_backend",
    "registered_backends",
    "DEFAULT_CONTEXT",
    "ExecutionContext",
    "PrecisionPolicy",
    "resolve_context",
    "gemm_batched",
    "gemm_strided_batched",
    "getrf_batched",
    "getrs_batched",
    "DeviceSpec",
    "CPU_XEON_6254_DUAL",
    "GPU_V100",
    "PCIE3_X16",
    "PerformanceModel",
    "ExecutionEstimate",
    "StreamPool",
    "MachineProfile",
    "measure_profile",
]
