"""The factorization engine behind the :mod:`repro.api` facade.

The recommended entry points live one level up, in :mod:`repro.api`:

>>> import repro
>>> result = repro.solve("gaussian_kernel", config=cfg, n=4096)  # doctest: +SKIP
>>> op = repro.build_operator(hodlr, config=cfg)                 # doctest: +SKIP
>>> x = op.solve(b); op.logdet()                                 # doctest: +SKIP

``repro.solve`` resolves a registered problem (or any matrix-like input)
to a HODLR approximation and an :class:`~repro.api.operator.HODLROperator`
— a SciPy ``LinearOperator`` that factorizes lazily, refactorizes on dtype
changes, and exposes ``solve``/``logdet``/``as_preconditioner()``.

:class:`HODLRSolver` below is the engine those objects drive: it binds a
:class:`~repro.core.hodlr.HODLRMatrix` to one factorization variant and an
array backend, and owns the timings/diagnostics (:class:`SolveStats`).
Instantiating it directly remains supported for low-level work
(``HODLRSolver(H).factorize()``); facade code should use
:meth:`HODLRSolver.from_config` so all option plumbing stays in
:class:`~repro.api.config.SolverConfig`.

Variants
--------
``"batched"`` (default)
    The paper's Algorithms 1/2 (the flat form) and 3/4 (the batched form)
    are one computation with two schedules, and it runs as the compiled plan:
    :meth:`HODLRSolver.factorize` packs the matrix into
    :class:`~repro.core.bigdata.BigMatrices` and factorizes it with
    :func:`~repro.core.factor_plan.build_factor_plan` (one
    getrf/getrs/gemm launch per shape bucket per level), and every
    :meth:`HODLRSolver.solve` replays the compiled
    :class:`~repro.core.factor_plan.SolvePlan`.  Both record kernel traces
    for performance modeling.
Registered variants
    Anything added through :func:`register_solver_variant`: the textbook
    per-node recursion of section III-A (``"recursive"``, the tests'
    reference oracle) and the baseline solvers (``"dense_lu"``,
    ``"block_sparse"``, ``"hodlrlib_cpu"``), all registered by
    :mod:`repro.baselines`.  They hold no compiled plan.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..backends.context import ExecutionContext, resolve_context
from ..backends.counters import KernelTrace, get_recorder
from ..backends.perfmodel import ExecutionEstimate, PerformanceModel
from .bigdata import BigMatrices
from .factor_plan import FactorPlan, SolvePlan, build_factor_plan
from .hodlr import HODLRMatrix

#: the built-in variant: the one compiled-plan engine
_VARIANTS = ("batched",)

#: registered non-builtin variants: ``factory(hodlr, solver) -> impl`` where
#: ``impl`` provides at least ``solve(b)`` (``slogdet``/``logdet``/
#: ``factorization_nbytes`` are picked up when present)
_VARIANT_FACTORIES: Dict[str, Callable[[HODLRMatrix, "HODLRSolver"], Any]] = {}


def register_solver_variant(
    name: str,
    factory: Callable[[HODLRMatrix, "HODLRSolver"], Any],
    overwrite: bool = False,
) -> None:
    """Register a solver variant usable as ``SolverConfig(variant=name)``.

    ``factory(hodlr, solver)`` receives the (dtype-cast) HODLR matrix and
    the owning :class:`HODLRSolver` and must return a *factorized* object
    with ``solve(b)``.  The reference recursion (``recursive``) and the
    baseline solvers (``dense_lu``, ``block_sparse``, ``hodlrlib_cpu``)
    register themselves through this hook, so paper-table comparisons run
    through the same ``repro.solve`` facade as the compiled plan.
    """
    if name in _VARIANTS:
        raise ValueError(f"variant {name!r} is built in")
    if not overwrite and name in _VARIANT_FACTORIES:
        raise ValueError(f"solver variant {name!r} is already registered")
    _VARIANT_FACTORIES[name] = factory


def available_solver_variants() -> List[str]:
    """All accepted ``variant`` names: the built-ins plus registered ones."""
    return list(_VARIANTS) + sorted(_VARIANT_FACTORIES)


@dataclass
class SolveStats:
    """Timings and diagnostics collected by :class:`HODLRSolver`.

    ``num_solves`` counts *right-hand sides*, not calls: a fused solve of a
    ``(n, K)`` block counts ``K`` (``last_batch_size`` holds that ``K``), so
    :attr:`mean_solve_seconds` is the per-RHS amortized time and throughput
    math stays honest when blocks are fused through one plan replay.
    ``solve_seconds`` accumulates wall time over every ``solve()`` call;
    ``last_solve_seconds`` holds only the most recent call (the whole block,
    not per RHS), which is what per-solve tables should report.
    """

    factor_seconds: float = 0.0
    solve_seconds: float = 0.0
    last_solve_seconds: float = 0.0
    num_solves: int = 0
    last_batch_size: int = 0
    factorization_bytes: int = 0
    relative_residual: Optional[float] = None

    @property
    def factorization_gb(self) -> float:
        return self.factorization_bytes / 1.0e9

    @property
    def mean_solve_seconds(self) -> float:
        """Per right-hand side amortized solve time."""
        return self.solve_seconds / self.num_solves if self.num_solves else 0.0


class HODLRSolver:
    """Factorize a :class:`HODLRMatrix` and solve linear systems with it.

    Parameters
    ----------
    hodlr:
        The HODLR approximation of the coefficient matrix.
    variant:
        ``"batched"`` (default, the compiled plan), or the name of a
        registered variant (see :func:`available_solver_variants`).
    dtype:
        Optional dtype override; ``np.float32`` reproduces the paper's
        single-precision runs (Table IVb).
    pivot:
        Partial pivoting in the reduced ``K`` systems; ``False`` selects the
        alternative formulation of section III-C (identities on the
        diagonal, no pivoting needed).
    context:
        The :class:`~repro.backends.context.ExecutionContext` carrying the
        array backend and the precision policy (``None`` = host NumPy at
        natural precision).
    """

    def __init__(
        self,
        hodlr: HODLRMatrix,
        variant: str = "batched",
        dtype=None,
        pivot: bool = True,
        context: Optional[ExecutionContext] = None,
    ) -> None:
        if variant not in _VARIANTS and variant not in _VARIANT_FACTORIES:
            raise ValueError(
                f"variant must be one of {tuple(available_solver_variants())}, "
                f"got {variant!r}"
            )
        self.variant = variant
        self.pivot = pivot
        self.context = resolve_context(context)
        # dtype=None means "hodlr is already at the target dtype" — the
        # context's precision.storage reaches here through from_config's
        # dtype argument, never implicitly
        self.hodlr = hodlr if dtype is None else hodlr.astype(dtype)
        self.stats = SolveStats()
        # solve() may run concurrently (parallel sweeps/portfolios sharing a
        # cached operator); the read-modify-write stats update needs a lock
        self._stats_lock = threading.Lock()
        #: the compiled factorization (built-in variants) and the packed
        #: matrix it was built from, kept alive with it: its Vbig counts
        #: toward ``stats.factorization_bytes``
        self._plan: Optional[FactorPlan] = None
        self._bigdata: Optional[BigMatrices] = None
        self._factor_trace: Optional[KernelTrace] = None
        self._last_solve_trace: Optional[KernelTrace] = None
        #: the factorized object of a registered variant
        self._impl: Any = None

    _UNSET = object()

    @classmethod
    def from_config(
        cls,
        hodlr: HODLRMatrix,
        config,
        dtype=_UNSET,
        context: Optional[ExecutionContext] = None,
    ) -> "HODLRSolver":
        """Construct from a :class:`repro.api.config.SolverConfig`.

        ``config`` is duck-typed (any object with ``variant``, ``pivot``,
        ``numpy_dtype`` and an ``execution_context()`` method).  ``dtype``
        overrides the config's dtype when given — pass ``dtype=None``
        explicitly if ``hodlr`` is already stored at the target dtype to
        skip the cast.

        An explicit ``context=`` replaces the one the config would build —
        this is how :class:`~repro.api.operator.HODLROperator` hands its
        resolved context down.
        """
        return cls(
            hodlr,
            variant=config.variant,
            dtype=config.numpy_dtype if dtype is cls._UNSET else dtype,
            pivot=config.pivot,
            context=context if context is not None else config.execution_context(),
        )

    # ------------------------------------------------------------------
    # factorization
    # ------------------------------------------------------------------
    def factorize(self) -> "HODLRSolver":
        t0 = time.perf_counter()  # repro-lint: ignore[RL004] -- SolveStats wall-clock reporting, not test timing
        if self.variant in _VARIANTS:
            data = BigMatrices.from_hodlr(self.hodlr, backend=self.context.backend)
            rec = get_recorder()
            with rec.recording() as trace:
                # the HODLR data (D, U, V) is assembled on the host and
                # copied to the device before factorization (paper,
                # section IV-A)
                rec.add_transfer(data.nbytes, "h2d")
                with rec.context(tag="factor"):
                    plan = build_factor_plan(
                        data, context=self.context, pivot=self.pivot
                    )
            self._adopt_plan(plan, data, trace)
        else:
            # a registered variant: the factory returns a factorized object
            # exposing at least solve(b)
            self._impl = _VARIANT_FACTORIES[self.variant](self.hodlr, self)
            nbytes = getattr(self._impl, "factorization_nbytes", None)
            self.stats.factorization_bytes = int(nbytes()) if callable(nbytes) else 0
        self.stats.factor_seconds = time.perf_counter() - t0  # repro-lint: ignore[RL004] -- SolveStats wall-clock reporting, not test timing
        return self

    def _adopt_plan(
        self, plan: FactorPlan, data: BigMatrices, trace: KernelTrace
    ) -> None:
        self._plan = plan
        self._bigdata = data
        self._factor_trace = trace
        # the paper's accounting: Ybig + Vbig plus the plan's packed stacks
        self.stats.factorization_bytes = int(
            plan.Ybig.nbytes + data.Vbig.nbytes + plan.nbytes
        )

    def patch_factorize(self, hodlr: HODLRMatrix, dirty_nodes) -> "HODLRSolver":
        """Absorb an incrementally updated matrix by patching the retained
        :class:`~repro.core.factor_plan.FactorPlan` instead of refactorizing.

        ``hodlr`` is the updated matrix (same tree topology — node indices
        unchanged, ranges possibly shifted by an insert/remove) and
        ``dirty_nodes`` the dirty node set reported by the update
        (:class:`~repro.core.update.HODLRUpdate.dirty_nodes`).  Only the
        dirty path is re-factorized — kernel launches scale with the number
        of dirty shape buckets, not with the total bucket count — and the
        patched plan replaces the current one, so subsequent solves replay
        it with no further work.

        Raises :class:`~repro.core.update.PatchUnsupportedError` when the
        solver holds no plan (a registered variant such as ``recursive`` or
        a baseline) or when the plan itself cannot absorb the change;
        callers should fall back to a full :meth:`factorize` of the new
        matrix.
        """
        from .update import PatchUnsupportedError

        self._require_factored()
        if self._plan is None:
            raise PatchUnsupportedError(
                f"registered variant {self.variant!r} holds no compiled "
                "FactorPlan to patch; refactorize instead"
            )
        t0 = time.perf_counter()  # repro-lint: ignore[RL004] -- SolveStats wall-clock reporting, not test timing
        target = np.dtype(self.hodlr.dtype)
        hodlr_t = hodlr if np.dtype(hodlr.dtype) == target else hodlr.astype(target)
        rec = get_recorder()
        with rec.recording() as trace:
            patched = self._plan.patch(hodlr_t, dirty_nodes)
        self.hodlr = hodlr_t
        # the patch already packed the new matrix into the plan's layout:
        # adopt that instead of re-running the O(N) from_hodlr pack
        self._adopt_plan(patched, patched.bigdata, trace)
        self.stats.factor_seconds = time.perf_counter() - t0  # repro-lint: ignore[RL004] -- SolveStats wall-clock reporting, not test timing
        return self

    @property
    def factored(self) -> bool:
        return self._plan is not None or self._impl is not None

    def _require_factored(self) -> None:
        if not self.factored:
            raise RuntimeError("call factorize() first")

    # ------------------------------------------------------------------
    # solve / apply
    # ------------------------------------------------------------------
    def solve(self, b: np.ndarray, compute_residual: bool = False) -> np.ndarray:
        """Solve ``A x = b``; ``b`` may contain multiple right-hand sides.

        The built-in variants replay the compiled
        :class:`~repro.core.factor_plan.SolvePlan` (packed once at
        factorization time, reused across solves and Krylov iterations);
        registered variants call their own ``solve(b)``.
        """
        self._require_factored()
        t0 = time.perf_counter()  # repro-lint: ignore[RL004] -- SolveStats wall-clock reporting, not test timing
        if self._plan is None:
            x = self._impl.solve(b)
        else:
            b = self.context.backend.asarray(b)
            rec = get_recorder()
            with rec.recording() as trace:
                rec.add_transfer(b.nbytes, "h2d")
                with rec.context(tag="solve"):
                    x = self._plan.solve_plan().solve(b)
                rec.add_transfer(x.nbytes, "d2h")
            self._last_solve_trace = trace
        elapsed = time.perf_counter() - t0  # repro-lint: ignore[RL004] -- SolveStats wall-clock reporting, not test timing
        # a fused (n, K) block counts K right-hand sides: one plan replay
        # amortizes its launches across the whole block
        nrhs = int(b.shape[1]) if getattr(b, "ndim", 1) == 2 else 1
        with self._stats_lock:
            self.stats.last_solve_seconds = elapsed
            self.stats.last_batch_size = nrhs
            self.stats.solve_seconds += elapsed
            self.stats.num_solves += nrhs
        if compute_residual:
            residual = self.relative_residual(x, b)
            with self._stats_lock:
                self.stats.relative_residual = residual
        return x

    def relative_residual(self, x: np.ndarray, b: np.ndarray) -> float:
        """``||b - A x|| / ||b||`` using the HODLR matvec (the paper's relres).

        Norms are routed through the active :class:`ArrayBackend`, so
        device-resident ``x``/``b`` (e.g. CuPy arrays) are handled without
        forcing a NumPy conversion.  The matvec runs where the compressed
        blocks live: host NumPy blocks multiply a host copy of ``x``
        (device arrays are transferred once), device-resident blocks (a
        construction run on the context's backend) multiply the
        device-resident ``x`` directly — no host/device mixing either way.
        """
        ab = self.context.backend
        b_arr = ab.asarray(b)
        first_block = next(iter(self.hodlr.diag.values()))
        if type(first_block) is np.ndarray:
            x_host = ab.to_host(ab.asarray(x))
            Ax = ab.from_host(np.asarray(self.hodlr.matvec(x_host)))
        else:
            Ax = ab.asarray(self.hodlr.matvec(ab.asarray(x)))
        r = b_arr - Ax
        num = float(ab.to_host(ab.norm(r)))
        denom = float(ab.to_host(ab.norm(b_arr)))
        return num / denom if denom > 0 else num

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.hodlr.matvec(x)

    # ------------------------------------------------------------------
    # determinant
    # ------------------------------------------------------------------
    def slogdet(self) -> Tuple[complex, float]:
        self._require_factored()
        if self._plan is not None:
            return self._plan.slogdet()
        fn = getattr(self._impl, "slogdet", None)
        if fn is None:
            raise NotImplementedError(
                f"variant {self.variant!r} does not expose slogdet"
            )
        return fn()

    def logdet(self) -> float:
        self._require_factored()
        if self._plan is None:
            fn = getattr(self._impl, "logdet", None)
            if fn is None:
                raise NotImplementedError(
                    f"variant {self.variant!r} does not expose logdet"
                )
            return fn()
        sign, logabs = self._plan.slogdet()
        if not np.iscomplexobj(np.asarray(sign)) and np.real(sign) <= 0:
            raise ValueError("matrix has a non-positive determinant; use slogdet()")
        return logabs

    # ------------------------------------------------------------------
    # traces & compiled plans (built-in variants only)
    # ------------------------------------------------------------------
    @property
    def factor_trace(self) -> Optional[KernelTrace]:
        self._require_factored()
        return self._factor_trace

    @property
    def last_solve_trace(self) -> Optional[KernelTrace]:
        self._require_factored()
        return self._last_solve_trace

    @property
    def factor_plan(self) -> Optional[FactorPlan]:
        """The packed :class:`~repro.core.factor_plan.FactorPlan` (``None``
        before factorization or for a registered variant)."""
        return self._plan

    @property
    def solve_plan(self) -> Optional[SolvePlan]:
        """The compiled :class:`~repro.core.factor_plan.SolvePlan` every
        ``solve`` replays (``None`` before factorization or for a
        registered variant)."""
        return None if self._plan is None else self._plan.solve_plan()

    def modeled_times(
        self, model: Optional[PerformanceModel] = None
    ) -> Dict[str, ExecutionEstimate]:
        """Estimate device execution times of the recorded kernel traces.

        Only meaningful for the built-in variants; returns a dict with
        keys ``"factorization"`` and (if a solve has been run)
        ``"solution"``.
        """
        model = model or PerformanceModel()
        out: Dict[str, ExecutionEstimate] = {}
        if self.factor_trace is not None:
            out["factorization"] = model.estimate(self.factor_trace)
        if self.last_solve_trace is not None:
            out["solution"] = model.estimate(self.last_solve_trace)
        return out

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    @property
    def memory_gb(self) -> float:
        """Memory of the factorization in GB (the ``mem`` column of the tables)."""
        return self.stats.factorization_bytes / 1.0e9

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "factored" if self.factored else "unfactored"
        return f"HODLRSolver(n={self.hodlr.n}, variant={self.variant!r}, {state})"
