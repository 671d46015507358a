"""The four benchmark workloads.

Each workload is a closed loop with one client: the next cycle starts
only after the previous one returned.  All inputs come from the
``--seed`` argument; the number of cycles is fixed by ``--seconds``
(``cycles_for``), so the operation sequence of a run is a function of the
seed and the cycle count alone.  The program receives only the
generated inputs.

A workload provides

* ``setup()`` - one-time work before the first cycle: lazy
  initialization on a small instance, or, for the two streams, the
  operator build and factorization; repeated for the ``setup_s`` median;
* ``cycle(i, run)`` - one client cycle, every operation timed through
  :meth:`Run.timed`; it returns the checks of the cycle, which the
  caller runs after the cycle, outside every timed window and span.

Checks compare against the *exact* operator.  A checked residual above
``ACCURACY_FACTOR`` times the compression tolerance counts as a failed
operation: the tolerance bounds each compressed block, not the residual,
so the gate sits two orders above it and catches wrong answers, while
the size of the tolerance miss itself is reported in ``exact_relres``.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List

import numpy as np

import repro
from repro import KernelMatrix

#: a checked residual above this multiple of the tolerance is a failure
ACCURACY_FACTOR = 100.0
#: row block of the exact matvecs in checks, small so checks do not set
#: the peak memory of the run
CHECK_BLOCK = 64


class Run:
    """Latency samples and failure accounting of one run."""

    def __init__(self, tol: float) -> None:
        self.bound = ACCURACY_FACTOR * tol
        self.ms: Dict[str, List[float]] = defaultdict(list)
        self.busy_s = 0.0
        self.solves = 0
        self.attempted = 0
        self.failed = 0
        #: exact-operator relative residuals of the checked solves
        self.exact: List[float] = []

    def timed(self, kind: str, fn: Callable, *args, solves: int = 0, **kwargs) -> Any:
        """Call ``fn`` as one attempted operation and record its latency."""
        self.attempted += 1
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        dt = perf_counter() - t0
        self.ms[kind].append(1e3 * dt)
        self.busy_s += dt
        self.solves += solves
        return out

    def check(self, relres: float, exact: bool = True) -> None:
        """Count a residual (or matvec error) over the bound as a failure."""
        if exact:
            self.exact.append(relres)
        if not relres <= self.bound:
            self.failed += 1


def _relres(b: np.ndarray, ax: np.ndarray) -> float:
    return float(np.linalg.norm(b - ax) / np.linalg.norm(b))


def _config(cfg: Any, n: int, dtype: Any) -> Dict[str, Any]:
    comp = cfg.compression
    return {
        "n": n,
        "tol": comp.tol,
        "method": comp.method,
        "leaf_size": comp.leaf_size,
        "max_rank": comp.max_rank,
        "dtype": np.dtype(dtype).name,
    }


class GaussOneshot:
    """Construction-bound path most users hit: each cycle is one complete
    ``repro.solve`` rebuilt from problem parameters, default config
    (rook, tol 1e-10, leaf 64).  Construction and ACA changes show here;
    solve-path changes should not."""

    name = "gauss_oneshot"
    PROBLEM = "gaussian_kernel"
    N = 4096
    SECONDS_PER_CYCLE = 2.7

    def __init__(self, seed: int, cycles: int) -> None:
        rng = np.random.default_rng(seed)
        self.cycles = cycles
        self.warmup_seed = int(rng.integers(2**31))
        self.problem_seeds = [int(s) for s in rng.integers(2**31, size=cycles)]
        self.rhs = [rng.standard_normal(self.N) for _ in range(cycles)]
        self.config: Dict[str, Any] = {}

    def setup(self) -> None:
        # one-time lazy initialization on a small instance
        repro.solve(self.PROBLEM, n=512, seed=self.warmup_seed, cache=False)

    def cycle(self, i: int, run: Run) -> List[Callable[[], None]]:
        hits = repro.cache_stats().hits
        b = self.rhs[i]
        res = run.timed(
            "solve", repro.solve, self.PROBLEM, b,
            n=self.N, seed=self.problem_seeds[i], cache=False, solves=1,
        )
        if repro.cache_stats().hits != hits:
            raise RuntimeError("an OperatorCache hit served the solve: nothing was timed")
        self.config = _config(res.config, self.N, res.x.dtype)
        km, x = res.problem.metadata["kernel_matrix"], res.x
        return [lambda: run.check(_relres(b, km.matvec(x, block_size=CHECK_BLOCK)))]


class GaussSolveStream:
    """Preconditioner / many-RHS use: the operator is built and factored
    once in setup; each cycle is one single-RHS ``operator.solve(b)`` and
    one ``operator @ v`` on fresh vectors.  The bandwidth-bound plan GEMMs
    do all the work and construction does none."""

    name = "gauss_solve_stream"
    PROBLEM = "gaussian_kernel"
    N = 4096
    SECONDS_PER_CYCLE = 0.016

    def __init__(self, seed: int, cycles: int) -> None:
        rng = np.random.default_rng(seed)
        self.cycles = cycles
        self.problem_seed = int(rng.integers(2**31))
        self.b0 = rng.standard_normal(self.N)
        self.vectors = np.random.default_rng(rng.integers(2**63))
        last = cycles - 1
        #: cycles whose solve and matvec are also checked against the exact operator
        self.sampled = {0, last // 3, 2 * last // 3, last}
        self.config: Dict[str, Any] = {}

    def setup(self) -> None:
        res = repro.solve(
            self.PROBLEM, self.b0, n=self.N, seed=self.problem_seed, cache=False
        )
        self.op = res.operator
        self.km = res.problem.metadata["kernel_matrix"]
        self.config = _config(res.config, self.N, res.x.dtype)

    def cycle(self, i: int, run: Run) -> List[Callable[[], None]]:
        op, km = self.op, self.km
        b = self.vectors.standard_normal(self.N)
        v = self.vectors.standard_normal(self.N)
        x = run.timed("solve", op.solve, b, solves=1)
        y = run.timed("apply", lambda: op @ v)
        checks = [lambda: run.check(_relres(b, op @ x), exact=False)]
        if i in self.sampled:
            checks += [
                lambda: run.check(_relres(b, km.matvec(x, block_size=CHECK_BLOCK))),
                lambda: run.check(_relres(km.matvec(v, block_size=CHECK_BLOCK), y), exact=False),
            ]
        return checks


class GPUpdateStream:
    """Writes beside reads: each cycle inserts 16 observations through
    ``repro.update_operator``, solves, removes 16 contiguous points and
    solves again, on a 1-D Matern GP covariance (no permutation).  A
    patching change that speeds updates but fragments the plan shows
    here as slower reads."""

    name = "gp_update_stream"
    PROBLEM = "gp_covariance"
    N = 16384
    K = 16
    SECONDS_PER_CYCLE = 0.4
    #: exact-operator rows sampled for the per-solve check
    CHECK_ROWS = 64

    def __init__(self, seed: int, cycles: int) -> None:
        ops_seed, check_seed = np.random.SeedSequence(seed).spawn(2)
        rng = np.random.default_rng(ops_seed)
        self.cycles = cycles
        self.problem_seed = int(rng.integers(2**31))
        self.b0 = rng.standard_normal(self.N)
        self.ops = np.random.default_rng(rng.integers(2**63))
        self.check_rng = np.random.default_rng(check_seed)
        self.config: Dict[str, Any] = {}

    def setup(self) -> None:
        res = repro.solve(
            self.PROBLEM, self.b0, n=self.N, seed=self.problem_seed,
            cache=False, compute_residual=False,
        )
        if res.problem.perm is not None:
            raise RuntimeError("gp_covariance is expected to carry no permutation")
        self.op = res.operator
        self.points = np.asarray(res.problem.metadata["x_train"])
        self.kernel, self.shift = repro.get_problem(
            self.PROBLEM, n=self.N, seed=self.problem_seed
        ).kernel_spec()
        self.config = _config(res.config, self.N, res.x.dtype)

    def _matrix(self, points: np.ndarray) -> KernelMatrix:
        return KernelMatrix(kernel=self.kernel, points=points, diagonal_shift=self.shift)

    def _solve(self, run: Run, points: np.ndarray, full: bool) -> Callable[[], None]:
        b = self.ops.standard_normal(points.size)
        x = run.timed("solve", self.op.solve, b, solves=1)
        rows = np.sort(self.check_rng.choice(points.size, self.CHECK_ROWS, replace=False))

        def check() -> None:
            km = self._matrix(points)
            if full:
                run.check(_relres(b, km.matvec(x, block_size=CHECK_BLOCK)))
            else:
                ax = km.entries(rows, np.arange(points.size)) @ x
                run.check(_relres(b[rows], ax), exact=False)

        return check

    def cycle(self, i: int, run: Run) -> List[Callable[[], None]]:
        new = self.ops.uniform(0.0, 1.0, self.K)
        merged = np.concatenate([self.points, new])
        order = np.argsort(merged, kind="stable")
        points = merged[order]
        where = np.flatnonzero(order >= self.points.size)
        run.timed(
            "insert", repro.update_operator, self.op,
            points_added=where, source=self._matrix(points),
        )
        checks = [self._solve(run, points, full=False)]
        start = int(self.ops.integers(points.size - self.K + 1))
        removed = np.arange(start, start + self.K)
        run.timed("remove", repro.update_operator, self.op, points_removed=removed)
        self.points = np.delete(points, removed)
        # the last solve of the run, after every patch, gets the full
        # exact residual (an O(N^2) matvec); the others 64 exact rows
        checks.append(self._solve(run, self.points, full=i == self.cycles - 1))
        return checks


class HelmholtzSweep:
    """The only complex128 workload, and the only one through the
    randomized compressor and construction recycling (``api.sweep``):
    each cycle is one ``repro.run_sweep`` over four wavenumbers.
    Factorization is its largest phase."""

    name = "helmholtz_sweep"
    PROBLEM = "helmholtz_kernel"
    N = 2048
    POINTS = 4
    SECONDS_PER_CYCLE = 5.7

    def __init__(self, seed: int, cycles: int) -> None:
        rng = np.random.default_rng(seed)
        self.cycles = cycles
        self.warmup_seed = int(rng.integers(2**31))
        self.problem_seeds = [int(s) for s in rng.integers(2**31, size=cycles)]
        self.kappas = [
            float(k0) + 2.0 * np.arange(self.POINTS) for k0 in rng.uniform(18.0, 22.0, cycles)
        ]
        self.rhs = [
            rng.standard_normal(self.N) + 1j * rng.standard_normal(self.N)
            for _ in range(cycles)
        ]
        self.config: Dict[str, Any] = {}

    def setup(self) -> None:
        # one-time lazy initialization on a small instance
        repro.run_sweep(
            self.PROBLEM, [{"kappa": 20.0}, {"kappa": 22.0}],
            n=256, seed=self.warmup_seed,
        )

    def cycle(self, i: int, run: Run) -> List[Callable[[], None]]:
        b = self.rhs[i]
        res = run.timed(
            "sweep", repro.run_sweep, self.PROBLEM,
            [{"kappa": float(k)} for k in self.kappas[i]],
            n=self.N, seed=self.problem_seeds[i], rhs=b, keep_workspace=True,
            solves=self.POINTS,
        )
        # a sweep answers POINTS systems: its latency per solved point
        run.ms["solve"].append(run.ms["sweep"][-1] / self.POINTS)
        ws = res.workspace
        self.config = _config(
            repro.get_problem(self.PROBLEM).default_config, self.N, res[0].x.dtype
        )
        points = np.empty_like(ws.points)
        points[ws.perm] = ws.points

        def check(step) -> None:
            kernel, shift = dataclasses.replace(ws.problem, **step.params).kernel_spec()
            km = KernelMatrix(kernel=kernel, points=points, diagonal_shift=shift)
            run.check(_relres(b, km.matvec(step.x, block_size=CHECK_BLOCK)))

        return [lambda s=s: check(s) for s in res.steps]


WORKLOADS = {
    w.name: w for w in (GaussOneshot, GaussSolveStream, GPUpdateStream, HelmholtzSweep)
}


def cycles_for(workload: type, seconds: float) -> int:
    """Cycle count of a run: about ``seconds`` of wall-clock on the 2-core
    reference host (checks included), and at least two."""
    return max(2, round(seconds / workload.SECONDS_PER_CYCLE))
