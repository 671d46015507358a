"""A small bounded thread pool for whole independent solves.

The solver's own parallelism is the paper's: level-batched dense kernels,
one batched launch per level and shape bucket.  Host threads pay off one
level up, where whole solves are independent — the non-recycled steps of
:func:`~repro.api.sweep.run_sweep` and the entries of
:func:`~repro.api.portfolio.solve_portfolio` — and the BLAS kernels
underneath them release the GIL.

:func:`run_tasks` runs such thunks on a shared pool.  Results come back in
**task order**; each worker records kernel events into a detached sub-trace
which the coordinator absorbs into its active trace in task-index order
(never completion order), so traces stay bit-identical to serial
execution.  ``workers=1`` runs the thunks inline and never touches the
pool.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from .counters import get_recorder

_POOL_LOCK = threading.Lock()
_POOL: Optional[ThreadPoolExecutor] = None
_POOL_WORKERS: int = 0
_SUBMISSIONS: int = 0


@dataclass(frozen=True)
class PoolStats:
    """Observable pool state (serial runs assert ``submissions == 0``)."""

    submissions: int
    workers: int
    active: bool


def check_workers(workers: Any) -> int:
    """Validate a worker count at the API boundary: a plain ``int >= 1``."""
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"parallel must be a worker count int >= 1, got {workers!r}")
    return workers


def pool_stats() -> PoolStats:
    """Current pool observables (cumulative submissions since last reset)."""
    with _POOL_LOCK:
        return PoolStats(
            submissions=_SUBMISSIONS, workers=_POOL_WORKERS, active=_POOL is not None
        )


def reset_pool_stats() -> None:
    """Zero the submission counter (test isolation)."""
    global _SUBMISSIONS
    with _POOL_LOCK:
        _SUBMISSIONS = 0


def shutdown_pool() -> None:
    """Shut the shared pool down (it is recreated on next use)."""
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown(wait=True)
            _POOL = None
            _POOL_WORKERS = 0


def _submit_all(tasks: List[Callable[[], Any]], workers: int, rec, ambient) -> list:
    """Submit every task under the pool lock, (re)creating the pool when a
    larger worker count is needed."""
    global _POOL, _POOL_WORKERS, _SUBMISSIONS
    with _POOL_LOCK:
        if _POOL is None or _POOL_WORKERS < workers:
            if _POOL is not None:
                _POOL.shutdown(wait=True)
            _POOL = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-parallel")
            _POOL_WORKERS = workers
        _SUBMISSIONS += len(tasks)
        return [_POOL.submit(_run_traced, task, rec, ambient) for task in tasks]


def _run_traced(task: Callable[[], Any], rec, ambient):
    """Worker-side wrapper: run ``task`` with the submitter's ambient trace
    context installed, recording into a detached sub-trace."""
    with rec.subtrace(ambient) as trace:
        result = task()
    return result, trace


def run_tasks(tasks: Sequence[Callable[[], Any]], workers: int = 1) -> List[Any]:
    """Run independent thunks, on ``workers`` pool threads when ``workers > 1``.

    Results return in task order and worker sub-traces are absorbed in task
    order.  ``workers == 1`` (or fewer than two tasks) is exactly
    ``[task() for task in tasks]`` with zero pool submissions.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) < 2:
        return [task() for task in tasks]
    rec = get_recorder()
    futures = _submit_all(tasks, workers, rec, rec.capture_ambient())
    results: List[Any] = []
    for fut in futures:  # task order, not completion order
        result, trace = fut.result()
        rec.absorb(trace)
        results.append(result)
    return results
