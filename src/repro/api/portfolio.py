"""Portfolio solving: independent problems fanned out over the shared pool.

A *portfolio* is a batch of unrelated solve requests — different operators,
different kernel parameters, different right-hand sides — with no
cross-solve structure a :func:`repro.run_sweep` could recycle.  What they
do share is the machine: each request's assembly + factorization is an
independent unit of work dominated by GIL-releasing BLAS, so with
``parallel=N`` the requests run on ``N`` threads of the shared pool
(:func:`~repro.backends.parallel.run_tasks`).  Results — and every
worker's kernel events — come back in submission order, so traces and
counters are identical to running the requests serially.  Each request
itself runs the serial level-batched schedule.

The shared :class:`~repro.api.cache.OperatorCache` is reused under its
existing lock: identical ``(problem, config)`` requests hit the cache and
share one factorized operator.  Two *concurrent* first requests for the
same key may both build (last put wins); the cache stays consistent either
way.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence, Union

from ..backends.parallel import check_workers, run_tasks
from .config import SolverConfig
from .facade import CacheLike, ProblemLike, SolveResult, solve

__all__ = ["solve_portfolio"]

#: one portfolio entry: a problem spelling :func:`repro.solve` accepts, or a
#: mapping with a required ``"problem"`` key plus optional ``"b"`` /
#: ``"config"`` keys — every remaining key is a problem parameter
PortfolioItem = Union[ProblemLike, Mapping[str, Any]]


def solve_portfolio(
    problems: Sequence[PortfolioItem],
    config: Optional[SolverConfig] = None,
    *,
    compute_residual: Union[bool, str] = True,
    cache: CacheLike = True,
    parallel: int = 1,
) -> List[SolveResult]:
    """Solve a batch of independent problems, optionally on pool threads.

    Parameters
    ----------
    problems:
        The portfolio entries.  Each is either a problem spelling
        :func:`repro.solve` accepts (a registered name, a ``Problem``, an
        ``AssembledProblem``, an ``HODLRMatrix``, a ``KernelMatrix``, or a
        dense array) or a mapping ``{"problem": ..., "b": ..., "config":
        ..., **problem_params}`` overriding the shared defaults per entry.
    config:
        Shared :class:`SolverConfig` for entries that do not carry their
        own (``None`` = each problem's default config).
    compute_residual:
        Forwarded to every :func:`repro.solve` call.
    cache:
        Defaults to ``True``: all entries share the process-wide
        :class:`~repro.api.cache.OperatorCache`, so identical
        ``(problem, config)`` entries factorize once.
    parallel:
        Worker count (an ``int >= 1``).  ``1`` (default) solves the entries
        serially in order; ``N > 1`` runs them on ``N`` pool threads.

    Returns
    -------
    list of :class:`SolveResult`, in the order of ``problems`` regardless
    of completion order.
    """
    workers = check_workers(parallel)
    specs = []
    for item in problems:
        if isinstance(item, Mapping):
            params = dict(item)
            if "problem" not in params:
                raise TypeError(
                    "a portfolio mapping entry needs a 'problem' key, got keys "
                    f"{sorted(params)}"
                )
            prob = params.pop("problem")
            b = params.pop("b", None)
            cfg = params.pop("config", config)
            specs.append((prob, b, cfg, params))
        else:
            specs.append((item, None, config, {}))

    def _solve_one(spec):
        prob, b, cfg, params = spec
        return solve(
            prob,
            b,
            cfg,
            compute_residual=compute_residual,
            cache=cache,
            **params,
        )

    return run_tasks([lambda s=s: _solve_one(s) for s in specs], workers)
