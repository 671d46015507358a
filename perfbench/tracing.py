"""Outside-in spans around the public boundary of each ``repro`` layer.

:func:`install` replaces the layer entry points listed in :data:`LAYERS`
with thin wrappers that record a span when the :class:`Tracer` is active
and call straight through when it is not.  Nothing inside ``src/`` is
edited: a wrapper is swapped in for every module attribute (and class
attribute) that holds the original function, so ``from ... import
build_hodlr`` call sites are covered too.

Each span records its name, start, end, parent span and the run id.  It
also records the kernel launches, modeled flops and computed bytes that
the public ``get_recorder()`` KernelTrace saw while the span was open;
these bytes are counts from array sizes, not measured memory traffic.
Spans are kept in memory and written out once, by :meth:`Tracer.dump`.

Layer -> boundary -> end-to-end metric it should move (the prediction
each per-layer metric is read against):

=================  ===================================  =====================================
span               boundary wrapped                     should move
=================  ===================================  =====================================
``tree``           ``ClusterTree.from_points``          solve_ms_p50 on gauss_oneshot (<1%,
                                                        a control)
``kernels``        ``KernelMatrix.entries`` /           solve_ms_p50 on gauss_oneshot;
                   ``KernelMatrix.entries_blocks``      solves_per_s on gp_update_stream
                                                        (insert cost); solve_ms_p50 on
                                                        helmholtz_sweep (anchor build)
``construct``      ``build_hodlr`` (compression is its  solve_ms_p50 and exact_digits on
                   self time minus ``kernels``)         gauss_oneshot; helmholtz_sweep
``pack``           ``BigMatrices.from_hodlr``           solve_ms_p50 on gauss_oneshot;
                                                        setup_s on gauss_solve_stream
``factor``         ``HODLRSolver.factorize``            solve_ms_p50 on helmholtz_sweep and
                                                        gauss_oneshot
``solve``          ``HODLROperator.solve``              solve_ms_p50 / solves_per_s on
                                                        gauss_solve_stream, gp_update_stream;
                                                        no change on gauss_oneshot
``apply``          ``HODLROperator.__matmul__``         solves_per_s on gauss_solve_stream
``update``         ``repro.update_operator``            solves_per_s on gp_update_stream,
                   (``patch``: ``patch_factorize``)     and solve_ms_p50 there through the
                                                        patched plan's shape
``sweep.init``     ``SweepWorkspace.__init__``          solve_ms_p50 on helmholtz_sweep
``sweep.step``     ``SweepWorkspace.step``              solve_ms_p50 on helmholtz_sweep
(pool counter)     ``pool_stats()``                     none on a 2-core host
=================  ===================================  =====================================
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from scipy.sparse.linalg import LinearOperator

import repro
from repro.api.operator import HODLROperator
from repro.api.sweep import SweepWorkspace
from repro.core.bigdata import BigMatrices
from repro.core.cluster_tree import ClusterTree
from repro.core.hodlr import build_hodlr
from repro.core.solver import HODLRSolver
from repro.kernels.kernel_matrix import KernelMatrix


class Tracer:
    """In-memory span recorder for one benchmark run (main thread only)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self.active = False
        self._stack: List[Dict[str, Any]] = []
        self._thread = threading.get_ident()
        self._recorder = repro.get_recorder()

    def call(self, name: str, fn: Callable, args, kwargs, describe=None, events=True):
        """Run ``fn(*args, **kwargs)``, inside a span when tracing.

        ``events=False`` skips the KernelTrace of a layer that records no
        kernel events (entry evaluation), which keeps its many small
        spans cheap.
        """
        if not self.active or threading.get_ident() != self._thread:
            return fn(*args, **kwargs)
        span: Dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "launches": 0,
            "flops": 0.0,
            "bytes": 0.0,
        }
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        try:
            if events:
                with self._recorder.recording() as trace:
                    out = fn(*args, **kwargs)
            else:
                out = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        # bookkeeping after the span closed, so it is not timed as the layer
        if events:
            span["launches"] = trace.num_kernel_launches
            span["flops"] = trace.total_flops
            span["bytes"] = trace.total_bytes
        if describe is not None:
            span.update(describe(out, args, kwargs))
        return out

    def cycle(self, index: int, fn: Callable[[], Any]) -> Any:
        """Run one closed-loop cycle as a root span."""
        self.active = True
        try:
            return self.call("cycle", fn, (), {}, lambda *_: {"cycle": index})
        finally:
            self.active = False

    def dump(self, path) -> None:
        """Write every span out (once, at the end of the run)."""
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh)


# ----------------------------------------------------------------------
# span descriptions: counts taken at the boundary, from public objects
# ----------------------------------------------------------------------
def _entries(out, args, kwargs) -> Dict[str, Any]:
    return {"entries": int(np.size(out))}


def _construct(out, args, kwargs) -> Dict[str, Any]:
    """Ranks of the built blocks; a block is *capped* when its rank reached
    ``max_rank`` or, uncapped, the full block rank (nothing compressed)."""
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    cap = kwargs.get("max_rank") or getattr(config, "max_rank", None)
    ranks: List[int] = []
    capped = 0
    stored = 0
    for level in range(1, out.tree.levels + 1):
        for left, right in out.tree.sibling_pairs(level):
            for rnode, cnode in ((left, right), (right, left)):
                r = int(out.U[rnode.index].shape[1])
                ranks.append(r)
                full = min(rnode.size, cnode.size)
                capped += r >= (full if cap is None else min(cap, full))
                stored += r * (rnode.size + cnode.size)
    stored += sum(int(np.size(d)) for d in out.diag.values())
    return {"ranks": ranks, "capped": capped, "stored": stored}


def _pack(out, args, kwargs) -> Dict[str, Any]:
    return {"nbytes": int(out.nbytes)}


def _factor(out, args, kwargs) -> Dict[str, Any]:
    return {"factor_bytes": int(out.stats.factorization_bytes)}


def _update(out, args, kwargs) -> Dict[str, Any]:
    info = out.last_update_info or {}
    return {
        "path": info.get("path"),
        "dirty_fraction": float(info.get("dirty_fraction", 0.0)),
    }


def _step(out, args, kwargs) -> Dict[str, Any]:
    return {
        "recycled": bool(out.recycled),
        "fallback_blocks": int(out.fallback_blocks),
        "num_blocks": int(out.num_blocks),
    }


#: (owner, attribute, span name, description, records kernel events) of
#: every wrapped boundary; ``owner=None`` marks a module-level function
LAYERS = (
    (ClusterTree, "from_points", "tree", None, False),
    (KernelMatrix, "entries", "kernels", _entries, False),
    (KernelMatrix, "entries_blocks", "kernels", _entries, False),
    (None, build_hodlr, "construct", _construct, True),
    (BigMatrices, "from_hodlr", "pack", _pack, True),
    (HODLRSolver, "factorize", "factor", _factor, True),
    (HODLRSolver, "patch_factorize", "patch", None, True),
    (HODLROperator, "solve", "solve", None, True),
    (None, repro.update_operator, "update", _update, True),
    (SweepWorkspace, "__init__", "sweep.init", None, True),
    (SweepWorkspace, "step", "sweep.step", _step, True),
)


def _wrap(tracer: Tracer, name: str, fn: Callable, describe, events: bool) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, describe, events)

    return wrapper


def install(tracer: Tracer) -> None:
    """Swap a span-recording wrapper in at every layer boundary."""
    for owner, attr, name, describe, events in LAYERS:
        if owner is None:
            # a module-level function: replace it in every repro module that
            # imported it by name
            wrapper = _wrap(tracer, name, attr, describe, events)
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "repro" or mod_name.startswith("repro."):
                    for key, value in list(vars(module).items()):
                        if value is attr:
                            setattr(module, key, wrapper)
            continue
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            inner = raw.__func__
            wrapped = _wrap(tracer, name, inner, describe, events)
            setattr(owner, attr, classmethod(wrapped))
        else:
            setattr(owner, attr, _wrap(tracer, name, raw, describe, events))
    # ``op @ x`` resolves ``__matmul__`` on the type, inherited from SciPy
    HODLROperator.__matmul__ = _wrap(
        tracer, "apply", LinearOperator.__matmul__, None, True
    )


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _children(spans: List[Dict[str, Any]]) -> Dict[Optional[int], List[Dict[str, Any]]]:
    kids: Dict[Optional[int], List[Dict[str, Any]]] = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    return kids


def _mean(xs) -> float:
    return float(np.mean(xs)) if len(xs) else 0.0


def _dur(span: Dict[str, Any]) -> float:
    return span["end"] - span["start"]


def layer_metrics(
    tracer: Tracer,
    profile: Any,
    traced_cycle_s: List[float],
    untraced_cycle_s: List[float],
    submissions: int,
) -> Dict[str, float]:
    """Per-layer metrics of the traced cycles.

    Times, counts and sizes are totals per traced cycle; rates, fractions
    and ranks are taken over all traced cycles together.  ``tree.s``,
    ``kernels.s``, ``compress.self_s``, ``pack.s``, ``factor.s``,
    ``solve.s`` and ``apply.s`` are *self* times (span duration minus its
    child spans); ``construct.s``, ``update.s``, ``update.kernels_s`` and
    ``sweep.*_s`` include their children.  Launch, flop and byte counts
    are the span's own events, its children's subtracted.  ``trace.overhead_frac`` compares
    the mean traced cycle with the mean untraced cycle of the same run.
    """
    spans = tracer.spans
    kids = _children(spans)
    roots = kids.get(None, [])
    ncyc = max(1, len(roots))

    def own(span: Dict[str, Any], key: str) -> float:
        sub = kids.get(span["id"], [])
        if key == "s":
            return _dur(span) - sum(_dur(c) for c in sub)
        return span[key] - sum(c[key] for c in sub)

    def by_name(name: str) -> List[Dict[str, Any]]:
        return [s for s in spans if s["name"] == name]

    def total(name: str, key: str) -> float:
        return float(sum(own(s, key) for s in by_name(name)))

    index = {s["id"]: s for s in spans}

    def under(ancestor: str, name: str) -> List[Dict[str, Any]]:
        out = []
        for s in by_name(name):
            p = s["parent"]
            while p is not None and index[p]["name"] != ancestor:
                p = index[p]["parent"]
            if p is not None:
                out.append(s)
        return out

    kern = by_name("kernels")
    cons = by_name("construct")
    ranks = [r for s in cons for r in s["ranks"]]
    stored = sum(s["stored"] for s in cons)
    cons_entries = sum(s["entries"] for s in under("construct", "kernels"))
    upd = by_name("update")
    upd_kern = under("update", "kernels")
    steps = by_name("sweep.step")
    blocks = sum(s["num_blocks"] for s in steps)

    def rate(name: str, key: str) -> float:
        secs = total(name, "s")
        return total(name, key) / secs / 1e9 if secs > 0 else 0.0

    factor_gflops = rate("factor", "flops")
    solve_gbps = rate("solve", "bytes")
    apply_gbps = rate("apply", "bytes")
    root_s = sum(_dur(r) for r in roots)
    covered = sum(_dur(c) for r in roots for c in kids.get(r["id"], []))
    # totals, reported per traced cycle
    per_cycle = {
        "tree.s": total("tree", "s"),
        "kernels.s": total("kernels", "s"),
        "kernels.calls": len(kern),
        "kernels.entries": sum(s["entries"] for s in kern),
        "construct.s": sum(_dur(s) for s in cons),
        "compress.self_s": total("construct", "s"),
        "compress.launches": total("construct", "launches"),
        "compress.gflop": total("construct", "flops") / 1e9,
        "compress.capped_blocks": sum(s["capped"] for s in cons),
        "pack.s": total("pack", "s"),
        "pack.mb": sum(s["nbytes"] for s in by_name("pack")) / 1e6,
        "factor.s": total("factor", "s"),
        "factor.launches": total("factor", "launches"),
        "factor.gflop": total("factor", "flops") / 1e9,
        "factor.mb": sum(s["factor_bytes"] for s in by_name("factor")) / 1e6,
        "solve.s": total("solve", "s"),
        "solve.launches": total("solve", "launches"),
        "solve.mb_moved": total("solve", "bytes") / 1e6,
        "apply.s": total("apply", "s"),
        "apply.launches": total("apply", "launches"),
        "update.s": sum(_dur(s) for s in upd),
        "update.kernels_s": sum(_dur(s) for s in upd_kern),
        "update.entries": sum(s["entries"] for s in upd_kern),
        "update.patch_launches": sum(s["launches"] for s in under("update", "patch")),
        "sweep.init_s": sum(_dur(s) for s in by_name("sweep.init")),
        "sweep.step_s": sum(_dur(s) for s in steps),
        "parallel.submissions": submissions,
        "trace.cycle_s": root_s,
        "trace.spans": len(spans),
    }
    out = {k: float(v) / ncyc for k, v in per_cycle.items()}
    out.update({
        "kernels.entries_per_stored": cons_entries / stored if stored else 0.0,
        "compress.rank_max": float(max(ranks, default=0)),
        "compress.rank_mean": _mean(ranks),
        "factor.gflops": factor_gflops,
        "factor.peak_frac": factor_gflops / profile.peak_gflops,
        "solve.gbps": solve_gbps,
        "solve.bw_frac": solve_gbps * 1e9 / profile.mem_bandwidth,
        "apply.gbps": apply_gbps,
        "apply.bw_frac": apply_gbps * 1e9 / profile.mem_bandwidth,
        "update.patch_frac": _mean([s["path"] == "patch" for s in upd]),
        "update.dirty_frac": _mean([s["dirty_fraction"] for s in upd]),
        "sweep.recycled_frac": _mean([s["recycled"] for s in steps]),
        "sweep.fallback_frac": (
            sum(s["fallback_blocks"] for s in steps) / blocks if blocks else 0.0
        ),
        "trace.coverage": covered / root_s if root_s else 0.0,
        "trace.overhead_frac": (
            _mean(traced_cycle_s) / _mean(untraced_cycle_s) - 1.0
            if untraced_cycle_s else 0.0
        ),
    })
    return out
