"""Benchmark of the repro HODLR solver.

Run from the repository root::

    python3 perfbench/run.py --workload gauss_oneshot --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload of ``BENCHMARK.json``, each in a
process of its own, one after another.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: odd cycles run inside layer
spans (see ``tracing.py``) and even cycles run untraced, and the
per-layer metrics come from the traced cycles.  Both print every metric
of ``BENCHMARK.json`` by name and unit, a provenance line, and, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The spans of a traced run are written to
``perfbench/out/``.

The run pins the BLAS thread count to one and ``REPRO_PARALLEL`` to
``off`` (the library default), and imports
``repro`` only from ``src/`` next to this directory; without it the run
fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: setup repetitions of an end-to-end run (``setup_s`` is their median)
SETUP_REPEATS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: one BLAS thread: on the 2-core reference host the workloads compared
#: ran as fast or faster than with one thread per core
BLAS_THREADS = 1
PARALLEL = "off"


def _percentile_lines(workload: str, ms: dict) -> list:
    """Each latency kind at p50, and at p90 when 10 samples lie beyond it."""
    lines = []
    for kind, xs in sorted(ms.items()):
        p50 = statistics.median(xs)
        lines.append(f"{workload} {kind}_ms_p50 {p50:.4f} ms (samples={len(xs)})")
        if len(xs) >= 100:
            p90 = statistics.quantiles(xs, n=10)[-1]
            lines.append(f"{workload} {kind}_ms_p90 {p90:.4f} ms (samples={len(xs)})")
    return lines


def _provenance(config: dict, cycles: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "REPRO_PARALLEL": os.environ["REPRO_PARALLEL"],
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cycles": cycles,
        "config": config,
    }


def _run_all(spec: dict, args: argparse.Namespace) -> int:
    """Every workload in its own process; the last line merges the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {SRC}/repro or {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload == "all":
        return _run_all(spec, args)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    # before NumPy loads: pinned BLAS threads, serial repro pool
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["REPRO_PARALLEL"] = PARALLEL
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: repro was imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    import_s = time.perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    kind = workloads.WORKLOADS[args.workload]
    cycles = workloads.cycles_for(kind, args.seconds)
    wl = kind(args.seed, cycles)
    run = workloads.Run(repro.get_problem(kind.PROBLEM).default_config.compression.tol)

    setup_s = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)

    tracer = None
    if args.trace:
        import tracing
        from repro.backends.calibration import measure_profile

        profile = measure_profile()
        tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}")
        tracing.install(tracer)

    cycle_s = {False: [], True: []}
    #: timed seconds of each cycle (its checks and input generation excluded)
    busy_s = []
    submissions = 0
    for i in range(cycles):
        traced = tracer is not None and i % 2 == 1
        subs = repro.pool_stats().submissions
        busy = run.busy_s
        t0 = time.perf_counter()
        try:
            if traced:
                checks = tracer.cycle(i, lambda: wl.cycle(i, run))
            else:
                checks = wl.cycle(i, run)
        except Exception:
            run.failed += 1
            traceback.print_exc()
            checks = []
        cycle_s[traced].append(time.perf_counter() - t0)
        busy_s.append(run.busy_s - busy)
        if traced:
            submissions += repro.pool_stats().submissions - subs
        for check in checks:
            try:
                check()
            except Exception:
                run.failed += 1
                traceback.print_exc()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        metrics = tracing.layer_metrics(
            tracer, profile, cycle_s[True], cycle_s[False], submissions
        )
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        solve_ms = run.ms.get("solve", [])
        # the worst checked solve, as correct decimal digits: the residual
        # itself spreads too widely across seeds to carry a bound
        exact_relres = max(run.exact, default=1.0)
        metrics = {
            "setup_s": import_s + statistics.median(setup_s),
            "solve_ms_p50": statistics.median(solve_ms) if solve_ms else 0.0,
            # per median cycle, so one stalled cycle does not move it
            "solves_per_s": run.solves / cycles / max(statistics.median(busy_s), 1e-9),
            "exact_digits": -math.log10(exact_relres),
            "peak_rss_mb": peak_rss_mb,
        }

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics {missing} were not computed", file=sys.stderr)
        return 2
    prov = _provenance(wl.config, cycles)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "provenance": prov}))
    for line in _percentile_lines(args.workload, run.ms):
        print(line)
    failed_frac = run.failed / max(1, run.attempted)
    print(f"{args.workload} failed_frac {failed_frac:.4f} failed/attempted "
          f"({run.failed}/{run.attempted}, accuracy bound {run.bound:.1e})")
    print(f"{args.workload} exact_relres {max(run.exact, default=1.0):.4g} ratio "
          f"(worst of {len(run.exact)} checked solves, tol {wl.config.get('tol')})")
    for m in declared:
        print(f"{args.workload} {m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
