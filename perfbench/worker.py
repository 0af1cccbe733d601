"""Workload process: set up, signal readiness, then run timed passes.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

After importing pcapflow from ``src/`` and generating the inputs it prints
``ready`` and flushes, which is where the parent stops the set-up clock.
With ``--setup-only`` it exits there.  Otherwise it runs passes until the
next one would end after ``--seconds`` (at least two), and prints one JSON
line of raw measurements for ``run.py`` to turn into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_PASSES = 2


def _import_program():
    sys.path.insert(0, SRC)
    import pcapflow
    from pcapflow import cli, functionals, geometry, numerics, radial, solver2d, verify  # noqa: F401

    if not os.path.abspath(pcapflow.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"pcapflow imported from {pcapflow.__file__}, not from {SRC}")


def _timed_pass(workload, inputs):
    import workloads

    sink = io.StringIO()  # the CLI prints its summary lines; keep stdout for the result
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(sink):
        tally, kept = workloads.run_pass(workload, inputs)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {"wall": wall, "cpu": cpu, "attempted": tally.attempted, "failed": tally.failed,
            "raised": tally.raised, "errors": tally.errors[:8]}, kept


def _want_another(costs, started, seconds, minimum) -> bool:
    """Run at least ``minimum`` rounds, then another only if it ends in time."""
    if len(costs) < minimum:
        return True
    return time.perf_counter() - started + statistics.median(costs) <= seconds


def run_untraced(workload, inputs, seconds):
    import workloads

    passes, checks = [], None
    started = time.perf_counter()
    while _want_another([p["wall"] for p in passes], started, seconds, MIN_PASSES):
        record, kept = _timed_pass(workload, inputs)
        passes.append(record)
        if checks is None:
            checks = {
                "closed_form": workloads.closed_form_errors(workload, inputs, kept),
                "observations": workloads.oracle_observations(workload, inputs, kept),
            }
        del kept
    return {"passes": passes, "checks": checks}


def run_traced(workload, inputs, seconds, seed):
    """Pair untraced and traced passes; the gap is the tracing overhead.

    Pairs alternate which side runs first, starting with the traced one, so
    the first pass of the process (which runs cold) is not always untraced.
    """
    import workloads
    from tracer import Tracer

    passes, traced, summaries = [], [], []
    tracer = Tracer()
    started = time.perf_counter()
    while _want_another([a["wall"] + b["wall"] for a, b in zip(passes, traced)], started, seconds, 1):
        for side in ("traced", "untraced") if len(passes) % 2 == 0 else ("untraced", "traced"):
            if side == "untraced":
                passes.append(_timed_pass(workload, inputs)[0])
                continue
            with tracer:
                traced.append(_timed_pass(workload, inputs)[0])
            summaries.append(tracer.summary())
            tracer.reset()
    probe = workloads.accuracy_probe(ROOT, seed)
    return {"passes": passes, "traced": traced, "summaries": summaries, "probe": probe}


def environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_program()
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, ROOT)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        out = run_traced(args.workload, inputs, args.seconds, args.seed)
    else:
        out = run_untraced(args.workload, inputs, args.seconds)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["environment"] = environment()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
