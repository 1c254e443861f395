"""Benchmark for robust-sched: one workload per call, checked and timed.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The package is imported from ``src/`` of
that checkout, in this one process: a closed loop that issues one operation
at a time, with no worker pool (``ROBUST_SCHED_THREADS`` is removed from the
environment).

A run sets up its inputs ``SETUP_REPEATS`` times from ``--seed`` (the median
is ``setup_s``), then runs whole rounds of the same operations until
``--seconds`` have passed. Each output is compared at once with the first
output of the same operation, which alone is kept; after the timed section
the first outputs are checked against the plain-Python reference in
``reference.py`` and the properties the method must have. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of ``tracing.py`` with ``--trace 1``. A line starting
with ``details:`` on standard error gives figures that are not metrics
(rounds, per-cell latencies, doubling ratios).

A workload module defines ``setup(seed, workdir)``, ``operations(state)``
(a list of ``(key, call)``) and ``check(state, first, varying)``. It may
define ``UNREPEATABLE`` (key kinds whose output may differ between rounds:
each distinct output is kept once, in ``varying``), ``failed(state, key,
output, seconds)``, ``per_layer(state, latency)`` (per-layer metrics it
computes itself) and ``details(state)``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

WORKLOADS = {
    "sweep": "sweep",
    "evaluate-large": "evaluate_large",
    "oracle-desk": "oracle_desk",
}
SETUP_REPEATS = 5
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package() -> None:
    """Put the checkout's ``src/`` first on the path and import the package
    single-threaded; exit with an error if the checkout has no package."""
    src = ROOT / "src"
    if not (src / "robust_sched" / "__init__.py").is_file():
        sys.exit(f"error: no robust_sched package under {src}")
    os.environ.pop("ROBUST_SCHED_THREADS", None)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, str(src))
    importlib.import_module("robust_sched")


def run(args: argparse.Namespace) -> tuple[dict, list[str], dict]:
    workload = importlib.import_module(WORKLOADS[args.workload])
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_seconds = []
        for _ in range(SETUP_REPEATS):
            state = None  # free the previous set-up before the next
            started = time.perf_counter()
            state = workload.setup(args.seed, workdir)
            setup_seconds.append(time.perf_counter() - started)

        operations = workload.operations(state)
        is_failed = getattr(workload, "failed", lambda *_: False)
        unrepeatable = getattr(workload, "UNREPEATABLE", frozenset())
        # the first output of each operation, with which every later one
        # is compared at once; operations whose output may vary keep each
        # distinct output once instead
        first: dict[tuple, object] = {}
        varying: dict[tuple, list] = {}
        latency: dict[tuple, list[float]] = {}
        problems: list[str] = []
        attempted = failed = 0
        if tracer:
            tracer.phase = "timed"
        rounds = 0
        round_ends = []
        cpu_started = time.process_time()
        started = time.perf_counter()
        while True:
            for key, call in operations:
                t0 = time.perf_counter()
                output = call()
                seconds = time.perf_counter() - t0
                attempted += 1
                failed += bool(is_failed(state, key, output, seconds))
                latency.setdefault(key, []).append(seconds)
                if key[0] in unrepeatable:
                    seen = varying.setdefault(key, [])
                    if output not in seen:
                        seen.append(output)
                elif key not in first:
                    first[key] = output
                elif output != first[key]:
                    problems.append(f"{key}: output differs between rounds")
            rounds += 1
            round_ends.append(time.perf_counter())
            if round_ends[-1] - started >= args.seconds:
                break
        elapsed = time.perf_counter() - started
        cpu_seconds = time.process_time() - cpu_started
        if tracer:
            # one more round, untimed, for the per-call memory peaks
            tracer.phase = "memory"
            for _, call in operations:
                call()
            tracer.phase = "check"

        problems += workload.check(state, first, varying)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    samples = [s for values in latency.values() for s in values]
    ops_per_s = attempted / elapsed
    if tracer:
        metrics = tracer.metrics(rounds, SETUP_REPEATS)
        per_layer = getattr(workload, "per_layer", lambda *_: {})
        metrics.update(per_layer(state, latency))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_seconds), "s"),
            "ops_per_s": (ops_per_s, "ops/s"),
            "op_p50_ms": (statistics.median(samples) * 1000.0, "ms"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            ),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "elapsed_s": elapsed,
        "cpu_s": cpu_seconds,
        "round_s": [b - a for a, b in zip([started] + round_ends, round_ends)],
        "ops_per_s": ops_per_s,
        "setup_s_each": setup_seconds,
        # median latency in ms of each distinct operation
        "op_ms": {
            "/".join(map(str, key)): statistics.median(values) * 1000.0
            for key, values in latency.items()
        },
        **getattr(workload, "details", lambda _: {})(state),
    }
    return result, problems, details


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")
    import_package()
    result, problems, details = run(args)
    for problem in problems[:50]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("details: " + json.dumps(details, default=str), file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
