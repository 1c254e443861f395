"""Reference figures for perfbench/README.md, measured again on this machine.

    python3 perfbench/report.py --seed 1 --seconds 30 --pairs 3

Runs every workload ``--pairs`` times untraced and as often traced, one run
at a time and alternating which goes first, and prints Markdown: machine
and package facts, the median end-to-end metrics of the untraced runs, the
tracing overhead (the gap between the median untraced and traced
``ops_per_s``), the ``sweep`` doubling ratios of the builders, and the
per-layer figures of the last traced run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    details = next(
        json.loads(line[len("details: "):])
        for line in reversed(done.stderr.splitlines())
        if line.startswith("details: ")
    )
    return result, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--pairs", type=int, default=3)
    args = parser.parse_args()

    import numpy

    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )
    print(f"- CPUs: {os.cpu_count()}; Python {platform.python_version()}; "
          f"numpy {numpy.__version__}; `src/` lines: {src_lines}")
    print(f"- seed {args.seed}, {args.seconds:g} s per run, "
          f"{args.pairs} untraced and {args.pairs} traced runs per workload\n")

    layers = {}
    print("| workload | attempted | failed | setup_s | ops_per_s | op_p50_ms "
          "| peak_rss_mb | traced ops_per_s | tracing overhead |")
    print("|---|---|---|---|---|---|---|---|---|")
    doubling = None
    for workload in WORKLOADS:
        plain, traced = [], []
        for pair in range(args.pairs):
            for trace in ((0, 1) if pair % 2 == 0 else (1, 0)):
                outcome = run_once(workload, args.seed, args.seconds, trace)
                (traced if trace else plain).append(outcome)
        layers[workload] = traced[-1][0]["metrics"]
        if workload == "sweep":
            doubling = plain[0][1]["doubling_ratio"]
        m = {
            name: statistics.median(r["metrics"][name]["value"] for r, _ in plain)
            for name in plain[0][0]["metrics"]
        }
        plain_rate = statistics.median(d["ops_per_s"] for _, d in plain)
        traced_rate = statistics.median(d["ops_per_s"] for _, d in traced)
        result = plain[0][0]
        print(f"| {workload} | {result['attempted']} | {result['failed']} "
              f"| {m['setup_s']:.3f} | {m['ops_per_s']:.2f} | {m['op_p50_ms']:.1f} "
              f"| {m['peak_rss_mb']:.0f} | {traced_rate:.2f} "
              f"| {1 - traced_rate / plain_rate:.1%} |")
        if not all(r["correct"] for r, _ in plain + traced):
            print(f"\n**{workload}: a check failed; see its standard error**\n")

    print("\nDoubling ratios n=150 -> 300 (full bound mode, builder alone): "
          + ", ".join(f"{k} {v:.2f}" for k, v in doubling.items()))
    print("\n| per-layer metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    for name, first in layers["sweep"].items():
        values = " | ".join(f"{layers[w][name]['value']:.4g}" for w in WORKLOADS)
        print(f"| `{name}` | {first['unit']} | {values} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
