"""Workload ``sweep``: what ``robust-sched solve`` and ``bench`` do on DS1/DS2.

One operation is one solve: build a schedule with ``pm``, ``pr`` or ``pre``
and score it with ``relaxed_regret``, either directly or as a one-cell
``experiments.run_benchmark`` grid. Full bound mode runs at n and 2n so the
doubling ratios can be read off; short bound mode runs only at a small n so
that its Θ(n⁴ log n) ``pre`` stays a minority of the run. The ``heuristics``
layer does almost all of the work.
"""
from __future__ import annotations

import random
import statistics
import time

import checks
from robust_sched import bounds, datagen, experiments, heuristics

DATASETS = ("DS1", "DS2")
FULL_SIZES = (150, 300)
FULL_MACHINES = (5, 10)
SHORT_SIZE = 60
SHORT_MACHINES = (5,)
ALGORITHMS = ("pm", "pr", "pre")
BENCH_CELL = ("DS1", 150, 5)  # also solved directly, so the two must agree
SAMPLED_SCENARIOS = 6


def cells() -> list[tuple[str, str, str, int, int]]:
    """(algorithm, bound mode, dataset, n, m) of every direct solve."""
    out = [
        (algorithm, "full", dataset, n, m)
        for dataset in DATASETS
        for n in FULL_SIZES
        for m in FULL_MACHINES
        for algorithm in ALGORITHMS
    ]
    out += [
        (algorithm, "short", dataset, SHORT_SIZE, m)
        for dataset in DATASETS
        for m in SHORT_MACHINES
        for algorithm in ("pr", "pre")
    ]
    return out


def solve(inst, algorithm: str, mode: str, build_seconds: list | None = None):
    config = heuristics.HeuristicConfig(algorithm=algorithm, bound_mode=mode)
    started = time.perf_counter()
    schedule = heuristics.build_schedule(inst, config)
    if build_seconds is not None:
        build_seconds.append(time.perf_counter() - started)
    return schedule, bounds.relaxed_regret(schedule, inst)


def bench_cell(algorithm: str, seed: int):
    dataset, n, m = BENCH_CELL
    spec = experiments.ExperimentSpec(
        dataset=dataset,
        n_values=(n,),
        m_values=(m,),
        algorithms=(algorithm,),
        seed_base=seed,
    )
    (row,) = experiments.run_benchmark(spec, workers=1)
    return row.relaxed_regret


def setup(seed: int, workdir) -> dict:
    instances = {}
    for _, _, dataset, n, m in cells():
        if (dataset, n, m) not in instances:
            params = datagen.params_for_dataset(dataset, n, m)
            instances[dataset, n, m] = datagen.generate(params, seed)
    warm = instances["DS1", SHORT_SIZE, SHORT_MACHINES[0]]
    for algorithm in ALGORITHMS:
        solve(warm, algorithm, "full")
    for algorithm in ("pr", "pre"):
        solve(warm, algorithm, "short")
    return {"seed": seed, "instances": instances, "build_seconds": {}}


def operations(state: dict) -> list:
    ops = []
    for cell in cells():
        algorithm, mode, dataset, n, m = cell
        inst = state["instances"][dataset, n, m]
        sink = state["build_seconds"].setdefault(cell, [])
        ops.append(
            (
                ("solve",) + cell,
                lambda i=inst, a=algorithm, b=mode, t=sink: solve(i, a, b, t),
            )
        )
    for algorithm in ALGORITHMS:
        ops.append(
            (("bench", algorithm), lambda a=algorithm, s=state["seed"]: bench_cell(a, s))
        )
    return ops


def check(state: dict, first: dict, varying: dict) -> list[str]:
    problems = []
    rng = random.Random(state["seed"])
    for key, output in first.items():
        if key[0] != "solve":
            continue
        inst = state["instances"][key[3:]]
        schedule, report = output
        sample = rng.sample(range(inst.n), SAMPLED_SCENARIOS)
        problems += checks.relaxed_report_problems(key, inst, schedule, report, sample)

    for algorithm in ALGORITHMS:
        direct = first[("solve", algorithm, "full") + BENCH_CELL][1].value
        if first[("bench", algorithm)] != direct:
            problems.append(
                f"run_benchmark {algorithm} {BENCH_CELL}: relaxed regret "
                f"{first[('bench', algorithm)]} != direct solve {direct}"
            )

    # a second call on the same input, on the smallest cell of each
    # algorithm and mode, must give the identical schedule
    seen = set()
    for key in first:
        if key[0] == "solve" and key[1:3] not in seen:
            seen.add(key[1:3])
            _, algorithm, mode, dataset, n, m = key
            again, _ = solve(state["instances"][dataset, n, m], algorithm, mode)
            if again != first[key][0]:
                problems.append(f"{key}: second call gave another schedule")
    return problems


def details(state) -> dict:
    """The n -> 2n doubling ratios of the full-mode builders alone (median
    over datasets and machine counts)."""
    build = {
        cell: statistics.median(values)
        for cell, values in state["build_seconds"].items()
        if values
    }
    ratios = {}
    for algorithm in ALGORITHMS:
        ratios[algorithm] = statistics.median(
            build[algorithm, "full", d, FULL_SIZES[1], m]
            / build[algorithm, "full", d, FULL_SIZES[0], m]
            for d in DATASETS
            for m in FULL_MACHINES
        )
    return {"doubling_ratio": ratios}
