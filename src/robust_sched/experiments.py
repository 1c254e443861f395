"""Benchmark grid sweeps over generated instances.

A sweep draws one instance per (dataset, n, m, repetition) cell, runs the
requested algorithms on it, and records the relaxed worst-case regret plus
the solver wall time. Cells may be fanned out to worker processes (capped by
the ``ROBUST_SCHED_THREADS`` environment variable); rows are always emitted
in sorted (dataset, n, m, algorithm, seed) order, so the output is
deterministic apart from the wall-time column.
"""
from __future__ import annotations

import csv
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .bounds import relaxed_regret
from .datagen import generate, params_for_dataset
from .heuristics import HeuristicConfig, build_schedule

THREADS_ENV_VAR = "ROBUST_SCHED_THREADS"
CSV_COLUMNS = (
    "dataset",
    "n",
    "m",
    "algorithm",
    "boundMode",
    "seed",
    "relaxedRegret",
    "wallMs",
)

_ALGORITHM_ORDER = {"pm": 0, "pr": 1, "pre": 2}


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark grid: datasets x sizes x algorithms x repetitions."""

    dataset: str  # "DS1" | "DS2"
    n_values: tuple[int, ...]
    m_values: tuple[int, ...]
    algorithms: tuple[str, ...]
    bound_mode: str = "full"
    repetitions: int = 1
    seed_base: int = 0

    def __post_init__(self) -> None:
        # a bad cell is refused here, before run_benchmark reaches it
        if not self.n_values or not self.m_values:
            raise ValueError("n and m grids must be nonempty")
        for n in self.n_values:
            for m in self.m_values:
                params_for_dataset(self.dataset, n, m)
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        for name in self.algorithms:
            HeuristicConfig(algorithm=name)
        HeuristicConfig(algorithm="pr", bound_mode=self.bound_mode)
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")


@dataclass(frozen=True)
class BenchRow:
    dataset: str
    n: int
    m: int
    algorithm: str
    bound_mode: str
    seed: int
    relaxed_regret: Fraction
    wall_ms: float

    def sort_key(self) -> tuple:
        return (
            self.dataset,
            self.n,
            self.m,
            _ALGORITHM_ORDER[self.algorithm],
            self.seed,
        )


def _run_cell(args: tuple[str, int, int, str, str, int]) -> BenchRow:
    dataset, n, m, algorithm, bound_mode, seed = args
    inst = generate(params_for_dataset(dataset, n, m), seed)
    config = HeuristicConfig(
        algorithm=algorithm,
        bound_mode=bound_mode if algorithm in ("pr", "pre") else "full",
    )
    started = time.perf_counter()
    schedule = build_schedule(inst, config)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    value = relaxed_regret(schedule, inst).value
    return BenchRow(
        dataset=dataset,
        n=n,
        m=m,
        algorithm=algorithm,
        bound_mode=config.bound_mode,
        seed=seed,
        relaxed_regret=Fraction(value),
        wall_ms=elapsed_ms,
    )


def worker_count() -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_benchmark(spec: ExperimentSpec, workers: int | None = None) -> list[BenchRow]:
    """Run every cell of the grid and return rows in deterministic order."""
    cells = [
        (spec.dataset, n, m, algorithm, spec.bound_mode, spec.seed_base + rep)
        for n in spec.n_values
        for m in spec.m_values
        for algorithm in spec.algorithms
        for rep in range(spec.repetitions)
    ]
    workers = worker_count() if workers is None else max(1, workers)
    if workers == 1 or len(cells) == 1:
        rows = [_run_cell(cell) for cell in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, cells))
    return sorted(rows, key=BenchRow.sort_key)


def rows_to_csv(rows: list[BenchRow], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.dataset,
                    row.n,
                    row.m,
                    row.algorithm,
                    row.bound_mode,
                    row.seed,
                    float(row.relaxed_regret),
                    f"{row.wall_ms:.3f}",
                ]
            )


def render_markdown(rows: list[BenchRow]) -> str:
    """Pivot rows into one table per (dataset, m): sizes down, algorithms across.

    Cells are the mean relaxed regret over the repetitions of that cell.
    """
    groups: dict[tuple[str, int], dict[tuple[int, str], list[Fraction]]] = {}
    for row in rows:
        cells = groups.setdefault((row.dataset, row.m), {})
        cells.setdefault((row.n, row.algorithm), []).append(row.relaxed_regret)

    blocks: list[str] = []
    for (dataset, m), cells in sorted(groups.items()):
        sizes = sorted({n for n, _ in cells})
        algorithms = sorted(
            {a for _, a in cells}, key=lambda a: _ALGORITHM_ORDER[a]
        )
        lines = [
            f"### {dataset}, m={m} (mean relaxed regret)",
            "",
            "| n | " + " | ".join(algorithms) + " |",
            "|---" * (len(algorithms) + 1) + "|",
        ]
        for n in sizes:
            values = []
            for algorithm in algorithms:
                bucket = cells.get((n, algorithm))
                if bucket:
                    mean = sum(bucket) / len(bucket)
                    values.append(f"{float(mean):.1f}")
                else:
                    values.append("-")
            lines.append(f"| {n} | " + " | ".join(values) + " |")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
