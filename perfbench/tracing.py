"""Per-layer spans for the traced run, recorded from outside the package.

Each layer function is replaced, in every module that looks it up, by a
wrapper that records a span (phase of the run, name, start, end) in
memory. Nothing under ``src/`` changes; the wrappers go in when the run
starts and the process ends with them. Times are inclusive:
``heuristics.pre_ms`` contains the ``bounds.extreme_bounds_ms`` that ``pre``
spends in its precompute.

Metrics of the timed section are per round (time or calls in one round of
the workload's operations); ``datagen.*`` metrics are per set-up, where
those functions run. ``tracemalloc`` runs only in the untimed memory round
that follows the timed section, around each ``relaxed_regret`` call, so the
timed calls run without allocation tracing.
"""
from __future__ import annotations

import functools
import importlib
import time
import tracemalloc

# (span name, or a function of the call's arguments giving it; defining
# module; function; modules whose global lookup reaches it)
LAYERS = (
    ("datagen.generate", "datagen", "generate", ("datagen", "experiments", "cli")),
    ("datagen.random_schedule", "datagen", "random_schedule", ("datagen", "cli")),
    ("heuristics.pm", "heuristics", "pm", ("heuristics", "cli")),
    (lambda a, k: _mode_name("pr", a, k), "heuristics", "pr", ("heuristics",)),
    (lambda a, k: _mode_name("pre", a, k), "heuristics", "pre", ("heuristics",)),
    # the pr/pre precompute and relaxed_regret, not the single-scenario bounds
    ("bounds.extreme_bounds", "bounds", "scaled_extreme_bounds", ("bounds", "heuristics")),
    # short-mode heuristics and the oracle's suffix bounds; the call inside
    # scaled_extreme_bounds is left out on purpose
    ("bounds.subset_bounds", "bounds", "scaled_combined_rows", ("heuristics", "oracle")),
    ("bounds.relaxed_regret", "bounds", "relaxed_regret", ("bounds", "experiments", "cli")),
    ("model.extreme_makespans", "model", "extreme_makespans", ("model", "bounds")),
    ("model.covered_jobs", "model", "covered_jobs", ("model", "bounds", "oracle")),
    ("model.regret_upper_bound", "model", "regret_upper_bound", ("model", "cli")),
    ("oracle.optimal_makespan", "oracle", "optimal_makespan", ("oracle", "cli")),
    ("oracle.exact_worst_case_regret", "oracle", "exact_worst_case_regret", ("oracle", "cli")),
    ("oracle.grid_regret", "oracle", "grid_regret", ("oracle", "cli")),
    ("oracle.exhaustive_min_regret", "oracle", "exhaustive_min_regret", ("oracle",)),
    ("io.read", "io", "read_instance", ("io",)),
    ("io.read", "io", "read_schedule", ("io",)),
    ("io.write", "io", "write_json", ("io",)),
    ("cli.evaluate", "cli", "main", ("cli",)),
    ("experiments.run_benchmark", "experiments", "run_benchmark", ("experiments", "cli")),
)

PER_ROUND_MS = (
    ("heuristics.pm_ms", "heuristics.pm"),
    ("heuristics.pr_ms", "heuristics.pr"),
    ("heuristics.pre_ms", "heuristics.pre"),
    ("heuristics.pr_short_ms", "heuristics.pr_short"),
    ("heuristics.pre_short_ms", "heuristics.pre_short"),
    ("bounds.extreme_bounds_ms", "bounds.extreme_bounds"),
    ("bounds.subset_bounds_ms", "bounds.subset_bounds"),
    ("bounds.relaxed_regret_ms", "bounds.relaxed_regret"),
    ("model.extreme_makespans_ms", "model.extreme_makespans"),
    ("model.covered_jobs_ms", "model.covered_jobs"),
    ("model.regret_upper_bound_ms", "model.regret_upper_bound"),
    ("oracle.optimal_makespan_ms", "oracle.optimal_makespan"),
    ("oracle.exact_worst_case_regret_ms", "oracle.exact_worst_case_regret"),
    ("oracle.grid_regret_ms", "oracle.grid_regret"),
    ("oracle.exhaustive_min_regret_ms", "oracle.exhaustive_min_regret"),
    ("io.read_ms", "io.read"),
    ("io.write_ms", "io.write"),
    ("cli.evaluate_ms", "cli.evaluate"),
    ("experiments.run_benchmark_ms", "experiments.run_benchmark"),
)
PER_ROUND_CALLS = (
    ("bounds.extreme_bounds_calls", "bounds.extreme_bounds"),
    ("bounds.subset_bounds_calls", "bounds.subset_bounds"),
    ("oracle.optimal_makespan_calls", "oracle.optimal_makespan"),
)
PER_SETUP_MS = (
    ("datagen.generate_ms", "datagen.generate"),
    ("datagen.random_schedule_ms", "datagen.random_schedule"),
)


def _mode_name(algorithm: str, args, kwargs) -> str:
    config = kwargs.get("config", args[1] if len(args) > 1 else None)
    short = config is not None and config.bound_mode == "short"
    return f"heuristics.{algorithm}_short" if short else f"heuristics.{algorithm}"


class Tracer:
    """Spans of one run, kept in memory; ``metrics`` folds them at the end."""

    def __init__(self):
        self.spans: list[tuple[str, str, float, float]] = []
        self.phase = "setup"
        self.peak_bytes = 0

    def install(self) -> None:
        for name, home, attr, users in LAYERS:
            original = getattr(importlib.import_module(f"robust_sched.{home}"), attr)
            wrapper = self._wrap(name, original)
            for user in users:
                setattr(importlib.import_module(f"robust_sched.{user}"), attr, wrapper)

    def _wrap(self, name, original):
        peak = original.__name__ == "relaxed_regret"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            phase = self.phase
            label = name(args, kwargs) if callable(name) else name
            tracing_memory = (
                peak and phase == "memory" and not tracemalloc.is_tracing()
            )
            if tracing_memory:
                tracemalloc.start()
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.spans.append((phase, label, started, time.perf_counter()))
                if tracing_memory:
                    self.peak_bytes = max(
                        self.peak_bytes, tracemalloc.get_traced_memory()[1]
                    )
                    tracemalloc.stop()

        return traced

    def metrics(self, rounds: int, setups: int) -> dict[str, tuple[float, str]]:
        seconds: dict[tuple[str, str], float] = {}
        calls: dict[tuple[str, str], int] = {}
        for phase, name, start, end in self.spans:
            seconds[phase, name] = seconds.get((phase, name), 0.0) + end - start
            calls[phase, name] = calls.get((phase, name), 0) + 1

        out: dict[str, tuple[float, str]] = {}
        for metric, name in PER_SETUP_MS:
            out[metric] = (seconds.get(("setup", name), 0.0) * 1000.0 / setups, "ms")
        for metric, name in PER_ROUND_MS:
            out[metric] = (seconds.get(("timed", name), 0.0) * 1000.0 / rounds, "ms")
        for metric, name in PER_ROUND_CALLS:
            out[metric] = (calls.get(("timed", name), 0) / rounds, "count")
        out["bounds.relaxed_regret_peak_mb"] = (self.peak_bytes / 2**20, "MB")
        # oracle-desk, the one workload with budgeted calls, overrides it
        out["oracle.budget_overrun"] = (0.0, "ratio")
        return out
