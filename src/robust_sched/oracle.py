"""Exact reference computations at desk scale.

Everything here enumerates, so hard instance-size limits are enforced up
front. For a fixed scenario, the makespan-optimal order within one machine is
by nondecreasing release date (adjacent exchange argument), which reduces the
deterministic problem to a search over job-to-machine assignments; that
search runs depth first with an admissible lower-bound prune. The full
minimax-regret optimum enumerates per-machine sequences outright, since the
regret objective has no per-machine ordering rule.

Results carry a ``certified`` flag: a search cut short by ``time_budget``
returns its incumbent flagged ``False``. The budget is the wall clock of the
call made: every search inside one ``exact_worst_case_regret`` or
``exhaustive_min_regret`` shares one deadline, read before each search
starts.
"""
from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import scaled_combined_rows
from .model import (
    Instance,
    RegretReport,
    Scenario,
    Schedule,
    covered_jobs,
    ensure_scenario,
    ensure_valid_schedule,
    extreme_release_matrix,
    extreme_scenario,
    makespans_for_release_rows,
)

GRID_SCENARIO_LIMIT = 250_000


class LimitExceededError(ValueError):
    """Instance too large for exhaustive enumeration under the given limits."""


class _BudgetExhausted(Exception):
    pass


@dataclass(frozen=True)
class OracleLimits:
    """Hard caps checked before any enumeration starts."""

    max_jobs: int = 8
    max_machines: int = 3
    time_budget: float | None = None  # wall-clock seconds, None = unlimited


DEFAULT_LIMITS = OracleLimits()


class OptimalMakespan(NamedTuple):
    makespan: int
    schedule: Schedule
    certified: bool


class MinRegretResult(NamedTuple):
    schedule: Schedule
    regret: int
    certified: bool


def _check_limits(inst: Instance, limits: OracleLimits) -> None:
    if inst.n > limits.max_jobs:
        raise LimitExceededError(
            f"{inst.n} jobs exceed the enumeration limit of {limits.max_jobs}"
        )
    if inst.m > limits.max_machines:
        raise LimitExceededError(
            f"{inst.m} machines exceed the enumeration limit of {limits.max_machines}"
        )


class _Deadline:
    """The wall clock of one budgeted call, shared by every search it runs.

    ``check`` reads the clock once every 1024 calls, for search loops with
    cheap steps; ``check_now`` reads it at once, before a search starts.
    """

    def __init__(self, budget: float | None):
        self._deadline = None if budget is None else time.monotonic() + budget
        self._tick = 0

    def check(self) -> None:
        if self._deadline is None:
            return
        self._tick += 1
        if self._tick & 0x3FF:
            return
        self.check_now()

    def check_now(self) -> None:
        if self._deadline is not None and time.monotonic() >= self._deadline:
            raise _BudgetExhausted


def _release_sorted_jobs(inst: Instance, scenario: Scenario) -> list[int]:
    return sorted(range(inst.n), key=lambda j: (scenario.r[j], j))


def _suffix_scaled_bounds(
    inst: Instance, scenario: Scenario, order: list[int]
) -> list[int]:
    """Scaled combined bound of each suffix of the release-sorted job list."""
    out = [0] * (len(order) + 1)
    rel = scenario.r_array
    for idx in range(len(order)):
        jobs = np.array(order[idx:], dtype=np.int64)
        row = rel[jobs].reshape(1, -1)
        proc = inst.min_proc[jobs].reshape(1, -1)
        out[idx] = int(scaled_combined_rows(row, proc, inst.m)[0])
    return out


def optimal_makespan(
    inst: Instance,
    scenario: Scenario,
    limits: OracleLimits = DEFAULT_LIMITS,
    *,
    prune: bool = True,
    deadline: _Deadline | None = None,
) -> OptimalMakespan:
    """Exact optimal makespan for one scenario, with an optimal schedule.

    Jobs are considered in release order, so any assignment explored already
    carries the optimal within-machine order. Subtrees are cut when the
    larger of the current load and the combined bound of the unassigned
    suffix cannot beat the incumbent; pruning never changes the result.

    The search stops at ``deadline``, the clock of an enclosing budgeted
    call, or else at ``limits.time_budget`` from now. Past it, the greedy
    incumbent comes back uncertified without any search.
    """
    _check_limits(inst, limits)
    ensure_scenario(scenario, inst)
    n, m = inst.n, inst.m
    order = _release_sorted_jobs(inst, scenario)
    p = inst.p
    release = scenario.r

    # Greedy incumbent: earliest-completion machine per job, in release order.
    loads = [0] * m
    greedy: list[list[int]] = [[] for _ in range(m)]
    for job in order:
        completions = [p[i][job] + max(loads[i], release[job]) for i in range(m)]
        i_best = min(range(m), key=lambda i: (completions[i], i))
        loads[i_best] = completions[i_best]
        greedy[i_best].append(job)
    best_value = max(loads)
    best_machines = [tuple(seq) for seq in greedy]

    if deadline is None:
        deadline = _Deadline(limits.time_budget)
    suffix_bounds: list[int] = []
    loads = [0] * m
    stack: list[list[int]] = [[] for _ in range(m)]

    def dfs(idx: int, current_max: int) -> None:
        nonlocal best_value, best_machines
        deadline.check()
        if idx == n:
            if current_max < best_value:
                best_value = current_max
                best_machines = [tuple(seq) for seq in stack]
            return
        if prune:
            if current_max >= best_value:
                return
            if suffix_bounds[idx] >= m * best_value:
                return
        job = order[idx]
        for i in range(m):
            finished = p[i][job] + max(loads[i], release[job])
            previous = loads[i]
            loads[i] = finished
            stack[i].append(job)
            dfs(idx + 1, max(current_max, finished))
            stack[i].pop()
            loads[i] = previous

    certified = True
    try:
        deadline.check_now()
        if prune:
            suffix_bounds = _suffix_scaled_bounds(inst, scenario, order)
        dfs(0, 0)
    except _BudgetExhausted:
        certified = False
    return OptimalMakespan(
        makespan=best_value,
        schedule=Schedule(machines=tuple(best_machines)),
        certified=certified,
    )


def optimal_makespans_for_release_rows(
    inst: Instance, release_rows: np.ndarray, limits: OracleLimits = DEFAULT_LIMITS
) -> np.ndarray:
    """Optimal makespan under every scenario row at once.

    Enumerates all job-to-machine assignments and, per assignment, evaluates
    each machine's release-sorted chain vectorized over the scenario rows.
    """
    _check_limits(inst, limits)
    release_rows = np.asarray(release_rows, dtype=np.int64)
    count, n = release_rows.shape
    if n != inst.n:
        raise ValueError("scenario rows do not match the job count")
    p = inst.p_array
    best = np.full(count, np.iinfo(np.int64).max, dtype=np.int64)
    for assignment in itertools.product(range(inst.m), repeat=n):
        worst = np.zeros(count, dtype=np.int64)
        for i in range(inst.m):
            jobs = np.array(
                [j for j in range(n) if assignment[j] == i], dtype=np.int64
            )
            if jobs.size == 0:
                continue
            rel = release_rows[:, jobs]
            order = np.argsort(rel, axis=1, kind="stable")
            rel = np.take_along_axis(rel, order, axis=1)
            proc = p[i, jobs][order]
            current = np.zeros(count, dtype=np.int64)
            for k in range(jobs.size):
                current = np.maximum(current, rel[:, k]) + proc[:, k]
            np.maximum(worst, current, out=worst)
        np.minimum(best, worst, out=best)
    return best


def exact_worst_case_regret(
    schedule: Schedule,
    inst: Instance,
    limits: OracleLimits = DEFAULT_LIMITS,
    *,
    effective_only: bool = True,
) -> RegretReport:
    """Exact worst-case regret of a schedule over the extreme scenarios.

    Each term needs the true optimal makespan of its scenario, hence the
    desk-scale limits. ``effective_only`` skips scenarios of jobs with
    covered intervals; the maximum is unchanged by the skip. All the
    searches share one ``limits.time_budget``.
    """
    _check_limits(inst, limits)
    ensure_valid_schedule(schedule, inst)
    deadline = _Deadline(limits.time_budget)
    values = makespans_for_release_rows(
        schedule, inst, extreme_release_matrix(inst)
    )
    jobs = range(inst.n)
    if effective_only:
        skip = covered_jobs(schedule, inst)
        jobs = [j for j in jobs if j not in skip]
    per_scenario: dict[int, int] = {}
    certified = True
    for j in jobs:
        opt = optimal_makespan(
            inst, extreme_scenario(inst, j), limits, deadline=deadline
        )
        certified = certified and opt.certified
        per_scenario[j] = int(values[j]) - opt.makespan
    best_job = max(per_scenario, key=lambda j: (per_scenario[j], -j))
    return RegretReport(
        value=per_scenario[best_job],
        scenario=extreme_scenario(inst, best_job),
        per_scenario=per_scenario,
        certified=certified,
    )


def _grid_points(lo: int, hi: int, grid_points: int) -> list[int]:
    """Evenly spaced integers over [lo, hi], endpoints included, deduplicated.

    Interior points are rounded half-up so integer instances stay integral.
    """
    if hi == lo:
        return [lo]
    steps = grid_points - 1
    values = sorted(
        {lo + (2 * q * (hi - lo) + steps) // (2 * steps) for q in range(steps + 1)}
    )
    return values


def grid_regret(
    schedule: Schedule,
    inst: Instance,
    grid_points: int,
    limits: OracleLimits = DEFAULT_LIMITS,
) -> RegretReport:
    """Worst regret over a dense rectangular grid of scenarios.

    Each interval is sampled at ``grid_points`` evenly spaced values with both
    endpoints included, so every extreme scenario is a grid corner. Intended
    as an independent cross-check of the extreme-scenario reduction.
    """
    if grid_points < 2:
        raise ValueError("grid needs at least 2 points per interval")
    _check_limits(inst, limits)
    ensure_valid_schedule(schedule, inst)

    axes = [_grid_points(lo, hi, grid_points) for lo, hi in inst.release]
    total = 1
    for axis in axes:
        total *= len(axis)
        if total > GRID_SCENARIO_LIMIT:
            raise LimitExceededError(
                f"grid would hold more than {GRID_SCENARIO_LIMIT} scenarios"
            )
    rows = np.array(list(itertools.product(*axes)), dtype=np.int64)
    values = makespans_for_release_rows(schedule, inst, rows)
    optima = optimal_makespans_for_release_rows(inst, rows, limits)
    regrets = values - optima
    at = int(np.argmax(regrets))
    return RegretReport(
        value=int(regrets[at]),
        scenario=Scenario(r=tuple(int(v) for v in rows[at])),
        per_scenario={},
    )


def exhaustive_min_regret(
    inst: Instance,
    limits: OracleLimits = DEFAULT_LIMITS,
    *,
    prune: bool = True,
) -> MinRegretResult:
    """Schedule minimizing the exact worst-case regret, by full enumeration.

    Per-machine sequences are enumerated in lexicographic order of the
    schedule encoding, so ties resolve to the lexicographically smallest
    optimal schedule. The partial worst-case regret only grows as jobs are
    appended, which gives the (optional, result-preserving) prune.

    The optima and the enumeration share one ``limits.time_budget``. Cut
    short before any complete schedule, the call returns the schedule found
    for the first extreme scenario, scored against the optima at hand.
    """
    _check_limits(inst, limits)
    n, m = inst.n, inst.m
    p = inst.p

    deadline = _Deadline(limits.time_budget)
    optima = [
        optimal_makespan(inst, extreme_scenario(inst, j), limits, deadline=deadline)
        for j in range(n)
    ]
    opts = [result.makespan for result in optima]
    certified = all(result.certified for result in optima)

    extreme_release = extreme_release_matrix(inst)  # row t, column j

    machines: list[list[int]] = [[] for _ in range(m)]
    # last[i][t]: completion of machine i's sequence under extreme scenario t
    last = [[0] * n for _ in range(m)]
    best_regret: int | None = None
    best_machines: tuple[tuple[int, ...], ...] | None = None

    def partial_regret() -> int:
        worst = None
        for t in range(n):
            peak = 0
            for i in range(m):
                if last[i][t] > peak:
                    peak = last[i][t]
            term = peak - opts[t]
            if worst is None or term > worst:
                worst = term
        return worst

    def dfs(machine: int, remaining: list[int]) -> None:
        nonlocal best_regret, best_machines
        deadline.check()
        if not remaining:
            value = partial_regret()
            if best_regret is None or value < best_regret:
                best_regret = value
                best_machines = tuple(tuple(seq) for seq in machines)
            return
        if prune and best_regret is not None and partial_regret() >= best_regret:
            return
        if machine < m - 1:
            dfs(machine + 1, remaining)
        for pick, job in enumerate(remaining):
            saved = last[machine][:]
            row = p[machine]
            for t in range(n):
                release = int(extreme_release[t, job])
                last[machine][t] = row[job] + max(last[machine][t], release)
            machines[machine].append(job)
            dfs(machine, remaining[:pick] + remaining[pick + 1 :])
            machines[machine].pop()
            last[machine] = saved

    try:
        deadline.check_now()
        dfs(0, list(range(n)))
    except _BudgetExhausted:
        certified = False
    if best_machines is None:  # budget hit before the first leaf
        fallback = optima[0].schedule
        best_machines = fallback.machines
        values = makespans_for_release_rows(fallback, inst, extreme_release)
        best_regret = max(map(operator.sub, values.tolist(), opts))
    return MinRegretResult(
        schedule=Schedule(machines=best_machines),
        regret=int(best_regret),
        certified=certified,
    )
