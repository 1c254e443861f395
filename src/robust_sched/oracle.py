"""Exact reference computations at desk scale.

Every computation here is exponential in the job count, so hard
instance-size limits are enforced up front. For a fixed scenario, the
makespan-optimal order within one machine is by nondecreasing release date
(adjacent exchange argument), which reduces the deterministic problem to
choosing each machine's job set. One scenario's optimum comes from a depth
first search over job-to-machine assignments with an admissible lower-bound
prune. The grid sweep scores a dense grid from the extreme optima: they
bound every row's optimum from below, so only the few rows that bound
cannot rule out are searched. The minimax-regret optimum is one more
makespan problem: under one scenario formed from the extreme optima, every
schedule's worst-case regret is its makespan less a constant, and a search
over per-machine sequences returns the first schedule that reaches that
scenario's optimum. That search hands no job set to a machine from which
one of its jobs cannot end by the optimum, and remembers, per machine and
set of jobs left, the least completion from which it found no schedule.
Every search prunes, and no prune changes a result.

Results carry a ``certified`` flag: a search cut short by ``time_budget``
returns its incumbent flagged ``False``. The budget is the wall clock of the
call made: every search inside one ``exact_worst_case_regret``,
``grid_regret`` or ``exhaustive_min_regret`` shares one deadline, read
before each search starts and at every node of both searches.

Every exact score on one instance needs the same extreme-scenario optima,
so ``optimal_makespan`` keeps each certified result on the instance object,
keyed by the release tuple, and reads it only before the call's deadline;
an uncertified result is never kept.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import _suffix_scaled_bounds
from .model import (
    Instance,
    RegretReport,
    Scenario,
    Schedule,
    covered_mask,
    ensure_scenario,
    ensure_valid_schedule,
    extreme_makespans,
    extreme_scenario,
    extreme_scenarios,
    lower_scenario,
    makespan,
    makespans_for_release_rows,
)

GRID_SCENARIO_LIMIT = 250_000


class LimitExceededError(ValueError):
    """Instance too large for exhaustive enumeration under the given limits."""


class _GridTooLargeError(LimitExceededError):
    """A scenario grid over ``GRID_SCENARIO_LIMIT`` rows."""


class _BudgetExhausted(Exception):
    pass


@dataclass(frozen=True)
class OracleLimits:
    """Hard caps checked before any enumeration starts."""

    max_jobs: int = 8
    max_machines: int = 3
    time_budget: float | None = None  # wall-clock seconds, None = unlimited

    def __post_init__(self) -> None:
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ValueError(f"time budget {self.time_budget} s is not at least 0")


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

    ``check`` raises ``_BudgetExhausted`` past the deadline; ``expired``
    returns the answer instead, for loops that keep their partial result.
    Without a budget neither reads the clock.
    """

    def __init__(self, budget: float | None):
        self._deadline = None if budget is None else time.monotonic() + budget

    def check(self) -> None:  # at every search node, so not through expired()
        if self._deadline is not None and time.monotonic() >= self._deadline:
            raise _BudgetExhausted

    def expired(self) -> bool:
        return self._deadline is not None and time.monotonic() >= self._deadline


def _release_sorted_jobs(inst: Instance, scenario: Scenario) -> list[int]:
    return sorted(range(inst.n), key=lambda j: (scenario.r[j], j))


def optimal_makespan(
    inst: Instance,
    scenario: Scenario,
    limits: OracleLimits = DEFAULT_LIMITS,
    *,
    deadline: _Deadline | None = None,
) -> OptimalMakespan:
    """Exact optimal makespan for one scenario, with an optimal schedule.

    Jobs are considered in release order, so any assignment explored already
    carries the optimal within-machine order. Subtrees are cut when the
    larger of the current load and the lower bound of the unassigned
    suffix cannot beat the incumbent; pruning never changes the result, as
    a test against the unpruned search of ``tests/_reference.py`` checks.

    The search stops at ``deadline``, the clock of an enclosing budgeted
    call, or else at ``limits.time_budget`` from this call's entry. Past it,
    the greedy incumbent comes back uncertified without any search.

    A certified result is kept on the instance object, keyed by the release
    tuple, and a later call with both returns it while its clock has not
    run out; an uncertified one is never kept.
    """
    _check_limits(inst, limits)
    ensure_scenario(scenario, inst)
    if deadline is None:
        deadline = _Deadline(limits.time_budget)
    kept = vars(inst).setdefault("_optima", {})
    if scenario.r in kept and not deadline.expired():
        return kept[scenario.r]
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
        if current_max >= best_value or suffix_bounds[idx] >= m * best_value:
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
        deadline.check()
        suffix_bounds = _suffix_scaled_bounds(order, release, inst.min_proc, m)
        dfs(0, 0)
    except _BudgetExhausted:
        certified = False
    result = OptimalMakespan(
        makespan=best_value,
        schedule=Schedule(machines=tuple(best_machines)),
        certified=certified,
    )
    if certified:
        kept[scenario.r] = result
    return result


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
    values = extreme_makespans(schedule, inst).tolist()
    jobs = range(inst.n)
    if effective_only:
        jobs = np.flatnonzero(~covered_mask(schedule, inst)).tolist()
    per_scenario: dict[int, int] = {}
    certified = True
    for j in jobs:
        opt = optimal_makespan(
            inst, extreme_scenario(inst, j), limits, deadline=deadline
        )
        certified = certified and opt.certified
        per_scenario[j] = values[j] - opt.makespan
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
    steps = grid_points - 1
    return sorted(
        {lo + (2 * q * (hi - lo) + steps) // (2 * steps) for q in range(steps + 1)}
    )


def _grid_rows(inst: Instance, grid_points: int, limits: OracleLimits) -> np.ndarray:
    """The grid's scenario rows in ``itertools.product`` order, or the error
    for a bad ``grid_points``, an instance over ``limits`` or a grid over
    ``GRID_SCENARIO_LIMIT`` rows (``_GridTooLargeError``)."""
    if grid_points < 2:
        raise ValueError("grid needs at least 2 points per interval")
    _check_limits(inst, limits)
    axes, total = [], 1
    for lo, hi in inst.release:
        axes.append(np.array(_grid_points(lo, hi, grid_points), dtype=np.int64))
        total *= len(axes[-1])
        if total > GRID_SCENARIO_LIMIT:
            raise _GridTooLargeError(
                f"grid would hold more than {GRID_SCENARIO_LIMIT} scenarios"
            )
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(total, inst.n)


def _grid_regrets(
    schedules: list[Schedule], inst: Instance, rows: np.ndarray, limits: OracleLimits
) -> list[RegretReport]:
    """Each valid schedule's worst regret over the grid's ``rows``, at the
    first row that attains it, under one ``limits.time_budget``.

    With opt_t the optimum of extreme scenario t and opt_lo that of the
    all-lower one, every row r has opt(r) >= floor(r) = max(opt_lo,
    max_t (opt_t - hi_t + r_t)): raising releases never lowers the optimum,
    and delaying one release by d raises it by at most d (delay a whole
    optimal schedule by d). A schedule's makespan under r is r_k + W_k for
    some position k, with W_k the work from k to the end of its machine, so
    its regret at r is at most hi_k + W_k - opt_k, at most its regret under
    extreme scenario k, a grid corner. So the largest extreme regret is the
    grid's, and only rows whose makespan less floor reaches it can attain
    it. They are walked in order, and a row attains it when its makespan
    less a feasible makespan there reaches it: the optimum kept for a
    corner, else the least makespan there of the n + 1 optimal schedules in
    hand, else the row's own ``optimal_makespan``.

    Once the clock runs out, a report is uncertified and scores the extreme
    scenarios against the optima in hand, each at least the true optimum,
    so its value is at most the full grid's.
    """
    deadline = _Deadline(limits.time_budget)
    scenarios = [*extreme_scenarios(inst), lower_scenario(inst)]
    optima = [
        optimal_makespan(inst, scenario, limits, deadline=deadline)
        for scenario in scenarios
    ]
    certified = all(result.certified for result in optima)
    # the optima in hand, by release tuple: the grid corners among the rows
    known = {scenario.r: result.makespan for scenario, result in zip(scenarios, optima)}
    opts = np.array([result.makespan for result in optima[:-1]], dtype=np.int64)
    floor = np.maximum((rows + (opts - inst.release_hi)).max(axis=1), optima[-1].makespan)
    upper = None  # per row, the least makespan of the optimal schedules in hand
    reports = []
    for schedule in schedules:
        regrets = extreme_makespans(schedule, inst) - opts
        value = int(regrets.max())
        scenario = scenarios[int(np.argmax(regrets))]
        if certified:
            spans = makespans_for_release_rows(schedule, inst, rows)
            for at in np.flatnonzero(spans - floor >= value).tolist():
                row = tuple(rows[at].tolist())
                bound = known.get(row)
                if bound is None:
                    if upper is None:
                        upper = np.min([
                            makespans_for_release_rows(result.schedule, inst, rows)
                            for result in optima
                        ], axis=0)
                    bound = int(upper[at])
                if spans[at] - bound < value:
                    solved = optimal_makespan(
                        inst, Scenario._of(row), limits, deadline=deadline
                    )
                    certified = solved.certified
                    if not certified:
                        break
                    bound = solved.makespan
                if spans[at] - bound >= value:
                    scenario = Scenario._of(row)
                    break
        reports.append(RegretReport(value, scenario, certified=certified))
    return reports


def grid_regret(
    schedule: Schedule,
    inst: Instance,
    grid_points: int,
    limits: OracleLimits = DEFAULT_LIMITS,
) -> RegretReport:
    """Worst regret over a dense rectangular grid of scenarios.

    Each interval is sampled at ``grid_points`` evenly spaced values with both
    endpoints included, so every extreme scenario is a grid corner. The
    value is the extreme-scenario reduction's, and the scenario the first
    grid row that attains it, found by solving only the rows whose optima
    the extreme optima cannot settle (see ``_grid_regrets``). The searches
    stop at ``limits.time_budget``; cut short, the report is uncertified and
    its value, scored against feasible makespans where a row's optimum is
    missing, is at most the full grid's.
    """
    rows = _grid_rows(inst, grid_points, limits)
    ensure_valid_schedule(schedule, inst)
    return _grid_regrets([schedule], inst, rows, limits)[0]


def exhaustive_min_regret(
    inst: Instance, limits: OracleLimits = DEFAULT_LIMITS
) -> MinRegretResult:
    """Schedule minimizing the exact worst-case regret over the extreme
    scenarios: the first makespan-optimal schedule under one scenario r*.

    Let opt_t be the optimum of extreme scenario t (job t released at hi_t,
    every other job at lo), M = min_t opt_t and r*_j = max(lo_j,
    hi_j + M - opt_j), which lies in the release box. Then every schedule's
    worst-case regret is its makespan under r* minus M. The regret is the
    largest, over machines i, of max_t (C_i^t - opt_t), with C_i^t machine
    i's completion under scenario t: the largest, over its positions k, of
    the release of job k plus the work from k to the end. Scenario t moves
    only job t, so C_i^t is the all-lo completion, or for t on machine i
    the larger of that and hi_t plus the work from t on. As no C_i^t is
    below the all-lo one, max_t (C_i^t - opt_t) is, per position k,
    max(lo_k - M, hi_k - opt_k) plus the work from k on: machine i's
    completion under r* minus M. An empty machine gives -M both ways.
    Nothing here uses that the opt_t are optimal.

    So the minimum regret is T - M, with T the optimum under r*, and the
    regret-optimal schedules are the makespan-optimal ones under r*. The
    search enumerates per-machine sequences, at each node first handing off
    to the next machine, then appending each remaining job in ascending
    order, and returns the first leaf whose makespan under r* is at most T:
    the lexicographically smallest optimum. A node keeps the current
    machine's completion under r*; a child that finishes past T is cut, and
    on the last machine so is one whose completion plus the remaining jobs'
    time there exceeds T. A hand-off to machine i is skipped while a job
    left, released at r*, ends past T on every machine from i on. Whether
    machines i onward can finish a job set by T, from machine i's completion
    f, depends only on i, the set and f, and a larger f only delays every
    later completion on machine i. So a node that finds no leaf keeps its f
    for (i, set) for the call, and a node whose f reaches the kept value is
    cut: the no-good memo of Ibaraki (1977), "The power of dominance
    relations in branch-and-bound algorithms". A hand-off starts at f = 0.
    No cut removes a leaf, so the first leaf and every tie are the same.

    The optima, T and the search share one ``limits.time_budget``. If an
    optimum is cut, the clock has run out: the call returns the schedule
    found for the first extreme scenario, scored as its makespan under r*
    minus M, which by the identity is its regret against the values at
    hand. If the search is cut, it returns the schedule found for T with
    regret T - M. Either result is uncertified.
    """
    _check_limits(inst, limits)
    n, m = inst.n, inst.m
    p = inst.p
    last = p[m - 1]
    deadline = _Deadline(limits.time_budget)
    optima = [
        optimal_makespan(inst, extreme_scenario(inst, j), limits, deadline=deadline)
        for j in range(n)
    ]
    least = min(result.makespan for result in optima)
    star = Scenario(r=tuple(
        max(lo, hi + least - result.makespan)
        for (lo, hi), result in zip(inst.release, optima)
    ))
    if not all(result.certified for result in optima):
        fallback = optima[0].schedule
        return MinRegretResult(fallback, makespan(fallback, star, inst) - least, False)
    target = optimal_makespan(inst, star, limits, deadline=deadline)
    bound, release = target.makespan, star.r
    # stuck[i]: the jobs that finish past T on every machine from i on
    stuck = [
        sum(1 << j for j in range(n)
            if all(release[j] + p[k][j] > bound for k in range(i, m)))
        for i in range(m)
    ]
    machines: list[list[int]] = [[] for _ in range(m)]
    # failed[left * m + i]: the least completion of machine i from which no
    # leaf was found for the jobs of the bit set left on machines i onward
    failed: dict[int, int] = {}

    def dfs(
        machine: int, remaining: tuple[int, ...], left: int, finish: int, work: int
    ) -> bool:
        # left: the bit set of remaining; finish: the current machine's
        # completion under r*; work: the last machine's total time for the
        # remaining jobs
        deadline.check()
        if not remaining:
            return True
        key = left * m + machine
        if failed.get(key, finish + 1) <= finish:
            return False
        on_last = machine == m - 1
        if not on_last and not left & stuck[machine + 1]:
            if dfs(machine + 1, remaining, left, 0, work):
                return True
        row = p[machine]
        for pick, job in enumerate(remaining):
            done = row[job] + max(finish, release[job])
            work_after = work - last[job]
            if done <= bound and (not on_last or done + work_after <= bound):
                machines[machine].append(job)
                rest = remaining[:pick] + remaining[pick + 1 :]
                if dfs(machine, rest, left ^ 1 << job, done, work_after):
                    return True
                machines[machine].pop()
        failed[key] = finish
        return False

    try:
        dfs(0, tuple(range(n)), (1 << n) - 1, 0, sum(last))
    except _BudgetExhausted:
        return MinRegretResult(target.schedule, bound - least, False)
    return MinRegretResult(
        Schedule(machines=tuple(map(tuple, machines))), bound - least, target.certified
    )
