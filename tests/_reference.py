"""Naive reference implementations of the three constructive algorithms.

Written directly from the selection rules with plain loops and exact
Fractions, independent of the package's vectorized code paths; bounds come
from the brute-force helpers. Used to cross-check decisions, including tie
handling, on small instances.

The module also keeps the n x n matrix path of the extreme-scenario
kernels, one full release row per extreme scenario, as the differential
reference of ``scaled_extreme_bounds`` and ``extreme_makespans``, and the
per-job loops of schedule validation, covered jobs, effective scenarios and
the regret upper bound, which the package now does in numpy or in one
sorted comparison.

``reference_optimal_makespan`` is the oracle's assignment search without
its prune (the greedy incumbent, then every assignment depth first): the
reference of the always-pruned ``optimal_makespan``.
``reference_exhaustive_min_regret`` is the minimax-regret search that kept
an (m, n) table of completions under every extreme scenario and rescanned
it at each node. ``reference_memo_min_regret`` is the search that kept one
completion per extreme scenario and the largest regret of the finished
machines, with the start bound, the child prune and the hand-off memo.
Both score regret scenario by scenario: the references of
``exhaustive_min_regret``, which searches for the first makespan-optimal
schedule under the one scenario r* instead.
``reference_first_leaf_min_regret`` is that first-leaf search as it stood
with a set of failed hand-offs alone, before the per-job fit test and the
finish-dominance memo.
``reference_completion_profile`` is the scalar chain loop that
``completion_profile`` replaced with the closed form of the chain rule.
``subset_dp_row_optima`` is the DP over job subsets that solved every row
of the grid sweep, and ``subset_dp_grid_regrets`` the sweep over it: the
differential references of the grid sweep that searches only the rows the
extreme optima cannot settle, and, row by row, of ``optimal_makespan``.
``reference_release_row_optima`` tries all mⁿ job-to-machine assignments
over a batch of scenario rows: the reference of that DP.

``dense_pm`` and ``dense_pr`` are the dense per-iteration rescans that
``pm`` and full-mode ``pr`` replaced: the differential references of the
event-driven builders. ``state_partial_regret`` with its ``BuildState`` is
the partial-regret loop that kept an (m, n+1) matrix of completions under
every extreme scenario: the differential reference of short ``pr`` and
``pre``, which now keep one column per placed job.

The bound kernel's independent reference is the argsort path that sorts
one explicit release row per scenario (``reference_bound_components``):
``reference_query_bounds`` spells out every query of the package's
batched anchor kernel as such a row, and ``reference_suffix_bounds`` is the
oracle's old one-call-per-suffix loop. ``kernel_suffix_bounds`` is the
oracle's later one kernel call over n bases, and
``kernel_extreme_suffix_bounds`` the same bounds under every extreme
scenario from a few kernel calls: the floors of the suffix scan, which may
be above them. ``scalar_suffix_scan`` is the oracle's pure-Python reverse
scan that followed, and ``reference_lb_combined`` is ``lb_combined`` with
its own suffix sums, minima and counts: the references of the one suffix
scan in ``bounds`` that both now read. ``relabel_jobs``, which renames
jobs for the invariance tests, lives here too: the package never calls it.

``reference_dumps`` is the pinned file writer, Python's indenting JSON
encoder, against which ``io.dumps`` and its C-encoder calls must match byte
for byte. ``reference_instance_tables`` is the ``Instance`` constructor's
conversion and checks entry by entry, against which the one numpy
conversion must accept and refuse the same inputs with the same errors.
"""
from __future__ import annotations

import bisect
import itertools
import json
import operator
from fractions import Fraction

import numpy as np

from robust_sched.bounds import BoundsReport, scaled_combined_rows, scaled_extreme_bounds
from robust_sched.heuristics import _short_bounds
from robust_sched.model import (
    CompletionProfile,
    Instance,
    RegretReport,
    Scenario,
    Schedule,
    ScheduleViolation,
    ensure_scenario,
    ensure_valid_schedule,
    extreme_makespans,
    extreme_scenario,
    makespan,
    makespans_for_release_rows,
)
from robust_sched.oracle import (
    DEFAULT_LIMITS,
    LimitExceededError,
    MinRegretResult,
    OptimalMakespan,
    OracleLimits,
    _BudgetExhausted,
    _check_limits,
    _Deadline,
    _release_sorted_jobs,
    optimal_makespan,
)

from _brute import brute_lb1, brute_lb2, brute_lb3


def _last_completion(machine_jobs, row, r):
    c = 0
    for job in machine_jobs:
        c = row[job] + max(c, r[job])
    return c


def _combined(r, p, jobs):
    sub_p = [[p[i][j] for j in jobs] for i in range(len(p))]
    sub_r = [r[j] for j in jobs]
    return max(
        Fraction(brute_lb1(sub_r, sub_p)),
        brute_lb2(sub_r, sub_p),
        Fraction(brute_lb3(sub_r, sub_p)),
    )


def _lows(intervals):
    return [lo for lo, _ in intervals]


def reference_pm(p, intervals):
    n, m = len(p[0]), len(p)
    remaining = set(range(n))
    machines = [[] for _ in range(m)]
    while remaining:
        best = None
        for j in sorted(remaining):
            ahead = [
                t for t in remaining
                if t != j and intervals[t][0] < intervals[j][1]
            ]
            load = sum(
                Fraction(sum(p[i][t] for i in range(m)), m) for t in ahead
            )
            key = (len(ahead), load, j)
            if best is None or key < best:
                best = key
        v = best[2]
        r = _lows(intervals)
        r[v] = intervals[v][1]
        choice = None
        for i in range(m):
            c = p[i][v] + max(_last_completion(machines[i], p[i], r), r[v])
            if choice is None or (c, i) < choice:
                choice = (c, i)
        machines[choice[1]].append(v)
        remaining.discard(v)
    return machines


def reference_pr(p, intervals, short=False):
    n, m = len(p[0]), len(p)
    remaining = set(range(n))
    placed: list[int] = []
    machines = [[] for _ in range(m)]
    lows = _lows(intervals)
    while remaining:
        candidates = []
        for v in sorted(remaining):
            r = _lows(intervals)
            r[v] = intervals[v][1]
            jobs = sorted(placed + [v]) if short else list(range(n))
            bound = _combined(r, p, jobs)
            for i in range(m):
                c = p[i][v] + max(_last_completion(machines[i], p[i], r), r[v])
                candidates.append((c - bound, i, v))
        best_value = min(value for value, _, _ in candidates)
        ties = [(i, v) for value, i, v in candidates if value == best_value]
        if len(ties) > 1:
            def tie_key(pair):
                i, v = pair
                gap = max(
                    _last_completion(machines[i], p[i], lows) - intervals[v][1],
                    0,
                )
                return (-gap, v, i)
            i, v = min(ties, key=tie_key)
        else:
            i, v = ties[0]
        machines[i].append(v)
        placed.append(v)
        remaining.discard(v)
    return machines


def reference_pre(p, intervals, short=False):
    n, m = len(p[0]), len(p)
    remaining = set(range(n))
    placed: list[int] = []
    machines = [[] for _ in range(m)]
    while remaining:
        candidates = []
        for v in sorted(remaining):
            jobs = sorted(placed + [v]) if short else list(range(n))
            for i in range(m):
                worst = None
                for t in placed + [v]:
                    r = _lows(intervals)
                    r[t] = intervals[t][1]
                    bound = _combined(r, p, jobs)
                    c = p[i][v] + max(
                        _last_completion(machines[i], p[i], r), r[v]
                    )
                    term = c - bound
                    if worst is None or term > worst:
                        worst = term
                candidates.append((worst, i, v))
        best_value = min(value for value, _, _ in candidates)
        ties = [(i, v) for value, i, v in candidates if value == best_value]
        if len(ties) > 1:
            def tie_key(pair):
                i, v = pair
                total = 0
                for t in placed:
                    r = _lows(intervals)
                    r[t] = intervals[t][1]
                    total += max(
                        _last_completion(machines[i], p[i], r)
                        - intervals[v][1],
                        0,
                    )
                mean = Fraction(total, len(placed)) if placed else Fraction(0)
                return (-mean, v, i)
            i, v = min(ties, key=tie_key)
        else:
            i, v = ties[0]
        machines[i].append(v)
        placed.append(v)
        remaining.discard(v)
    return machines


def _schedule(machines):
    return Schedule(machines=tuple(tuple(seq) for seq in machines))


def dense_pm(inst):
    """``pm`` as a dense rescan: an n x n ``earlier`` matrix gives every
    job's count and load, decremented as jobs are placed, and each
    iteration takes the minimum (count, load, job) over all candidates."""
    n = inst.n
    rlo, rhi = inst.release_lo, inst.release_hi
    sump = inst.sum_proc
    earlier = rlo[None, :] < rhi[:, None]  # earlier[j, t]: t may precede j
    np.fill_diagonal(earlier, False)
    active = np.ones(n, dtype=bool)
    avail_count = earlier.sum(axis=1)
    avail_load = earlier @ sump
    base = np.zeros(inst.m, dtype=np.int64)
    machines = [[] for _ in range(inst.m)]
    for _ in range(n):
        cand = np.flatnonzero(active)
        keys = zip(
            avail_count[cand].tolist(), avail_load[cand].tolist(), cand.tolist()
        )
        job = min(keys)[2]
        completions = inst.p_array[:, job] + np.maximum(base, rhi[job])
        machine = int(np.argmin(completions))
        machines[machine].append(job)
        base[machine] = max(base[machine], rlo[job]) + inst.p_array[machine, job]
        active[job] = False
        affected = earlier[:, job] & active
        avail_count[affected] -= 1
        avail_load[affected] -= sump[job]
    return _schedule(machines)


def dense_pr(inst):
    """Full-mode ``pr`` as a dense rescan: every iteration scores the whole
    (machine, candidate) grid and breaks ties on (largest gap, job,
    machine)."""
    m = inst.m
    rhi = inst.release_hi
    bounds = scaled_extreme_bounds(inst)
    base = np.zeros(m, dtype=np.int64)
    remaining = set(range(inst.n))
    machines = [[] for _ in range(m)]
    while remaining:
        cand = np.array(sorted(remaining), dtype=np.int64)
        completions = inst.p_array[:, cand] + np.maximum(base[:, None], rhi[cand])
        score = m * completions - bounds[cand][None, :]
        rows, cols = np.nonzero(score == score.min())
        jobs = cand[cols]
        gaps = np.maximum(base[rows] - rhi[jobs], 0)
        pick = np.lexsort((rows, jobs, -gaps))[0]
        job, machine = int(jobs[pick]), int(rows[pick])
        machines[machine].append(job)
        lo = inst.release_lo[job]
        base[machine] = max(base[machine], lo) + inst.p_array[machine, job]
        remaining.discard(job)
    return _schedule(machines)


class BuildState:
    """A schedule under construction in the partial-regret loop.

    Tracks, per machine, the completion time of the current sequence under
    every extreme scenario and under the all-lower-bounds scenario, so the
    completion of a candidate appended next is a single max/add away.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self.remaining: set[int] = set(range(inst.n))
        self.machines: list[list[int]] = [[] for _ in range(inst.m)]
        self.placed_order: list[int] = []
        # Column t < n: completion under the extreme scenario raising job t;
        # column n: completion under the all-lower-bounds scenario.
        self._last = np.zeros((inst.m, inst.n + 1), dtype=np.int64)

    def base_completions(self) -> np.ndarray:
        """Per machine, last completion under the all-lower-bounds scenario."""
        return self._last[:, self.inst.n]

    def completions_for_jobs(self, jobs: np.ndarray) -> np.ndarray:
        """Per machine, last completion under the extreme scenarios of ``jobs``."""
        return self._last[:, jobs]

    def place(self, job: int, machine: int) -> None:
        if job not in self.remaining:
            raise ValueError(f"job {job + 1} is not available")
        lo, hi = self.inst.release[job]
        release = np.full(self.inst.n + 1, lo, dtype=np.int64)
        release[job] = hi
        row = self._last[machine]
        np.maximum(row, release, out=row)
        row += self.inst.p_array[machine, job]
        self.machines[machine].append(job)
        self.placed_order.append(job)
        self.remaining.discard(job)

    def to_schedule(self) -> Schedule:
        return Schedule(machines=tuple(tuple(seq) for seq in self.machines))


def state_partial_regret(inst: Instance, bound_mode: str, nested: bool) -> Schedule:
    """The builder loop shared by short-mode ``pr`` (``nested`` false) and
    ``pre``.

    Every iteration scores each (machine, candidate) pair by ``m`` times the
    candidate's completion under its own extreme scenario minus the scaled
    bound of that scenario. With ``nested``, the score is the larger of that
    and the worst term over the extreme scenarios of the placed jobs (the
    candidate appended at its lower release); since both terms share the
    ``m * p`` addend, this is the worst partial-regret term over all placed
    jobs plus the candidate. Tied pairs prefer the largest gap between the
    machine's completion and the candidate's latest release: under the
    all-lower-bounds scenario for ``pr``, summed over the placed jobs'
    scenarios for ``pre``.
    """
    n, m = inst.n, inst.m
    state = BuildState(inst)
    rlo, rhi = inst.release_lo, inst.release_hi
    full_bounds = scaled_extreme_bounds(inst) if bound_mode == "full" else None

    for _ in range(n):
        cand = np.array(sorted(state.remaining), dtype=np.int64)
        base = state.base_completions()
        if nested or full_bounds is None:
            placed = np.array(state.placed_order, dtype=np.int64)
        if full_bounds is None:
            short = _short_bounds(inst, placed, cand, nested)  # (V, 1 or s+1)
            own_lb = short[:, -1]
        else:
            own_lb = full_bounds[cand]
        proc = inst.p_array[:, cand]
        completions = proc + np.maximum(base[:, None], rhi[cand][None, :])
        score = m * completions - own_lb[None, :]  # (m, V)

        if nested:
            last_placed = state.completions_for_jobs(placed)  # (m, s)
            if placed.size:
                placed_lb = (
                    full_bounds[placed] if full_bounds is not None else short[:, :-1]
                )
                terms = m * np.maximum(
                    last_placed[:, None, :], rlo[cand][None, :, None]
                )
                terms -= placed_lb  # (m, V, s)
                np.maximum(score, terms.max(axis=2) + m * proc, out=score)

        # every tied cell as (-gap, job, machine); the smallest tuple wins
        rows, cols = np.nonzero(score == score.min())
        done = last_placed[rows] if nested else base[rows, None]
        gaps = np.maximum(done - rhi[cand[cols]][:, None], 0).sum(axis=1)
        _, job, machine = min(zip((-gaps).tolist(), cand[cols].tolist(), rows.tolist()))
        state.place(job, machine)
    return state.to_schedule()


def reference_optimal_makespan(inst, scenario):
    """Optimal makespan for one scenario, with an optimal schedule: the
    greedy incumbent, then a depth-first search over every assignment of
    the release-sorted jobs, with no prune and no time budget."""
    _check_limits(inst, DEFAULT_LIMITS)
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

    loads = [0] * m
    stack: list[list[int]] = [[] for _ in range(m)]

    def dfs(idx: int, current_max: int) -> None:
        nonlocal best_value, best_machines
        if idx == n:
            if current_max < best_value:
                best_value = current_max
                best_machines = [tuple(seq) for seq in stack]
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

    dfs(0, 0)
    return OptimalMakespan(
        makespan=best_value,
        schedule=Schedule(machines=tuple(best_machines)),
        certified=True,
    )


def reference_release_row_optima(
    inst: Instance,
    release_rows: np.ndarray,
    limits: OracleLimits = DEFAULT_LIMITS,
    *,
    deadline: _Deadline | None = None,
) -> tuple[np.ndarray, bool]:
    """Optimal makespan under every scenario row at once, and whether the
    enumeration finished.

    Enumerates all job-to-machine assignments and, per assignment, evaluates
    each machine's release-sorted chain vectorized over the scenario rows.
    The clock, ``deadline`` or else ``limits.time_budget`` from now, is read
    before every assignment after the first; past it, the best makespans
    found so far come back with ``False``.
    """
    _check_limits(inst, limits)
    if deadline is None:
        deadline = _Deadline(limits.time_budget)
    release_rows = np.asarray(release_rows, dtype=np.int64)
    count, n = release_rows.shape
    if n != inst.n:
        raise ValueError("scenario rows do not match the job count")
    p = inst.p_array
    best = np.full(count, np.iinfo(np.int64).max, dtype=np.int64)
    for tried, assignment in enumerate(itertools.product(range(inst.m), repeat=n)):
        if tried and deadline.expired():
            return best, False
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
    return best, True


BLOCK_CELLS = 1 << 15  # values in one temporary of the subset DP
ROW_CELLS_LIMIT = 1 << 22  # the most the subset DP accepts for a single row


def _submask_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of bit sets T ⊆ S over n bits, grouped by S ascending:
    S∖T and T of each pair, and where each S's run of 2^|S| pairs starts."""
    sets = np.arange(1 << n)
    runs = np.ones(1 << n, dtype=np.int64)
    for bit in range(n):
        runs <<= (sets >> bit) & 1
    starts = np.cumsum(runs) - runs
    owner = np.repeat(sets, runs)
    rank = np.arange(owner.size) - starts[owner]  # T's index among S's subsets
    inner = np.zeros_like(owner)
    for bit in range(n):  # deposit rank's bits on the bits of S, low to high
        member = (owner >> bit) & 1
        inner |= (rank & member) << bit
        rank >>= member
    return owner ^ inner, inner, starts


def _row_cells(n: int, m: int) -> int:
    """The largest temporary of one row in the subset DP over n jobs and m
    machines, or ``LimitExceededError`` when it passes ``ROW_CELLS_LIMIT``."""
    sets = 1 << n
    cells = max(3**n if m > 2 else sets, m * sets)
    if m > 1 and cells > ROW_CELLS_LIMIT:
        raise LimitExceededError(
            f"the subset DP over {n} jobs and {m} machines needs {cells} "
            f"values a row, over the limit of {ROW_CELLS_LIMIT}"
        )
    return cells


def subset_dp_row_optima(
    inst: Instance,
    release_rows: np.ndarray,
    limits: OracleLimits = DEFAULT_LIMITS,
    *,
    deadline: _Deadline | None = None,
) -> tuple[np.ndarray, bool]:
    """Optimal makespan under every scenario row at once, and whether the
    subset DP finished: the grid's optima before the grid sweep solved only
    the rows the extreme optima cannot settle.

    Under a fixed row a machine runs its jobs in release order, so its
    completion g_i(T) depends only on its job set T. Each row is
    release-sorted once and job sets are taken over sorted positions, so
    every machine's chains of all 2^n sets come from n doubling steps.
    Machines then merge as ``F_i(S) = min over T ⊆ S of
    max(g_i(T), F_{i-1}(S∖T))``, one gather over the 3^n pairs (S, T) per
    middle machine and 2^n pairs for the last, which needs only S = all
    jobs. Rows go in blocks whose temporaries hold about ``BLOCK_CELLS``
    values; a DP too large for one row at a time raises
    ``LimitExceededError`` up front.

    Every row starts from a feasible value, the best chain of all jobs on
    one machine, which is the optimum when m = 1. The clock, ``deadline``
    or else ``limits.time_budget`` from now, is read before every block and
    every merge; past it, the values so far come back with ``False``.
    """
    _check_limits(inst, limits)
    if deadline is None:
        deadline = _Deadline(limits.time_budget)
    release_rows = np.asarray(release_rows, dtype=np.int64)
    count, n = release_rows.shape
    if n != inst.n:
        raise ValueError("scenario rows do not match the job count")
    m, p = inst.m, inst.p_array
    sets = 1 << n
    cells = _row_cells(n, m)
    order = np.argsort(release_rows, axis=1, kind="stable")
    rel = np.take_along_axis(release_rows, order, axis=1)
    alone = np.zeros((m, count), dtype=np.int64)
    for k in range(n):
        alone = np.maximum(alone, rel[:, k]) + p[:, order[:, k]]
    best = alone.min(axis=0)
    if m == 1:
        return best, True
    if m > 2:
        rest, sub, starts = _submask_pairs(n)
    width = max(1, BLOCK_CELLS // cells)
    for at in range(0, count, width):
        if deadline.expired():
            return best, False
        rows = slice(at, at + width)
        block_rel, proc = rel[rows], p[:, None, order[rows]]
        # chains[i, S]: machine i's completion over the sorted positions in S
        chains = np.zeros((m, sets, len(block_rel)), dtype=np.int64)
        for k in range(n):
            low = chains[:, : 1 << k]
            chains[:, 1 << k : 2 << k] = np.maximum(low, block_rel[:, k]) + proc[..., k]
        merged = chains[0]
        for i in range(1, m - 1):
            if deadline.expired():
                return best, False
            pairs = np.take(chains[i], sub, axis=0)
            np.maximum(pairs, np.take(merged, rest, axis=0), out=pairs)
            merged = np.minimum.reduceat(pairs, starts, axis=0)
        if deadline.expired():
            return best, False
        # the last machine takes T and the others all S∖T = ~T: merged reversed
        best[rows] = np.maximum(chains[-1], merged[::-1]).min(axis=0)
    return best, True


def subset_dp_grid_regrets(
    schedules: list[Schedule], inst: Instance, rows: np.ndarray, limits: OracleLimits
) -> list[RegretReport]:
    """Each schedule's worst regret over the grid's ``rows``, at the first
    row that attains it, against one subset DP over every row: the grid
    sweep as it stood before it scored the grid from the extreme optima."""
    optima, certified = subset_dp_row_optima(inst, rows, limits)
    reports = []
    for schedule in schedules:
        regrets = makespans_for_release_rows(schedule, inst, rows) - optima
        at = int(np.argmax(regrets))
        scenario = Scenario(r=tuple(rows[at].tolist()))
        reports.append(RegretReport(int(regrets[at]), scenario, certified=certified))
    return reports


def reference_exhaustive_min_regret(
    inst: Instance, limits: OracleLimits = DEFAULT_LIMITS
) -> MinRegretResult:
    """Schedule minimizing the exact worst-case regret, by full enumeration.

    Per-machine sequences are enumerated in lexicographic order of the
    schedule encoding, so ties resolve to the lexicographically smallest
    optimal schedule. The partial worst-case regret only grows as jobs are
    appended, which gives the result-preserving prune.

    The optima and the enumeration share one ``limits.time_budget``. Cut
    short before any complete schedule, the call returns the schedule found
    for the first extreme scenario, scored against the optima at hand.
    """
    _check_limits(inst, limits)
    n, m = inst.n, inst.m
    p = inst.p
    lo, hi = inst.release_lo.tolist(), inst.release_hi.tolist()

    deadline = _Deadline(limits.time_budget)
    optima = [
        optimal_makespan(inst, extreme_scenario(inst, j), limits, deadline=deadline)
        for j in range(n)
    ]
    opts = [result.makespan for result in optima]
    certified = all(result.certified for result in optima)

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
        deadline.check()  # a node costs O(n m)
        if not remaining:
            value = partial_regret()
            if best_regret is None or value < best_regret:
                best_regret = value
                best_machines = tuple(tuple(seq) for seq in machines)
            return
        if best_regret is not None and partial_regret() >= best_regret:
            return
        if machine < m - 1:
            dfs(machine + 1, remaining)
        for pick, job in enumerate(remaining):
            saved = last[machine]
            cost = p[machine][job]
            # scenario t releases the job at hi if t == job, else at lo
            last[machine] = [cost + max(done, lo[job]) for done in saved]
            last[machine][job] = cost + max(saved[job], hi[job])
            machines[machine].append(job)
            dfs(machine, remaining[:pick] + remaining[pick + 1 :])
            machines[machine].pop()
            last[machine] = saved

    try:
        deadline.check()
        dfs(0, list(range(n)))
    except _BudgetExhausted:
        certified = False
    if best_machines is None:  # budget hit before the first leaf
        fallback = optima[0].schedule
        best_machines = fallback.machines
        values = extreme_makespans(fallback, inst)
        best_regret = max(map(operator.sub, values.tolist(), opts))
    return MinRegretResult(
        schedule=Schedule(machines=best_machines),
        regret=int(best_regret),
        certified=certified,
    )


def reference_memo_min_regret(
    inst: Instance, limits: OracleLimits = DEFAULT_LIMITS
) -> MinRegretResult:
    """Schedule minimizing the exact worst-case regret, by full enumeration.

    Per-machine sequences are enumerated in lexicographic order of the
    schedule encoding, so ties resolve to the lexicographically smallest
    optimal schedule. The partial worst-case regret only grows as jobs are
    appended, which gives the result-preserving prune; each child is tested
    before it is called.

    Machines are filled in order and never revisited, and the regret of a
    schedule is the largest regret of one of its machines, so the search
    keeps one completion per extreme scenario and a node costs O(n).

    The search starts from a bound, not an incumbent: the optimum is at most
    the smallest regret of the extreme scenarios' optimal schedules, so only
    leaves at or below it are kept, and the first optimum in the order is
    never cut. What machines ``i`` onward add to the regret depends only on
    ``i`` and the jobs left to them, so a hand-off to machine ``i`` whose
    search returns with the finished machines' regret still below the best
    records that best as a floor of every schedule of those jobs on those
    machines; a later hand-off of the same jobs to machine ``i`` is skipped
    while that floor is at least the best. The memo lives for one call.

    The optima and the enumeration share one ``limits.time_budget``. Cut
    short before any complete schedule at or below the bound, the call
    returns the schedule found for the first extreme scenario, scored
    against the optima at hand.
    """
    _check_limits(inst, limits)
    n, m = inst.n, inst.m
    p = inst.p
    lo, hi = inst.release_lo.tolist(), inst.release_hi.tolist()

    deadline = _Deadline(limits.time_budget)
    optima = [
        optimal_makespan(inst, extreme_scenario(inst, j), limits, deadline=deadline)
        for j in range(n)
    ]
    opts = [result.makespan for result in optima]
    certified = all(result.certified for result in optima)
    # a cut optimum means the clock has run out: the search stops at its
    # first node, and only the fallback's regret is read
    start_regrets = [
        max(map(operator.sub, extreme_makespans(result.schedule, inst).tolist(), opts))
        for result in (optima if certified else optima[:1])
    ]

    machines: list[list[int]] = [[] for _ in range(m)]
    best_regret = 1 + min(start_regrets)  # regrets are integers
    best_machines: tuple[tuple[int, ...], ...] | None = None
    # below[(i, jobs)]: every schedule of jobs on machines i onward has a
    # regret of at least this
    below: dict[tuple[int, tuple[int, ...]], int] = {}

    def dfs(
        machine: int, remaining: tuple[int, ...], floor: int, done: list[int],
        value: int,
    ) -> None:
        # floor: largest regret of a finished machine; done[t]: the current
        # machine's completion under extreme scenario t; value: the partial
        # regret, below best_regret
        nonlocal best_regret, best_machines
        deadline.check()
        if not remaining:
            best_regret = value
            best_machines = tuple(tuple(seq) for seq in machines)
            return
        if machine < m - 1:
            key = (machine + 1, remaining)
            if below.get(key, value) < best_regret:  # unrecorded: value is below
                dfs(machine + 1, remaining, value, [0] * n, value)
                if value < best_regret:
                    below[key] = best_regret
        for pick, job in enumerate(remaining):
            cost, low = p[machine][job], lo[job]
            # scenario t releases the job at hi if t == job, else at lo
            appended = [cost + (finish if finish > low else low) for finish in done]
            appended[job] = cost + max(done[job], hi[job])
            grown = max(floor, max(map(operator.sub, appended, opts)))
            if grown < best_regret:
                machines[machine].append(job)
                rest = remaining[:pick] + remaining[pick + 1 :]
                dfs(machine, rest, floor, appended, grown)
                machines[machine].pop()

    empty = -min(opts)  # an empty machine's regret
    try:
        dfs(0, tuple(range(n)), empty, [0] * n, empty)
    except _BudgetExhausted:
        certified = False
    if best_machines is None:  # budget hit before a leaf within the bound
        best_machines = optima[0].schedule.machines
        best_regret = start_regrets[0]
    return MinRegretResult(
        schedule=Schedule(machines=best_machines),
        regret=int(best_regret),
        certified=certified,
    )


def reference_first_leaf_min_regret(
    inst: Instance, limits: OracleLimits = DEFAULT_LIMITS
) -> MinRegretResult:
    """The minimax-regret optimum as the first makespan-optimal schedule
    under r*, found with a set of failed hand-offs alone.

    The same n extreme optima, r*, target T, enumeration order, child cuts
    and fallbacks as ``exhaustive_min_regret``, but a hand-off is skipped
    only when the same jobs were handed to the same machine before and no
    leaf was found: no per-job fit test, and no memo of the completions
    that failed within a machine.
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
    machines: list[list[int]] = [[] for _ in range(m)]
    failed: set[tuple[int, tuple[int, ...]]] = set()

    def dfs(machine: int, remaining: tuple[int, ...], finish: int, work: int) -> bool:
        deadline.check()
        if not remaining:
            return True
        on_last = machine == m - 1
        if not on_last and (machine + 1, remaining) not in failed:
            if dfs(machine + 1, remaining, 0, work):
                return True
            failed.add((machine + 1, remaining))
        row = p[machine]
        for pick, job in enumerate(remaining):
            done = row[job] + max(finish, release[job])
            work_after = work - last[job]
            if done <= bound and (not on_last or done + work_after <= bound):
                machines[machine].append(job)
                rest = remaining[:pick] + remaining[pick + 1 :]
                if dfs(machine, rest, done, work_after):
                    return True
                machines[machine].pop()
        return False

    try:
        dfs(0, tuple(range(n)), 0, sum(last))
    except _BudgetExhausted:
        return MinRegretResult(target.schedule, bound - least, False)
    return MinRegretResult(
        Schedule(machines=tuple(map(tuple, machines))), bound - least, target.certified
    )


def reference_completion_profile(schedule, scenario, inst):
    """Completion times per machine, chained job by job, and the makespan."""
    ensure_valid_schedule(schedule, inst)
    ensure_scenario(scenario, inst)
    completions: list[tuple[int, ...]] = []
    best = 0
    for i, seq in enumerate(schedule.machines):
        row = inst.p[i]
        current = 0
        times: list[int] = []
        for job in seq:
            current = row[job] + max(current, scenario.r[job])
            times.append(current)
        completions.append(tuple(times))
        best = max(best, current)
    return CompletionProfile(completions=tuple(completions), makespan=best)


def _suffix_counts_desc(sorted_desc):
    """For each position of a descending-sorted row set, the count of entries
    greater than or equal to the entry at that position (ties included)."""
    q, s = sorted_desc.shape
    last = np.empty((q, s), dtype=bool)
    last[:, -1] = True
    last[:, :-1] = sorted_desc[:, 1:] < sorted_desc[:, :-1]
    idx = np.broadcast_to(np.arange(s, dtype=np.int64), (q, s))
    marker = np.where(last, idx, s - 1)
    closing = np.minimum.accumulate(marker[:, ::-1], axis=1)[:, ::-1]
    return closing + 1


def reference_bound_components(release_rows, min_proc_rows, machine_count):
    """Per explicit scenario row: the scaled ``(lb_avg, lb1, lb2, lb3)``
    vectors, from one descending sort of every row."""
    release_rows = np.asarray(release_rows, dtype=np.int64)
    min_proc_rows = np.asarray(min_proc_rows, dtype=np.int64)
    if release_rows.ndim != 2 or release_rows.shape != min_proc_rows.shape:
        raise ValueError("expected matched 2-d release/processing arrays")
    m = machine_count
    order = np.argsort(-release_rows, axis=1)
    rel = np.take_along_axis(release_rows, order, axis=1)
    proc = np.take_along_axis(min_proc_rows, order, axis=1)

    counts = _suffix_counts_desc(rel)
    sums = np.cumsum(proc, axis=1)
    mins = np.minimum.accumulate(proc, axis=1)
    suffix_sum = np.take_along_axis(sums, counts - 1, axis=1)
    suffix_min = np.take_along_axis(mins, counts - 1, axis=1)
    batches = (counts + m - 1) // m

    averaged = m * rel + suffix_sum
    batched = m * (rel + batches * suffix_min)
    lb_avg = m * release_rows.min(axis=1) + sums[:, -1]
    lb1 = m * (release_rows + min_proc_rows).max(axis=1)
    lb2 = averaged.max(axis=1)
    lb3 = batched.max(axis=1)
    return lb_avg, lb1, lb2, lb3


def reference_combined_rows(release_rows, min_proc_rows, machine_count):
    """Per explicit scenario row, the combined bound scaled by m."""
    _, lb1_s, lb2_s, lb3_s = reference_bound_components(
        release_rows, min_proc_rows, machine_count
    )
    return np.maximum(np.maximum(lb1_s, lb2_s), lb3_s)


def reference_query_bounds(release, fastest, lo, hi, query_fastest, m):
    """The batched kernel's ``(q, r)`` answers, one explicit row per query:
    an outsider (``lo`` below the whole base) is appended at ``hi``, else a
    member released at ``lo`` with the query's fastest time moves to ``hi``."""
    release, fastest = np.asarray(release), np.asarray(fastest)
    out = np.zeros(np.shape(lo), dtype=np.int64)
    for b, j in np.ndindex(out.shape):
        rel, proc = list(release[b]), list(fastest[b])
        f, low, high = int(query_fastest[b][j]), int(lo[b][j]), int(hi[b][j])
        if not rel or low < min(rel):
            rel.append(high)
            proc.append(f)
        else:
            member = next(t for t in range(len(rel)) if (rel[t], proc[t]) == (low, f))
            rel[member] = high
        out[b, j] = reference_combined_rows([rel], [proc], m)[0]
    return out


def reference_suffix_bounds(inst, scenario, order):
    """Scaled combined bound of each suffix of ``order``, one kernel call per
    suffix, with 0 for the empty suffix."""
    out = [0] * (len(order) + 1)
    rel = scenario.r_array
    for idx in range(len(order)):
        jobs = np.array(order[idx:], dtype=np.int64)
        row = rel[jobs].reshape(1, -1)
        proc = inst.min_proc[jobs].reshape(1, -1)
        out[idx] = int(reference_combined_rows(row, proc, inst.m)[0])
    return out


def scalar_suffix_scan(order, release, fastest, m):
    """The oracle's former suffix bounds: one pure-Python reverse scan over
    the release-sorted jobs, keeping the sum, count and minimum of the
    fastest times from each position on, with 0 for the empty suffix."""
    total = count = best = 0
    shortest = max(fastest)
    bounds = [0]
    for job in reversed(order):
        r, f = release[job], fastest[job]
        total += f
        count += 1
        shortest = min(shortest, f)
        batched = m * (r + -(-count // m) * shortest)
        best = max(best, m * (r + f), m * r + total, batched)
        bounds.append(best)
    bounds.reverse()
    return bounds


def reference_lb_combined(scenario, inst):
    """``lb_combined`` as it read its per-anchor table of suffix sums,
    minima and counts directly, before it shared the oracle's suffix terms."""
    ensure_scenario(scenario, inst)
    m, release, mp = inst.m, scenario.r_array, inst.min_proc
    order = np.argsort(release, kind="stable")
    # each job's suffix: the jobs from the first of its ties in release order
    start = np.searchsorted(release[order], release)
    sums = np.cumsum(mp[order][::-1])[::-1][start].tolist()
    mins = np.minimum.accumulate(mp[order][::-1])[::-1][start].tolist()
    counts, rel = (inst.n - start).tolist(), release.tolist()
    per_job = {
        j: (Fraction(m * rel[j] + sums[j], m), rel[j] + (counts[j] + m - 1) // m * mins[j])
        for j in np.argsort(-release, kind="stable").tolist()
    }
    averaged, batched = map(max, zip(*per_job.values()))
    single = int((release + mp).max())
    return BoundsReport(
        lb_avg=Fraction(m * int(release.min()) + int(mp.sum()), m),
        lb1=single,
        lb2=averaged,
        lb3=batched,
        combined=Fraction(max(single, averaged, batched)),
        per_job=per_job,
    )


def kernel_suffix_bounds(inst, scenario, order):
    """Scaled combined bound of each suffix of ``order``, 0 for the empty
    one, from one call of the bound kernel: base t moves the jobs before
    position t below ``-(max r + sum of fastest times)``, where all their
    terms are negative."""
    n = len(order)
    rel, proc = scenario.r_array[order], inst.min_proc[order]
    rows = np.tile(rel, (n, 1))
    rows[np.tril_indices(n, -1)] = -(int(rel.max()) + int(proc.sum())) - 1
    own = rel[:, None]  # base t keeps the job at position t where it is
    bounds = scaled_combined_rows(
        rows, np.tile(proc, (n, 1)), own, own, proc[:, None], inst.m
    )
    return bounds[:, 0].tolist() + [0]


def kernel_extreme_suffix_bounds(inst, block=64):
    """``kernel_suffix_bounds`` under every extreme scenario, as an
    ``(n, n + 1)`` array whose row j is for the scenario that raises job j,
    from kernel calls over blocks of ``block`` bases.

    Base k is the all-lower-bounds order with its first k jobs moved far
    below, as in ``kernel_suffix_bounds``. If job j sits at position
    ``pos_j`` of that order and at ``q_j`` once raised, the suffix from
    position t of the raised order is base t with j raised while
    ``t < pos_j``, base t + 1 with j inserted at ``hi_j`` while
    ``t <= q_j``, and base t as it is after that."""
    n, m = inst.n, inst.m
    lo, hi, mp = inst.release_lo, inst.release_hi, inst.min_proc
    keys = sorted((int(lo[t]), t) for t in range(n))
    order = np.array([t for _, t in keys], dtype=np.int64)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    q = np.array([
        bisect.bisect_left(keys, (int(hi[j]), j)) - int(lo[j] < hi[j]) for j in range(n)
    ])
    below = -(int(hi.max()) + int(mp.sum())) - 1
    rel, proc = lo[order], mp[order]
    answers = np.empty((n + 1, n + 1), dtype=np.int64)  # base k, query j or keep
    for begin in range(0, n + 1, block):
        bases = np.arange(begin, min(begin + block, n + 1))[:, None]
        moved = np.arange(n)[None] < bases
        member = pos[None] >= bases
        keep = np.minimum(bases, n - 1)  # base n keeps nothing; its column is unused
        query_lo = np.concatenate((np.where(member, lo, below - 1), rel[keep]), axis=1)
        query_hi = np.concatenate((np.broadcast_to(hi, member.shape), rel[keep]), axis=1)
        query_f = np.concatenate((np.broadcast_to(mp, member.shape), proc[keep]), axis=1)
        answers[bases[:, 0]] = scaled_combined_rows(
            np.where(moved, below, rel), np.broadcast_to(proc, moved.shape),
            query_lo, query_hi, query_f, m,
        )
    t, j = np.arange(n)[None], np.arange(n)[:, None]
    out = np.zeros((n, n + 1), dtype=np.int64)
    out[:, :n] = np.where(
        t < pos[:, None], answers[t, j],
        np.where(t <= q[:, None], answers[np.minimum(t + 1, n), j], answers[t, n]),
    )
    return out


def relabel_jobs(inst, permutation):
    """Instance with job j renamed to ``permutation[j]`` (a bijection)."""
    perm = list(permutation)
    if sorted(perm) != list(range(inst.n)):
        raise ValueError("permutation must be a bijection on job indices")
    p_new = [[0] * inst.n for _ in range(inst.m)]
    release_new = [(0, 0)] * inst.n
    for j, target in enumerate(perm):
        for i in range(inst.m):
            p_new[i][target] = inst.p[i][j]
        release_new[target] = inst.release[j]
    return Instance(p=tuple(tuple(row) for row in p_new), release=tuple(release_new))


def extreme_release_matrix(inst):
    """Row ``j`` is the release vector of the extreme scenario raising job j."""
    rows = np.tile(inst.release_lo, (inst.n, 1))
    np.fill_diagonal(rows, inst.release_hi)
    return rows


def reference_extreme_bounds(inst):
    """Scaled combined bound per extreme scenario from the full n x n
    release matrix, one sorted row per scenario."""
    rows = extreme_release_matrix(inst)
    proc = np.tile(inst.min_proc, (inst.n, 1))
    return reference_combined_rows(rows, proc, inst.m)


def reference_extreme_makespans(schedule, inst):
    """Makespan per extreme scenario, chained over the n x n release matrix."""
    return makespans_for_release_rows(schedule, inst, extreme_release_matrix(inst))


def reference_validate_schedule(machines, n, m):
    """First violation of a schedule, found by one scan in schedule order."""
    if len(machines) != m:
        return ScheduleViolation(
            kind="machine-count",
            job=None,
            machine=None,
            message=(
                f"schedule has {len(machines)} machine sequences, "
                f"instance has {m} machines"
            ),
        )
    seen = [False] * n
    for i, seq in enumerate(machines):
        for job in seq:
            if job < 0 or job >= n:
                return ScheduleViolation(
                    kind="job-out-of-range",
                    job=job,
                    machine=i,
                    message=f"machine {i + 1} lists unknown job {job + 1}",
                )
            if seen[job]:
                return ScheduleViolation(
                    kind="duplicate-job",
                    job=job,
                    machine=i,
                    message=f"job {job + 1} is assigned more than once",
                )
            seen[job] = True
    for job, ok in enumerate(seen):
        if not ok:
            return ScheduleViolation(
                kind="missing-job",
                job=job,
                machine=None,
                message=f"job {job + 1} is unassigned",
            )
    return None


def reference_covered_jobs(machines, p, intervals):
    """Jobs at position 2 or later whose predecessor, chained under the
    all-lower-bounds scenario, ends no earlier than the job's upper release."""
    covered = set()
    for i, seq in enumerate(machines):
        current = 0
        for k, job in enumerate(seq):
            if k >= 1 and current >= intervals[job][1]:
                covered.add(job)
            current = p[i][job] + max(current, intervals[job][0])
    return frozenset(covered)


def reference_effective_scenarios(machines, p, intervals):
    covered = reference_covered_jobs(machines, p, intervals)
    out = []
    for j in range(len(intervals)):
        if j not in covered:
            r = _lows(intervals)
            r[j] = intervals[j][1]
            out.append((j, Scenario(r=tuple(r))))
    return out


def reference_regret_upper_bound(schedule, inst):
    """Largest makespan minus (upper release + fastest time) over the
    uncovered jobs, with the makespans from the n x n matrix path."""
    covered = reference_covered_jobs(schedule.machines, inst.p, inst.release)
    values = reference_extreme_makespans(schedule, inst).tolist()
    best = None
    for j, (_, hi) in enumerate(inst.release):
        if j not in covered:
            term = values[j] - hi - min(row[j] for row in inst.p)
            if best is None or term > best:
                best = term
    return 0 if best is None else best


def reference_instance_tables(p, release):
    """The ``Instance`` constructor's conversion and checks as they were
    written entry by entry: ``operator.index`` on every entry, then the
    shape, sign, interval and 2**62 horizon checks on Python ints. Returns
    the ``(p, release)`` tuples, or raises what the constructor raised."""
    rows = tuple(tuple(map(operator.index, row)) for row in p)
    intervals = tuple((operator.index(lo), operator.index(hi)) for lo, hi in release)
    if not rows:
        raise ValueError("instance needs at least one machine")
    n = len(rows[0])
    if n == 0:
        raise ValueError("instance needs at least one job")
    if any(len(row) != n for row in rows):
        raise ValueError("processing-time rows have unequal lengths")
    if len(intervals) != n:
        raise ValueError(f"expected {n} release intervals, got {len(intervals)}")
    if min(map(min, rows)) <= 0:
        raise ValueError("processing times must be positive")
    lows, highs = zip(*intervals)
    if min(lows) < 0 or any(map(operator.gt, lows, highs)):
        j = next(j for j, (lo, hi) in enumerate(intervals) if not 0 <= lo <= hi)
        raise ValueError(
            f"release interval of job {j + 1} must satisfy 0 <= lo <= hi"
        )
    horizon = max(highs) + sum(map(max, zip(*rows)))
    if len(rows) * horizon >= 2**62:
        raise ValueError(
            "instance too large for exact int64 arithmetic: machines x "
            "(largest upper release + total slowest processing time) "
            "must stay below 2**62"
        )
    return rows, intervals


def reference_dumps(document):
    """The pinned bytes of every file the package writes."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"
