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
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from robust_sched.bounds import scaled_combined_rows
from robust_sched.model import (
    Scenario,
    ScheduleViolation,
    makespans_for_release_rows,
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
    return scaled_combined_rows(rows, proc, inst.m)


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
