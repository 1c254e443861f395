"""Independent brute-force reference computations for the tests.

Everything here is deliberately naive pure Python: direct recursions and
full enumerations with no shared code or shortcuts from the package under
test. ``machines`` arguments are lists of per-machine job lists, ``p`` is a
list of machine rows, ``r`` a list of release dates, ``intervals`` a list of
``(lo, hi)`` pairs. Only tiny inputs are expected.
"""
from __future__ import annotations

import itertools
from fractions import Fraction


def brute_makespan(machines, p, r) -> int:
    best = 0
    for i, seq in enumerate(machines):
        current = 0
        for job in seq:
            current = p[i][job] + max(current, r[job])
        best = max(best, current)
    return best


def all_schedules(n: int, m: int):
    """Every way to split jobs 0..n-1 into m ordered sequences."""
    for assignment in itertools.product(range(m), repeat=n):
        buckets = [[j for j in range(n) if assignment[j] == i] for i in range(m)]
        for orders in itertools.product(
            *(itertools.permutations(bucket) for bucket in buckets)
        ):
            yield [list(order) for order in orders]


def brute_optimal_makespan(p, r) -> int:
    n, m = len(p[0]), len(p)
    return min(brute_makespan(machines, p, r) for machines in all_schedules(n, m))


def integer_box(intervals):
    """Every integer scenario in the interval box."""
    return itertools.product(*(range(lo, hi + 1) for lo, hi in intervals))


def brute_worst_regret(machines, p, intervals) -> int:
    """Exact worst-case regret by enumerating every integer scenario.

    With integer data the worst case over the continuous box is attained at a
    box vertex, so the integer sweep covers it.
    """
    worst = None
    for r in integer_box(intervals):
        value = brute_makespan(machines, p, r) - brute_optimal_makespan(p, r)
        if worst is None or value > worst:
            worst = value
    return worst


def brute_min_regret(p, intervals) -> int:
    """The least worst-case regret over every schedule, each integer
    scenario's optimum solved once."""
    n, m = len(p[0]), len(p)
    scenarios = [(r, brute_optimal_makespan(p, r)) for r in integer_box(intervals)]
    return min(
        max(brute_makespan(machines, p, r) - best for r, best in scenarios)
        for machines in all_schedules(n, m)
    )


def brute_min_regret_schedule(p, intervals):
    """The smallest ``(regret, machines as tuples)`` over every schedule.

    The regret is taken over the extreme scenarios (one job at its upper
    release, the others at their lower ones), where the worst case lies;
    ties between schedules of equal regret go to the lexicographically
    smallest tuple of per-machine job tuples.
    """
    n, m = len(p[0]), len(p)
    scenarios = []
    for j in range(n):
        r = [lo for lo, _ in intervals]
        r[j] = intervals[j][1]
        scenarios.append((r, brute_optimal_makespan(p, r)))
    return min(
        (
            max(brute_makespan(machines, p, r) - best for r, best in scenarios),
            tuple(tuple(seq) for seq in machines),
        )
        for machines in all_schedules(n, m)
    )


def brute_lb_avg(r, p) -> Fraction:
    m, n = len(p), len(p[0])
    fastest = [min(p[i][j] for i in range(m)) for j in range(n)]
    return min(r) + Fraction(sum(fastest), m)


def brute_lb1(r, p) -> int:
    m, n = len(p), len(p[0])
    return max(r[j] + min(p[i][j] for i in range(m)) for j in range(n))


def brute_lb2(r, p) -> Fraction:
    m, n = len(p), len(p[0])
    fastest = [min(p[i][j] for i in range(m)) for j in range(n)]
    best = None
    for anchor in range(n):
        members = [t for t in range(n) if r[t] >= r[anchor]]
        value = min(r[t] for t in members) + Fraction(
            sum(fastest[t] for t in members), m
        )
        if best is None or value > best:
            best = value
    return best


def brute_lb3(r, p) -> int:
    import math

    m, n = len(p), len(p[0])
    fastest = [min(p[i][j] for i in range(m)) for j in range(n)]
    best = None
    for anchor in range(n):
        members = [t for t in range(n) if r[t] >= r[anchor]]
        batches = math.ceil(len(members) / m)
        shortest = min(fastest[t] for t in members)
        value = min(r[t] for t in members) + batches * shortest
        if best is None or value > best:
            best = value
    return best
