"""Plain-Python reference computations for the benchmark's output checks.

Nothing here imports ``robust_sched``: every value is recomputed from its
definition with Python ints and ``Fraction``s, so a fault in the package's
vectorised int64 kernels shows up as a mismatch instead of being shared.

Instances are passed as ``p`` (one row of processing times per machine) and
``lo``/``hi`` (release-interval ends per job); schedules as per-machine job
sequences.
"""
from __future__ import annotations

import itertools
from fractions import Fraction


def jobs_once(machines, n: int, m: int) -> bool:
    """Exactly ``m`` sequences that list every job of ``0..n-1`` once."""
    if len(machines) != m:
        return False
    seen = sorted(job for seq in machines for job in seq)
    return seen == list(range(n))


def chain_makespan(machines, p, release) -> int:
    """Each job starts at the later of its release and its predecessor's end."""
    best = 0
    for i, seq in enumerate(machines):
        current = 0
        for job in seq:
            current = p[i][job] + max(current, release[job])
        best = max(best, current)
    return best


def extreme_release(lo, hi, job: int) -> list[int]:
    """All release dates low except ``job`` at its upper end."""
    release = list(lo)
    release[job] = hi[job]
    return release


def min_proc(p) -> list[int]:
    return [min(column) for column in zip(*p)]


def combined_bound(release, fastest, m: int) -> Fraction:
    """max(lb1, lb2, lb3) straight from the definitions.

    lb1 is the largest ``r_j + fastest_j``. Every anchor release ``a`` has the
    suffix set ``S = {j : r_j >= a}``; lb2 is the best ``a + sum(S) / m`` and
    lb3 the best ``a + ceil(|S| / m) * min(S)`` over anchors.
    """
    best = Fraction(max(r + q for r, q in zip(release, fastest)))
    order = sorted(range(len(release)), key=lambda j: -release[j])
    count, total, smallest = 0, 0, None
    k = 0
    while k < len(order):
        anchor = release[order[k]]
        while k < len(order) and release[order[k]] == anchor:
            q = fastest[order[k]]
            count += 1
            total += q
            smallest = q if smallest is None else min(smallest, q)
            k += 1
        batches = -(-count // m)
        best = max(best, anchor + Fraction(total, m), Fraction(anchor + batches * smallest))
    return best


def covered(machines, p, lo, hi) -> set[int]:
    """Jobs after the first on their machine whose predecessor, with every
    release low, ends no earlier than the job's upper release."""
    out = set()
    for i, seq in enumerate(machines):
        current = 0
        for k, job in enumerate(seq):
            if k >= 1 and current >= hi[job]:
                out.add(job)
            current = p[i][job] + max(current, lo[job])
    return out


def relaxed_terms(machines, p, lo, hi, jobs) -> dict[int, Fraction]:
    """Makespan minus combined bound under the extreme scenario of each job."""
    fastest = min_proc(p)
    terms = {}
    for j in jobs:
        release = extreme_release(lo, hi, j)
        terms[j] = chain_makespan(machines, p, release) - combined_bound(
            release, fastest, len(p)
        )
    return terms


def relaxed_regret(machines, p, lo, hi) -> Fraction:
    return max(relaxed_terms(machines, p, lo, hi, range(len(lo))).values())


def regret_upper_bound(machines, p, lo, hi) -> int:
    """Worst ``makespan - (hi_j + fastest_j)`` over uncovered extreme scenarios."""
    fastest = min_proc(p)
    skip = covered(machines, p, lo, hi)
    terms = [
        chain_makespan(machines, p, extreme_release(lo, hi, j)) - hi[j] - fastest[j]
        for j in range(len(lo))
        if j not in skip
    ]
    return max(terms, default=0)


def optimal_makespans(p, releases) -> list[int]:
    """Optimal makespan under each release vector, by enumerating every
    job-to-machine assignment with each machine in release order."""
    m, n = len(p), len(p[0])
    orders = [sorted(range(n), key=lambda j: (r[j], j)) for r in releases]
    best = [None] * len(releases)
    for assignment in itertools.product(range(m), repeat=n):
        for s, release in enumerate(releases):
            loads = [0] * m
            for job in orders[s]:
                i = assignment[job]
                loads[i] = p[i][job] + max(loads[i], release[job])
            value = max(loads)
            if best[s] is None or value < best[s]:
                best[s] = value
    return best


def dominant_job(p, lo, hi) -> int | None:
    """A job whose lower release is at least every other job's upper release
    plus the slowest processing times of all jobs but itself, so all other
    work can end before it is released. Such a job makes zero worst-case
    regret attainable."""
    slowest = [max(column) for column in zip(*p)]
    total = sum(slowest)
    for j in range(len(hi)):
        rest = total - slowest[j]
        if all(hi[k] + rest <= lo[j] for k in range(len(hi)) if k != j):
            return j
    return None
