"""Lower bounds on the optimal makespan under a fixed scenario.

Four complementary combinatorial bounds are computed from the release vector
and the per-job minimum processing times:

* ``lb_avg``: earliest release plus the machine-averaged total work,
* ``lb1``: the largest single ``release + fastest processing`` term,
* ``lb2``: ``lb_avg`` restricted to each suffix of jobs released no earlier
  than an anchor job (dominates ``lb_avg``),
* ``lb3``: anchor release plus the shortest processing time in the suffix,
  repeated once per batch of ``m`` suffix jobs.

The combined bound is the maximum of ``lb1``, ``lb2`` and ``lb3``. Averaged
terms are exact rationals with denominator dividing the machine count, so the
module works on values scaled by ``m`` internally and only divides when
handing results back; all comparisons are exact for integer instances.

Subtracting the combined bound from a schedule's makespan under each extreme
scenario yields the relaxed worst-case regret, an upper-bound surrogate for
the exact worst-case regret that needs no optimal schedules.

The combined bounds of all n extreme scenarios (``scaled_extreme_bounds``)
come from the sorted all-lower-bounds base without building any scenario
row: prefix and suffix maxima, binary searches and sparse tables of range
maxima give them in O(n log n) time and memory. One family of terms, the
batched bounds of anchors inside a raised range that stay faster than the
raised job, is evaluated in row blocks of bounded memory over the anchors
with fewer than ``(m - 1) * max p`` jobs, a handful on generated instances.
With the O(n + m) extreme makespans of :mod:`.model`, relaxed regret needs
no n x n array at any size.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import (
    Instance,
    RegretReport,
    Scenario,
    Schedule,
    Time,
    covered_jobs,
    ensure_scenario,
    ensure_valid_schedule,
    extreme_makespans,
    extreme_scenario,
)


@dataclass(frozen=True)
class BoundsReport:
    """All four bounds for one scenario plus per-anchor diagnostics.

    ``per_job`` maps each anchor job to its ``(averaged-suffix, batched-suffix)``
    bound terms; the maxima of the two columns are ``lb2`` and ``lb3``.
    """

    lb_avg: Fraction
    lb1: int
    lb2: Fraction
    lb3: int
    combined: Fraction
    per_job: dict[int, tuple[Fraction, int]]


def _suffix_counts_desc(sorted_desc: np.ndarray) -> np.ndarray:
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


def scaled_bound_components(
    release_rows: np.ndarray, min_proc_rows: np.ndarray, machine_count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per row: all four bounds scaled by the machine count, as exact integers.

    ``release_rows`` and ``min_proc_rows`` are matched ``(q, s)`` integer
    arrays: one scenario per row over the same ``s`` jobs. Returns the scaled
    ``(lb_avg, lb1, lb2, lb3)`` vectors.
    """
    release_rows = np.asarray(release_rows, dtype=np.int64)
    min_proc_rows = np.asarray(min_proc_rows, dtype=np.int64)
    if release_rows.ndim != 2 or release_rows.shape != min_proc_rows.shape:
        raise ValueError("expected matched 2-d release/processing arrays")
    # tie order within equal release dates is irrelevant: the suffix windows
    # are value-based, so an unstable (faster) sort is safe
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


def scaled_combined_rows(
    release_rows: np.ndarray, min_proc_rows: np.ndarray, machine_count: int
) -> np.ndarray:
    """Per row, the combined bound scaled by the machine count."""
    _, lb1_s, lb2_s, lb3_s = scaled_bound_components(
        release_rows, min_proc_rows, machine_count
    )
    return np.maximum(np.maximum(lb1_s, lb2_s), lb3_s)


def _single_row(scenario: Scenario, inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    ensure_scenario(scenario, inst)
    return scenario.r_array.reshape(1, -1), inst.min_proc.reshape(1, -1)


def lb_avg(scenario: Scenario, inst: Instance) -> Fraction:
    """Earliest release date plus total fastest work averaged over machines."""
    rel, proc = _single_row(scenario, inst)
    scaled, _, _, _ = scaled_bound_components(rel, proc, inst.m)
    return Fraction(int(scaled[0]), inst.m)


def lb1(scenario: Scenario, inst: Instance) -> int:
    """Largest release date plus fastest processing time of a single job."""
    rel, proc = _single_row(scenario, inst)
    _, scaled, _, _ = scaled_bound_components(rel, proc, inst.m)
    return int(scaled[0]) // inst.m


def lb2(scenario: Scenario, inst: Instance) -> Fraction:
    """Best averaged bound over suffixes of jobs released at an anchor or later."""
    rel, proc = _single_row(scenario, inst)
    _, _, scaled, _ = scaled_bound_components(rel, proc, inst.m)
    return Fraction(int(scaled[0]), inst.m)


def lb3(scenario: Scenario, inst: Instance) -> int:
    """Best anchor release plus batched shortest processing time."""
    rel, proc = _single_row(scenario, inst)
    _, _, _, scaled = scaled_bound_components(rel, proc, inst.m)
    return int(scaled[0]) // inst.m


def lb_combined(scenario: Scenario, inst: Instance) -> BoundsReport:
    """All four bounds at once, with per-anchor diagnostics."""
    ensure_scenario(scenario, inst)
    m = inst.m
    release = scenario.r_array.reshape(1, -1)
    proc = inst.min_proc.reshape(1, -1)
    avg_s, lb1_s, lb2_s, lb3_s = scaled_bound_components(release, proc, m)

    order = np.argsort(-release[0], kind="stable")
    rel = release[0][order]
    mp = proc[0][order]
    counts = _suffix_counts_desc(rel.reshape(1, -1))[0]
    sums = np.cumsum(mp)
    mins = np.minimum.accumulate(mp)
    per_job: dict[int, tuple[Fraction, int]] = {}
    for pos, job in enumerate(order):
        take = counts[pos] - 1
        averaged = Fraction(int(m * rel[pos] + sums[take]), m)
        batches = (int(counts[pos]) + m - 1) // m
        batched = int(rel[pos]) + batches * int(mins[take])
        per_job[int(job)] = (averaged, batched)

    return BoundsReport(
        lb_avg=Fraction(int(avg_s[0]), m),
        lb1=int(lb1_s[0]) // m,
        lb2=Fraction(int(lb2_s[0]), m),
        lb3=int(lb3_s[0]) // m,
        combined=Fraction(int(max(lb1_s[0], lb2_s[0], lb3_s[0])), m),
        per_job=per_job,
    )


# element budget of one row block in scaled_extreme_bounds
_BLOCK_ELEMENTS = 1 << 16


def _range_max(values: np.ndarray, first: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Per query, the maximum of ``values[first:stop]`` (0 when empty), from
    a sparse table of maxima over power-of-two windows."""
    size = values.size
    table = np.zeros((size.bit_length(), size), dtype=np.int64)
    table[0] = values
    for level in range(1, table.shape[0]):
        width = 1 << (level - 1)
        np.maximum(table[level - 1, :-width], table[level - 1, width:],
                   out=table[level, : size - width])
    length = stop - first
    level = np.frexp(np.maximum(length, 1))[1] - 1  # floor(log2(length))
    left = np.minimum(first, size - 1)
    right = np.maximum(stop - (1 << level), 0)
    best = np.maximum(table[level, left], table[level, right])
    return np.where(length > 0, best, 0)


def scaled_extreme_bounds(inst: Instance) -> np.ndarray:
    """Combined bound (scaled by m) under each extreme scenario, by raised job.

    The scenarios share the all-lower-bounds base, so no scenario row is
    built. The base is reduced to its distinct release values (anchors),
    descending, each with the count ``C``, sum ``P`` and minimum ``M`` of
    the fastest processing times released at the anchor or later. Raising
    job j from ``lo_j`` to ``hi_j`` adds j to the suffixes of the anchors in
    ``(lo_j, hi_j]``, adds the anchor ``hi_j`` and leaves every other anchor's
    terms unchanged. ``lo_j`` may stop being a release value of the
    scenario; its term is then below the term of the next value above it,
    which has the same suffix, so keeping it changes no maximum.
    """
    m = inst.m
    lo, hi, mp = inst.release_lo, inst.release_hi, inst.min_proc
    order = np.argsort(-lo, kind="stable")
    lo_desc = lo[order]
    ends = np.flatnonzero(np.append(lo_desc[1:] != lo_desc[:-1], True))
    u = lo_desc[ends]
    count = ends + 1
    total = np.cumsum(mp[order])[ends]
    least = np.minimum.accumulate(mp[order])[ends]

    # anchors outside (lo_j, hi_j]: a prefix above hi_j, a suffix from lo_j
    averaged = m * u + total
    base = np.maximum(averaged, m * (u + (count + m - 1) // m * least))
    above = np.concatenate(([0], np.maximum.accumulate(base)))
    below = np.maximum.accumulate(base[::-1])[::-1]
    first = np.searchsorted(-u, -hi, side="left")  # anchors above hi_j
    stop = np.searchsorted(-u, -lo, side="left")  # anchors above lo_j
    best = np.maximum(above[first], below[stop])

    # the anchor hi_j: the base suffix of hi_j plus job j when it was raised
    k = np.searchsorted(-u, -hi, side="right")
    raised = hi > lo
    c = np.concatenate(([0], count))[k] + raised
    s = np.concatenate(([0], total))[k] + np.where(raised, mp, 0)
    low = np.minimum(np.concatenate(([mp.max()], least))[k], mp)
    np.maximum(best, m * hi + s, out=best)
    np.maximum(best, m * (hi + (c + m - 1) // m * low), out=best)

    # lb1: j's own term with lo_j is below the one with hi_j, so keep it
    np.maximum(best, m * np.maximum((lo + mp).max(), hi + mp), out=best)

    # anchors inside (lo_j, hi_j], which gain job j: the averaged terms and,
    # from the first anchor whose minimum is at most mp_j on, the batched ones
    grown = (count + m) // m  # batches of C + 1 jobs
    np.maximum(best, _range_max(averaged, first, stop) + mp, out=best)
    split = np.clip(np.searchsorted(-least, -mp, side="left"), first, stop)
    np.maximum(best, _range_max(m * (u + grown * least), split, stop), out=best)

    # before the split the batched term is m * (u + grown * mp_j). It can
    # only beat the averaged term of the same anchor, m * u + P + mp_j with
    # P >= C * (mp_j + 1), while C < (m - 1) * mp_j: a short prefix of the
    # anchors, evaluated in row blocks.
    width = int(np.searchsorted(count, (m - 1) * int(mp.max()), side="left"))
    rows = np.flatnonzero((split > first) & (first < width))
    cols = np.arange(width)
    step = max(1, _BLOCK_ELEMENTS // max(width, 1))
    for begin in range(0, rows.size, step):
        j = rows[begin:begin + step]
        least_with_j = np.minimum(least[:width], mp[j, None])
        batched = m * (u[:width] + grown[:width] * least_with_j)
        inside = (cols >= first[j, None]) & (cols < split[j, None])
        best[j] = np.maximum(best[j], np.where(inside, batched, 0).max(axis=1))
    return best


def relaxed_regret(
    schedule: Schedule, inst: Instance, *, effective_only: bool = False
) -> RegretReport:
    """Worst gap between the schedule's makespan and the combined bound
    over the extreme scenarios.

    Replacing the per-scenario optimal makespan by its lower bound makes the
    result an upper bound on the exact worst-case regret. By default all
    extreme scenarios are evaluated; ``effective_only`` drops the redundant
    ones (jobs with covered intervals) first.
    """
    ensure_valid_schedule(schedule, inst)
    values = extreme_makespans(schedule, inst)
    scaled_lb = scaled_extreme_bounds(inst)
    terms = inst.m * values - scaled_lb

    jobs = range(inst.n)
    if effective_only:
        skip = covered_jobs(schedule, inst)
        jobs = [j for j in jobs if j not in skip]
    per_scenario: dict[int, Time] = {
        j: Fraction(int(terms[j]), inst.m) for j in jobs
    }
    best_job = max(jobs, key=lambda j: (terms[j], -j))
    return RegretReport(
        value=per_scenario[best_job],
        scenario=extreme_scenario(inst, best_job),
        per_scenario=per_scenario,
    )
