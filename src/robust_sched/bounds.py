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

One kernel, ``scaled_combined_rows``, gives the combined bounds of the
builders and of the relaxed regret. It takes a batch
of q base job sets and, per base, r queries that each raise one member or
insert one outsider, and answers them from the sorted bases without
building any scenario row: prefix and suffix maxima, binary searches and
sparse tables of range maxima give them in O(q (s + r) log s) time and
memory for bases of s jobs. One family of terms, the
batched bounds of anchors inside a raised range that stay faster than the
moved job, is evaluated in row blocks of bounded memory over the anchors
with fewer than ``(m - 1) * max p`` jobs, a handful on generated instances.
The n extreme scenarios (``scaled_extreme_bounds``) are one base with every
job raised in turn, computed once per instance; the short-sighted
heuristics are the batched cases.
The oracle's prune needs the bound of each suffix of one release order,
which suffixes share, so ``_suffix_scaled_bounds`` takes them from one
suffix scan, ``_suffix_terms``, at every position of that order;
``lb_combined`` reads the same scan at each job's first tied position.

With the O(n + m) extreme makespans of :mod:`.model`, relaxed regret needs
no n x n array at any size. Its ``effective_only`` mode drops the covered
jobs, which :mod:`.model` reads off the same base chain as the makespans,
and a report shares one ``Fraction`` per distinct term among its jobs.
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
    covered_mask,
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


def lb_avg(scenario: Scenario, inst: Instance) -> Fraction:
    """Earliest release date plus total fastest work averaged over machines."""
    return lb_combined(scenario, inst).lb_avg


def lb1(scenario: Scenario, inst: Instance) -> int:
    """Largest release date plus fastest processing time of a single job."""
    return lb_combined(scenario, inst).lb1


def lb2(scenario: Scenario, inst: Instance) -> Fraction:
    """Best averaged bound over suffixes of jobs released at an anchor or later."""
    return lb_combined(scenario, inst).lb2


def lb3(scenario: Scenario, inst: Instance) -> int:
    """Best anchor release plus batched shortest processing time."""
    return lb_combined(scenario, inst).lb3


def lb_combined(scenario: Scenario, inst: Instance) -> BoundsReport:
    """All four bounds at once, with per-anchor diagnostics."""
    ensure_scenario(scenario, inst)
    m, release, mp = inst.m, scenario.r_array, inst.min_proc
    order = np.argsort(release, kind="stable")
    # each job's suffix: the jobs from the first of its ties in release order
    start = np.searchsorted(release[order], release)
    scaled_avg, scaled_bat = _suffix_terms(release[order], mp[order], m)
    avg, bat = scaled_avg[start].tolist(), (scaled_bat[start] // m).tolist()
    per_job = {
        j: (Fraction(avg[j], m), bat[j])
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


def _suffix_terms(release, fastest, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Per position k of jobs in ascending release order, m times the
    averaged and batched terms of the jobs from k on: ``m r_k`` plus the sum
    of their fastest times, and ``m (r_k + ceil((n - k) / m) min)``."""
    sums = np.add.accumulate(fastest[::-1])[::-1]
    mins = np.minimum.accumulate(fastest[::-1])[::-1]
    batches = np.arange(release.size + m - 1, m - 1, -1) // m
    return m * release + sums, m * (release + batches * mins)


def _suffix_scaled_bounds(
    order: list[int], release: tuple[int, ...], fastest, m: int
) -> list[int]:
    """m times a lower bound on the optimum of each suffix of the
    release-sorted jobs ``order``, and 0 for the empty one.

    Every job from position k on is released at ``r_k`` or later, so
    ``m (r_k + f_k)`` and the terms of ``_suffix_terms`` bound their
    optimum. Adding jobs never lowers an optimum, so the running maximum of
    these terms from the end bounds every suffix.
    """
    jobs = np.asarray(order, dtype=np.int64)
    r, f = np.asarray(release, dtype=np.int64)[jobs], np.asarray(fastest)[jobs]
    terms = np.maximum(m * (r + f), np.maximum(*_suffix_terms(r, f, m)))
    return np.maximum.accumulate(terms[::-1])[::-1].tolist() + [0]


# element budget of one row block in scaled_combined_rows
_BLOCK_ELEMENTS = 1 << 16
_TOP = np.iinfo(np.int64).max


def _count_before(keys: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per query ``x[b, j]``, the number of entries of the ascending row
    ``keys[b]`` below it. The method form skips ``np.searchsorted``'s
    dispatch, which costs more than the search of a short row."""
    found = np.empty(x.shape, dtype=np.int64)
    for b, row in enumerate(keys):
        found[b] = row.searchsorted(x[b])
    return found


def _range_max(values: np.ndarray, first: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Per query, the maximum of ``values[b, first[b, j]:stop[b, j]]`` (0 when
    empty), from a sparse table of maxima over power-of-two windows."""
    q, size = values.shape
    table = np.zeros((size.bit_length(), q, size), dtype=np.int64)
    table[0] = values
    for level in range(1, table.shape[0]):
        width = 1 << (level - 1)
        np.maximum(table[level - 1, :, :-width], table[level - 1, :, width:],
                   out=table[level, :, : size - width])
    length = stop - first
    level = np.frexp(np.maximum(length, 1))[1] - 1  # floor(log2(length))
    row = (level * q + np.arange(q)[:, None]) * size
    left = table.take(row + np.minimum(first, size - 1))
    right = table.take(row + np.maximum(stop - (1 << level), 0))
    return np.where(length > 0, np.maximum(left, right), 0)


def scaled_combined_rows(
    release: np.ndarray,
    fastest: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    query_fastest: np.ndarray,
    machine_count: int,
) -> np.ndarray:
    """Combined bound (scaled by m) of q job sets, each changed by r queries.

    Base b holds the jobs with releases ``release[b]`` and fastest times
    ``fastest[b]``, both ``(q, s)``. Query ``(lo, hi, query_fastest)[b, j]``,
    all ``(q, r)``, changes base b in one of three ways: it raises a member
    released at ``lo`` with that fastest time to ``hi``; it inserts an
    outsider at ``hi`` when ``lo`` lies below every release of the base
    (say -1); with ``hi == lo`` for a member, it keeps the base as it is.
    Returns the ``(q, r)`` bounds.

    Each base is reduced to its distinct release values (anchors),
    descending, each with the count ``C``, sum ``P`` and minimum ``M`` of
    the fastest times released at the anchor or later. A query adds its job
    to the suffixes of the anchors in ``(lo, hi]``, adds the anchor ``hi``
    and leaves every other anchor's terms unchanged. A raised member's
    ``lo`` may stop being a release value; its term is then below the term
    of the next value above it, which has the same suffix, so keeping it
    changes no maximum.
    """
    m = machine_count
    q, s = release.shape
    f = query_fastest
    f_top = int(f.max(initial=0))
    order = (-release).argsort(axis=1) + np.arange(q)[:, None] * s
    rel = release.take(order)
    proc = fastest.take(order)
    ends = np.ones((q, s), dtype=bool)  # the last member of each tie group
    ends[:, :-1] = rel[:, 1:] != rel[:, :-1]
    row, pos = np.nonzero(ends)
    col = np.arange(1, row.size + 1) - np.searchsorted(row, np.arange(q))[row]
    # column 0 stands for the empty prefix above every anchor, columns 1..
    # for the anchors and the columns past a base's last anchor for none
    width = int(col.max(initial=0)) + 2
    offset = np.arange(q)[:, None] * width

    def at(values: np.ndarray, index: np.ndarray) -> np.ndarray:
        return values.take(index + offset)

    # per anchor: the release, its search key (ascending), and the count,
    # sum and minimum of the fastest times released there or later
    table = np.empty((5, q, width), dtype=np.int64)
    table[:] = np.array([0, _TOP, s, 0, 0])[:, None, None]
    table[:, :, 0] = np.array([0, -_TOP, 0, 0, f_top])[:, None]
    table[:, row, col] = (
        rel[ends], -rel[ends], pos + 1,
        np.cumsum(proc, axis=1)[ends], np.minimum.accumulate(proc, axis=1)[ends],
    )
    u, key, count, total, least = table

    # anchors outside (lo, hi]: a prefix above hi, a suffix from lo
    averaged = m * u + total
    base = np.maximum(averaged, m * (u + (count + m - 1) // m * least))
    above = np.maximum.accumulate(base, axis=1)
    below = np.maximum.accumulate(base[:, ::-1], axis=1)[:, ::-1]
    first = _count_before(key, -hi)  # the first anchor at most hi
    stop = _count_before(key, -lo)  # the first anchor at most lo
    best = np.maximum(at(above, first - 1), at(below, stop))

    # the anchor hi: the base suffix of hi plus the query's job when it moved
    at_hi = first - (at(key, first) != -hi)  # the last anchor at least hi
    raised = hi > lo
    c, p_sum, low = table[2:].reshape(3, -1).take(at_hi + offset, axis=1)
    c += raised
    p_sum += f * raised
    np.minimum(low, f, out=low)
    np.maximum(best, m * hi + p_sum, out=best)
    np.maximum(best, m * (hi + (c + m - 1) // m * low), out=best)

    # lb1: a raised member's own lo term is below its hi term, so keep it
    top = (release + fastest).max(axis=1, initial=-_TOP)
    np.maximum(best, m * np.maximum(top[:, None], hi + f), out=best)

    # anchors inside (lo, hi], which gain the job: the averaged terms and,
    # from the first anchor whose minimum is at most its fastest time on,
    # the batched ones
    grown = (count + m) // m  # batches of C + 1 jobs
    split = np.clip(_count_before(-least, -f), first, stop)
    inside = _range_max(
        np.concatenate((averaged, m * (u + grown * least))),
        np.concatenate((first, split)),
        np.concatenate((stop, stop)),
    )
    np.maximum(best, inside[:q] + f, out=best)
    np.maximum(best, inside[q:], out=best)

    # before the split the anchors' minima exceed f, so the batched term
    # is m * (u + grown * f). It can only beat the averaged term of the same
    # anchor, m * u + P + f with P >= C * (f + 1), while C < (m - 1) * f: a
    # short prefix of the anchors. Its largest value is at most
    # m * (u[first] + grown[split - 1] * f); only queries where that beats
    # the best so far are evaluated, in row blocks.
    span = int((count < (m - 1) * f_top).sum(axis=1).max())
    reach = m * (at(u, first) + at(grown, split - 1) * f)
    pair_b, pair_j = np.nonzero((split > first) & (first < span) & (reach > best))
    cols = np.arange(span)
    step = max(1, _BLOCK_ELEMENTS // max(span, 1))
    for begin in range(0, pair_b.size, step):
        b, j = pair_b[begin:begin + step], pair_j[begin:begin + step]
        batched = m * (u[b, :span] + grown[b, :span] * f[b, j, None])
        within = (cols >= first[b, j, None]) & (cols < split[b, j, None])
        best[b, j] = np.maximum(best[b, j], np.where(within, batched, 0).max(axis=1))
    return best


def scaled_extreme_bounds(inst: Instance) -> np.ndarray:
    """Combined bound (scaled by m) under each extreme scenario, by raised job:
    the all-lower-bounds base with every job raised in turn.

    The bounds depend on the instance alone, so the kernel runs once per
    instance; the read-only result is kept on the instance, beside its
    arrays, for the builders and every later evaluation."""
    bounds = vars(inst).get("_scaled_extreme_bounds")
    if bounds is None:
        lo, mp = inst.release_lo[None], inst.min_proc[None]
        bounds = scaled_combined_rows(lo, mp, lo, inst.release_hi[None], mp, inst.m)[0]
        bounds.setflags(write=False)
        vars(inst)["_scaled_extreme_bounds"] = bounds
    return bounds


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

    if effective_only:
        jobs = np.flatnonzero(~covered_mask(schedule, inst))
        terms = terms[jobs]
    else:
        jobs = np.arange(inst.n)
    best_job = int(jobs[np.argmax(terms)])  # the first, lowest job of the ties
    # a report holds few distinct terms: one Fraction each, shared by the jobs
    kept = terms.tolist()
    shared = {t: Fraction(t, inst.m) for t in set(kept)}
    per_scenario: dict[int, Time] = dict(
        zip(jobs.tolist(), map(shared.__getitem__, kept))
    )
    return RegretReport(
        value=per_scenario[best_job],
        scenario=extreme_scenario(inst, best_job),
        per_scenario=per_scenario,
    )
