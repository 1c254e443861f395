"""Constructive heuristics for the minimax-regret scheduling problem.

Three deterministic builders place one job per iteration, always appending to
the end of some machine's sequence:

* ``pm`` ranks jobs by how little work could precede them (availability
  indicator) and then picks the machine greedily by completion time under the
  chosen job's extreme scenario.
* ``pr`` scores every (machine, job) pair by completion time minus the
  combined makespan bound of the job's extreme scenario and takes the
  smallest partial-regret score.
* ``pre`` extends ``pr`` by evaluating, for every candidate placement, the
  worst partial-regret term over the extreme scenarios of all already placed
  jobs plus the candidate.

``pm`` and full-mode ``pr`` are event-driven: ``pm`` keeps pointers and
heaps over the release orders (Fenwick trees when point intervals compete
with proper ones), full-mode ``pr`` a lazy heap and a presorted list per
machine. A build costs O(n (m + log n)) for ``pm`` and O(n m log n) at
worst for ``pr`` after its bound precompute, with no n x n array.
Short-mode ``pr`` and ``pre`` run one builder loop that rescans the
remaining candidates: ``pre``'s score is the larger of ``pr``'s and the
placed-scenario term, and its ties use the gap summed over those
scenarios. The loop keeps each machine's all-lower-bounds completion,
which is also its completion under the extreme scenario of any job not yet
placed, and for ``pre`` an (m, n) array with one column per placed job, in
placement order. In short bound mode one helper asks the bound kernel for
the placed jobs plus each candidate: with the candidate inserted for
``pr``, and with every member of each such subset raised for ``pre``.

All tie-breaking is deterministic (gap indicators, then lowest job index,
then lowest machine index), so identical inputs give identical schedules.
Bound terms are compared on values scaled by the machine count, which keeps
tie detection exact for integer instances.

Two polynomial-case detectors flag instances on which the ``pm`` schedule
can be worst-case-regret optimal. With one job whose upper release bound
dominates everything else it is. With pairwise disjoint intervals it is on
one machine, and on several only when no job's upper release plus its
slowest processing time passes the next interval's lower release
(``detect_spill``): where processing spills over a gap, the minimum regret
of any schedule can be positive.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .bounds import scaled_combined_rows, scaled_extreme_bounds
from .model import Instance, Schedule

_ALGORITHMS = ("pm", "pr", "pre")
_BOUND_MODES = ("full", "short")


@dataclass(frozen=True)
class HeuristicConfig:
    """Algorithm selection and variant switches.

    ``bound_mode`` selects how the makespan bounds feeding ``pr``/``pre`` are
    obtained: ``"full"`` precomputes them once per extreme scenario over all
    jobs, ``"short"`` recomputes them each iteration over the already placed
    jobs plus the candidate only. ``pm`` uses no bounds, so it only accepts
    the default. All algorithms are deterministic and take no seed.
    """

    algorithm: str = "pm"
    bound_mode: str = "full"

    def __post_init__(self) -> None:
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.bound_mode not in _BOUND_MODES:
            raise ValueError(f"unknown bound mode {self.bound_mode!r}")
        if self.algorithm == "pm" and self.bound_mode != "full":
            raise ValueError("bound_mode applies to pr/pre only")


class _Fenwick:
    """Prefix sums over positions 0..size-1 with point updates (Fenwick
    1994, "A new data structure for cumulative frequency tables")."""

    def __init__(self, values: list[int]):
        tree = [0, *values]
        for k in range(1, len(tree)):
            parent = k + (k & -k)
            if parent < len(tree):
                tree[parent] += tree[k]
        self.tree = tree

    def add(self, pos: int, delta: int) -> None:
        tree = self.tree
        pos += 1
        while pos < len(tree):
            tree[pos] += delta
            pos += pos & -pos

    def prefix(self, end: int) -> int:
        """Sum of positions ``0 .. end-1``."""
        tree, total = self.tree, 0
        while end:
            total += tree[end]
            end &= end - 1
        return total


def pm(inst: Instance) -> Schedule:
    """Availability-guided greedy construction on the makespan alone.

    Each iteration schedules the job least likely to have work in front of
    it and appends it to the machine where it finishes earliest under its
    own extreme scenario. Job j's key is the count and the summed ``sump``
    (m times the mean processing time) of the other unplaced jobs released
    below ``hi_j``, then j itself.

    Both totals grow with ``hi_j``, so the winner is one of two jobs. Among
    proper intervals (lo < hi) the smallest count belongs to every job whose
    hi is at most L, the first unplaced lower release at or above the
    smallest unplaced proper hi; they share count and load up to their own
    ``sump``, so the largest ``sump``, then the lowest index, wins. L only
    grows, so a pointer over the hi order fills a heap of these jobs. A
    point interval (lo == hi) counts every unplaced point released before
    it, so among points the smallest (hi, j) wins: the head of a heap. When
    both winners exist, Fenwick trees over the lower-release order give
    their exact keys. An iteration costs O(m + log n) amortized.
    """
    n = inst.n
    p = inst.p
    lo, hi = inst.release_lo.tolist(), inst.release_hi.tolist()
    sump = inst.sum_proc.tolist()
    by_lo = sorted(range(n), key=lo.__getitem__)
    lo_sorted = [lo[j] for j in by_lo]
    proper = sorted((j for j in range(n) if lo[j] < hi[j]), key=hi.__getitem__)
    points = [(hi[j], j) for j in range(n) if lo[j] == hi[j]]
    heapq.heapify(points)
    if points:
        lo_rank = [0] * n
        for k, j in enumerate(by_lo):
            lo_rank[j] = k
        count = _Fenwick([1] * n)
        load = _Fenwick([sump[j] for j in by_lo])

    active = [True] * n
    base = [0] * inst.m
    machines: list[list[int]] = [[] for _ in range(inst.m)]
    first = 0  # proper[:first] are placed
    nxt = 0  # by_lo[nxt]: the first unplaced job released at or above floor
    eligible = 0  # proper[:eligible] went to the heap
    heap: list[int] = []  # -sump * n + j: largest sump, then lowest index
    for _ in range(n):
        while first < len(proper) and not active[proper[first]]:
            first += 1
        job = None
        if first < len(proper):
            floor = hi[proper[first]]
            while nxt < n and (lo_sorted[nxt] < floor or not active[by_lo[nxt]]):
                nxt += 1
            while eligible < len(proper) and (
                nxt == n or hi[proper[eligible]] <= lo_sorted[nxt]
            ):
                j = proper[eligible]
                if active[j]:
                    heapq.heappush(heap, j - sump[j] * n)
                eligible += 1
            while not active[heap[0] % n]:
                heapq.heappop(heap)
            job = heap[0] % n
        while points and not active[points[0][1]]:
            heapq.heappop(points)
        if points:
            point = points[0][1]
            if job is None:
                job = point
            else:
                at_job = bisect_left(lo_sorted, hi[job])
                at_point = bisect_left(lo_sorted, hi[point])
                job_key = (
                    count.prefix(at_job) - 1, load.prefix(at_job) - sump[job], job
                )
                point_key = (count.prefix(at_point), load.prefix(at_point), point)
                job = min(job_key, point_key)[2]

        release = hi[job]
        done = [row[job] + (b if b > release else release) for row, b in zip(p, base)]
        machine = done.index(min(done))
        machines[machine].append(job)
        base[machine] = max(base[machine], lo[job]) + p[machine][job]
        active[job] = False
        if points:
            count.add(lo_rank[job], -1)
            load.add(lo_rank[job], -sump[job])
    return Schedule(machines=tuple(map(tuple, machines)))


def _short_bounds(
    inst: Instance, placed: np.ndarray, cand: np.ndarray, nested: bool
) -> np.ndarray:
    """Scaled combined bounds over the placed jobs plus each candidate.

    Entry ``[c, t]`` is the bound of the subset ``placed + {cand[c]}`` under
    the extreme scenario raising its t-th member. Without ``nested`` only the
    candidate's own scenario is needed (one column): the placed jobs form one
    base and each candidate is inserted at its upper release. With it, each
    subset is a base of its own whose members are raised in turn, the
    candidate last.
    """
    lo, hi, mp = inst.release_lo, inst.release_hi, inst.min_proc
    if not nested:
        outside = np.full((1, cand.size), -1)  # below every release
        bounds = scaled_combined_rows(
            lo[placed][None], mp[placed][None], outside, hi[cand][None],
            mp[cand][None], inst.m,
        )
        return bounds.reshape(-1, 1)
    jobs = np.empty((cand.size, placed.size + 1), dtype=np.int64)
    jobs[:, :-1] = placed
    jobs[:, -1] = cand
    return scaled_combined_rows(lo[jobs], mp[jobs], lo[jobs], hi[jobs], mp[jobs], inst.m)


def _partial_regret(
    inst: Instance, bounds: np.ndarray | None, nested: bool
) -> Schedule:
    """The builder loop shared by short-mode ``pr`` (``nested`` false) and
    ``pre``. ``bounds`` holds the scaled extreme bounds of full-mode ``pre``;
    ``None`` asks the kernel for the short-sighted ones every iteration.

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

    Under the extreme scenario of a job not yet placed every job placed so
    far sits at its lower release, so every machine completes at ``base``,
    its all-lower-bounds completion. Only the placed jobs' scenarios need
    completions of their own: ``pre`` keeps one column per placed job.
    """
    n, m = inst.n, inst.m
    p, rlo, rhi = inst.p_array, inst.release_lo, inst.release_hi
    base = np.zeros(m, dtype=np.int64)
    remaining = np.ones(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    # Column k holds the completions under the k-th placed job's scenario.
    # Placement order, not job index: last[:, :s] is then a C-ordered view
    # with the placed axis innermost, and so is the (m, V, s) terms tensor
    # that ``max(axis=2)`` reduces. A job-indexed gather ``last[:, placed]``
    # comes back Fortran-ordered and makes that reduction strided.
    last = np.empty((m, n), dtype=np.int64) if nested else None
    machines: list[list[int]] = [[] for _ in range(m)]

    for s in range(n):
        cand = np.flatnonzero(remaining)
        placed = order[:s]
        if bounds is None:
            short = _short_bounds(inst, placed, cand, nested)  # (V, 1 or s+1)
            own_lb, placed_lb = short[:, -1], short[:, :-1]
        else:
            own_lb, placed_lb = bounds[cand], bounds[placed]
        proc = p[:, cand]
        completions = proc + np.maximum(base[:, None], rhi[cand][None, :])
        score = m * completions - own_lb[None, :]  # (m, V)

        if nested and s:
            terms = m * np.maximum(last[:, None, :s], rlo[cand][None, :, None])
            terms -= placed_lb  # (m, V, s)
            np.maximum(score, terms.max(axis=2) + m * proc, out=score)

        rows, cols = np.nonzero(score == score.min())
        jobs = cand[cols]
        pick = 0
        if jobs.size > 1:  # (score, -gap, job, machine)
            done = last[rows, :s] if nested else base[rows, None]
            gaps = np.maximum(done - rhi[jobs][:, None], 0).sum(axis=1)
            pick = np.lexsort((rows, jobs, -gaps))[0]
            del done  # left alive, it adds page faults to the next iteration's terms
        job, machine = int(jobs[pick]), int(rows[pick])
        if nested:
            last[:, s] = base
            last[machine, s] = max(base[machine], rhi[job])
            row = last[machine, : s + 1]  # column s is >= hi >= lo already
            np.maximum(row, rlo[job], out=row)
            row += p[machine, job]
        base[machine] = max(base[machine], rlo[job]) + p[machine, job]
        machines[machine].append(job)
        order[s] = job
        remaining[job] = False
    return Schedule(machines=tuple(map(tuple, machines)))


def _pr_full(inst: Instance) -> Schedule:
    """Full-mode ``pr`` with per-machine heads kept between iterations.

    With ``b`` a machine's completion under the all-lower-bounds scenario,
    job j scores ``m (p_ij + max(b, hi_j)) - LB_j`` with gap
    ``max(b - hi_j, 0)``. Jobs with ``hi_j <= b`` order by
    ``(m p_ij - LB_j, hi_j, j)``, which does not depend on b: a heap per
    machine that a pointer over the hi order fills as b grows. The other
    jobs order by ``(m (p_ij + hi_j) - LB_j, j)`` with gap 0: one list
    sorted once per machine, which only loses jobs. Placed jobs leave both
    lazily. A machine's best (score, -gap, job, machine) changes only when
    its own b grows or its best job is placed, and the iteration takes the
    smallest of the m bests in that order, as ``_partial_regret`` does.
    """
    n, m = inst.n, inst.m
    p = inst.p
    lo, hi = inst.release_lo.tolist(), inst.release_hi.tolist()
    lb_array = scaled_extreme_bounds(inst)
    lb = lb_array.tolist()
    by_hi = sorted(range(n), key=hi.__getitem__)
    hi_sorted = [hi[j] for j in by_hi]
    later = np.argsort(
        m * (inst.p_array + inst.release_hi) - lb_array, axis=1, kind="stable"
    ).tolist()
    radix = (max(hi) + 1) * n  # heap entries encode (m p_ij - LB_j, hi_j, j)

    active = [True] * n
    base = [0] * m
    moved = [0] * m  # by_hi[:moved[i]] went to machine i's heap
    skipped = [0] * m  # later[i][:skipped[i]] are placed or moved
    ready: list[list[int]] = [[] for _ in range(m)]
    machines: list[list[int]] = [[] for _ in range(m)]

    def fill(i: int) -> None:
        k, b, row, heap = moved[i], base[i], p[i], ready[i]
        while k < n and hi_sorted[k] <= b:
            j = by_hi[k]
            if active[j]:
                heapq.heappush(heap, (m * row[j] - lb[j]) * radix + hi[j] * n + j)
            k += 1
        moved[i] = k

    def head(i: int) -> tuple[int, int, int, int] | None:
        b, row, heap, order = base[i], p[i], ready[i], later[i]
        while heap and not active[heap[0] % n]:
            heapq.heappop(heap)
        k = skipped[i]
        while k < n and (not active[order[k]] or hi[order[k]] <= b):
            k += 1
        skipped[i] = k
        best = None
        if heap:
            j = heap[0] % n
            best = (m * (row[j] + b) - lb[j], hi[j] - b, j, i)
        if k < n:
            j = order[k]
            wait = (m * (row[j] + hi[j]) - lb[j], 0, j, i)
            if best is None or wait < best:
                best = wait
        return best

    for i in range(m):
        fill(i)
    heads = [head(i) for i in range(m)]
    for _ in range(n):
        _, _, job, machine = min(heads)
        machines[machine].append(job)
        active[job] = False
        base[machine] = max(base[machine], lo[job]) + p[machine][job]
        fill(machine)
        for i in range(m):
            if i == machine or heads[i][2] == job:
                heads[i] = head(i)
    return Schedule(machines=tuple(map(tuple, machines)))


def pr(inst: Instance, config: HeuristicConfig | None = None) -> Schedule:
    """Partial-regret greedy construction.

    Each iteration appends the (machine, job) pair minimizing the job's
    completion time minus the combined makespan bound of its extreme
    scenario. Tied pairs prefer the largest gap between the machine's current
    completion (all release dates low) and the job's latest release, closing
    idle windows first. Full bound mode keeps a lazy heap and a presorted
    list per machine; each job enters each machine's heap at most once, so
    a build costs O(n m log n) at worst after the bound precompute. Short
    mode runs the shared partial-regret loop.
    """
    if (config or HeuristicConfig()).bound_mode == "full":
        return _pr_full(inst)
    return _partial_regret(inst, None, False)


def pre(inst: Instance, config: HeuristicConfig | None = None) -> Schedule:
    """Partial-regret construction with nested worst-case evaluation.

    For every candidate placement the score is the worst partial-regret term
    over the extreme scenarios of all placed jobs plus the candidate, so each
    decision already accounts for the scenarios committed so far. Tied
    placements prefer the largest total gap between the machine's
    completions under those scenarios and the candidate's latest release.
    """
    full = (config or HeuristicConfig()).bound_mode == "full"
    return _partial_regret(inst, scaled_extreme_bounds(inst) if full else None, True)


def build_schedule(inst: Instance, config: HeuristicConfig) -> Schedule:
    """Run the algorithm selected by ``config``."""
    if config.algorithm == "pm":
        return pm(inst)
    if config.algorithm == "pr":
        return pr(inst, config)
    return pre(inst, config)


def detect_disjoint(inst: Instance) -> bool:
    """True when all release intervals are pairwise disjoint (closed reading,
    so touching endpoints overlap)."""
    spans = sorted(inst.release)
    return all(spans[k][1] < spans[k + 1][0] for k in range(len(spans) - 1))


def detect_spill(inst: Instance) -> bool:
    """True when, in release order, some job's upper release plus its
    slowest processing time passes the next job's lower release. Only
    without such a spill do disjoint intervals make ``pm`` optimal on
    several machines."""
    spans = sorted(range(inst.n), key=inst.release.__getitem__)
    slowest = inst.p_array.max(axis=0).tolist()
    return any(
        inst.release[a][1] + slowest[a] > inst.release[b][0]
        for a, b in zip(spans, spans[1:])
    )


def detect_dominant_job(inst: Instance) -> int | None:
    """Job whose latest release alone dominates all other work, or None.

    A job qualifies when every other job's latest release plus the total of
    the other jobs' slowest processing times does not exceed its own latest
    release. With several qualifying jobs the one with the largest latest
    release wins (lowest index on ties).
    """
    n = inst.n
    rhi = inst.release_hi
    slowest = inst.p_array.max(axis=0)
    total = int(slowest.sum())
    order = np.argsort(-rhi, kind="stable")
    top, second = int(order[0]), int(order[1]) if n > 1 else None
    best: int | None = None
    for j in range(n):
        others_hi = int(rhi[second if j == top else top]) if n > 1 else 0
        if others_hi + (total - int(slowest[j])) <= int(rhi[j]):
            if best is None or rhi[j] > rhi[best]:
                best = j
    return best
