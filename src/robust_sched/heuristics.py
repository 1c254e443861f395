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

``pr`` and ``pre`` run one builder loop: ``pre``'s score is the larger of
``pr``'s and the placed-scenario term, and its ties use the gap summed over
those scenarios. In short bound mode one helper asks the bound kernel for
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
slowest processing time passes the next interval's lower release: where
processing spills over a gap, the minimum regret of any schedule can be
positive.
"""
from __future__ import annotations

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


class BuildState:
    """A schedule under construction, with completion bookkeeping.

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


def _argmin_with_gap_tie(
    score: np.ndarray,
    cand: np.ndarray,
    gap_of: "callable",
) -> tuple[int, int]:
    """Pick (job, machine) minimizing ``score[(machine, cand_idx)]``.

    Among tied cells the largest gap indicator wins, then the lowest job
    index, then the lowest machine index. ``gap_of`` maps arrays of tied
    machines and jobs to their gap indicators.
    """
    machines, cols = np.nonzero(score == score.min())
    jobs = cand[cols]
    pick = 0
    if jobs.size > 1:
        pick = np.lexsort((machines, jobs, -gap_of(machines, jobs)))[0]
    return int(jobs[pick]), int(machines[pick])


def pm(inst: Instance) -> Schedule:
    """Availability-guided greedy construction on the makespan alone.

    Each iteration schedules the job least likely to have work in front of it
    and appends it to the machine where it finishes earliest under its own
    extreme scenario.
    """
    n = inst.n
    state = BuildState(inst)
    rlo, rhi = inst.release_lo, inst.release_hi
    sump = inst.sum_proc

    earlier = rlo[None, :] < rhi[:, None]  # earlier[j, t]: t may precede j
    np.fill_diagonal(earlier, False)
    active = np.ones(n, dtype=bool)
    avail_count = earlier.sum(axis=1)
    avail_load = earlier @ sump  # scaled by m

    for _ in range(n):
        cand = np.flatnonzero(active)
        keys = zip(
            avail_count[cand].tolist(), avail_load[cand].tolist(), cand.tolist()
        )
        job = min(keys)[2]
        completions = inst.p_array[:, job] + np.maximum(
            state.base_completions(), rhi[job]
        )
        machine = int(np.argmin(completions))
        state.place(job, machine)
        active[job] = False
        affected = earlier[:, job] & active
        avail_count[affected] -= 1
        avail_load[affected] -= sump[job]
    return state.to_schedule()


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


def _partial_regret(inst: Instance, bound_mode: str, nested: bool) -> Schedule:
    """The builder loop shared by ``pr`` (``nested`` false) and ``pre``.

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

            def gap(machines: np.ndarray, jobs: np.ndarray) -> np.ndarray:
                gaps = last_placed[machines] - rhi[jobs][:, None]
                return np.maximum(gaps, 0).sum(axis=1)

        else:

            def gap(machines: np.ndarray, jobs: np.ndarray) -> np.ndarray:
                return np.maximum(base[machines] - rhi[jobs], 0)

        job, machine = _argmin_with_gap_tie(score, cand, gap)
        state.place(job, machine)
    return state.to_schedule()


def pr(inst: Instance, config: HeuristicConfig | None = None) -> Schedule:
    """Partial-regret greedy construction.

    Each iteration appends the (machine, job) pair minimizing the job's
    completion time minus the combined makespan bound of its extreme
    scenario. Tied pairs prefer the largest gap between the machine's current
    completion (all release dates low) and the job's latest release, closing
    idle windows first.
    """
    return _partial_regret(inst, (config or HeuristicConfig()).bound_mode, False)


def pre(inst: Instance, config: HeuristicConfig | None = None) -> Schedule:
    """Partial-regret construction with nested worst-case evaluation.

    For every candidate placement the score is the worst partial-regret term
    over the extreme scenarios of all placed jobs plus the candidate, so each
    decision already accounts for the scenarios committed so far. Tied
    placements prefer the largest total gap between the machine's
    completions under those scenarios and the candidate's latest release.
    """
    return _partial_regret(inst, (config or HeuristicConfig()).bound_mode, True)


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
