"""Domain model for robust parallel-machine scheduling with interval release dates.

An :class:`Instance` fixes unrelated per-machine processing times and one
closed release-date interval per job. A :class:`Scenario` picks one concrete
release date per job from its interval. A :class:`Schedule` assigns every job
to a position on exactly one machine; completion times follow the
release-respecting chain rule and the makespan is the largest completion
across machines.

Regret values compare a schedule's makespan under a scenario against the
optimal makespan for that scenario. The worst case over the whole scenario
box is attained on the small set of *extreme scenarios* (all release dates at
their lower bounds except a single job raised to its upper bound), which this
module constructs and prunes.

Scoring a fixed schedule runs no Python loop over its jobs. One per-machine
pass chains the all-lower-bounds completions in numpy; the extreme makespans
start from it, and a job is covered (its extreme scenario redundant) where
its predecessor's completion in that chain reaches its upper release. A
valid schedule passes validation with one sorted comparison.

Jobs and machines are indexed 0-based throughout the API; human-readable
messages label them 1-based.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import index as as_int
from typing import Iterable, Sequence, Union

import numpy as np

Time = Union[int, Fraction]


class InvalidScheduleError(ValueError):
    """Raised when an operation requires a valid schedule and gets none."""


class InfeasibleScenarioError(ValueError):
    """Raised when a scenario leaves the instance's release-date box."""


def _int_tuple(values: Iterable) -> tuple[int, ...]:
    return tuple(map(as_int, values))


@dataclass(frozen=True)
class Instance:
    """A problem instance: processing-time matrix plus release-date intervals.

    ``p`` has one row per machine and one column per job (``p[i][j]`` is the
    processing time of job ``j`` on machine ``i``); all entries are positive
    integers. ``release`` holds one ``(lo, hi)`` pair per job with
    ``0 <= lo <= hi``; ``lo == hi`` encodes a deterministic release date.

    The kernels work in int64 on values scaled by the machine count, and no
    completion time exceeds the largest upper release plus every job's
    slowest processing time. Instances where ``m`` times that could reach
    ``2**62`` are refused, so that no kernel wraps silently.
    """

    p: tuple[tuple[int, ...], ...]
    release: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        rows = tuple(_int_tuple(row) for row in self.p)
        intervals = tuple((as_int(lo), as_int(hi)) for lo, hi in self.release)
        object.__setattr__(self, "p", rows)
        object.__setattr__(self, "release", intervals)
        if not rows:
            raise ValueError("instance needs at least one machine")
        n = len(rows[0])
        if n == 0:
            raise ValueError("instance needs at least one job")
        if any(len(row) != n for row in rows):
            raise ValueError("processing-time rows have unequal lengths")
        if len(intervals) != n:
            raise ValueError(
                f"expected {n} release intervals, got {len(intervals)}"
            )
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

    @property
    def n(self) -> int:
        """Number of jobs."""
        return len(self.release)

    @property
    def m(self) -> int:
        """Number of machines."""
        return len(self.p)

    @cached_property
    def p_array(self) -> np.ndarray:
        arr = np.array(self.p, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    @cached_property
    def release_lo(self) -> np.ndarray:
        arr = np.array([lo for lo, _ in self.release], dtype=np.int64)
        arr.setflags(write=False)
        return arr

    @cached_property
    def release_hi(self) -> np.ndarray:
        arr = np.array([hi for _, hi in self.release], dtype=np.int64)
        arr.setflags(write=False)
        return arr

    @cached_property
    def min_proc(self) -> np.ndarray:
        """Per job, the smallest processing time over machines."""
        arr = self.p_array.min(axis=0)
        arr.setflags(write=False)
        return arr

    @cached_property
    def sum_proc(self) -> np.ndarray:
        """Per job, the processing-time total over machines (m * average)."""
        arr = self.p_array.sum(axis=0)
        arr.setflags(write=False)
        return arr


@dataclass(frozen=True)
class Scenario:
    """One release date per job, drawn from the instance's interval box."""

    r: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _int_tuple(self.r))

    @classmethod
    def _of(cls, r: tuple[int, ...]) -> Scenario:
        """A scenario over a tuple of Python ints, taken as it is."""
        scenario = object.__new__(cls)
        object.__setattr__(scenario, "r", r)
        return scenario

    @cached_property
    def r_array(self) -> np.ndarray:
        arr = np.array(self.r, dtype=np.int64)
        arr.setflags(write=False)
        return arr


@dataclass(frozen=True)
class Schedule:
    """Per-machine ordered job sequences (0-based job indices)."""

    machines: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "machines", tuple(_int_tuple(seq) for seq in self.machines)
        )

    @cached_property
    def position(self) -> dict[int, tuple[int, int]]:
        """Lookup job -> (machine, position); positions are 0-based."""
        table: dict[int, tuple[int, int]] = {}
        for i, seq in enumerate(self.machines):
            for k, job in enumerate(seq):
                table.setdefault(job, (i, k))
        return table

    def job_count(self) -> int:
        return sum(len(seq) for seq in self.machines)


@dataclass(frozen=True)
class CompletionProfile:
    """Completion time of every scheduled job, grouped per machine."""

    completions: tuple[tuple[int, ...], ...]
    makespan: int


@dataclass(frozen=True)
class ScheduleViolation:
    """First constraint violated by a schedule, with a 1-based label message."""

    kind: str  # "machine-count" | "job-out-of-range" | "duplicate-job" | "missing-job"
    job: int | None
    machine: int | None
    message: str


@dataclass(frozen=True)
class RegretReport:
    """A regret value together with the scenario that attains it.

    ``per_scenario`` maps the raised job index of each evaluated extreme
    scenario to its regret term; it is empty for reports whose scenario set
    is not the extreme family (e.g. grid sweeps). ``certified`` is False when
    an enumeration stopped on its time budget and the value is only a best
    effort.
    """

    value: Time
    scenario: Scenario | None
    per_scenario: dict[int, Time] = field(default_factory=dict)
    certified: bool = True


def validate_schedule(schedule: Schedule, inst: Instance) -> ScheduleViolation | None:
    """Check a schedule against an instance; return the first violation or None.

    A valid schedule has exactly one sequence per machine and every job in
    ``0..n-1`` exactly once across all sequences.
    """
    if len(schedule.machines) != inst.m:
        return ScheduleViolation(
            kind="machine-count",
            job=None,
            machine=None,
            message=(
                f"schedule has {len(schedule.machines)} machine sequences, "
                f"instance has {inst.m} machines"
            ),
        )
    n = inst.n
    if sorted(itertools.chain.from_iterable(schedule.machines)) == list(range(n)):
        return None
    # invalid: find the first violation in schedule order
    seen = [False] * n
    for i, seq in enumerate(schedule.machines):
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


def ensure_valid_schedule(schedule: Schedule, inst: Instance) -> None:
    violation = validate_schedule(schedule, inst)
    if violation is not None:
        raise InvalidScheduleError(violation.message)


def ensure_scenario(scenario: Scenario, inst: Instance) -> None:
    if len(scenario.r) != inst.n:
        raise InfeasibleScenarioError(
            f"scenario has {len(scenario.r)} release dates, instance has {inst.n} jobs"
        )
    for j, value in enumerate(scenario.r):
        lo, hi = inst.release[j]
        if value < lo or value > hi:
            raise InfeasibleScenarioError(
                f"release date {value} of job {j + 1} leaves [{lo}, {hi}]"
            )


def completion_profile(
    schedule: Schedule, scenario: Scenario, inst: Instance
) -> CompletionProfile:
    """Chain completion times per machine and take the makespan.

    Each job starts at the later of its release date and its predecessor's
    completion on the same machine; an empty machine contributes 0.
    """
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


def makespan(schedule: Schedule, scenario: Scenario, inst: Instance) -> int:
    return completion_profile(schedule, scenario, inst).makespan


def regret(
    schedule: Schedule,
    scenario: Scenario,
    inst: Instance,
    reference_makespan: int,
) -> int:
    """Makespan of the schedule under the scenario minus a reference optimum.

    The caller supplies ``reference_makespan``; a negative result means the
    reference was not actually optimal and is returned unclamped.
    """
    return makespan(schedule, scenario, inst) - reference_makespan


def extreme_scenario(inst: Instance, job: int) -> Scenario:
    """All release dates at their lower bounds except ``job`` at its upper."""
    if job < 0 or job >= inst.n:
        raise IndexError(f"job index {job} out of range for {inst.n} jobs")
    return _raised(lower_scenario(inst).r, job, inst.release[job][1])


def lower_scenario(inst: Instance) -> Scenario:
    """Every release date at its lower bound."""
    return Scenario._of(tuple(inst.release_lo.tolist()))


def _raised(lows: tuple[int, ...], job: int, value: int) -> Scenario:
    return Scenario._of(lows[:job] + (value,) + lows[job + 1:])


def extreme_scenarios(inst: Instance) -> list[Scenario]:
    return [extreme_scenario(inst, j) for j in range(inst.n)]


def extreme_release_matrix(inst: Instance) -> np.ndarray:
    """Row ``j`` is the release vector of the extreme scenario raising job j."""
    rows = np.tile(inst.release_lo, (inst.n, 1))
    np.fill_diagonal(rows, inst.release_hi)
    return rows


def makespans_for_release_rows(
    schedule: Schedule, inst: Instance, release_rows: np.ndarray
) -> np.ndarray:
    """Makespan of one schedule under many scenarios (one per row) at once."""
    count = release_rows.shape[0]
    best = np.zeros(count, dtype=np.int64)
    p = inst.p_array
    for i, seq in enumerate(schedule.machines):
        current = np.zeros(count, dtype=np.int64)
        for job in seq:
            current = p[i, job] + np.maximum(current, release_rows[:, job])
        np.maximum(best, current, out=best)
    return best


def _base_chains(schedule: Schedule, inst: Instance):
    """Per non-empty machine under the all-lower-bounds scenario: the
    machine, its jobs in order, their processing times, the running work
    total and the completions (the largest ``lo_t`` plus the work of jobs
    t..k, the closed form of the chain rule)."""
    lo = inst.release_lo
    for i, seq in enumerate(schedule.machines):
        if seq:
            jobs = np.asarray(seq, dtype=np.int64)
            proc = inst.p_array[i, jobs]
            chain = np.cumsum(proc)
            done = np.maximum.accumulate(lo[jobs] + proc - chain) + chain
            yield i, jobs, proc, chain, done


def extreme_makespans(schedule: Schedule, inst: Instance) -> np.ndarray:
    """Vector of makespans under each extreme scenario, indexed by raised job.

    Raising job j changes only its own machine. There, the chain step
    ``x -> p + max(x, lo)`` of every later job is the max-plus map
    ``x -> max(x + p, lo + p)``, and such maps compose to one map
    ``x -> max(x + A, B)``. One backward pass per machine gives the map of
    each suffix, so each makespan is one map applied to the raised job's
    completion, against the largest base completion of the other machines.
    """
    lo, hi = inst.release_lo, inst.release_hi
    own = np.empty(inst.n, dtype=np.int64)  # makespan of the raised job's machine
    home = np.empty(inst.n, dtype=np.int64)
    finals = np.zeros(inst.m, dtype=np.int64)
    for i, jobs, proc, chain, done in _base_chains(schedule, inst):
        finals[i] = done[-1]
        # map of the jobs after position k: x -> max(x + shift_k, floor_k)
        shift = chain[-1] - chain
        floor = np.maximum.accumulate((lo[jobs] + proc + shift)[::-1])[::-1]
        floor = np.append(floor[1:], 0)
        raised = proc + np.maximum(np.append(0, done[:-1]), hi[jobs])
        own[jobs] = np.maximum(raised + shift, floor)
        home[jobs] = i
    top = int(np.argmax(finals))
    others = np.full(inst.m, finals[top])
    others[top] = np.delete(finals, top).max(initial=0)
    return np.maximum(own, others[home])


def covered_mask(schedule: Schedule, inst: Instance) -> np.ndarray:
    """Boolean vector over jobs: True where the job is covered (see
    :func:`covered_jobs`). The schedule must be valid."""
    covered = np.zeros(inst.n, dtype=bool)
    hi = inst.release_hi
    for _, jobs, _, _, done in _base_chains(schedule, inst):
        covered[jobs[1:]] = done[:-1] >= hi[jobs[1:]]
    return covered


def covered_jobs(schedule: Schedule, inst: Instance) -> frozenset[int]:
    """Jobs whose whole release interval is hidden behind their predecessors.

    A job at position 2 or later whose predecessor (under the all-lower-bounds
    scenario) finishes no earlier than the job's upper release bound can never
    shift the makespan through its release date, so its extreme scenario is
    redundant. The predecessors' completions are the base chain that
    :func:`extreme_makespans` starts from.
    """
    ensure_valid_schedule(schedule, inst)
    return frozenset(np.flatnonzero(covered_mask(schedule, inst)).tolist())


def effective_scenarios(
    schedule: Schedule, inst: Instance
) -> list[tuple[int, Scenario]]:
    """Extreme scenarios that can still attain the worst-case regret."""
    ensure_valid_schedule(schedule, inst)
    lows = lower_scenario(inst).r
    return [
        (j, _raised(lows, j, inst.release[j][1]))
        for j in np.flatnonzero(~covered_mask(schedule, inst)).tolist()
    ]


def regret_upper_bound(schedule: Schedule, inst: Instance) -> int:
    """Upper bound on the worst-case regret needing no optimal makespans.

    Under the extreme scenario raising job j, any schedule finishes at
    ``release_hi[j] + min_i p[i][j]`` or later, so that quantity substitutes
    for the per-scenario optimum. Jobs with covered intervals are skipped;
    if every job is covered the bound degenerates to 0.
    """
    ensure_valid_schedule(schedule, inst)
    terms = extreme_makespans(schedule, inst) - (inst.release_hi + inst.min_proc)
    return int(terms[~covered_mask(schedule, inst)].max(initial=0))


def relabel_jobs(inst: Instance, permutation: Sequence[int]) -> Instance:
    """Instance with job j renamed to ``permutation[j]`` (a bijection)."""
    perm = list(permutation)
    if sorted(perm) != list(range(inst.n)):
        raise ValueError("permutation must be a bijection on job indices")
    p_new = [[0] * inst.n for _ in range(inst.m)]
    release_new: list[tuple[int, int]] = [(0, 0)] * inst.n
    for j, target in enumerate(perm):
        for i in range(inst.m):
            p_new[i][target] = inst.p[i][j]
        release_new[target] = inst.release[j]
    return Instance(p=tuple(tuple(row) for row in p_new), release=tuple(release_new))
