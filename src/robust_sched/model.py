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
pass chains a scenario's completions in numpy: :func:`completion_profile`
reads them, the extreme makespans start from the all-lower-bounds chain, and
a job is covered (its extreme scenario redundant) where its predecessor's
completion in that chain reaches its upper release. The extreme makespans
and the covered jobs come from one walk of that chain, kept read-only on the
schedule for the instance it was scored on, so every scorer of one
(schedule, instance) pair shares it. A schedule's jobs are sorted once:
every later validation of it compares two sizes.

Jobs and machines are indexed 0-based throughout the API; human-readable
messages label them 1-based.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import index as as_int
from typing import Iterable, Union

import numpy as np

Time = Union[int, Fraction]


class InvalidScheduleError(ValueError):
    """Raised when an operation requires a valid schedule and gets none."""


class InfeasibleScenarioError(ValueError):
    """Raised when a scenario leaves the instance's release-date box."""


def _int_tuple(values: Iterable) -> tuple[int, ...]:
    return tuple(map(as_int, values))


def _int64_table(values) -> np.ndarray | None:
    """``values`` read by numpy in one conversion, or None where that does
    not give a 2-D int64 table: other entry types, ragged or empty rows."""
    try:
        table = np.array(values, order="C")
    except ValueError:  # ragged rows
        return None
    return table if table.dtype == np.int64 and table.ndim == 2 else None


def _exact_tables(p, release) -> tuple[np.ndarray, np.ndarray]:
    """The processing times and release intervals converted entry by entry,
    in object arrays of exact Python ints: floats and strings raise
    TypeError, and values past int64 stay exact for the checks that refuse
    them. Ragged rows come back as a 1-D array of rows."""
    rows = [_int_tuple(row) for row in p]
    intervals = [(as_int(lo), as_int(hi)) for lo, hi in release]
    return (
        np.array(rows, dtype=object),
        np.array(intervals, dtype=object).reshape(-1, 2),
    )


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

    One numpy conversion reads ``p`` and ``release`` and gives the read-only
    int64 arrays ``p_array``, ``release_lo`` and ``release_hi`` as well as
    the tuples of Python ints the fields hold. Only input numpy does not
    read as int64 tables is converted entry by entry.
    """

    p: tuple[tuple[int, ...], ...]
    release: tuple[tuple[int, int], ...]
    p_array: np.ndarray = field(init=False, repr=False, compare=False)
    release_lo: np.ndarray = field(init=False, repr=False, compare=False)
    release_hi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p, release = _int64_table(self.p), _int64_table(self.release)
        if p is None or release is None or release.shape[1] != 2:
            p, release = _exact_tables(self.p, self.release)
        if len(p) == 0:
            raise ValueError("instance needs at least one machine")
        n = len(p[0])
        if n == 0:
            raise ValueError("instance needs at least one job")
        if p.ndim != 2:
            raise ValueError("processing-time rows have unequal lengths")
        if len(release) != n:
            raise ValueError(f"expected {n} release intervals, got {len(release)}")
        if p.min() <= 0:
            raise ValueError("processing times must be positive")
        lo, hi = release.T
        bad = (lo < 0) | (lo > hi)
        if bad.any():
            raise ValueError(
                f"release interval of job {int(bad.argmax()) + 1} must satisfy "
                "0 <= lo <= hi"
            )
        # in Python ints: the int64 column sums could wrap near the limit
        horizon = int(hi.max()) + sum(p.max(axis=0).tolist())
        if len(p) * horizon >= 2**62:
            raise ValueError(
                "instance too large for exact int64 arithmetic: machines x "
                "(largest upper release + total slowest processing time) "
                "must stay below 2**62"
            )
        p = p.astype(np.int64, copy=False)
        lo, hi = np.array(release.T, dtype=np.int64, order="C")  # contiguous rows
        for name, value in (("p_array", p), ("release_lo", lo), ("release_hi", hi)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "p", tuple(map(tuple, p.tolist())))
        object.__setattr__(self, "release", tuple(zip(lo.tolist(), hi.tolist())))

    @property
    def n(self) -> int:
        """Number of jobs."""
        return len(self.release)

    @property
    def m(self) -> int:
        """Number of machines."""
        return len(self.p)

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

    @cached_property
    def permutation_size(self) -> int | None:
        """``n`` when the sequences hold every job ``0..n-1`` exactly once,
        else None: the part of validity that does not depend on the
        instance, found by one sort per schedule."""
        jobs = sorted(itertools.chain.from_iterable(self.machines))
        return len(jobs) if jobs == list(range(len(jobs))) else None

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
    if schedule.permutation_size == n:
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
    completion on the same machine; an empty machine contributes 0. The
    closed form of :func:`_base_chains` gives every completion.
    """
    ensure_valid_schedule(schedule, inst)
    ensure_scenario(scenario, inst)
    completions: list[tuple[int, ...]] = [()] * inst.m
    for i, _, _, _, done in _base_chains(schedule, inst, scenario.r_array):
        completions[i] = tuple(done.tolist())
    best = max((times[-1] for times in completions if times), default=0)
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
    lows = lower_scenario(inst).r
    return Scenario._of(lows[:job] + (inst.release[job][1],) + lows[job + 1:])


def lower_scenario(inst: Instance) -> Scenario:
    """Every release date at its lower bound."""
    return Scenario._of(tuple(inst.release_lo.tolist()))


def extreme_scenarios(inst: Instance) -> list[Scenario]:
    return [extreme_scenario(inst, j) for j in range(inst.n)]


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


def _base_chains(schedule: Schedule, inst: Instance, release: np.ndarray):
    """Per non-empty machine under the releases ``release``: the machine, its
    jobs in order, their processing times, the running work total and the
    completions (the largest ``release_t`` plus the work of jobs t..k, the
    closed form of the chain rule, exact for releases of at least 0)."""
    for i, seq in enumerate(schedule.machines):
        if seq:
            jobs = np.asarray(seq, dtype=np.int64)
            proc = inst.p_array[i, jobs]
            chain = np.cumsum(proc)
            done = np.maximum.accumulate(release[jobs] + proc - chain) + chain
            yield i, jobs, proc, chain, done


def _extreme_pass(schedule: Schedule, inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """The extreme makespans and the covered mask, from one walk of the base
    chains under the lower releases.

    Raising job j changes only its own machine. There, the chain step
    ``x -> p + max(x, lo)`` of every later job is the max-plus map
    ``x -> max(x + p, lo + p)``, and such maps compose to one map
    ``x -> max(x + A, B)``. One backward pass per machine gives the map of
    each suffix, so each makespan is one map applied to the raised job's
    completion, against the largest base completion of the other machines.
    A job is covered where its predecessor's base completion reaches its
    upper release.

    Both arrays are read-only and kept on the schedule with the instance
    they were computed for; a later call on that same instance object reads
    them. The schedule must be valid."""
    kept = vars(schedule).get("_extreme_pass")
    if kept is not None and kept[0] is inst:
        return kept[1], kept[2]
    lo, hi = inst.release_lo, inst.release_hi
    own = np.empty(inst.n, dtype=np.int64)  # makespan of the raised job's machine
    home = np.empty(inst.n, dtype=np.int64)
    finals = np.zeros(inst.m, dtype=np.int64)
    covered = np.zeros(inst.n, dtype=bool)
    for i, jobs, proc, chain, done in _base_chains(schedule, inst, lo):
        finals[i] = done[-1]
        covered[jobs[1:]] = done[:-1] >= hi[jobs[1:]]
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
    makespans = np.maximum(own, others[home])
    makespans.setflags(write=False)
    covered.setflags(write=False)
    vars(schedule)["_extreme_pass"] = (inst, makespans, covered)
    return makespans, covered


def extreme_makespans(schedule: Schedule, inst: Instance) -> np.ndarray:
    """Read-only vector of makespans under each extreme scenario, indexed by
    raised job, from the pass of :func:`_extreme_pass`."""
    return _extreme_pass(schedule, inst)[0]


def covered_mask(schedule: Schedule, inst: Instance) -> np.ndarray:
    """Read-only boolean vector over jobs: True where the job is covered
    (see :func:`covered_jobs`), from the pass of :func:`_extreme_pass`. The
    schedule must be valid."""
    return _extreme_pass(schedule, inst)[1]


def covered_jobs(schedule: Schedule, inst: Instance) -> frozenset[int]:
    """Jobs whose whole release interval is hidden behind their predecessors.

    A job at position 2 or later whose predecessor (under the all-lower-bounds
    scenario) finishes no earlier than the job's upper release bound can never
    shift the makespan through its release date, so its extreme scenario is
    redundant. The predecessors' completions are the base chain that
    :func:`extreme_makespans` starts from, and both are read from the one
    pass kept on the schedule for the instance.
    """
    ensure_valid_schedule(schedule, inst)
    return frozenset(np.flatnonzero(covered_mask(schedule, inst)).tolist())


def effective_scenarios(
    schedule: Schedule, inst: Instance
) -> list[tuple[int, Scenario]]:
    """Extreme scenarios that can still attain the worst-case regret."""
    ensure_valid_schedule(schedule, inst)
    row = inst.release_lo.tolist()
    scenarios = []
    for j in np.flatnonzero(~covered_mask(schedule, inst)).tolist():
        row[j] = inst.release[j][1]
        scenarios.append((j, Scenario._of(tuple(row))))
        row[j] = inst.release[j][0]
    return scenarios


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

