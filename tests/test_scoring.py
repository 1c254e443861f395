"""Scoring a fixed schedule against the per-job loops it replaced.

``covered_jobs``, ``effective_scenarios`` and ``regret_upper_bound`` read
the base chain in numpy, ``validate_schedule`` accepts a valid schedule with
one sorted comparison, and ``relaxed_regret`` shares one ``Fraction`` per
distinct term. ``_reference`` keeps the scalar loops; both must agree
exactly, at desk scale and on generated instances at n >= 500. The scorers
of one (schedule, instance) pair share one walk of the base chain, kept on
the schedule for that instance object alone. Over all extreme scenarios
the relaxed regret is also one makespan, under releases shifted by each
scenario's bound, which a plain chain walk checks at n >= 500.
"""
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_sched import (
    Instance,
    InvalidScheduleError,
    Schedule,
    covered_jobs,
    effective_scenarios,
    exact_worst_case_regret,
    generate,
    pm,
    pr,
    random_schedule,
    regret_upper_bound,
    relaxed_regret,
    validate_schedule,
)
from robust_sched import model
from robust_sched.bounds import scaled_extreme_bounds
from robust_sched.datagen import params_for_dataset
from robust_sched.model import covered_mask, extreme_makespans

from _reference import (
    reference_covered_jobs,
    reference_effective_scenarios,
    reference_extreme_makespans,
    reference_regret_upper_bound,
    reference_validate_schedule,
)
from _brute import brute_makespan
from conftest import instance_and_schedule


def assert_scoring_matches(inst, schedule):
    # a fresh schedule: the pass runs here, no kept one is read
    assert "_extreme_pass" not in vars(schedule)
    machines = schedule.machines
    assert covered_jobs(schedule, inst) == reference_covered_jobs(
        machines, inst.p, inst.release
    )
    pairs = effective_scenarios(schedule, inst)
    assert pairs == reference_effective_scenarios(machines, inst.p, inst.release)
    assert all(type(v) is int for _, scenario in pairs[:3] for v in scenario.r)
    assert regret_upper_bound(schedule, inst) == reference_regret_upper_bound(
        schedule, inst
    )


@settings(max_examples=300, deadline=None)
@given(instance_and_schedule())
def test_scoring_matches_reference_hypothesis(case):
    assert_scoring_matches(*case)


@pytest.mark.parametrize("dataset", ["DS1", "DS2"])
@pytest.mark.parametrize("n, m, seed", [(500, 5, 4), (500, 20, 5), (1000, 5, 6)])
def test_scoring_matches_reference_at_scale(dataset, n, m, seed):
    inst = generate(params_for_dataset(dataset, n, m), seed)
    for schedule in (pm(inst), random_schedule(inst, seed)):
        assert_scoring_matches(inst, schedule)


# (jobs, machines, sequences): each breaks the schedule rules at least once
MALFORMED = [
    (3, 2, ((0, 1), (1, 2))),  # a duplicate across machines
    (3, 2, ((2, 0), (0,))),  # a duplicate and a missing job
    (4, 2, ((0,), (3, 2))),  # a missing job
    (3, 2, ((), ())),  # every job missing
    (3, 2, ((0, -1), (1, 2))),  # a negative index
    (3, 2, ((0, 1, 2), (3,))),  # an index equal to n
    (3, 2, ((0, 2**63), (1, 2))),  # an index beyond int64
    (3, 2, ((2, 1, 0), (-(2**64),))),  # a negative one beyond int64
    (3, 2, ((0, 1), (2, 1, 2**70))),  # a duplicate before a huge index
    (3, 1, ((0, 1), (2,))),  # one sequence too many
    (2, 3, ((0, 1),)),  # too few sequences
]


@pytest.mark.parametrize("n, m, machines", MALFORMED)
def test_first_violation_unchanged(n, m, machines):
    inst = Instance(p=((1,) * n,) * m, release=((0, 0),) * n)
    violation = validate_schedule(Schedule(machines=machines), inst)
    assert violation is not None
    assert violation == reference_validate_schedule(machines, n, m)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_first_violation_unchanged_hypothesis(data):
    n = data.draw(st.integers(1, 8))
    m = data.draw(st.integers(1, 3))
    jobs = st.one_of(
        st.integers(-2, n + 1), st.sampled_from([2**63 - 1, 2**63, -(2**63) - 1])
    )
    machines = tuple(
        tuple(data.draw(st.lists(jobs, max_size=n + 2)))
        for _ in range(data.draw(st.integers(max(m - 1, 0), m + 1)))
    )
    inst = Instance(p=((1,) * n,) * m, release=((0, 0),) * n)
    assert validate_schedule(Schedule(machines=machines), inst) == (
        reference_validate_schedule(machines, n, m)
    )


def assert_report_matches(inst, schedule, effective_only):
    """The report against one fresh ``Fraction`` per job, and its scenario
    against the lowest job of the largest term."""
    m = inst.m
    assert "_extreme_pass" not in vars(schedule)
    terms = m * extreme_makespans(schedule, inst) - scaled_extreme_bounds(inst)
    skip = (
        reference_covered_jobs(schedule.machines, inst.p, inst.release)
        if effective_only
        else frozenset()
    )
    fresh = {
        j: Fraction(int(terms[j]), m) for j in range(inst.n) if j not in skip
    }
    report = relaxed_regret(schedule, inst, effective_only=effective_only)
    assert report.per_scenario == fresh
    assert list(report.per_scenario) == list(fresh)
    best = max(fresh, key=lambda j: (fresh[j], -j))
    assert report.value == fresh[best]
    r = [lo for lo, _ in inst.release]
    r[best] = inst.release[best][1]
    assert report.scenario.r == tuple(r)
    assert np.array_equal(report.scenario.r_array, r)


@settings(max_examples=200, deadline=None)
@given(instance_and_schedule(), st.booleans())
def test_report_matches_fresh_terms_hypothesis(case, effective_only):
    assert_report_matches(*case, effective_only)


@pytest.mark.parametrize("effective_only", [False, True])
def test_shared_report_terms_equal_fresh_fractions(effective_only):
    inst = generate(params_for_dataset("DS1", 2000, 20), 4)
    for schedule in (pm(inst), random_schedule(inst, 4)):
        assert_report_matches(inst, schedule, effective_only)


def assert_pass_is_its_own(schedule, inst):
    makespans, mask = extreme_makespans(schedule, inst), covered_mask(schedule, inst)
    assert np.array_equal(makespans, reference_extreme_makespans(schedule, inst))
    assert set(np.flatnonzero(mask).tolist()) == reference_covered_jobs(
        schedule.machines, inst.p, inst.release
    )
    assert vars(schedule)["_extreme_pass"][0] is inst


def test_the_kept_pass_follows_the_instance_object():
    first = generate(params_for_dataset("DS1", 60, 3), 1)
    second = generate(params_for_dataset("DS2", 60, 3), 2)
    schedule = pm(first)
    assert not np.array_equal(
        reference_extreme_makespans(schedule, first),
        reference_extreme_makespans(schedule, second),
    )
    for inst in (first, second, first, second):
        assert_pass_is_its_own(schedule, inst)
    # a second call on the same object reads the kept arrays
    assert extreme_makespans(schedule, second) is extreme_makespans(schedule, second)
    # equal tables in another object: computed again, not read
    twins = (Instance(p=first.p, release=first.release),
             Instance(p=first.p, release=first.release))
    assert twins[0] == twins[1] == first
    for inst in twins + twins:
        kept = vars(schedule)["_extreme_pass"]
        makespans = extreme_makespans(schedule, inst)
        assert makespans is not kept[1]
        assert_pass_is_its_own(schedule, inst)


def test_the_kept_arrays_are_read_only():
    inst = generate(params_for_dataset("DS1", 40, 3), 3)
    schedule = random_schedule(inst, 3)
    for array in (extreme_makespans(schedule, inst), covered_mask(schedule, inst)):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = array[1]


def test_one_pass_serves_every_scorer_of_a_pair(monkeypatch):
    calls = []
    chains = model._base_chains

    def counted(schedule, inst, release):
        calls.append(release is inst.release_lo)
        return chains(schedule, inst, release)

    monkeypatch.setattr(model, "_base_chains", counted)
    inst = generate(params_for_dataset("DS2", 300, 5), 7)
    schedule = random_schedule(inst, 7)
    relaxed_regret(schedule, inst)
    relaxed_regret(schedule, inst, effective_only=True)
    regret_upper_bound(schedule, inst)
    effective_scenarios(schedule, inst)
    covered_jobs(schedule, inst)
    assert calls == [True]
    # another pair runs its own pass
    relaxed_regret(random_schedule(inst, 8), inst)
    assert len(calls) == 2


@pytest.mark.parametrize("n, m", [(5, 2), (3, 2), (4, 3), (4, 1)])
def test_a_kept_pass_does_not_excuse_a_misfit(n, m):
    fits = Instance(
        p=((2, 3, 1, 4), (3, 1, 2, 2)), release=((0, 2), (1, 1), (0, 5), (2, 3))
    )
    schedule = Schedule(machines=((0, 1), (2, 3)))
    relaxed_regret(schedule, fits)
    assert vars(schedule)["_extreme_pass"][0] is fits
    other = Instance(p=((1,) * n,) * m, release=((0, 1),) * n)
    scorers = (
        lambda: relaxed_regret(schedule, other),
        lambda: relaxed_regret(schedule, other, effective_only=True),
        lambda: regret_upper_bound(schedule, other),
        lambda: effective_scenarios(schedule, other),
        lambda: covered_jobs(schedule, other),
        lambda: exact_worst_case_regret(schedule, other),
        lambda: exact_worst_case_regret(schedule, other, effective_only=False),
    )
    for scorer in scorers:
        with pytest.raises(InvalidScheduleError):
            scorer()
    assert vars(schedule)["_extreme_pass"][0] is fits


def near_limit_instance(n: int, m: int, seed: int) -> Instance:
    """Times near 2**51 and releases up to 2**58, so m times the horizon
    stays just below the 2**62 that ``Instance`` accepts."""
    rng = random.Random(seed)
    p = tuple(tuple(rng.randint(2**50, 2**51) for _ in range(n)) for _ in range(m))
    release = []
    for _ in range(n):
        lo = rng.randint(0, 2**57)
        release.append((lo, lo + rng.randint(0, 2**57)))
    return Instance(p=p, release=tuple(release))


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate(params_for_dataset("DS1", 500, 5), 11),
        lambda: generate(params_for_dataset("DS2", 500, 20), 12),
        lambda: generate(params_for_dataset("DS1", 2000, 20), 13),
        lambda: generate(params_for_dataset("DS2", 2000, 5), 14),
        lambda: near_limit_instance(500, 3, 15),
    ],
    ids=["DS1-500", "DS2-500", "DS1-2000", "DS2-2000", "near-2**62"],
)
def test_relaxed_regret_is_one_makespan_at_scale(make):
    # with b_t the combined bound of extreme scenario t, B = min_t b_t and
    # r~_j = max(lo_j, hi_j + B - b_j), every schedule's relaxed regret over
    # all extreme scenarios is its makespan under r~ minus B. Scaled by m it
    # is one chain walk in Python ints over m p and m r~, with no
    # per-scenario makespan; the second report reads the kept pass.
    inst = make()
    m = inst.m
    scaled = scaled_extreme_bounds(inst).tolist()
    least = min(scaled)
    release = [
        max(m * lo, m * hi + least - b) for (lo, hi), b in zip(inst.release, scaled)
    ]
    p = [[m * t for t in row] for row in inst.p]
    schedules = [pm(inst), pr(inst), random_schedule(inst, 1), random_schedule(inst, 2)]
    for schedule in schedules:
        expected = brute_makespan(schedule.machines, p, release) - least
        for _ in range(2):
            report = relaxed_regret(schedule, inst, effective_only=False)
            assert m * report.value == expected
