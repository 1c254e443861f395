"""Scoring a fixed schedule against the per-job loops it replaced.

``covered_jobs``, ``effective_scenarios`` and ``regret_upper_bound`` read
the base chain in numpy, ``validate_schedule`` accepts a valid schedule with
one sorted comparison, and ``relaxed_regret`` shares one ``Fraction`` per
distinct term. ``_reference`` keeps the scalar loops; both must agree
exactly, at desk scale and on generated instances at n >= 500.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_sched import (
    Instance,
    Schedule,
    covered_jobs,
    effective_scenarios,
    generate,
    pm,
    random_schedule,
    regret_upper_bound,
    relaxed_regret,
    validate_schedule,
)
from robust_sched.bounds import scaled_extreme_bounds
from robust_sched.datagen import params_for_dataset
from robust_sched.model import extreme_makespans

from _reference import (
    reference_covered_jobs,
    reference_effective_scenarios,
    reference_regret_upper_bound,
    reference_validate_schedule,
)
from conftest import instance_and_schedule


def assert_scoring_matches(inst, schedule):
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
