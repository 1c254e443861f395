"""The extreme-scenario kernels against the n x n matrix reference.

``scaled_extreme_bounds`` and ``extreme_makespans`` never build a scenario
row; ``_reference`` keeps the old path that sorts one full release row per
extreme scenario. Both must agree exactly, at desk scale (ties, ``lo ==
hi``, one machine, one job) and on generated instances at n >= 500.
"""
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from robust_sched import (
    Instance,
    Schedule,
    generate,
    pm,
    random_schedule,
    regret_upper_bound,
    relaxed_regret,
)
from robust_sched.bounds import scaled_extreme_bounds
from robust_sched.datagen import params_for_dataset
from robust_sched.model import extreme_makespans

from _reference import reference_extreme_bounds, reference_extreme_makespans
from conftest import instance_and_schedule, random_instance, random_valid_schedule


def assert_kernels_match(inst, schedule):
    assert np.array_equal(scaled_extreme_bounds(inst), reference_extreme_bounds(inst))
    assert np.array_equal(
        extreme_makespans(schedule, inst), reference_extreme_makespans(schedule, inst)
    )


@settings(max_examples=300, deadline=None)
@given(instance_and_schedule())
def test_kernels_match_reference_hypothesis(case):
    assert_kernels_match(*case)


@pytest.mark.parametrize("n, m", [(1, 1), (1, 3), (2, 1), (9, 1), (9, 2), (40, 5)])
def test_kernels_match_reference_seeded(n, m):
    rng = random.Random(n * 31 + m)
    for _ in range(60):
        inst = random_instance(
            rng, n, m,
            p_max=rng.choice([1, 4, 12]),
            r_max=rng.choice([0, 3, 10]),
            width_max=rng.choice([0, 2, 30]),
        )
        assert_kernels_match(inst, random_valid_schedule(rng, inst))


def test_kernels_match_reference_on_deterministic_and_tied_releases():
    rng = random.Random(3)
    for _ in range(40):
        n, m = rng.randint(1, 15), rng.randint(1, 4)
        p = tuple(tuple(rng.randint(1, 5) for _ in range(n)) for _ in range(m))
        lo = rng.choice([0, 7])
        for release in (((lo, lo),) * n, ((lo, lo + 3),) * n):
            inst = Instance(p=p, release=release)
            assert_kernels_match(inst, random_valid_schedule(rng, inst))


def test_batched_terms_inside_a_raised_range():
    # raising job 2 to 105 adds it to the suffix of anchor 100, whose jobs
    # are slower: there the batched bound 100 + 2 * 10 beats every other
    # term, the averaged one being 100 + 32 / 2
    inst = Instance(p=((11, 11, 10),) * 2, release=((100, 100), (100, 100), (0, 105)))
    assert scaled_extreme_bounds(inst)[2] == 2 * 120
    # the same shape with varied crowd sizes, near the count at which the
    # averaged term of the anchor takes over, and with other jobs around
    rng = random.Random(11)
    for _ in range(200):
        m, x = rng.randint(2, 4), rng.randint(1, 6)
        crowd = rng.randint(m - 1, (m - 1) * x + 1)
        p_cols = [[rng.randint(x + 1, x + 2) for _ in range(m)] for _ in range(crowd)]
        release = [(50, 50)] * crowd
        p_cols.append([x] + [rng.randint(x, 20) for _ in range(m - 1)])
        release.append((rng.randint(0, 49), rng.randint(51, 60)))
        for _ in range(rng.randint(0, 3)):
            p_cols.append([rng.randint(1, 20) for _ in range(m)])
            lo = rng.randint(0, 60)
            release.append((lo, lo + rng.randint(0, 20)))
        inst = Instance(p=tuple(zip(*p_cols)), release=tuple(release))
        assert np.array_equal(
            scaled_extreme_bounds(inst), reference_extreme_bounds(inst)
        )


@pytest.mark.parametrize("dataset", ["DS1", "DS2"])
@pytest.mark.parametrize("n, m, seed", [(500, 1, 4), (500, 20, 5), (1000, 5, 6)])
def test_kernels_match_reference_at_scale(dataset, n, m, seed):
    inst = generate(params_for_dataset(dataset, n, m), seed)
    assert np.array_equal(scaled_extreme_bounds(inst), reference_extreme_bounds(inst))
    for schedule in (pm(inst), random_schedule(inst, seed)):
        assert np.array_equal(
            extreme_makespans(schedule, inst),
            reference_extreme_makespans(schedule, inst),
        )


def test_scoring_at_n_100000_stays_small():
    # one n x n int64 temporary would take 80 GB here
    n, m = 100_000, 5
    inst = generate(params_for_dataset("DS1", n, m), 0)
    schedule = Schedule(machines=tuple(tuple(range(i, n, m)) for i in range(m)))
    tracemalloc.start()
    try:
        report = relaxed_regret(schedule, inst)
        upper = regret_upper_bound(schedule, inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.per_scenario) == n
    assert report.value >= 0 and upper >= 0
    assert peak < 100 * 2**20
