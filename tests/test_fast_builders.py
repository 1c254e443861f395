"""The event-driven ``pm`` and full-mode ``pr`` against their dense rescans.

``_reference.dense_pm`` and ``_reference.dense_pr`` rescore every candidate
on every iteration; the package keeps Fenwick trees, pointers and lazy heaps
instead. Both must build the same schedules, bit for bit: on generated
instances up to n = 1000, on thousands of small tie-heavy instances (equal
releases, equal processing times, many ``lo == hi``) and on one job. At
n = 10**5 the builders must stay fast and small.
"""
import random
import time
import tracemalloc

import pytest

from robust_sched import Instance, generate, pm, pr
from robust_sched.datagen import params_for_dataset

from _reference import dense_pm, dense_pr


def assert_builders_match(inst):
    assert pm(inst) == dense_pm(inst)
    assert pr(inst) == dense_pr(inst)


@pytest.mark.parametrize("m", (1, 3, 10))
@pytest.mark.parametrize("n", (10, 100, 500, 1000))
@pytest.mark.parametrize("dataset", ("DS1", "DS2"))
def test_builders_match_dense_on_generated(dataset, n, m):
    assert_builders_match(generate(params_for_dataset(dataset, n, m), n + m))


def tie_heavy_instance(rng: random.Random) -> Instance:
    n, m = rng.randint(1, 12), rng.randint(1, 4)
    p_max = rng.choice((1, 2, 4))
    p = [[rng.randint(1, p_max) for _ in range(n)] for _ in range(m)]
    release = []
    for _ in range(n):
        lo = rng.randint(0, 6)
        width = 0 if rng.random() < 0.4 else rng.randint(1, 4)
        release.append((lo, lo + width))
    return Instance(p=p, release=release)


@pytest.mark.parametrize("block", range(20))
def test_builders_match_dense_on_tie_heavy_instances(block):
    rng = random.Random(block)
    for _ in range(100):
        assert_builders_match(tie_heavy_instance(rng))


@pytest.mark.parametrize("release", ((0, 0), (3, 3), (0, 5), (2, 9)))
@pytest.mark.parametrize("m", (1, 3))
def test_builders_match_dense_on_one_job(release, m):
    inst = Instance(p=[[2 + i] for i in range(m)], release=[release])
    assert_builders_match(inst)
    assert pm(inst).machines[0] == (0,)


def test_builders_at_n_100000_stay_fast_and_small():
    # the dense rescans need an n x n matrix here (80 GB for pm) and
    # O(n**2 m) scoring work
    n, m = 100_000, 5
    inst = generate(params_for_dataset("DS1", n, m), 0)
    for build in (pm, pr):
        started = time.perf_counter()
        schedule = build(inst)
        assert time.perf_counter() - started < 30.0, build.__name__
        assert sorted(job for seq in schedule.machines for job in seq) == list(
            range(n)
        )
        tracemalloc.start()
        try:
            assert build(inst) == schedule
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * 2**20, (build.__name__, peak)
