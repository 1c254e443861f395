"""The fast builders against the loops they replaced.

``_reference.dense_pm`` and ``_reference.dense_pr`` rescore every candidate
on every iteration; the package keeps Fenwick trees, pointers and lazy heaps
instead. Both must build the same schedules, bit for bit: on generated
instances up to n = 1000, on thousands of small tie-heavy instances (equal
releases, equal processing times, many ``lo == hi``) and on one job. At
n = 10**5 the builders must stay fast and small: the build runs in a child
process that reports its peak RSS, and a traced build at n = 10**4 catches
large allocations whose pages RSS never sees.

``_reference.state_partial_regret`` is the partial-regret loop that kept an
(m, n+1) matrix of completions under every extreme scenario. The package's
loop keeps the all-lower-bounds completions and one column per placed job;
full ``pre``, short ``pr`` and short ``pre`` must match it on generated
instances up to n = 500 (short ``pre`` up to n = 100) and on 500 tie-heavy
instances.
"""
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import robust_sched
from robust_sched import HeuristicConfig, Instance, generate, pm, pr, pre
from robust_sched.datagen import params_for_dataset

from _reference import dense_pm, dense_pr, state_partial_regret


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


SHORT = HeuristicConfig(algorithm="pr", bound_mode="short")


def assert_partial_regret_matches(inst, short_pre=True):
    assert pre(inst) == state_partial_regret(inst, "full", True)
    assert pr(inst, SHORT) == state_partial_regret(inst, "short", False)
    if short_pre:
        assert pre(inst, SHORT) == state_partial_regret(inst, "short", True)


@pytest.mark.parametrize("m", (1, 3, 10))
@pytest.mark.parametrize("n", (10, 100, 500))
@pytest.mark.parametrize("dataset", ("DS1", "DS2"))
def test_partial_regret_loop_matches_state_loop_on_generated(dataset, n, m):
    inst = generate(params_for_dataset(dataset, n, m), n + m)
    assert_partial_regret_matches(inst, short_pre=n <= 100)


@pytest.mark.parametrize("block", range(5))
def test_partial_regret_loop_matches_state_loop_on_tie_heavy_instances(block):
    rng = random.Random(block)
    for _ in range(100):
        assert_partial_regret_matches(tie_heavy_instance(rng))


# The child reports its peak RSS once the instance exists and again after
# both builds, so the growth is what the builders themselves touched.
_BUILD_AT_N_100000 = """
import json, resource, time
from robust_sched import generate, pm, pr
from robust_sched.datagen import params_for_dataset

def peak_rss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

n, m = 100_000, 5
inst = generate(params_for_dataset("DS1", n, m), 0)
report = {"rss_before": peak_rss()}
for build in (pm, pr):
    started = time.perf_counter()
    schedule = build(inst)
    report[build.__name__] = {
        "seconds": time.perf_counter() - started,
        "valid": sorted(j for seq in schedule.machines for j in seq) == list(range(n)),
    }
report["rss_after"] = peak_rss()
print(json.dumps(report))
"""


def test_builders_at_n_100000_stay_fast_and_small():
    # the dense rescans need an n x n matrix here (80 GB for pm) and
    # O(n**2 m) scoring work
    src = str(Path(robust_sched.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", _BUILD_AT_N_100000],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    report = json.loads(child.stdout)
    for name in ("pm", "pr"):
        assert report[name]["seconds"] < 30.0, (name, report)
        assert report[name]["valid"], name
    growth = report["rss_after"] - report["rss_before"]
    assert growth < 200 * 2**20, report


def test_builders_at_n_10000_allocate_little():
    # RSS misses untouched calloc pages, so trace the allocations too, at a
    # size where tracing is cheap: an n x n bool array would be 95 MiB here
    n, m = 10_000, 5
    inst = generate(params_for_dataset("DS1", n, m), 0)
    for build in (pm, pr):
        tracemalloc.start()
        try:
            build(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, (build.__name__, peak)
