"""The batched anchor kernel against the argsort reference, and the
oracle's suffix scan against the kernel.

``scaled_combined_rows`` answers queries that raise a member of a base job
set, insert an outsider or keep the base, without building a scenario row;
``_reference`` spells out each query as an explicit release row and sorts it.
Both must agree exactly: under hypothesis with ties, ``lo == hi``, one
machine, one job and empty bases, on the short-sighted subsets, and on
generated instances at n >= 500: arbitrary bases and queries, and the
short-sighted subsets of a build's late iterations.

The oracle's suffix bounds come from one suffix scan in ``bounds`` instead
of the kernel. Within a tie group of releases the scan also bounds the jobs
from each position on, so it may be above the kernel's combined bound of a
suffix but never below it, and never above m times the suffix's optimum.
It must equal the pure-Python reverse scan it replaced, and ``lb_combined``,
which reads the same scan at each job's first tied position, must equal
its former body and, under each extreme scenario, the kernel.
"""
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import robust_sched
from robust_sched import (
    Instance, Scenario, extreme_scenario, generate, lb_combined, optimal_makespan,
)
from robust_sched.bounds import scaled_combined_rows, scaled_extreme_bounds
from robust_sched.datagen import params_for_dataset
from robust_sched.heuristics import _short_bounds
from robust_sched.oracle import _release_sorted_jobs, _suffix_scaled_bounds

from _reference import (
    kernel_extreme_suffix_bounds,
    kernel_suffix_bounds,
    reference_lb_combined,
    reference_optimal_makespan,
    reference_query_bounds,
    reference_suffix_bounds,
    scalar_suffix_scan,
)
from conftest import random_instance


def assert_queries_match(release, fastest, lo, hi, query_fastest, m):
    args = [np.array(a, dtype=np.int64) for a in (release, fastest, lo, hi, query_fastest)]
    got = scaled_combined_rows(*args, m)
    assert np.array_equal(got, reference_query_bounds(*args, m))


@st.composite
def bases_and_queries(draw):
    m = draw(st.integers(1, 4))
    q = draw(st.integers(1, 3))
    s = draw(st.integers(0, 6))
    r = draw(st.integers(1, 5))
    top = draw(st.sampled_from([0, 3, 40]))
    p_max = draw(st.sampled_from([1, 3, 30]))
    release = [[draw(st.integers(0, top)) for _ in range(s)] for _ in range(q)]
    fastest = [[draw(st.integers(1, p_max)) for _ in range(s)] for _ in range(q)]
    lo, hi, query_fastest = [], [], []
    for b in range(q):
        rows = ([], [], [])
        for _ in range(r):
            if s and draw(st.booleans()):  # raise or keep a member
                t = draw(st.integers(0, s - 1))
                low, f = release[b][t], fastest[b][t]
                high = low + draw(st.sampled_from([0, 0, 1, 7, 60]))
            else:  # insert an outsider
                low, f = -1, draw(st.integers(1, p_max))
                high = draw(st.integers(0, top + 10))
            if s and draw(st.booleans()):  # onto a release of the base
                high = max(low, draw(st.sampled_from(release[b])))
            for column, value in zip(rows, (low, high, f)):
                column.append(value)
        lo.append(rows[0])
        hi.append(rows[1])
        query_fastest.append(rows[2])
    return release, fastest, lo, hi, query_fastest, m


@settings(max_examples=400, deadline=None)
@given(bases_and_queries())
def test_kernel_matches_reference_hypothesis(case):
    assert_queries_match(*case)


def test_empty_base_and_single_job():
    # nothing placed yet: the bound of the inserted job alone
    empty = np.zeros((1, 0))
    assert_queries_match(empty, empty, [[-1, -1]], [[4, 0]], [[3, 9]], 2)
    # one job, raised or kept, on one machine
    assert_queries_match([[5]], [[2]], [[5, 5]], [[5, 11]], [[2, 2]], 1)


def test_batched_terms_before_the_split():
    # the raised job joins a crowd of slower jobs: the batched term of the
    # crowd's anchor, 100 + 2 * 10, beats every other term
    release, fastest = [[100, 100, 0]], [[11, 11, 10]]
    assert_queries_match(release, fastest, [[0]], [[105]], [[10]], 2)
    bounds = scaled_combined_rows(
        *[np.array(a) for a in (release, fastest, [[0]], [[105]], [[10]])], 2
    )
    assert bounds[0, 0] == 2 * 120


def test_raise_onto_a_release_of_the_base():
    # the anchor 10 keeps its own job (p=1) when job 0 joins it: its
    # averaged term 10 + 31 / 2 is the bound, not 10 + 2 * 10 from the jobs
    # above 10 and job 0 alone
    release, fastest = [[0, 11, 11, 10]], [[10, 10, 10, 1]]
    assert_queries_match(release, fastest, [[0]], [[10]], [[10]], 2)
    bounds = scaled_combined_rows(
        *[np.array(a) for a in (release, fastest, [[0]], [[10]], [[10]])], 2
    )
    assert bounds[0, 0] == 51


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_short_bounds_match_explicit_subsets(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    inst = random_instance(rng, rng.randint(1, 8), rng.randint(1, 3),
                           p_max=rng.choice([1, 5]), r_max=rng.choice([0, 4, 20]))
    jobs = list(range(inst.n))
    rng.shuffle(jobs)
    cut = rng.randint(0, inst.n - 1)
    placed = np.array(jobs[:cut], dtype=np.int64)
    cand = np.array(sorted(jobs[cut:]), dtype=np.int64)
    lo, hi, mp = inst.release_lo, inst.release_hi, inst.min_proc
    for nested in (False, True):
        got = _short_bounds(inst, placed, cand, nested)
        for c, job in enumerate(cand.tolist()):
            subset = placed.tolist() + [job]
            raised = subset if nested else [job]
            for t, member in enumerate(raised):
                want = reference_query_bounds(
                    [lo[subset]], [mp[subset]], [[lo[member]]], [[hi[member]]],
                    [[mp[member]]], inst.m,
                )
                assert got[c, t] == want[0, 0]


@pytest.mark.parametrize("dataset", ["DS1", "DS2"])
@pytest.mark.parametrize("n, m, seed", [(500, 5, 7), (2000, 20, 8)])
def test_kernel_matches_reference_at_scale(dataset, n, m, seed):
    inst = generate(params_for_dataset(dataset, n, m), seed)
    rng = random.Random(seed)
    lo, hi, mp = inst.release_lo, inst.release_hi, inst.min_proc
    # three bases of 400 jobs; each base gets 60 raised members and 20
    # inserted outsiders
    members = np.array([rng.sample(range(n), 400) for _ in range(3)])
    raised = members[:, :60]
    outsiders = np.array([
        rng.sample(sorted(set(range(n)) - set(row.tolist())), 20) for row in members
    ])
    query_lo = np.concatenate((lo[raised], np.full(outsiders.shape, -1)), axis=1)
    query = np.concatenate((raised, outsiders), axis=1)
    assert_queries_match(lo[members], mp[members], query_lo, hi[query], mp[query], m)


@pytest.mark.parametrize("dataset", ["DS1", "DS2"])
@pytest.mark.parametrize("nested", [False, True])
def test_short_bounds_match_reference_at_scale(dataset, nested):
    # late in a short-sighted build: 480 placed jobs and 20 candidates, so
    # the nested shape searches 20 bases of 481 jobs row by row
    n, m = 500, 5
    inst = generate(params_for_dataset(dataset, n, m), 9)
    jobs = np.array(random.Random(9).sample(range(n), n), dtype=np.int64)
    placed, cand = jobs[:480], np.sort(jobs[480:])
    lo, hi, mp = inst.release_lo, inst.release_hi, inst.min_proc
    got = _short_bounds(inst, placed, cand, nested)
    if nested:
        subsets = np.column_stack((np.tile(placed, (cand.size, 1)), cand))
        want = reference_query_bounds(
            lo[subsets], mp[subsets], lo[subsets], hi[subsets], mp[subsets], m
        )
    else:
        want = reference_query_bounds(
            lo[placed][None], mp[placed][None], np.full((1, cand.size), -1),
            hi[cand][None], mp[cand][None], m,
        ).reshape(-1, 1)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def random_scenario(data, n_max=8):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    inst = random_instance(rng, rng.randint(1, n_max), rng.randint(1, 3),
                           p_max=rng.choice([1, 4, 12]), r_max=rng.choice([0, 3, 10]))
    scenario = Scenario(r=tuple(rng.randint(lo, hi) for lo, hi in inst.release))
    return inst, scenario, _release_sorted_jobs(inst, scenario)


def scan(inst, scenario, order, fastest=None):
    if fastest is None:
        fastest = inst.min_proc.tolist()
    return _suffix_scaled_bounds(order, scenario.r, fastest, inst.m)


def scalar_scan(inst, scenario, order):
    return scalar_suffix_scan(order, scenario.r, inst.min_proc.tolist(), inst.m)


def at_least(bounds, floors):
    return len(bounds) == len(floors) and all(map(int.__ge__, bounds, floors))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_suffix_scan_is_at_least_the_per_suffix_loop(data):
    inst, scenario, order = random_scenario(data)
    assert at_least(
        scan(inst, scenario, order),
        reference_suffix_bounds(inst, scenario, order),
    )
    assert scan(inst, scenario, order) == scalar_scan(inst, scenario, order)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_suffix_scan_is_at_most_m_times_each_suffix_optimum(data):
    inst, scenario, order = random_scenario(data)
    bounds = scan(inst, scenario, order)
    assert bounds[-1] == 0
    for k in range(inst.n):
        jobs = order[k:]
        release = tuple((scenario.r[j], scenario.r[j]) for j in jobs)
        suffix = Instance(p=tuple(tuple(row[j] for j in jobs) for row in inst.p),
                          release=release)
        optimum = reference_optimal_makespan(suffix, Scenario(r=suffix.release_lo.tolist()))
        assert 0 < bounds[k] <= inst.m * optimum.makespan


def test_suffix_scan_beats_the_kernel_inside_a_tie_group():
    # release order 0, 3, 1, 2 with fastest times 1, 5, 4, 4 on m = 2: jobs
    # 0 and 3 tie at release 0, so the kernel's anchor 0 batches all four
    # jobs, 2 * (0 + 2 * 1), and its bound of the full set is 14. The scan
    # also batches jobs 3, 1 and 2 alone: 2 * (0 + 2 * 4) = 16
    inst = Instance(p=((4, 4, 4, 6), (1, 5, 6, 5)),
                    release=((0, 0), (2, 2), (3, 3), (0, 0)))
    scenario = Scenario(r=inst.release_lo.tolist())
    order = _release_sorted_jobs(inst, scenario)
    assert scan(inst, scenario, order) == [16, 16, 14, 14, 0]
    assert kernel_suffix_bounds(inst, scenario, order) == [14, 16, 14, 14, 0]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_suffix_bounds_match_the_per_suffix_loop(data):
    # the kernel references of the scale test below, against the argsort loop
    inst, scenario, order = random_scenario(data, n_max=9)
    want = reference_suffix_bounds(inst, scenario, order)
    assert kernel_suffix_bounds(inst, scenario, order) == want
    block = data.draw(st.integers(1, 4))
    every = kernel_extreme_suffix_bounds(inst, block)
    for j in range(inst.n):
        raised = extreme_scenario(inst, j)
        assert every[j].tolist() == reference_suffix_bounds(
            inst, raised, _release_sorted_jobs(inst, raised)
        )


@pytest.mark.parametrize("dataset", ["DS1", "DS2"])
@pytest.mark.parametrize("n, m, seed", [(500, 5, 7), (2000, 20, 8)])
def test_suffix_scan_is_at_least_the_kernel_at_scale(dataset, n, m, seed):
    inst = generate(params_for_dataset(dataset, n, m), seed)
    kernel = kernel_extreme_suffix_bounds(inst).tolist()
    fastest = inst.min_proc.tolist()
    for j in range(n):
        scenario = extreme_scenario(inst, j)
        order = _release_sorted_jobs(inst, scenario)
        bounds = scan(inst, scenario, order, fastest)
        assert at_least(bounds, kernel[j])
        assert bounds == scalar_suffix_scan(order, scenario.r, fastest, m)


def test_suffix_bounds_near_the_int64_limit():
    # m * (max hi + sum of slowest times) just below 2**62: every int64 term
    # of the scan stays below that, so it must match the Python-int scan
    # and stay at or above the int64 reference
    big = (2**61 - 3) // 3
    inst = Instance(p=((big, 1, big), (big, 2, 1)),
                    release=((0, big), (big, big), (1, 3)))
    for j in range(inst.n):
        scenario = extreme_scenario(inst, j)
        order = _release_sorted_jobs(inst, scenario)
        assert at_least(
            scan(inst, scenario, order),
            reference_suffix_bounds(inst, scenario, order),
        )
        assert scan(inst, scenario, order) == scalar_scan(inst, scenario, order)
        assert lb_combined(scenario, inst) == reference_lb_combined(scenario, inst)


@pytest.mark.parametrize("dataset", ["DS1", "DS2"])
@pytest.mark.parametrize("n, m, seed", [(500, 5, 7), (2000, 20, 8)])
def test_lb_combined_matches_its_former_body_and_the_kernel_at_scale(dataset, n, m, seed):
    inst = generate(params_for_dataset(dataset, n, m), seed)
    kernel = scaled_extreme_bounds(inst)
    raised = random.Random(seed).sample(range(n), 25)
    scenarios = [Scenario(r=inst.release_lo.tolist())]
    scenarios += [extreme_scenario(inst, j) for j in raised]
    for scenario in scenarios:
        got, want = lb_combined(scenario, inst), reference_lb_combined(scenario, inst)
        assert got == want
        assert repr(got) == repr(want)  # the same types and per_job order too
    for j, scenario in zip(raised, scenarios[1:]):
        assert m * lb_combined(scenario, inst).combined == kernel[j]


def test_optimal_makespan_makes_no_kernel_call(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[0].shape)
        return scaled_combined_rows(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("robust_sched") and hasattr(module, "scaled_combined_rows"):
            monkeypatch.setattr(module, "scaled_combined_rows", counted)
    inst = random_instance(random.Random(4), 8, 3)
    optimal_makespan(inst, Scenario(r=inst.release_lo.tolist()))
    assert robust_sched.bounds.scaled_combined_rows is counted
    assert calls == []
