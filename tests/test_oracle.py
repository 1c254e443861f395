import itertools
import random
import time
import tracemalloc

import pytest
import numpy as np
from hypothesis import given, settings, strategies as st

from robust_sched import (
    GenParams,
    Instance,
    LimitExceededError,
    OracleLimits,
    Scenario,
    Schedule,
    exact_worst_case_regret,
    exhaustive_min_regret,
    generate,
    grid_regret,
    optimal_makespan,
    pm,
    pr,
    pre,
    random_schedule,
)
from robust_sched import oracle
from robust_sched.model import (
    covered_mask,
    extreme_scenario,
    extreme_scenarios,
    lower_scenario,
    makespan,
)
from robust_sched.oracle import (
    DEFAULT_LIMITS,
    _BudgetExhausted,
    _Deadline,
    _grid_points,
    _grid_regrets,
    _grid_rows,
)

from _reference import (
    BLOCK_CELLS,
    extreme_release_matrix,
    reference_exhaustive_min_regret,
    reference_first_leaf_min_regret,
    reference_memo_min_regret,
    reference_optimal_makespan,
    reference_release_row_optima,
    subset_dp_grid_regrets,
    subset_dp_row_optima,
)
from _brute import (
    brute_min_regret,
    brute_min_regret_schedule,
    brute_optimal_makespan,
    brute_worst_regret,
)
from conftest import count_searches, random_instance, random_valid_schedule


class TestOptimalMakespan:
    def test_two_orders(self, hill_instance):
        result = optimal_makespan(hill_instance, Scenario(r=(10, 0)))
        assert result.makespan == 13
        assert result.schedule.machines == ((1, 0),)
        assert result.certified

    def test_two_machines(self, two_machine_instance):
        result = optimal_makespan(two_machine_instance, Scenario(r=(2, 3)))
        assert result.makespan == 9

    def test_single_job(self):
        inst = Instance(p=((5,), (9,)), release=((2, 2),))
        result = optimal_makespan(inst, Scenario(r=(2,)))
        assert result.makespan == 7

    def test_limit_exceeded(self):
        inst = Instance(p=((1,) * 9,), release=((0, 0),) * 9)
        with pytest.raises(LimitExceededError):
            optimal_makespan(inst, Scenario(r=(0,) * 9))

    def test_matches_brute_force(self, rng):
        for _ in range(80):
            inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 3))
            r = [rng.randint(lo, hi) for lo, hi in inst.release]
            result = optimal_makespan(inst, Scenario(r=tuple(r)))
            assert result.makespan == brute_optimal_makespan(inst.p, r)
            # the reported schedule must achieve the reported value
            assert makespan(result.schedule, Scenario(r=tuple(r)), inst) == (
                result.makespan
            )

    def test_pruning_does_not_change_anything(self, rng):
        cases = []
        for _ in range(40):
            inst = random_instance(rng, rng.randint(1, 6), rng.randint(1, 3))
            r = [rng.randint(lo, hi) for lo, hi in inst.release]
            cases.append((inst, Scenario(r=tuple(r))))
        for seed in range(5):
            inst = generate(GenParams(n=8, m=3, r_domain_hi=30, segments=2), seed)
            cases.extend((inst, scenario) for scenario in extreme_scenarios(inst))
        for inst, scenario in cases:
            # equal makespan, schedule and certified flag
            assert optimal_makespan(inst, scenario) == reference_optimal_makespan(
                inst, scenario
            )

    def test_limits_refuse_a_negative_time_budget(self):
        with pytest.raises(ValueError, match="time budget"):
            OracleLimits(time_budget=-1.0)
        assert OracleLimits(time_budget=0.0).time_budget == 0.0

    def test_limits_refuse_a_nan_time_budget(self):
        with pytest.raises(ValueError, match="time budget"):
            OracleLimits(time_budget=float("nan"))
        # an infinite budget never expires, like no budget at all
        inst = generate(GenParams(n=6, m=2, r_domain_hi=30, segments=2), 0)
        endless = OracleLimits(time_budget=float("inf"))
        assert exhaustive_min_regret(inst, endless) == exhaustive_min_regret(inst)

    def test_budget_flags_uncertified(self):
        inst = Instance(
            p=tuple(tuple(range(3, 11)) for _ in range(3)),
            release=tuple((j, j + 20) for j in range(8)),
        )
        limits = OracleLimits(time_budget=0.0)
        result = optimal_makespan(inst, Scenario(r=tuple(range(8))), limits)
        assert not result.certified
        assert result.makespan >= reference_optimal_makespan(
            inst, Scenario(r=tuple(range(8)))
        ).makespan


def grid_rows(inst, points):
    axes = [_grid_points(lo, hi, points) for lo, hi in inst.release]
    return np.array(list(itertools.product(*axes)), dtype=np.int64).reshape(-1, inst.n)


def assert_equals_enumeration(inst, rows):
    """The subset DP equals the assignment enumeration and the search of
    ``optimal_makespan`` under every row. An optimum depends only on the
    times and the row, so the search runs on the box the rows span."""
    values, finished = subset_dp_row_optima(inst, rows)
    expected, _ = reference_release_row_optima(inst, rows)
    assert finished
    assert values.dtype == np.int64
    assert values.tolist() == expected.tolist()
    spanned = Instance(p=inst.p, release=tuple(zip(rows.min(axis=0).tolist(),
                                                   rows.max(axis=0).tolist())))
    searched = [optimal_makespan(spanned, Scenario(r=tuple(row))).makespan
                for row in rows.tolist()]
    assert values.tolist() == searched


def single_machine_chains(inst, rows, limits=DEFAULT_LIMITS):
    """Per row, the best completion of all jobs on one machine."""
    chains = [
        reference_release_row_optima(
            Instance(p=(inst.p[i],), release=inst.release), rows, limits
        )[0]
        for i in range(inst.m)
    ]
    return np.min(chains, axis=0)


class _CutAfter:
    """A deadline that expires at its ``reads``-th read, by either method."""

    def __init__(self, reads):
        self.reads = reads

    def expired(self):
        self.reads -= 1
        return self.reads < 0

    def check(self):
        if self.expired():
            raise _BudgetExhausted


class TestReleaseRowOptima:
    """The subset DP of ``tests/_reference.py``, which solved every row of
    the grid sweep before it solved only the rows the extreme optima cannot
    settle, against the assignment enumeration it replaced and against the
    search of ``optimal_makespan``: two independent solvers for the optima
    the grid sweep now searches row by row."""

    def test_batch_matches_single(self, rng):
        for _ in range(20):
            inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 3))
            rows = extreme_release_matrix(inst)
            batch, finished = subset_dp_row_optima(inst, rows)
            assert finished
            for j in range(inst.n):
                single = optimal_makespan(inst, Scenario(r=tuple(rows[j])))
                assert int(batch[j]) == single.makespan

    def test_batch_honours_the_limits_budget(self):
        inst = generate(GenParams(n=8, m=3, r_domain_hi=30, segments=2), 0)
        rows = extreme_release_matrix(inst)
        cut, finished = subset_dp_row_optima(
            inst, rows, OracleLimits(time_budget=0.0)
        )
        assert not finished
        for j in range(inst.n):
            exact = optimal_makespan(inst, Scenario(r=tuple(rows[j])))
            assert int(cut[j]) >= exact.makespan

    def test_equals_the_enumeration_on_generated_grids(self):
        for n, m in itertools.product(range(1, 9), range(1, 4)):
            params = GenParams(n=n, m=m, r_domain_hi=30, segments=min(n, 2))
            inst = generate(params, n + m)
            assert_equals_enumeration(inst, grid_rows(inst, 3 if n <= 6 else 2))

    def test_equals_the_enumeration_on_ties(self, rng):
        for _ in range(30):
            n, m = rng.randint(1, 7), rng.randint(2, 3)
            equal_p = rng.randint(1, 4)
            p = tuple(
                tuple(equal_p if rng.random() < 0.7 else rng.randint(1, 4)
                      for _ in range(n))
                for _ in range(m)
            )
            release = []
            for _ in range(n):
                lo = rng.choice((0, 3))
                release.append((lo, lo + rng.choice((0, 0, 3))))  # many points
            inst = Instance(p=p, release=tuple(release))
            assert_equals_enumeration(inst, grid_rows(inst, rng.randint(2, 3)))
            assert_equals_enumeration(inst, np.zeros((3, n), dtype=np.int64))

    def test_one_job_and_one_machine(self, rng):
        for m in range(1, 4):
            inst = random_instance(rng, 1, m)
            assert_equals_enumeration(inst, grid_rows(inst, 5))
        for n in range(1, 9):
            inst = random_instance(rng, n, 1)
            assert_equals_enumeration(inst, grid_rows(inst, 2))

    def test_rows_are_independent(self, rng):
        inst = generate(GenParams(n=6, m=3, r_domain_hi=30, segments=2), 4)
        rows = grid_rows(inst, 3)
        values, _ = subset_dp_row_optima(inst, rows)
        picks = rng.choices(range(len(rows)), k=2 * len(rows))  # shuffled, repeated
        again, finished = subset_dp_row_optima(inst, rows[picks])
        assert finished
        assert again.tolist() == values[picks].tolist()

    def test_last_partial_block(self):
        for m in (2, 3):
            inst = generate(GenParams(n=8, m=m, r_domain_hi=30, segments=2), 0)
            rows = grid_rows(inst, 3)
            width = BLOCK_CELLS // max(3**8 if m > 2 else 2**8, m * 2**8)
            assert len(rows) == 3**8 and len(rows) % width
            values, finished = subset_dp_row_optima(inst, rows)
            assert finished
            sample = [*range(0, len(rows), 97), *range(len(rows) - 70, len(rows))]
            expected, _ = reference_release_row_optima(inst, rows[sample])
            assert values[sample].tolist() == expected.tolist()

    def test_zero_budget_gives_the_best_single_machine_chain(self, rng):
        for _ in range(10):
            inst = random_instance(rng, rng.randint(1, 7), rng.randint(2, 3))
            rows = grid_rows(inst, 2)
            values, finished = subset_dp_row_optima(
                inst, rows, OracleLimits(time_budget=0.0)
            )
            assert not finished
            assert values.tolist() == single_machine_chains(inst, rows).tolist()

    def test_a_cut_between_blocks_stays_above_the_optima(self):
        inst = generate(GenParams(n=7, m=3, r_domain_hi=30, segments=2), 0)
        rows = grid_rows(inst, 3)
        exact, _ = subset_dp_row_optima(inst, rows)
        start = single_machine_chains(inst, rows)
        solved = []
        for reads in (0, 1, 2, 3, 4, 5, 60, 300):
            values, finished = subset_dp_row_optima(
                inst, rows, deadline=_CutAfter(reads)
            )
            assert not finished
            assert (values >= exact).all()
            assert (values <= start).all()
            solved.append(int((values == exact).sum()))
        assert solved == sorted(solved) and solved[0] < solved[-1] < len(rows)
        values, finished = subset_dp_row_optima(
            inst, rows, deadline=_CutAfter(10**6)
        )
        assert finished and values.tolist() == exact.tolist()

    def test_memory_stays_within_the_row_blocks(self):
        # one unblocked gather over the 3**8 subset pairs of 3**8 rows
        # would hold ~340 MB
        inst = generate(GenParams(n=8, m=3, r_domain_hi=30, segments=2), 0)
        rows = grid_rows(inst, 3)
        tracemalloc.start()
        try:
            subset_dp_row_optima(inst, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_refuses_a_dp_too_large_for_one_row(self, rng):
        inst = random_instance(rng, 14, 3)
        rows = np.array([inst.release_lo])
        limits = OracleLimits(max_jobs=14)
        with pytest.raises(LimitExceededError, match="subset DP"):
            subset_dp_row_optima(inst, rows, limits)
        alone = random_instance(rng, 14, 1)
        values, finished = subset_dp_row_optima(alone, rows, limits)
        assert finished
        assert values.tolist() == single_machine_chains(alone, rows, limits).tolist()


class TestExactWorstCaseRegret:
    def test_deterministic_instance_optimal_schedule(self):
        inst = Instance(p=((4, 2), (3, 5)), release=((1, 1), (2, 2)))
        best = exhaustive_min_regret(inst)
        assert best.regret == 0  # a single feasible scenario means no regret

    def test_good_order_has_zero_regret(self, hill_instance):
        report = exact_worst_case_regret(Schedule(machines=((1, 0),)), hill_instance)
        assert report.value == 0

    def test_bad_order_pays_four(self, hill_instance):
        report = exact_worst_case_regret(Schedule(machines=((0, 1),)), hill_instance)
        assert report.value == 4
        assert report.scenario.r == (10, 0)

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            inst = random_instance(
                rng, rng.randint(1, 4), rng.randint(1, 2), r_max=4, width_max=3
            )
            schedule = random_valid_schedule(rng, inst)
            report = exact_worst_case_regret(schedule, inst)
            expected = brute_worst_regret(
                [list(seq) for seq in schedule.machines], inst.p, inst.release
            )
            assert report.value == expected

    def test_pruned_equals_full_extreme_sweep(self, rng):
        for _ in range(30):
            inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 2))
            schedule = random_valid_schedule(rng, inst)
            pruned = exact_worst_case_regret(schedule, inst, effective_only=True)
            full = exact_worst_case_regret(schedule, inst, effective_only=False)
            assert pruned.value == full.value


class TestGridRegret:
    def test_grid_point_layout(self):
        assert _grid_points(0, 10, 5) == [0, 3, 5, 8, 10]
        assert _grid_points(0, 10, 2) == [0, 10]
        assert _grid_points(3, 3, 7) == [3]
        assert _grid_points(0, 2, 5) == [0, 1, 2]

    @staticmethod
    def assert_dense_sweep_equals_extreme_sweep(schedule, inst, points):
        """The subset DP over every grid row, which uses nothing of the
        extreme scenarios, attains the extreme sweep's value, and
        ``grid_regret``, which derives its value from them, reports that
        value at the same row."""
        rows = _grid_rows(inst, points, DEFAULT_LIMITS)
        [dense] = subset_dp_grid_regrets([schedule], inst, rows, DEFAULT_LIMITS)
        exact = exact_worst_case_regret(schedule, inst)
        assert dense.value == exact.value
        grid = grid_regret(schedule, inst, points)
        assert (grid.value, grid.scenario) == (dense.value, dense.scenario)

    def test_deterministic_instance_single_point(self):
        inst = Instance(p=((4, 2),), release=((1, 1), (2, 2)))
        schedule = Schedule(machines=((0, 1),))
        self.assert_dense_sweep_equals_extreme_sweep(schedule, inst, 5)

    def test_equals_extreme_sweep(self, rng):
        for _ in range(15):
            inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 2))
            schedule = random_valid_schedule(rng, inst)
            self.assert_dense_sweep_equals_extreme_sweep(schedule, inst, 5)

    def test_equals_extreme_sweep_on_dense_grids(self, rng):
        # 11 points per interval; includes one full-size (n=5) sweep
        sizes = [(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(8)]
        sizes.append((5, 2))
        for n, m in sizes:
            inst = random_instance(rng, n, m)
            schedule = random_valid_schedule(rng, inst)
            self.assert_dense_sweep_equals_extreme_sweep(schedule, inst, 11)

    def test_budget_cuts_the_grid_short(self):
        # the 13 optima the grid starts from take about 0.2 s in all
        inst = slow_search_instance(12)
        limits = OracleLimits(max_jobs=12, max_machines=4)
        schedule = pm(inst)
        started = time.perf_counter()
        cut = grid_regret(
            schedule, inst, 2, OracleLimits(max_jobs=12, max_machines=4, time_budget=0.001)
        )
        elapsed = time.perf_counter() - started
        full = grid_regret(schedule, inst, 2, limits)
        assert not cut.certified
        assert elapsed < 0.1
        assert cut.value <= full.value
        assert full.certified
        assert full.value == exact_worst_case_regret(schedule, inst, limits).value

    def test_needs_two_points(self, hill_instance):
        with pytest.raises(ValueError):
            grid_regret(Schedule(machines=((0, 1),)), hill_instance, 1)

    def test_grid_size_limit(self):
        inst = Instance(
            p=((1,) * 8,), release=tuple((0, 100) for _ in range(8))
        )
        with pytest.raises(LimitExceededError):
            grid_regret(
                Schedule(machines=(tuple(range(8)),)), inst, 11,
                OracleLimits(max_jobs=8, max_machines=1),
            )


class TestGridRegretsShareOneGrid:
    """One solve of a grid's optima scores many schedules, each exactly as
    its own ``grid_regret`` call would."""

    @pytest.mark.parametrize("n, m, seed, points", [(6, 2, 1, 4), (7, 3, 0, 3), (5, 3, 4, 5)])
    @pytest.mark.parametrize("budget", [None, 0.0])
    def test_each_report_equals_grid_regret(self, n, m, seed, points, budget):
        inst = generate(GenParams(n=n, m=m, r_domain_hi=30, segments=2), seed)
        limits = OracleLimits(time_budget=budget)
        schedules = [pm(inst), pr(inst), pre(inst)]
        schedules += [random_schedule(inst, k) for k in range(3)]
        shared = _grid_regrets(schedules, inst, _grid_rows(inst, points, limits), limits)
        assert len(shared) == len(schedules)
        for schedule, report in zip(schedules, shared):
            alone = grid_regret(schedule, inst, points, limits)
            assert (report.value, report.scenario, report.certified) == (
                alone.value, alone.scenario, alone.certified
            )
            assert report.certified == (budget is None)



def wide_instance(rng, n: int, m: int) -> Instance:
    """Long overlapping release windows: many grid rows that the extreme
    optima cannot rule out."""
    p = tuple(tuple(rng.randint(1, 12) for _ in range(n)) for _ in range(m))
    lows = [rng.randint(0, 10) for _ in range(n)]
    return Instance(p=p, release=tuple((lo, lo + rng.randint(0, 60)) for lo in lows))


def battery_schedules(inst: Instance) -> list[Schedule]:
    """The six schedules ``check`` scores: pm, pr, pre and three random ones."""
    return [pm(inst), pr(inst), pre(inst)] + [random_schedule(inst, k) for k in range(3)]


def assert_grid_equals_the_subset_dp(inst, points, limits=DEFAULT_LIMITS):
    """The battery's grid reports equal the subset DP's in value, scenario
    and certified flag, on a cold copy of the instance."""
    schedules = battery_schedules(inst)
    rows = _grid_rows(inst, points, limits)
    expected = subset_dp_grid_regrets(schedules, inst, rows, limits)
    reports = _grid_regrets(schedules, fresh(inst), rows, limits)
    assert [(r.value, r.scenario, r.certified) for r in reports] == [
        (e.value, e.scenario, e.certified) for e in expected
    ]


class TestLazyGrid:
    """The grid scored from the extreme optima, solving only the rows they
    cannot rule out, against the subset DP over every row. The grid stays
    within ``OracleLimits`` and ``GRID_SCENARIO_LIMIT``, so there is no
    differential at n >= 500."""

    @pytest.mark.parametrize("n", range(4, 8))
    @pytest.mark.parametrize("m", range(1, 4))
    def test_equals_the_subset_dp(self, n, m, rng):
        cases = [generate(GenParams(n=n, m=m, r_domain_hi=30, segments=2), seed)
                 for seed in range(2)]
        cases += [tie_heavy_instance(rng, n, m) for _ in range(2)]
        cases += [wide_instance(rng, n, m) for _ in range(2)]
        for inst, points in itertools.product(cases, (2, 3, 5)):
            assert_grid_equals_the_subset_dp(inst, points)

    @pytest.mark.parametrize("n, m", [(9, 2), (9, 3), (10, 2), (10, 3)])
    def test_equals_the_subset_dp_at_two_points(self, n, m, rng):
        for inst in (generate(GenParams(n=n, m=m, r_domain_hi=30, segments=2), 0),
                     tie_heavy_instance(rng, n, m), wide_instance(rng, n, m)):
            assert_grid_equals_the_subset_dp(inst, 2, OracleLimits(max_jobs=n))

    def test_a_cut_grid_is_uncertified_and_at_most_the_full_grid(self, monkeypatch):
        # the walk solves interior rows here, so cuts fall in the extreme
        # optima and in the rows both
        inst = wide_instance(random.Random(10), 7, 3)
        schedules = battery_schedules(inst)
        rows = _grid_rows(inst, 3, DEFAULT_LIMITS)
        full = _grid_regrets(schedules, fresh(inst), rows, DEFAULT_LIMITS)
        assert all(report.certified for report in full)
        corners = {s.r for s in extreme_scenarios(inst)} | {lower_scenario(inst).r}

        def cut_call(reads: int):
            deadline = _CutAfter(reads)
            cut = fresh(inst)
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_Deadline", lambda budget: deadline)
                reports = _grid_regrets(schedules, cut, rows, DEFAULT_LIMITS)
            return reports, deadline.reads, set(vars(cut)["_optima"])

        _, left, kept = cut_call(10**9)
        used = 10**9 - left
        assert kept > corners  # rows besides the corners were solved
        in_rows = 0
        for reads in [*range(0, used, max(1, used // 150)), used - 1]:
            reports, _, kept = cut_call(reads)
            assert not all(report.certified for report in reports)
            in_walk = corners <= kept  # cut after the optima, in the rows
            for report, whole in zip(reports, full):
                if report.certified:
                    assert report == whole
                else:
                    assert report.value <= whole.value
                if in_walk:  # scored against the true optima
                    assert report.value == whole.value
            in_rows += in_walk
        assert in_rows > 0
        assert cut_call(used)[0] == full


class TestExhaustiveMinRegret:
    def test_disjoint_intervals_match_pm(self):
        inst = Instance(p=((2, 2),), release=((0, 1), (5, 6)))
        best = exhaustive_min_regret(inst)
        assert best.regret == 0
        pm_report = exact_worst_case_regret(pm(inst), inst)
        assert pm_report.value == best.regret

    def test_matches_brute_force(self, rng):
        for _ in range(12):
            inst = random_instance(
                rng, rng.randint(1, 3), rng.randint(1, 2), r_max=4, width_max=3
            )
            best = exhaustive_min_regret(inst)
            assert best.regret == brute_min_regret(inst.p, inst.release)

    def test_returns_lexicographically_smallest_optimum(self):
        # all-equal data: both one-job-per-machine schedules are
        # regret-optimal; the encoding ((0,), (1,)) comes first
        inst = Instance(p=((1, 1), (1, 1)), release=((0, 0), (0, 0)))
        best = exhaustive_min_regret(inst)
        assert best.regret == 0
        assert best.schedule.machines == ((0,), (1,))

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_ties_go_to_the_smallest_schedule_hypothesis(self, data):
        # small processing times and narrow windows make regret ties common
        n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
        p = tuple(
            tuple(data.draw(st.integers(1, 3)) for _ in range(n)) for _ in range(m)
        )
        lows = [data.draw(st.integers(0, 4)) for _ in range(n)]
        release = tuple((lo, lo + data.draw(st.integers(0, 3))) for lo in lows)
        inst = Instance(p=p, release=release)
        best = exhaustive_min_regret(inst)
        assert (best.regret, best.schedule.machines) == brute_min_regret_schedule(
            inst.p, inst.release
        )


    def test_matches_the_completion_table_search(self, rng):
        # the searches that kept an (m, n) table of completions and that kept
        # one completion per scenario with a memo, unbudgeted and with an
        # expired budget: same regret, schedule and flag. The unpruned table
        # search is the slow one, so it checks every n <= 6 case, ten of the
        # n = 7 ones and one generated n = 8 instance per m; the memo search
        # checks every case
        def tie_heavy(n: int, m: int) -> Instance:
            # small times, narrow windows: many ties
            p = tuple(tuple(rng.randint(1, 3) for _ in range(n)) for _ in range(m))
            lows = [rng.randint(0, 4) for _ in range(n)]
            release = tuple((lo, lo + rng.randint(0, 3)) for lo in lows)
            return Instance(p=p, release=release)

        def agree(reference, cases):
            for inst in cases:
                for limits in (DEFAULT_LIMITS, expired):
                    result = exhaustive_min_regret(inst, limits)
                    assert result == reference(inst, limits)

        small = [tie_heavy(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(500)]
        seven = [tie_heavy(7, rng.randint(2, 3)) for _ in range(50)]
        generated = {
            (n, m, seed): generate(GenParams(n, m, r_domain_hi=30, segments=2), seed)
            for n in (6, 7, 8)  # 8 is the default limit
            for m in (2, 3)
            for seed in range(2)
        }
        expired = OracleLimits(time_budget=0.0)
        eights = [generated[8, m, 0] for m in (2, 3)]
        agree(reference_exhaustive_min_regret, small + seven[:10] + eights)
        agree(reference_memo_min_regret, small + seven + list(generated.values()))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("m", (2, 3))
    @pytest.mark.parametrize("n", (9, 10))
    def test_matches_the_search_without_the_remaining_work_bound(self, n, m, seed):
        # past the default limit, where the bound cuts most: same regret,
        # schedule and flag, unbudgeted and with an expired budget
        inst = generate(GenParams(n=n, m=m, r_domain_hi=30, segments=2), seed)
        for limits in (
            OracleLimits(max_jobs=10),
            OracleLimits(max_jobs=10, time_budget=0.0),
        ):
            assert exhaustive_min_regret(inst, limits) == (
                reference_memo_min_regret(inst, limits)
            )

    @pytest.mark.parametrize("m", (2, 3))
    @pytest.mark.parametrize("n", (9, 10, 11, 12))
    def test_matches_the_search_with_failed_hand_offs_alone(self, n, m):
        # past the default limit, generated, tie-heavy and, where the
        # reference's walk of the other jobs' orderings stays short, with a
        # dominant job: same regret, schedule and flag, unbudgeted and with
        # an expired budget
        rng = random.Random(10 * n + m)
        cases = [
            generate(GenParams(n=n, m=m, r_domain_hi=30, segments=2), seed)
            for seed in range(3)
        ]
        cases += [tie_heavy_instance(rng, n, m) for _ in range(3)]
        if n == 9:
            cases += [late_dominant_instance(rng, n, m) for _ in range(2)]
        for inst in cases:
            for limits in (
                OracleLimits(max_jobs=n),
                OracleLimits(max_jobs=n, time_budget=0.0),
            ):
                assert exhaustive_min_regret(inst, limits) == (
                    reference_first_leaf_min_regret(fresh(inst), limits)
                )

    def test_a_job_that_fits_only_on_machine_0_is_not_handed_off(self, monkeypatch):
        # T is the dominant job's release plus its time on machine 0, so it
        # fits by T nowhere else. Without the fit test the search hands all
        # 20 jobs to machine 3 and walks the orderings of the other 19 there,
        # for more than 200,000 deadline reads
        inst = late_dominant_instance(random.Random(2), 20, 4)
        deadline = _CutAfter(1_000)
        monkeypatch.setattr(oracle, "_Deadline", lambda budget: deadline)
        best = exhaustive_min_regret(inst, OracleLimits(max_jobs=20, max_machines=4))
        assert best.certified
        assert best.regret == 0

    def test_one_machine_matches_brute_force(self, rng):
        # with one machine every node is on the last one and nothing is
        # handed off; at each final append the bound equals the leaf's
        # regret, so a bound that cut one unit early would lose the optimum
        for _ in range(60):
            n = rng.randint(1, 7)
            p = (tuple(rng.randint(1, 3) for _ in range(n)),)
            lows = [rng.randint(0, 4) for _ in range(n)]
            release = tuple((lo, lo + rng.randint(0, 3)) for lo in lows)
            inst = Instance(p=p, release=release)
            best = exhaustive_min_regret(inst)
            assert best.certified
            assert (best.regret, best.schedule.machines) == (
                brute_min_regret_schedule(inst.p, inst.release)
            )

    @pytest.mark.parametrize(
        "inst",
        [
            Instance(p=((3, 1),), release=((4, 4), (3, 5))),
            Instance(p=((3, 2), (2, 2)), release=((2, 4), (0, 0))),
        ],
    )
    def test_the_start_bound_is_not_an_incumbent(self, inst):
        # an extreme scenario's optimal schedule reaches the minimum regret
        # but is not the smallest optimum, which must still come back
        regret, smallest = brute_min_regret_schedule(inst.p, inst.release)
        scenario_optima = [
            optimal_makespan(inst, scenario).schedule
            for scenario in extreme_scenarios(inst)
        ]
        assert any(
            schedule.machines != smallest
            and exact_worst_case_regret(schedule, inst).value == regret
            for schedule in scenario_optima
        )
        best = exhaustive_min_regret(inst)
        assert (best.regret, best.schedule.machines) == (regret, smallest)


def slow_search_instance(n: int = 16) -> Instance:
    """Jobs fastest on machine 0 with overlapping releases on 4 machines:
    the combined bound is weak, so the search of every extreme scenario
    runs long. At n = 16 each one took 0.5 s or more."""
    rng = random.Random(1)
    m = 4
    p = [[rng.randint(8, 12) for _ in range(n)]]
    p += [[rng.randint(30, 60) for _ in range(n)] for _ in range(m - 1)]
    release = []
    for _ in range(n):
        lo = rng.randint(0, 10)
        release.append((lo, lo + rng.randint(0, 40)))
    return Instance(p=tuple(map(tuple, p)), release=tuple(release))


def late_dominant_instance(rng: random.Random, n: int, m: int) -> Instance:
    """Jobs fastest on machine 0, and a last one released after all of
    their work can end and fastest only on machine 0: its optimum, and the
    minimum worst-case regret of 0, needs it there."""
    p = [[rng.randint(8, 12) for _ in range(n - 1)]]
    p += [[rng.randint(30, 60) for _ in range(n - 1)] for _ in range(m - 1)]
    release = []
    for _ in range(n - 1):
        lo = rng.randint(0, 10)
        release.append((lo, lo + rng.randint(0, 40)))
    top = max(hi for _, hi in release) + sum(max(times) for times in zip(*p))
    for i, row in enumerate(p):
        row.append(10 if i == 0 else 40)
    release.append((top, top + 20))
    return Instance(p=tuple(map(tuple, p)), release=tuple(release))


class TestTimeBudget:
    BUDGET = 0.05

    def test_budget_is_the_wall_clock_of_the_call(self):
        inst = slow_search_instance()
        limits = OracleLimits(max_jobs=16, max_machines=4, time_budget=self.BUDGET)
        # each extreme scenario's search alone outlasts the budget about
        # ten times over
        started = time.perf_counter()
        for j in range(inst.n):
            alone = optimal_makespan(inst, extreme_scenario(inst, j), limits)
            assert not alone.certified
        separate = time.perf_counter() - started
        assert separate >= inst.n * self.BUDGET

        schedule = pm(inst)
        for call in (
            lambda: exact_worst_case_regret(schedule, inst, limits),
            lambda: exhaustive_min_regret(inst, limits),
        ):
            started = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - started
            assert not result.certified
            assert elapsed < 4 * self.BUDGET < separate / 3

    def test_expired_budget_stays_below_the_exact_values(self, rng):
        # past the deadline each optimum is a greedy incumbent, at least the
        # optimum, so every regret it scores is at most the exact one
        expired = OracleLimits(time_budget=0.0)
        for _ in range(10):
            inst = random_instance(rng, rng.randint(2, 7), rng.randint(1, 3))
            schedule = random_valid_schedule(rng, inst)
            report = exact_worst_case_regret(schedule, inst, expired)
            assert not report.certified
            assert report.value <= exact_worst_case_regret(schedule, inst).value
            best = exhaustive_min_regret(inst, expired)
            assert not best.certified
            assert best.regret <= exact_worst_case_regret(best.schedule, inst).value


def tie_heavy_instance(rng, n: int, m: int) -> Instance:
    """Small times and narrow windows: many ties between schedules."""
    p = tuple(tuple(rng.randint(1, 3) for _ in range(n)) for _ in range(m))
    lows = [rng.randint(0, 4) for _ in range(n)]
    release = tuple((lo, lo + rng.randint(0, 3)) for lo in lows)
    return Instance(p=p, release=release)


def desk_cases(rng) -> list[Instance]:
    """Generated instances at n 6-8, m 2-3, and tie-heavy ones."""
    cases = [
        generate(GenParams(n=n, m=m, r_domain_hi=30, segments=2), seed)
        for n in (6, 7, 8) for m in (2, 3) for seed in range(2)
    ]
    cases += [tie_heavy_instance(rng, rng.randint(2, 7), rng.randint(1, 3)) for _ in range(24)]
    return cases


def desk_schedules(inst: Instance) -> list[Schedule]:
    return [pm(inst), pr(inst), pre(inst), random_schedule(inst, 0), random_schedule(inst, 1)]


def fresh(inst: Instance) -> Instance:
    """An equal instance object, with nothing kept on it."""
    return Instance(p=inst.p, release=inst.release)


def exact_queries(inst: Instance, limits: OracleLimits = DEFAULT_LIMITS) -> list:
    """Every exact query on one instance, each a function of the instance
    object: the optima of the extreme and the lower scenarios, both exact
    regrets of the desk schedules and the minimax-regret optimum."""
    queries = [
        lambda i, s=scenario: optimal_makespan(i, s, limits)
        for scenario in extreme_scenarios(inst) + [lower_scenario(inst)]
    ]
    for schedule in desk_schedules(inst):
        for effective_only in (True, False):
            queries.append(
                lambda i, s=schedule, e=effective_only: exact_worst_case_regret(
                    s, i, limits, effective_only=e
                )
            )
    queries.append(lambda i: exhaustive_min_regret(i, limits))
    return queries


def star_release(inst: Instance, opts: list[int]) -> tuple[int, ...]:
    """r* of the extreme optima ``opts``: max(lo_j, hi_j + min opts - opts_j)."""
    least = min(opts)
    return tuple(max(lo, hi + least - opt) for (lo, hi), opt in zip(inst.release, opts))


def count_calls(monkeypatch) -> list:
    """The release tuple of every ``optimal_makespan`` call from now on,
    whether it searches or returns a kept result."""
    calls = []
    solve = oracle.optimal_makespan

    def counted(inst, scenario, *args, **kwargs):
        calls.append(scenario.r)
        return solve(inst, scenario, *args, **kwargs)

    monkeypatch.setattr(oracle, "optimal_makespan", counted)
    return calls


def family_queries(inst: Instance, limits: OracleLimits = DEFAULT_LIMITS) -> dict:
    """The exact scores that read the extreme optima as one family, each a
    function of the instance object, by the family indices each reads: job
    j for extreme scenario j, and n for the all-lower scenario."""
    schedules = desk_schedules(inst)
    effective = [
        (lambda i, s=s: exact_worst_case_regret(s, i, limits),
         np.flatnonzero(~covered_mask(s, inst)).tolist())
        for s in schedules
    ]
    every_job = list(range(inst.n))
    return {
        "effective": effective,
        "exact": [
            (lambda i, s=s: exact_worst_case_regret(s, i, limits, effective_only=False),
             every_job)
            for s in schedules
        ],
        "grid": [
            (lambda i, s=s: grid_regret(s, i, 2, limits), every_job + [inst.n])
            for s in schedules
        ],
        "exhaustive": [(lambda i: exhaustive_min_regret(i, limits), every_job)],
    }


class TestKeptOptima:
    """``optimal_makespan`` keeps each certified result on the instance
    object, read by a later call while its clock has not run out."""

    def test_warm_results_equal_cold_ones(self, rng, monkeypatch):
        searches = count_searches(monkeypatch)
        for inst in desk_cases(rng):
            queries = exact_queries(inst)
            for query in queries:
                query(inst)
            kept = vars(inst)["_optima"]
            opts = [kept[s.r].makespan for s in extreme_scenarios(inst)]
            assert set(kept) == {
                s.r for s in extreme_scenarios(inst) + [lower_scenario(inst)]
            } | {star_release(inst, opts)}
            for release, result in kept.items():
                assert result == reference_optimal_makespan(inst, Scenario(r=release))
            searches.clear()
            warm = [query(inst) for query in queries]
            assert not searches
            assert warm == [query(fresh(inst)) for query in queries]

    def test_a_warm_memo_is_not_read_past_the_deadline(self, rng):
        expired = OracleLimits(time_budget=0.0)
        for inst in desk_cases(rng):
            for query in exact_queries(inst):
                query(inst)
            best = exhaustive_min_regret(inst, expired)
            assert not best.certified
            assert best == reference_exhaustive_min_regret(fresh(inst), expired)
            for query in exact_queries(inst, expired):
                warm, cold = query(inst), query(fresh(inst))
                assert not warm.certified
                assert warm == cold

    def test_a_cut_result_is_not_kept(self):
        inst = generate(GenParams(n=8, m=3, r_domain_hi=30, segments=2), 0)
        cuts = 0
        for scenario in extreme_scenarios(inst):
            for deadline in (_Deadline(0.0), _CutAfter(4)):
                result = optimal_makespan(inst, scenario, deadline=deadline)
                cuts += not result.certified
                assert result.certified == (scenario.r in vars(inst)["_optima"])
            optimum = optimal_makespan(inst, scenario)
            assert optimum.certified
            assert optimum == reference_optimal_makespan(inst, scenario)
        assert cuts > inst.n  # every zero budget, and some searches cut midway

    def test_a_kept_result_belongs_to_its_instance_object(self, monkeypatch):
        inst = generate(GenParams(n=7, m=3, r_domain_hi=30, segments=2), 0)
        scenario = extreme_scenario(inst, 0)
        searches = count_searches(monkeypatch)
        first = optimal_makespan(inst, scenario)
        assert optimal_makespan(inst, scenario) is first
        other = fresh(inst)
        assert optimal_makespan(other, scenario) == first
        assert searches == [scenario.r, scenario.r]

    def test_a_kept_result_does_not_excuse_a_refusal(self):
        inst = generate(GenParams(n=7, m=3, r_domain_hi=30, segments=2), 0)
        scenario = extreme_scenario(inst, 0)
        optimal_makespan(inst, scenario)
        with pytest.raises(LimitExceededError):
            optimal_makespan(inst, scenario, OracleLimits(max_jobs=6))
        with pytest.raises(LimitExceededError):
            optimal_makespan(inst, scenario, OracleLimits(max_machines=2))
        # a release outside the box refuses the scenario, kept or not
        outside = Scenario(r=(inst.release[0][1] + 1,) + scenario.r[1:])
        vars(inst)["_optima"][outside.r] = vars(inst)["_optima"][scenario.r]
        with pytest.raises(ValueError):
            optimal_makespan(inst, outside)

    def test_a_warm_score_reads_the_family_without_a_call(self, rng, monkeypatch):
        calls = count_calls(monkeypatch)
        for inst in desk_cases(rng):
            scenarios = [*extreme_scenarios(inst), lower_scenario(inst)]
            corners = {scenario.r for scenario in scenarios}
            queries = family_queries(inst)
            for kind in queries.values():
                for query, _ in kind:
                    query(inst)
            family = vars(inst)["_extreme_optima"]
            kept = vars(inst)["_optima"]
            assert all(
                result is kept[scenario.r] for result, scenario in zip(family, scenarios)
            )
            opts = [result.makespan for result in family[:-1]]
            for name, kind in queries.items():
                for query, _ in kind:
                    calls.clear()
                    warm = query(inst)
                    if name == "exhaustive":  # the optimum under r*, kept by release
                        assert calls == [star_release(inst, opts)]
                    elif name == "grid":  # it may solve a row, never a corner
                        assert not corners & set(calls)
                    else:
                        assert not calls
                    assert warm == query(fresh(inst))

    def test_a_partial_family_scores_as_a_fresh_instance(self, rng):
        unlimited = _Deadline(None)
        for inst in desk_cases(rng):
            for kind in family_queries(inst).values():
                for query, reads in kind:
                    partial = fresh(inst)
                    some = rng.sample(range(inst.n + 1), rng.randint(1, inst.n))
                    oracle._extreme_optima(partial, some, DEFAULT_LIMITS, unlimited)
                    # kept by release only, not in the family
                    for j in rng.sample(range(inst.n), rng.randint(0, inst.n)):
                        optimal_makespan(partial, extreme_scenario(inst, j))
                    assert query(partial) == query(fresh(inst))
                    family = vars(partial)["_extreme_optima"]
                    assert all(family[j] is not None for j in reads)
                    assert all(family[j] is not None for j in some)

    def test_a_warm_grid_is_not_read_past_the_deadline(self, rng, monkeypatch):
        expired = OracleLimits(time_budget=0.0)
        for inst in desk_cases(rng):
            schedule = random_valid_schedule(rng, inst)
            grid_regret(schedule, inst, 2)
            assert None not in vars(inst)["_extreme_optima"]
            warm = grid_regret(schedule, inst, 2, expired)
            assert not warm.certified
            assert warm == grid_regret(schedule, fresh(inst), 2, expired)
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_Deadline", lambda budget: _CutAfter(0))
                for kind in family_queries(inst).values():
                    for query, _ in kind:
                        cut = fresh(inst)
                        warm, cold = query(inst), query(cut)
                        assert not warm.certified
                        assert warm == cold
                        assert vars(cut)["_extreme_optima"] == [None] * (inst.n + 1)


class TestExtremeRegretIdentity:
    """With opt_t the optimum of extreme scenario t, M = min_t opt_t and
    r*_j = max(lo_j, hi_j + M - opt_j), every schedule's worst-case regret
    over the extreme scenarios is its makespan under r* minus M: at each
    position k, the largest completion minus optimum over the scenarios is
    max(lo_k - M, hi_k - opt_k) plus the work from k to the end of its
    machine."""

    def test_regret_is_one_makespan_at_desk_scale(self, rng):
        for inst in desk_cases(rng):
            opts = [optimal_makespan(inst, s).makespan for s in extreme_scenarios(inst)]
            least, star = min(opts), star_release(inst, opts)
            assert all(lo <= r <= hi for (lo, hi), r in zip(inst.release, star))
            for schedule in desk_schedules(inst):
                report = exact_worst_case_regret(schedule, inst, effective_only=False)
                assert report.certified
                assert report.value == makespan(schedule, Scenario(r=star), inst) - least


class TestCutFirstLeafSearch:
    """A deadline that expires at one chosen read, in the extreme optima, in
    the search for the optimum under r* or in the first-leaf search."""

    @pytest.mark.parametrize("n, m, seed", [(6, 2, 0), (7, 3, 1), (8, 2, 2), (8, 3, 0)])
    def test_every_cut_stays_at_or_below_its_schedules_regret(
        self, n, m, seed, monkeypatch
    ):
        inst = generate(GenParams(n=n, m=m, r_domain_hi=30, segments=2), seed)
        exact = exhaustive_min_regret(inst)
        assert exact.certified
        opts = [optimal_makespan(inst, s).makespan for s in extreme_scenarios(inst)]
        extremes = {s.r for s in extreme_scenarios(inst)}

        def cut_call(reads: int):
            deadline = _CutAfter(reads)
            cut = fresh(inst)
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_Deadline", lambda budget: deadline)
                return exhaustive_min_regret(cut), deadline.reads, cut

        _, left, _ = cut_call(10**9)
        used = 10**9 - left
        in_search = 0
        for reads in [*range(0, used, max(1, used // 150)), used - 1, used]:
            result, _, cut = cut_call(reads)
            assert result.certified == (reads >= used)
            if result.certified:
                assert result == exact
                continue
            own = exact_worst_case_regret(result.schedule, inst).value
            assert result.regret <= own
            kept = set(vars(cut)["_optima"])
            if extremes <= kept:  # scored against the true optima
                assert result.regret == own
            if extremes | {star_release(inst, opts)} <= kept:
                in_search += 1
                assert result.regret == exact.regret
        assert in_search > 0
