import random
import time

import pytest

from robust_sched import (
    Instance,
    LimitExceededError,
    OracleLimits,
    Scenario,
    Schedule,
    exact_worst_case_regret,
    exhaustive_min_regret,
    grid_regret,
    optimal_makespan,
    pm,
)
from robust_sched.model import extreme_release_matrix, extreme_scenario, makespan
from robust_sched.oracle import (
    _grid_points,
    optimal_makespans_for_release_rows,
)

from _brute import (
    brute_min_regret,
    brute_optimal_makespan,
    brute_worst_regret,
)
from conftest import random_instance, random_valid_schedule


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
        for _ in range(40):
            inst = random_instance(rng, rng.randint(1, 6), rng.randint(1, 3))
            r = [rng.randint(lo, hi) for lo, hi in inst.release]
            scenario = Scenario(r=tuple(r))
            pruned = optimal_makespan(inst, scenario, prune=True)
            plain = optimal_makespan(inst, scenario, prune=False)
            assert pruned == plain

    def test_budget_flags_uncertified(self):
        inst = Instance(
            p=tuple(tuple(range(3, 11)) for _ in range(3)),
            release=tuple((j, j + 20) for j in range(8)),
        )
        limits = OracleLimits(time_budget=0.0)
        result = optimal_makespan(inst, Scenario(r=tuple(range(8))), limits)
        assert not result.certified
        assert result.makespan >= brute_optimal_makespan(
            inst.p, list(range(8))
        )

    def test_batch_matches_single(self, rng):
        for _ in range(20):
            inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 3))
            rows = extreme_release_matrix(inst)
            batch = optimal_makespans_for_release_rows(inst, rows)
            for j in range(inst.n):
                single = optimal_makespan(inst, Scenario(r=tuple(rows[j])))
                assert int(batch[j]) == single.makespan


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

    def test_deterministic_instance_single_point(self):
        inst = Instance(p=((4, 2),), release=((1, 1), (2, 2)))
        schedule = Schedule(machines=((0, 1),))
        grid = grid_regret(schedule, inst, 5)
        exact = exact_worst_case_regret(schedule, inst)
        assert grid.value == exact.value

    def test_equals_extreme_sweep(self, rng):
        for _ in range(15):
            inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 2))
            schedule = random_valid_schedule(rng, inst)
            grid = grid_regret(schedule, inst, 5)
            exact = exact_worst_case_regret(schedule, inst)
            assert grid.value == exact.value

    def test_equals_extreme_sweep_on_dense_grids(self, rng):
        # 11 points per interval; includes one full-size (n=5) sweep
        sizes = [(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(8)]
        sizes.append((5, 2))
        for n, m in sizes:
            inst = random_instance(rng, n, m)
            schedule = random_valid_schedule(rng, inst)
            grid = grid_regret(schedule, inst, 11)
            exact = exact_worst_case_regret(schedule, inst)
            assert grid.value == exact.value

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

    def test_prune_toggle_agrees(self, rng):
        for _ in range(15):
            inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 2))
            pruned = exhaustive_min_regret(inst, prune=True)
            plain = exhaustive_min_regret(inst, prune=False)
            assert pruned.regret == plain.regret
            assert pruned.schedule == plain.schedule

    def test_returns_lexicographically_smallest_optimum(self):
        # all-equal data: both one-job-per-machine schedules are
        # regret-optimal; the encoding ((0,), (1,)) comes first
        inst = Instance(p=((1, 1), (1, 1)), release=((0, 0), (0, 0)))
        best = exhaustive_min_regret(inst)
        assert best.regret == 0
        assert best.schedule.machines == ((0,), (1,))


def slow_search_instance() -> Instance:
    """Jobs fastest on machine 0 with overlapping releases: the combined
    bound is weak, so the search of every extreme scenario runs long."""
    rng = random.Random(1)
    n, m = 15, 4
    p = [[rng.randint(8, 12) for _ in range(n)]]
    p += [[rng.randint(30, 60) for _ in range(n)] for _ in range(m - 1)]
    release = []
    for _ in range(n):
        lo = rng.randint(0, 10)
        release.append((lo, lo + rng.randint(0, 40)))
    return Instance(p=tuple(map(tuple, p)), release=tuple(release))


class TestTimeBudget:
    BUDGET = 0.05

    def test_budget_is_the_wall_clock_of_the_call(self):
        inst = slow_search_instance()
        limits = OracleLimits(max_jobs=15, max_machines=4, time_budget=self.BUDGET)
        # each extreme scenario's search alone outlasts the budget
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
