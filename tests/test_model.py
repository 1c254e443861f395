import random

import pytest

from robust_sched import (
    Instance,
    InvalidScheduleError,
    Scenario,
    Schedule,
    completion_profile,
    covered_jobs,
    effective_scenarios,
    extreme_scenario,
    extreme_scenarios,
    lower_scenario,
    makespan,
    regret,
    regret_upper_bound,
    pm,
    random_schedule,
    relaxed_regret,
    validate_schedule,
)
from robust_sched.datagen import generate, params_for_dataset

from _brute import brute_lb1, brute_lb2, brute_lb3, brute_makespan
from _reference import reference_completion_profile, relabel_jobs
from conftest import random_instance, random_valid_schedule


class TestInstanceInvariants:
    def test_rejects_nonpositive_processing(self):
        with pytest.raises(ValueError):
            Instance(p=((0, 2),), release=((0, 1), (0, 1)))

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            Instance(p=((1,),), release=((4, 2),))

    def test_rejects_negative_release(self):
        with pytest.raises(ValueError):
            Instance(p=((1,),), release=((-1, 2),))

    def test_rejects_ragged_matrix(self):
        with pytest.raises(ValueError):
            Instance(p=((1, 2), (3,)), release=((0, 1), (0, 1)))

    def test_allows_deterministic_intervals(self):
        inst = Instance(p=((2,),), release=((3, 3),))
        assert inst.release == ((3, 3),)

    @pytest.mark.parametrize("p, hi", [(2**62, 1), (2**61, 1), (2**60 - 1, 2)])
    def test_rejects_values_the_int64_kernels_would_wrap(self, p, hi):
        # with p = 2**61 the scaled lb1 once wrapped to a relaxed regret of
        # 3 * 2**60 where the exact value is 2**61
        with pytest.raises(ValueError, match="2\\*\\*62"):
            Instance(p=((p, p), (p, p)), release=((0, hi), (0, hi)))

    def test_scores_exactly_just_below_the_int64_limit(self):
        p, hi = 2**59, 2**60 - 2**59 - 2**58
        inst = Instance(p=((p, p), (p, p - 1)), release=((0, hi), (hi, hi)))
        assert 2 * (hi + 2 * p) < 2**62
        schedule = Schedule(machines=((0, 1), ()))
        terms = {}
        for j in range(2):
            r = [lo for lo, _ in inst.release]
            r[j] = inst.release[j][1]
            bound = max(lb(r, inst.p) for lb in (brute_lb1, brute_lb2, brute_lb3))
            terms[j] = brute_makespan(schedule.machines, inst.p, r) - bound
        assert relaxed_regret(schedule, inst).per_scenario == terms

    def test_shape_properties(self, two_machine_instance):
        assert two_machine_instance.n == 2
        assert two_machine_instance.m == 2


class TestValidateSchedule:
    def test_complete_permutation_ok(self):
        inst = Instance(p=((3, 4),), release=((0, 0), (0, 0)))
        assert validate_schedule(Schedule(machines=((0, 1),)), inst) is None

    def test_duplicate_job(self):
        inst = Instance(p=((3, 4),), release=((0, 0), (0, 0)))
        violation = validate_schedule(Schedule(machines=((0, 0),)), inst)
        assert violation.kind == "duplicate-job"
        assert violation.job == 0
        assert "job 1" in violation.message  # messages label 1-based

    def test_missing_job(self):
        inst = Instance(p=((3, 4), (3, 4)), release=((0, 0), (0, 0)))
        violation = validate_schedule(Schedule(machines=((0,), ())), inst)
        assert violation.kind == "missing-job"
        assert violation.job == 1

    def test_machine_count_mismatch(self):
        inst = Instance(p=((3, 4),), release=((0, 0), (0, 0)))
        violation = validate_schedule(Schedule(machines=((0, 1), ())), inst)
        assert violation.kind == "machine-count"

    def test_job_out_of_range(self):
        inst = Instance(p=((3, 4),), release=((0, 0), (0, 0)))
        violation = validate_schedule(Schedule(machines=((0, 5),)), inst)
        assert violation.kind == "job-out-of-range"
        assert violation.job == 5


class TestCompletionProfile:
    def test_chain_without_waiting(self):
        inst = Instance(p=((3, 4),), release=((0, 0), (0, 0)))
        profile = completion_profile(
            Schedule(machines=((0, 1),)), Scenario(r=(0, 0)), inst
        )
        assert profile.completions == ((3, 7),)
        assert profile.makespan == 7

    def test_chain_waits_for_release(self, hill_instance):
        profile = completion_profile(
            Schedule(machines=((1, 0),)), Scenario(r=(10, 0)), hill_instance
        )
        assert profile.completions == ((4, 13),)
        assert profile.makespan == 13

    def test_parallel_machines(self, two_machine_instance):
        profile = completion_profile(
            Schedule(machines=((0,), (1,))),
            Scenario(r=(2, 3)),
            two_machine_instance,
        )
        assert profile.makespan == 9

    def test_empty_machine_contributes_zero(self):
        inst = Instance(p=((2,), (9,)), release=((1, 1),))
        profile = completion_profile(
            Schedule(machines=((0,), ())), Scenario(r=(1,)), inst
        )
        assert profile.completions == ((3,), ())
        assert profile.makespan == 3

    def test_rejects_invalid_schedule(self, hill_instance):
        with pytest.raises(InvalidScheduleError):
            completion_profile(
                Schedule(machines=((0, 0),)), Scenario(r=(0, 0)), hill_instance
            )

    def test_matches_brute_force(self, rng):
        for _ in range(60):
            inst = random_instance(rng, rng.randint(1, 6), rng.randint(1, 3))
            schedule = random_valid_schedule(rng, inst)
            r = [rng.randint(lo, hi) for lo, hi in inst.release]
            expected = brute_makespan(
                [list(seq) for seq in schedule.machines], inst.p, r
            )
            assert makespan(schedule, Scenario(r=tuple(r)), inst) == expected

    @pytest.mark.parametrize("dataset", ["DS1", "DS2"])
    @pytest.mark.parametrize("n", [500, 1000])
    @pytest.mark.parametrize("m", [1, 5, 20])
    def test_matches_scalar_chain_at_scale(self, dataset, n, m):
        inst = generate(params_for_dataset(dataset, n, m), n + m)
        rng = random.Random(n * m)
        schedules = [pm(inst), random_schedule(inst, m)]
        if m > 1:  # machine 0 left empty
            schedules.append(Schedule(
                machines=((),) + tuple(tuple(range(i, n, m - 1)) for i in range(m - 1))
            ))
        scenarios = [
            lower_scenario(inst),
            Scenario(r=inst.release_hi.tolist()),
            Scenario(r=tuple(rng.randint(lo, hi) for lo, hi in inst.release)),
        ]
        for schedule in schedules:
            for scenario in scenarios:
                assert completion_profile(
                    schedule, scenario, inst
                ) == reference_completion_profile(schedule, scenario, inst)


class TestRegret:
    def test_zero_for_optimal_reference(self, hill_instance):
        assert regret(
            Schedule(machines=((1, 0),)), Scenario(r=(10, 0)), hill_instance, 13
        ) == 0

    def test_positive_gap(self, hill_instance):
        # the other order finishes at 17 while the optimum is 13
        assert regret(
            Schedule(machines=((0, 1),)), Scenario(r=(10, 0)), hill_instance, 13
        ) == 4

    def test_negative_left_unclamped(self, hill_instance):
        assert regret(
            Schedule(machines=((1, 0),)), Scenario(r=(10, 0)), hill_instance, 15
        ) == -2


class TestExtremeScenarios:
    def test_single_raise(self):
        inst = Instance(
            p=((1, 1, 1),), release=((1, 5), (2, 8), (0, 3))
        )
        assert extreme_scenario(inst, 1).r == (1, 8, 0)

    def test_degenerate_intervals(self):
        inst = Instance(p=((1, 1),), release=((0, 0), (0, 0)))
        assert extreme_scenario(inst, 0).r == (0, 0)

    def test_first_job(self):
        inst = Instance(p=((1, 1),), release=((0, 10), (0, 0)))
        assert extreme_scenario(inst, 0).r == (10, 0)

    def test_out_of_range(self):
        inst = Instance(p=((1,),), release=((0, 1),))
        with pytest.raises(IndexError):
            extreme_scenario(inst, 1)

    def test_family_size_and_lower(self):
        inst = Instance(p=((1, 1, 1),), release=((0, 1), (2, 3), (4, 5)))
        family = extreme_scenarios(inst)
        assert len(family) == 3
        assert lower_scenario(inst).r == (0, 2, 4)


class TestCoveredJobs:
    def test_long_predecessor_covers(self):
        inst = Instance(p=((10, 2),), release=((0, 0), (3, 8)))
        assert covered_jobs(Schedule(machines=((0, 1),)), inst) == {1}

    def test_short_predecessor_does_not_cover(self, hill_instance):
        assert covered_jobs(Schedule(machines=((1, 0),)), hill_instance) == frozenset()

    def test_first_positions_never_covered(self):
        inst = Instance(p=((5, 5), (5, 5)), release=((0, 0), (0, 0)))
        assert covered_jobs(Schedule(machines=((0,), (1,))), inst) == frozenset()

    def test_effective_scenarios_drop_covered(self):
        inst = Instance(p=((10, 2, 3),), release=((0, 0), (3, 8), (20, 30)))
        schedule = Schedule(machines=((0, 1, 2),))
        assert covered_jobs(schedule, inst) == {1}
        pairs = effective_scenarios(schedule, inst)
        assert [j for j, _ in pairs] == [0, 2]
        assert pairs[1][1].r == (0, 3, 30)

    def test_effective_scenarios_keep_all_when_none_covered(self):
        inst = Instance(p=((1, 1, 1),), release=((0, 4), (0, 4), (0, 4)))
        pairs = effective_scenarios(Schedule(machines=((0, 1, 2),)), inst)
        assert [j for j, _ in pairs] == [0, 1, 2]

    def test_single_job(self):
        inst = Instance(p=((5,),), release=((0, 4),))
        pairs = effective_scenarios(Schedule(machines=((0,),)), inst)
        assert pairs == [(0, Scenario(r=(4,)))]


class TestRegretUpperBound:
    def test_two_job_bound(self, hill_instance):
        # raising job 1: makespan 13 vs floor 13; raising job 2: 7 vs 4
        assert regret_upper_bound(
            Schedule(machines=((1, 0),)), hill_instance
        ) == 3

    def test_single_job(self):
        inst = Instance(p=((5,),), release=((0, 4),))
        assert regret_upper_bound(Schedule(machines=((0,),)), inst) == 0

    def test_deterministic_intervals_nonnegative(self, rng):
        for _ in range(20):
            inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 2),
                                   width_max=0)
            schedule = random_valid_schedule(rng, inst)
            assert regret_upper_bound(schedule, inst) >= 0


class TestRelabeling:
    def test_makespan_invariant_under_job_relabeling(self, rng):
        for _ in range(30):
            n, m = rng.randint(2, 6), rng.randint(1, 3)
            inst = random_instance(rng, n, m)
            schedule = random_valid_schedule(rng, inst)
            r = [rng.randint(lo, hi) for lo, hi in inst.release]
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = relabel_jobs(inst, perm)
            new_machines = tuple(
                tuple(perm[j] for j in seq) for seq in schedule.machines
            )
            new_r = [0] * n
            for j, target in enumerate(perm):
                new_r[target] = r[j]
            assert makespan(schedule, Scenario(r=tuple(r)), inst) == makespan(
                Schedule(machines=new_machines),
                Scenario(r=tuple(new_r)),
                relabeled,
            )
