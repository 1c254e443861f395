from fractions import Fraction

import numpy as np

from robust_sched import (
    Instance,
    Scenario,
    Schedule,
    lb1,
    lb2,
    lb3,
    lb_avg,
    lb_combined,
    relaxed_regret,
)
from robust_sched.oracle import exact_worst_case_regret

from _brute import (
    brute_lb1,
    brute_lb2,
    brute_lb3,
    brute_lb_avg,
    brute_optimal_makespan,
)
from _reference import reference_bound_components, reference_combined_rows
from conftest import random_instance, random_valid_schedule


def test_lb_avg_examples(two_machine_instance):
    assert lb_avg(Scenario(r=(2, 3)), two_machine_instance) == 7
    inst = Instance(p=((3, 4),), release=((0, 0), (0, 0)))
    assert lb_avg(Scenario(r=(0, 0)), inst) == 7
    single = Instance(p=((5,),), release=((2, 2),))
    assert lb_avg(Scenario(r=(2,)), single) == 7


def test_lb1_examples(two_machine_instance):
    assert lb1(Scenario(r=(2, 3)), two_machine_instance) == 9
    single = Instance(p=((5,),), release=((2, 2),))
    assert lb1(Scenario(r=(2,)), single) == 7
    units = Instance(p=((1, 1, 1),), release=((0, 0),) * 3)
    assert lb1(Scenario(r=(0, 0, 0)), units) == 1


def test_lb2_examples(two_machine_instance):
    # anchors: r=0 gives 0 + 15/2; r=10 gives 10 + 10/2; r=11 gives 11 + 5/2
    inst = Instance(
        p=((5, 5, 5), (5, 5, 5)), release=((0, 0), (10, 10), (11, 11))
    )
    assert lb2(Scenario(r=(0, 10, 11)), inst) == 15
    assert lb2(Scenario(r=(2, 3)), two_machine_instance) == 7
    single = Instance(p=((5,),), release=((2, 2),))
    assert lb2(Scenario(r=(2,)), single) == lb1(Scenario(r=(2,)), single)


def test_lb3_examples(two_machine_instance):
    assert lb3(Scenario(r=(2, 3)), two_machine_instance) == 9
    inst = Instance(p=((3, 4),), release=((0, 0), (0, 0)))
    assert lb3(Scenario(r=(0, 0)), inst) == 6
    single = Instance(p=((5,),), release=((2, 2),))
    assert lb3(Scenario(r=(2,)), single) == 7


def test_combined_examples(two_machine_instance, hill_instance):
    report = lb_combined(Scenario(r=(2, 3)), two_machine_instance)
    assert report.combined == 9
    assert brute_optimal_makespan(two_machine_instance.p, [2, 3]) == 9

    single = Instance(p=((5,),), release=((3, 3),))
    assert lb_combined(Scenario(r=(3,)), single).combined == 8

    report = lb_combined(Scenario(r=(10, 0)), hill_instance)
    assert report.lb1 == 13
    assert report.combined == 13
    assert brute_optimal_makespan(hill_instance.p, [10, 0]) == 13


def test_report_structure(two_machine_instance):
    report = lb_combined(Scenario(r=(2, 3)), two_machine_instance)
    assert report.combined == max(report.lb1, report.lb2, report.lb3)
    assert report.lb_avg <= report.lb2
    assert set(report.per_job) == {0, 1}
    assert max(avg for avg, _ in report.per_job.values()) == report.lb2
    assert max(batched for _, batched in report.per_job.values()) == report.lb3
    assert report.per_job[0] == (Fraction(7), 6)
    assert report.per_job[1] == (Fraction(6), 9)


def test_bounds_match_brute_force(rng):
    for _ in range(120):
        inst = random_instance(rng, rng.randint(1, 7), rng.randint(1, 4))
        r = [rng.randint(lo, hi) for lo, hi in inst.release]
        scenario = Scenario(r=tuple(r))
        assert lb_avg(scenario, inst) == brute_lb_avg(r, inst.p)
        assert lb1(scenario, inst) == brute_lb1(r, inst.p)
        assert lb2(scenario, inst) == brute_lb2(r, inst.p)
        assert lb3(scenario, inst) == brute_lb3(r, inst.p)


def test_bounds_with_tied_release_dates():
    # ties must share the whole anchor suffix, not split it by sort position
    inst = Instance(p=((1, 10),), release=((5, 5), (5, 5)))
    scenario = Scenario(r=(5, 5))
    assert lb2(scenario, inst) == brute_lb2([5, 5], inst.p) == 16
    assert lb3(scenario, inst) == brute_lb3([5, 5], inst.p) == 7


def test_scaled_rows_batch_agrees_with_single(rng):
    for _ in range(25):
        n, m = rng.randint(1, 6), rng.randint(1, 3)
        inst = random_instance(rng, n, m)
        rows = []
        for _ in range(4):
            rows.append([rng.randint(lo, hi) for lo, hi in inst.release])
        proc = np.tile(inst.min_proc, (4, 1))
        batch = reference_combined_rows(np.array(rows), proc, m)
        for row, scaled in zip(rows, batch):
            report = lb_combined(Scenario(r=tuple(row)), inst)
            assert Fraction(int(scaled), m) == report.combined


def test_scaled_components_validity(rng):
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 3))
        r = [rng.randint(lo, hi) for lo, hi in inst.release]
        avg_s, lb1_s, lb2_s, lb3_s = reference_bound_components(
            np.array([r]), inst.min_proc.reshape(1, -1), inst.m
        )
        optimum = brute_optimal_makespan(inst.p, r)
        for scaled in (avg_s[0], lb1_s[0], lb2_s[0], lb3_s[0]):
            assert int(scaled) <= inst.m * optimum
        assert avg_s[0] <= lb2_s[0]


class TestRelaxedRegret:
    def test_single_job_zero(self):
        inst = Instance(p=((5,),), release=((0, 4),))
        report = relaxed_regret(Schedule(machines=((0,),)), inst)
        assert report.value == 0
        assert report.scenario.r == (4,)

    def test_dominates_exact(self, rng):
        for _ in range(40):
            inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 2))
            schedule = random_valid_schedule(rng, inst)
            relaxed = relaxed_regret(schedule, inst)
            exact = exact_worst_case_regret(schedule, inst)
            assert relaxed.value >= exact.value

    def test_equals_exact_when_bounds_tight(self, hill_instance):
        # both extreme scenarios have combined bound equal to the optimum
        schedule = Schedule(machines=((1, 0),))
        relaxed = relaxed_regret(schedule, hill_instance)
        exact = exact_worst_case_regret(schedule, hill_instance)
        assert relaxed.value == exact.value == 0

    def test_effective_only_stays_a_valid_upper_bound(self, rng):
        # dropping covered scenarios can only shrink the relaxed value, and
        # the result still dominates the exact regret
        for _ in range(30):
            inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 2))
            schedule = random_valid_schedule(rng, inst)
            full = relaxed_regret(schedule, inst)
            pruned = relaxed_regret(schedule, inst, effective_only=True)
            exact = exact_worst_case_regret(schedule, inst)
            assert exact.value <= pruned.value <= full.value
            assert set(pruned.per_scenario) <= set(full.per_scenario)

    def test_per_scenario_terms(self, hill_instance):
        report = relaxed_regret(Schedule(machines=((0, 1),)), hill_instance)
        # raising job 0: makespan 17, bound 13 -> 4; raising job 1: 7 - 7 -> 0
        assert report.per_scenario == {0: 4, 1: 0}
        assert report.value == 4
        assert report.scenario.r == (10, 0)
