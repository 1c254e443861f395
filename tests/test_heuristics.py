import random

import pytest

from robust_sched import (
    HeuristicConfig,
    Instance,
    build_schedule,
    detect_disjoint,
    detect_dominant_job,
    exact_worst_case_regret,
    pm,
    pr,
    pre,
    relaxed_regret,
    validate_schedule,
)
from robust_sched.heuristics import detect_spill

from _reference import reference_pm, reference_pr, reference_pre
from conftest import random_instance


def disjoint_instance(rng: random.Random, n: int, m: int) -> Instance:
    """Random instance with pairwise disjoint release intervals."""
    p = tuple(tuple(rng.randint(1, 9) for _ in range(n)) for _ in range(m))
    release = []
    edge = 0
    for _ in range(n):
        lo = edge + rng.randint(0, 3)
        hi = lo + rng.randint(0, 4)
        release.append((lo, hi))
        edge = hi + 1 + rng.randint(0, 2)
    order = list(range(n))
    rng.shuffle(order)
    shuffled = [release[k] for k in order]
    return Instance(p=p, release=tuple(shuffled))


def no_spill_disjoint_instance(rng: random.Random, n: int, m: int) -> Instance:
    """Disjoint intervals with gaps absorbing each job's slowest processing.

    After any job's interval there is room for its processing time on every
    machine before the next interval opens, so no completion can spill into a
    later job's release window. On this subfamily the zero-regret property of
    the availability-guided construction is provable; plain disjointness is
    not enough for it (see the spill-over regression tests).
    """
    p = [[rng.randint(1, 9) for _ in range(n)] for _ in range(m)]
    order = list(range(n))
    rng.shuffle(order)
    release: list[tuple[int, int] | None] = [None] * n
    edge = 0
    for job in order:
        lo = edge + rng.randint(0, 3)
        hi = lo + rng.randint(0, 4)
        release[job] = (lo, hi)
        edge = hi + max(p[i][job] for i in range(m)) + rng.randint(0, 2)
    return Instance(
        p=tuple(tuple(row) for row in p), release=tuple(release)
    )


# Disjoint intervals alone do not force a zero-regret construction: here the
# 19..22 job's processing spills past the 25..28 job's window, and no schedule
# at all reaches regret 0.
SPILLOVER_DISJOINT = Instance(
    p=((9, 7, 7, 5), (6, 4, 3, 7), (9, 5, 3, 4)),
    release=((19, 22), (25, 28), (3, 7), (11, 15)),
)

# The dominance test on the latest release alone is not enough either: job 0
# dominates by upper bound but may still be released at 0, where its order
# relative to job 1 matters.
WIDE_DOMINANT = Instance(p=((5, 2),), release=((0, 1000), (0, 1)))


def dominant_job_instance(rng: random.Random, n: int, m: int) -> Instance:
    """Random instance with one job released after all other work can end.

    The dominant job's whole interval starts past every other latest release
    plus the total of the slowest processing times, which is the regime the
    optimality argument needs (a bound on the latest release alone is not
    enough to pin the dominant job's position).
    """
    p = tuple(tuple(rng.randint(1, 9) for _ in range(n)) for _ in range(m))
    release = []
    for _ in range(n - 1):
        lo = rng.randint(0, 6)
        release.append((lo, lo + rng.randint(0, 5)))
    ceiling = max(hi for _, hi in release) if release else 0
    ceiling += sum(max(p[i][j] for i in range(m)) for j in range(n - 1))
    lo = ceiling + rng.randint(0, 4)
    release.append((lo, lo + rng.randint(0, 6)))
    return Instance(p=p, release=tuple(release))


# On one machine, pm's sequence is its placement order, so the first job of
# the sequence is the job its selection rule ranks first.


class TestAvailabilitySet:
    def test_disjoint_pair(self):
        # job 1 may precede job 0 but not the other way, so job 1 goes first
        inst = Instance(p=((2, 2),), release=((5, 6), (0, 1)))
        assert pm(inst).machines == ((1, 0),)

    def test_singleton(self):
        # jobs 1 and 2 may precede job 0; once job 1 is placed only job 2
        # is left ahead of job 0, which ties job 2 and wins on its index
        inst = Instance(p=((2, 2, 2),), release=((2, 4), (3, 3), (3, 3)))
        assert pm(inst).machines == ((1, 0, 2),)


class TestPmIndicator:
    def test_prefers_unobstructed_job(self):
        inst = Instance(p=((2, 2),), release=((0, 1), (5, 6)))
        assert pm(inst).machines == ((0, 1),)

    def test_full_tie_falls_to_lowest_index(self):
        inst = Instance(p=((3, 3, 3),), release=((0, 5),) * 3)
        assert pm(inst).machines == ((0, 1, 2),)

    def test_singleton(self):
        inst = Instance(p=((3,),), release=((0, 5),))
        assert pm(inst).machines == ((0,),)

    def test_load_tie_break(self):
        # equal availability counts; job 1 sees only the light job 0 ahead
        inst = Instance(p=((1, 9),), release=((0, 4), (1, 4)))
        assert pm(inst).machines == ((1, 0),)


class TestPm:
    def test_disjoint_instance_order(self):
        inst = Instance(p=((2, 2),), release=((0, 1), (5, 6)))
        schedule = pm(inst)
        assert schedule.machines == ((0, 1),)
        assert exact_worst_case_regret(schedule, inst).value == 0

    def test_single_job_fastest_machine(self):
        inst = Instance(p=((5,), (9,)), release=((0, 0),))
        assert pm(inst).machines == ((0,), ())

    def test_dominant_job_scheduled_last_on_fastest_machine(self, rng):
        for _ in range(15):
            inst = dominant_job_instance(rng, rng.randint(2, 5), rng.randint(1, 3))
            dominant = detect_dominant_job(inst)
            assert dominant == inst.n - 1
            schedule = pm(inst)
            machine, position = schedule.position[dominant]
            assert position == len(schedule.machines[machine]) - 1
            fastest = min(inst.p[i][dominant] for i in range(inst.m))
            assert inst.p[machine][dominant] == fastest
            assert exact_worst_case_regret(schedule, inst).value == 0

    def test_matches_reference(self, rng):
        for _ in range(50):
            inst = random_instance(rng, rng.randint(1, 7), rng.randint(1, 3))
            expected = reference_pm(inst.p, inst.release)
            assert [list(seq) for seq in pm(inst).machines] == expected

    def test_always_valid_and_deterministic(self, rng):
        for _ in range(20):
            inst = random_instance(rng, rng.randint(1, 8), rng.randint(1, 4))
            first, second = pm(inst), pm(inst)
            assert validate_schedule(first, inst) is None
            assert first == second


class TestPr:
    def test_single_job_matches_pm(self, rng):
        for _ in range(10):
            inst = random_instance(rng, 1, rng.randint(1, 3))
            assert pr(inst) == pm(inst)

    def test_matches_reference(self, rng):
        for _ in range(40):
            inst = random_instance(rng, rng.randint(1, 6), rng.randint(1, 3))
            expected = reference_pr(inst.p, inst.release)
            assert [list(seq) for seq in pr(inst).machines] == expected

    def test_short_mode_matches_reference(self, rng):
        for _ in range(30):
            inst = random_instance(rng, rng.randint(1, 6), rng.randint(1, 3))
            schedule = pr(inst, HeuristicConfig(algorithm="pr", bound_mode="short"))
            expected = reference_pr(inst.p, inst.release, short=True)
            assert [list(seq) for seq in schedule.machines] == expected

    def test_always_valid(self, rng):
        for _ in range(20):
            inst = random_instance(rng, rng.randint(1, 8), rng.randint(1, 4))
            assert validate_schedule(pr(inst), inst) is None


class TestPre:
    def test_single_job_matches_pm(self, rng):
        for _ in range(10):
            inst = random_instance(rng, 1, rng.randint(1, 3))
            assert pre(inst) == pm(inst)

    def test_matches_reference(self, rng):
        for _ in range(30):
            inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 3))
            expected = reference_pre(inst.p, inst.release)
            assert [list(seq) for seq in pre(inst).machines] == expected

    def test_short_mode_matches_reference(self, rng):
        for _ in range(20):
            inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 2))
            schedule = pre(inst, HeuristicConfig(algorithm="pre", bound_mode="short"))
            expected = reference_pre(inst.p, inst.release, short=True)
            assert [list(seq) for seq in schedule.machines] == expected

    def test_always_valid(self, rng):
        for _ in range(15):
            inst = random_instance(rng, rng.randint(1, 7), rng.randint(1, 3))
            assert validate_schedule(pre(inst), inst) is None


class TestGoldenSmallInstance:
    # fixed 4-job, 2-machine instance; schedules and regrets frozen after
    # cross-checking the exact values against the brute-force enumeration
    INSTANCE = Instance(
        p=((4, 9, 2, 7), (6, 3, 8, 5)),
        release=((0, 3), (1, 8), (2, 2), (5, 11)),
    )

    def test_frozen_schedules(self):
        assert pm(self.INSTANCE).machines == ((0, 2), (1, 3))
        assert pr(self.INSTANCE).machines == ((2, 0), (1, 3))
        assert pre(self.INSTANCE).machines == ((2, 0, 3), (1,))

    def test_frozen_regrets_bracket_the_optimum(self):
        from _brute import brute_min_regret, brute_worst_regret

        expected = {"pm": (5, 4), "pr": (5, 4), "pre": (5, 5)}
        for name, algo in (("pm", pm), ("pr", pr), ("pre", pre)):
            schedule = algo(self.INSTANCE)
            relaxed = relaxed_regret(schedule, self.INSTANCE)
            exact = exact_worst_case_regret(schedule, self.INSTANCE)
            assert (relaxed.value, exact.value) == expected[name]
            assert exact.value == brute_worst_regret(
                [list(seq) for seq in schedule.machines],
                self.INSTANCE.p,
                self.INSTANCE.release,
            )
        assert brute_min_regret(self.INSTANCE.p, self.INSTANCE.release) == 2


class TestConfig:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            HeuristicConfig(algorithm="tabu")

    def test_bound_mode_is_for_pr_and_pre_only(self):
        with pytest.raises(ValueError):
            HeuristicConfig(algorithm="pm", bound_mode="short")

    def test_dispatch(self, rng):
        inst = random_instance(rng, 5, 2)
        assert build_schedule(inst, HeuristicConfig(algorithm="pm")) == pm(inst)
        assert build_schedule(inst, HeuristicConfig(algorithm="pr")) == pr(inst)
        assert build_schedule(inst, HeuristicConfig(algorithm="pre")) == pre(inst)


class TestDetectors:
    def test_disjoint_examples(self):
        assert detect_disjoint(
            Instance(p=((1, 1),), release=((0, 1), (5, 6)))
        )
        # closed intervals sharing an endpoint are not disjoint
        assert not detect_disjoint(
            Instance(p=((1, 1),), release=((0, 5), (5, 6)))
        )
        assert detect_disjoint(Instance(p=((1,),), release=((0, 5),)))

    def test_dominant_job_examples(self):
        inst = Instance(
            p=((2, 3, 100),), release=((0, 1), (0, 2), (50, 60))
        )
        assert detect_dominant_job(inst) == 2
        equal = Instance(p=((2, 2),), release=((0, 5), (0, 5)))
        assert detect_dominant_job(equal) is None
        single = Instance(p=((7,),), release=((0, 3),))
        assert detect_dominant_job(single) == 0

    def test_dominant_job_prefers_largest_upper_bound(self):
        inst = Instance(
            p=((1, 1, 1),), release=((0, 0), (100, 200), (500, 900))
        )
        assert detect_dominant_job(inst) == 2

    def test_generated_disjoint_instances_detected(self, rng):
        for _ in range(20):
            inst = disjoint_instance(rng, rng.randint(1, 6), rng.randint(1, 3))
            assert detect_disjoint(inst)


class TestPolynomialCases:
    def test_no_spill_disjoint_instances_make_pm_optimal(self, rng):
        for _ in range(25):
            inst = no_spill_disjoint_instance(
                rng, rng.randint(2, 6), rng.randint(1, 3)
            )
            assert detect_disjoint(inst)
            assert not detect_spill(inst)
            assert exact_worst_case_regret(pm(inst), inst).value == 0

    def test_single_machine_disjoint_instances_make_pm_optimal(self, rng):
        # one machine forces release order everywhere, so plain disjointness
        # is already enough
        for _ in range(25):
            inst = disjoint_instance(rng, rng.randint(2, 6), 1)
            assert exact_worst_case_regret(pm(inst), inst).value == 0

    def test_spillover_breaks_the_disjoint_zero_regret_claim(self):
        from robust_sched import exhaustive_min_regret

        assert detect_disjoint(SPILLOVER_DISJOINT)
        assert detect_spill(SPILLOVER_DISJOINT)
        schedule = pm(SPILLOVER_DISJOINT)
        assert exact_worst_case_regret(schedule, SPILLOVER_DISJOINT).value == 2
        # not a construction artifact: no schedule reaches 0 here
        assert exhaustive_min_regret(SPILLOVER_DISJOINT).regret == 1

    def test_dominant_job_makes_pm_optimal(self, rng):
        for _ in range(25):
            inst = dominant_job_instance(rng, rng.randint(2, 6), rng.randint(1, 3))
            assert detect_dominant_job(inst) is not None
            assert exact_worst_case_regret(pm(inst), inst).value == 0

    def test_upper_bound_dominance_alone_is_not_enough(self):
        from robust_sched import exhaustive_min_regret

        assert detect_dominant_job(WIDE_DOMINANT) == 0
        schedule = pm(WIDE_DOMINANT)
        assert exact_worst_case_regret(schedule, WIDE_DOMINANT).value == 2
        assert exhaustive_min_regret(WIDE_DOMINANT).regret == 1
