"""Property-based checks over randomly drawn small instances."""
from hypothesis import given, settings, strategies as st

from robust_sched import (
    Instance,
    Scenario,
    Schedule,
    exact_worst_case_regret,
    lb_combined,
    makespan,
    optimal_makespan,
    pm,
    pr,
    pre,
    regret_upper_bound,
    relaxed_regret,
    validate_schedule,
)

from _reference import relabel_jobs


@st.composite
def instances(draw, max_jobs=5, max_machines=3):
    n = draw(st.integers(1, max_jobs))
    m = draw(st.integers(1, max_machines))
    p = tuple(
        tuple(draw(st.integers(1, 15)) for _ in range(n)) for _ in range(m)
    )
    release = []
    for _ in range(n):
        lo = draw(st.integers(0, 12))
        release.append((lo, lo + draw(st.integers(0, 8))))
    return Instance(p=p, release=tuple(release))


@st.composite
def instance_and_schedule(draw, **kwargs):
    inst = draw(instances(**kwargs))
    assignment = [draw(st.integers(0, inst.m - 1)) for _ in range(inst.n)]
    machines = [[] for _ in range(inst.m)]
    for job, machine in enumerate(assignment):
        machines[machine].append(job)
    shuffled = tuple(
        tuple(draw(st.permutations(seq))) if len(seq) > 1 else tuple(seq)
        for seq in machines
    )
    return inst, Schedule(machines=shuffled)


@st.composite
def instance_schedule_scenario(draw, **kwargs):
    inst, schedule = draw(instance_and_schedule(**kwargs))
    r = tuple(draw(st.integers(lo, hi)) for lo, hi in inst.release)
    return inst, schedule, Scenario(r=r)


@given(instance_schedule_scenario())
@settings(max_examples=60, deadline=None)
def test_raising_one_release_date_never_shrinks_the_makespan(case):
    inst, schedule, scenario = case
    base = makespan(schedule, scenario, inst)
    for job in range(inst.n):
        hi = inst.release[job][1]
        if scenario.r[job] == hi:
            continue
        raised = list(scenario.r)
        raised[job] = hi
        assert makespan(schedule, Scenario(r=tuple(raised)), inst) >= base


@given(instance_schedule_scenario())
@settings(max_examples=40, deadline=None)
def test_bounds_never_exceed_the_optimum(case):
    inst, _, scenario = case
    report = lb_combined(scenario, inst)
    optimum = optimal_makespan(inst, scenario).makespan
    assert report.combined <= optimum
    assert report.lb_avg <= report.lb2


@given(instance_and_schedule())
@settings(max_examples=30, deadline=None)
def test_regret_sandwich(case):
    inst, schedule = case
    exact = exact_worst_case_regret(schedule, inst)
    assert 0 <= exact.value <= regret_upper_bound(schedule, inst)
    assert exact.value <= relaxed_regret(schedule, inst).value


@given(instances(max_jobs=6, max_machines=3))
@settings(max_examples=40, deadline=None)
def test_heuristics_emit_valid_deterministic_schedules(inst):
    for algorithm in (pm, pr, pre):
        schedule = algorithm(inst)
        assert validate_schedule(schedule, inst) is None
        assert algorithm(inst) == schedule


@given(instance_and_schedule(max_jobs=4, max_machines=2), st.randoms())
@settings(max_examples=25, deadline=None)
def test_relabeling_jobs_preserves_regret_values(case, pyrandom):
    inst, schedule = case
    perm = list(range(inst.n))
    pyrandom.shuffle(perm)
    relabeled_inst = relabel_jobs(inst, perm)
    relabeled_schedule = Schedule(
        machines=tuple(tuple(perm[j] for j in seq) for seq in schedule.machines)
    )
    assert (
        relaxed_regret(schedule, inst).value
        == relaxed_regret(relabeled_schedule, relabeled_inst).value
    )
    assert (
        exact_worst_case_regret(schedule, inst).value
        == exact_worst_case_regret(relabeled_schedule, relabeled_inst).value
    )
