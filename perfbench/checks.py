"""Output checks shared by the ``sweep`` and ``evaluate-large`` workloads."""
from __future__ import annotations

import reference
from robust_sched import model


def relaxed_report_problems(key, inst, schedule, report, sample) -> list[str]:
    """A valid schedule, and a relaxed report that is the max of its terms,
    at least 0, whose makespans and combined bounds match the chain rule and
    the bound definitions on the sampled extreme scenarios."""
    if not reference.jobs_once(schedule.machines, inst.n, inst.m):
        return [f"{key}: schedule does not list every job once"]
    problems = []
    terms = report.per_scenario
    if len(terms) != inst.n or report.value != max(terms.values()):
        problems.append(f"{key}: relaxed report is not the max over all jobs")
    if report.value < 0:
        problems.append(f"{key}: negative relaxed regret {report.value}")
    lo = [a for a, _ in inst.release]
    hi = [b for _, b in inst.release]
    fastest = reference.min_proc(inst.p)
    makespans = model.extreme_makespans(schedule, inst)
    for j in sample:
        release = reference.extreme_release(lo, hi, j)
        makespan = reference.chain_makespan(schedule.machines, inst.p, release)
        bound = reference.combined_bound(release, fastest, inst.m)
        if makespans[j] != makespan:
            problems.append(
                f"{key}: makespan under scenario {j} is {makespans[j]}, "
                f"chain rule {makespan}"
            )
        if makespans[j] - terms[j] != bound:
            problems.append(
                f"{key}: bound under scenario {j} is {makespans[j] - terms[j]}, "
                f"definition {bound}"
            )
    return problems
