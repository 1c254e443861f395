"""Workload ``oracle-desk``: the exact oracle at desk scale.

Small instances within the default ``OracleLimits`` (n 6-8, m 2-3) go
through every exact query: the optimal makespans of an instance's extreme
scenarios (one operation per instance), ``exact_worst_case_regret`` of the
``pm``, ``pr``, ``pre`` and a random schedule, and, at n <= 7,
``grid_regret`` on the two-point grid and ``exhaustive_min_regret``. The
oracle's pure-Python depth-first searches do almost all of the work; numpy
runs only in the per-call suffix bounds and the grid's scenario batches.

Four budgeted calls run on fixed instances (n = 15 and 20, m = 4) whose
searches outlast the budget. Each ``optimal_makespan`` call starts its own
deadline, and ``exhaustive_min_regret`` starts another after them, so a
budgeted ``exact_worst_case_regret`` or ``exhaustive_min_regret`` runs for
several budgets. An
operation whose wall time exceeds ``BUDGET_S`` by more than ``SLACK`` counts
as failed; today all four fail on every round.
"""
from __future__ import annotations

import itertools
import random

import reference
from robust_sched import datagen, heuristics, model, oracle

SIZES = (6, 7, 8)
MACHINES = (2, 3)
REPEATS = 4
GRID_MAX_JOBS = 7
# at n = 8 one exhaustive search takes 1.4 s to 3.4 s depending on the seed:
# too long to run enough of them in a round for a steady total
EXHAUSTIVE_MAX_JOBS = 7
GRID_POINTS = 2
BUDGET_S = 0.02
SLACK = 1.0  # share of the budget a budgeted call may overrun
DOMINANT_JOBS = 20
BUDGET_LIMITS = oracle.OracleLimits(
    max_jobs=DOMINANT_JOBS, max_machines=4, time_budget=BUDGET_S
)
FREE_LIMITS = oracle.OracleLimits(max_jobs=DOMINANT_JOBS, max_machines=4)
UNREPEATABLE = frozenset({"budget-exact", "budget-exh"})


def hard_jobs(rng: random.Random, n: int, m: int):
    """Jobs fastest on machine 0, so the combined bound is weak and the
    search long; every release interval starts in [0, 10]."""
    p = [[rng.randint(8, 12) for _ in range(n)]]
    p += [[rng.randint(30, 60) for _ in range(n)] for _ in range(m - 1)]
    release = []
    for _ in range(n):
        lo = rng.randint(0, 10)
        release.append((lo, lo + rng.randint(0, 40)))
    return p, release


def hard_instance():
    p, release = hard_jobs(random.Random(1), 15, 4)
    return model.Instance(p=p, release=release)


def dominant_instance(seed: int):
    """Hard jobs plus one job released, at the earliest, after all other
    work can have ended, which makes the minimum worst-case regret 0."""
    p, release = hard_jobs(random.Random(seed), DOMINANT_JOBS - 1, 4)
    column = [10, 40, 40, 40]
    top = max(hi for _, hi in release) + sum(max(col) for col in zip(*p))
    for row, value in zip(p, column):
        row.append(value)
    release.append((top, top + 20))
    return model.Instance(p=p, release=release)


def desk_instances(seed: int) -> list:
    out = []
    for n, m, rep in itertools.product(SIZES, MACHINES, range(REPEATS)):
        params = datagen.GenParams(n=n, m=m, r_domain_hi=30, segments=2)
        out.append(datagen.generate(params, 100 * seed + rep))
    return out


def schedules_for(inst, seed: int) -> dict:
    full = heuristics.HeuristicConfig
    return {
        "pm": heuristics.pm(inst),
        "pr": heuristics.pr(inst, full(algorithm="pr")),
        "pre": heuristics.pre(inst, full(algorithm="pre")),
        "random": datagen.random_schedule(inst, seed),
    }


def extreme_optima(inst):
    return tuple(
        oracle.optimal_makespan(inst, model.extreme_scenario(inst, j))
        for j in range(inst.n)
    )


def setup(seed: int, workdir) -> dict:
    instances = desk_instances(seed)
    schedules = [schedules_for(inst, seed) for inst in instances]
    hard = hard_instance()
    warm, warm_schedule = instances[0], schedules[0]["pm"]
    extreme_optima(warm)
    oracle.exact_worst_case_regret(warm_schedule, warm)
    oracle.grid_regret(warm_schedule, warm, GRID_POINTS)
    oracle.exhaustive_min_regret(warm)
    return {
        "seed": seed,
        "instances": instances,
        "schedules": schedules,
        "hard": hard,
        "hard_schedules": {
            "pm": heuristics.pm(hard),
            "random": datagen.random_schedule(hard, 0),
        },
        "dominant": [dominant_instance(2), dominant_instance(3)],
    }


def operations(state: dict) -> list:
    ops = []
    for idx, inst in enumerate(state["instances"]):
        schedules = state["schedules"][idx]
        ops.append((("optima", idx), lambda i=inst: extreme_optima(i)))
        for name, s in schedules.items():
            ops.append(
                (("exact", idx, name),
                 lambda s=s, i=inst: oracle.exact_worst_case_regret(s, i))
            )
        if inst.n <= GRID_MAX_JOBS:
            ops.append(
                (("grid", idx),
                 lambda s=schedules["random"], i=inst: oracle.grid_regret(s, i, GRID_POINTS))
            )
        if inst.n <= EXHAUSTIVE_MAX_JOBS:
            ops.append(
                (("exhaustive", idx), lambda i=inst: oracle.exhaustive_min_regret(i))
            )
    hard = state["hard"]
    for name, s in state["hard_schedules"].items():
        ops.append(
            (("budget-exact", name),
             lambda s=s: oracle.exact_worst_case_regret(s, hard, BUDGET_LIMITS))
        )
    for k, inst in enumerate(state["dominant"]):
        ops.append(
            (("budget-exh", k),
             lambda i=inst: oracle.exhaustive_min_regret(i, BUDGET_LIMITS))
        )
    return ops


def failed(state, key, output, seconds) -> bool:
    return key[0] in UNREPEATABLE and seconds > BUDGET_S * (1.0 + SLACK)


def per_layer(state, latency) -> dict:
    """``oracle.budget_overrun``: the largest elapsed / budget of a budgeted
    operation, each of which is one budgeted call."""
    worst = max(max(v) for k, v in latency.items() if k[0] in UNREPEATABLE)
    return {"oracle.budget_overrun": (worst / BUDGET_S, "ratio")}


def check(state: dict, first: dict, varying: dict) -> list[str]:
    problems = []
    for idx, inst in enumerate(state["instances"]):
        problems += check_desk(idx, inst, state["schedules"][idx], first)
    problems += check_budgeted(state, varying)
    return problems


def check_desk(idx, inst, schedules, first) -> list[str]:
    p, m = inst.p, inst.m
    lo = [a for a, _ in inst.release]
    hi = [b for _, b in inst.release]
    fastest = reference.min_proc(p)
    releases = [reference.extreme_release(lo, hi, j) for j in range(inst.n)]
    optima = reference.optimal_makespans(p, releases)

    def exact(machines) -> int:
        return max(
            reference.chain_makespan(machines, p, r) - opt
            for r, opt in zip(releases, optima)
        )

    problems = []
    for j, result in enumerate(first[("optima", idx)]):
        if not result.certified or result.makespan != optima[j]:
            problems.append(
                f"instance {idx}, job {j}: optimal makespan {result.makespan} "
                f"(certified {result.certified}), enumeration {optima[j]}"
            )
        if result.makespan < reference.combined_bound(releases[j], fastest, m):
            problems.append(f"instance {idx}, job {j}: optimum below the combined bound")
        if not reference.jobs_once(result.schedule.machines, inst.n, m) or (
            reference.chain_makespan(result.schedule.machines, p, releases[j])
            != result.makespan
        ):
            problems.append(f"instance {idx}, job {j}: optimal schedule does not attain it")

    expected = {name: exact(s.machines) for name, s in schedules.items()}
    for name, s in schedules.items():
        report = first[("exact", idx, name)]
        relaxed = reference.relaxed_regret(s.machines, p, lo, hi)
        if not report.certified or report.value != expected[name]:
            problems.append(
                f"instance {idx}, {name}: exact regret {report.value} "
                f"(certified {report.certified}), enumeration {expected[name]}"
            )
        if not relaxed >= report.value >= 0:
            problems.append(
                f"instance {idx}, {name}: not relaxed {relaxed} >= exact {report.value} >= 0"
            )
    if ("grid", idx) in first:
        value = first[("grid", idx)].value
        if value != first[("exact", idx, "random")].value:
            problems.append(f"instance {idx}: grid regret {value} != exact regret")

    if ("exhaustive", idx) not in first:
        return problems
    best = first[("exhaustive", idx)]
    if not best.certified or best.regret > min(expected.values()):
        problems.append(
            f"instance {idx}: exhaustive regret {best.regret} (certified "
            f"{best.certified}) above a tried schedule's {min(expected.values())}"
        )
    if not reference.jobs_once(best.schedule.machines, inst.n, m) or (
        exact(best.schedule.machines) != best.regret
    ):
        problems.append(f"instance {idx}: exhaustive schedule does not attain its regret")
    return problems


def check_budgeted(state: dict, varying: dict) -> list[str]:
    """Every distinct budgeted output. A certified result equals the
    unbudgeted one. Cut short, an optimal makespan is an incumbent, at least
    the optimum, so an uncertified exact regret is at most the unbudgeted
    one and an uncertified minimum regret at most the exact regret of its
    own schedule (it may even fall below the true minimum)."""
    hard = state["hard"]
    unbudgeted = {
        name: oracle.exact_worst_case_regret(s, hard, FREE_LIMITS).value
        for name, s in state["hard_schedules"].items()
    }
    problems = []
    for name, limit in unbudgeted.items():
        for output in varying[("budget-exact", name)]:
            if output.value > limit or (output.certified and output.value != limit):
                problems.append(
                    f"budget-exact {name}: {output.value} (certified "
                    f"{output.certified}), unbudgeted {limit}"
                )
    for k, inst in enumerate(state["dominant"]):
        lo = [a for a, _ in inst.release]
        hi = [b for _, b in inst.release]
        d = reference.dominant_job(inst.p, lo, hi)
        if d is None:
            problems.append(f"budget instance {k} has no dominant job")
            continue
        # every other job can end before the dominant one is released, so
        # each scenario's optimum is its release plus its fastest time
        fastest = reference.min_proc(inst.p)
        releases = [reference.extreme_release(lo, hi, t) for t in range(inst.n)]

        def exact(machines) -> int:
            return max(
                reference.chain_makespan(machines, inst.p, r) - (r[d] + fastest[d])
                for r in releases
            )

        if exact(heuristics.pm(inst).machines) != 0:
            problems.append(f"budget instance {k}: pm does not reach regret 0")
        for output in varying[("budget-exh", k)]:
            machines = output.schedule.machines
            if not reference.jobs_once(machines, inst.n, inst.m):
                problems.append(f"budget-exh {k}: schedule does not list every job once")
                continue
            regret = exact(machines)
            if output.regret > regret or (
                output.certified and (output.regret != 0 or regret != 0)
            ):
                problems.append(
                    f"budget-exh {k}: {output.regret} (certified "
                    f"{output.certified}), its schedule's exact regret {regret}, "
                    "minimum 0"
                )
    return problems
