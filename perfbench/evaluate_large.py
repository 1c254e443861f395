"""Workload ``evaluate-large``: scoring fixed schedules at n = 1000 and 2000.

Schedules (``pm`` and random ones) and input files are made during set-up,
so no heuristic runs in the timed section. One operation scores one
schedule: ``relaxed_regret`` over all extreme scenarios and over the
effective ones only, ``regret_upper_bound`` and ``effective_scenarios``.
Other operations go through ``robust-sched evaluate --mode relaxed`` in
process, on the files, so they re-read the instance every time. The n x n
extreme-bound matrix dominates and does not fit in cache, so ``bounds`` and
``model`` do almost all of the work.

A handful of fixed 2-job instances with processing times near 2**62 are
scored too and compared with an exact ``Fraction`` recomputation. Today the
int64 scaling by m wraps silently on every one of them, and each counts as
a failed operation; an ``Instance`` that refuses them with ``ValueError``
makes them pass.
"""
from __future__ import annotations

import contextlib
import io as text_io
import json
import random

import checks
import reference
from robust_sched import bounds, cli, datagen, heuristics, model
from robust_sched import io as rs_io

# every dataset, size and machine count twice, in four instances
CELLS = (("DS1", 1000, 5), ("DS1", 2000, 20), ("DS2", 1000, 20), ("DS2", 2000, 5))
RANDOM_SCHEDULES = 2
SAMPLED_SCENARIOS = 4

_B = 2**62
# (p, release intervals, machine sequences); none depends on the seed
INT64_CASES = (
    (((_B, _B), (_B, _B)), ((0, 1), (0, 1)), ((0, 1), ())),
    (((_B, _B), (_B, _B)), ((0, 0), (1, 2)), ((1, 0), ())),
    (((_B, _B), (_B, _B)), ((0, 5), (2, 3)), ((), (0, 1))),
    (((_B - 1, _B), (_B, _B + 3)), ((0, 0), (1, 2)), ((1, 0), ())),
)


def evaluate(schedule, inst):
    relaxed = bounds.relaxed_regret(schedule, inst)
    effective = bounds.relaxed_regret(schedule, inst, effective_only=True)
    upper = model.regret_upper_bound(schedule, inst)
    scenarios = model.effective_scenarios(schedule, inst)
    return relaxed, effective, upper, [(j, s.r[j]) for j, s in scenarios]


def evaluate_cli(paths) -> tuple[int, str]:
    argv = ["evaluate", "--instance", paths[0], "--schedule", paths[1],
            "--mode", "relaxed", "--out", paths[2]]
    captured = text_io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    return code, captured.getvalue()


def score_int64(case):
    p, release, machines = case
    try:
        inst = model.Instance(p=p, release=release)
    except ValueError:
        return "refused"
    return bounds.relaxed_regret(model.Schedule(machines=machines), inst).value


def write_inputs(workdir, name, inst, schedule) -> tuple[str, str, str]:
    paths = tuple(str(workdir / f"{name}-{kind}.json")
                  for kind in ("instance", "schedule", "report"))
    rs_io.write_json(paths[0], rs_io.instance_to_dict(inst))
    rs_io.write_json(paths[1], rs_io.schedule_to_dict(schedule))
    return paths


def setup(seed: int, workdir) -> dict:
    instances, schedules, files = {}, {}, {}
    for cell in CELLS:
        dataset, n, m = cell
        inst = datagen.generate(datagen.params_for_dataset(dataset, n, m), seed)
        instances[cell] = inst
        schedules[cell, "pm"] = heuristics.pm(inst)
        for k in range(RANDOM_SCHEDULES):
            schedules[cell, f"random{k}"] = datagen.random_schedule(
                inst, 1000 * seed + k
            )
        files[cell] = write_inputs(
            workdir, "-".join(map(str, cell)), inst, schedules[cell, "pm"]
        )
    warm = datagen.generate(datagen.params_for_dataset("DS1", 100, 5), seed)
    warm_schedule = heuristics.pm(warm)
    evaluate(warm_schedule, warm)
    evaluate_cli(write_inputs(workdir, "warm", warm, warm_schedule))
    return {
        "seed": seed,
        "instances": instances,
        "schedules": schedules,
        "files": files,
        "exact_int64": [exact_int64(case) for case in INT64_CASES],
    }


def exact_int64(case):
    p, release, machines = case
    lo = [a for a, _ in release]
    hi = [b for _, b in release]
    return reference.relaxed_regret(machines, p, lo, hi)


def operations(state: dict) -> list:
    ops = []
    for (cell, name), schedule in state["schedules"].items():
        inst = state["instances"][cell]
        ops.append((("eval", name) + cell, lambda s=schedule, i=inst: evaluate(s, i)))
    for cell, paths in state["files"].items():
        ops.append((("cli",) + cell, lambda f=paths: evaluate_cli(f)))
    for k, case in enumerate(INT64_CASES):
        ops.append((("int64", k), lambda c=case: score_int64(c)))
    return ops


def failed(state, key, output, seconds) -> bool:
    if key[0] != "int64":
        return False
    return output != "refused" and output != state["exact_int64"][key[1]]


def check(state: dict, first: dict, varying: dict) -> list[str]:
    rng = random.Random(state["seed"])
    problems = []
    for key, output in first.items():
        if key[0] == "eval":
            cell = key[2:]
            problems += check_eval(
                key, state["instances"][cell], state["schedules"][cell, key[1]],
                output, rng,
            )
        elif key[0] == "cli":
            cell = key[1:]
            problems += check_cli(
                key, output, first[("eval", "pm") + cell][0],
                state["files"][cell][2], state["instances"][cell].n,
            )
    return problems


def check_eval(key, inst, schedule, output, rng) -> list[str]:
    relaxed, effective, upper, scenarios = output
    p = inst.p
    lo = [a for a, _ in inst.release]
    hi = [b for _, b in inst.release]
    terms = relaxed.per_scenario
    worst = max(terms, key=terms.get)
    sample = sorted({worst, *rng.sample(range(inst.n), SAMPLED_SCENARIOS)})
    problems = checks.relaxed_report_problems(key, inst, schedule, relaxed, sample)
    if problems:
        return problems

    skip = reference.covered(schedule.machines, p, lo, hi)
    uncovered = [j for j in range(inst.n) if j not in skip]
    if sorted(effective.per_scenario) != uncovered:
        problems.append(f"{key}: effective_only kept the wrong scenarios")
    elif any(effective.per_scenario[j] != terms[j] for j in uncovered):
        problems.append(f"{key}: effective_only changed a term")
    if scenarios != [(j, hi[j]) for j in uncovered]:
        problems.append(f"{key}: effective_scenarios disagrees with the reference")
    expected_upper = reference.regret_upper_bound(schedule.machines, p, lo, hi)
    if upper != expected_upper:
        problems.append(f"{key}: regret_upper_bound {upper}, reference {expected_upper}")
    if effective.value > upper:
        problems.append(
            f"{key}: effective relaxed regret {effective.value} > upper bound {upper}"
        )
    return problems


def check_cli(key, output, library_report, out_path, n) -> list[str]:
    code, text = output
    if code != 0:
        return [f"{key}: evaluate exited with {code}"]
    document = json.loads(text)
    problems = []
    if document != rs_io.regret_report_to_dict(library_report):
        problems.append(f"{key}: evaluate printed another report than the library")
    if len(document["perScenario"]) != n:
        problems.append(f"{key}: evaluate reported {len(document['perScenario'])} terms")
    with open(out_path, encoding="utf-8") as handle:
        if handle.read() != text:
            problems.append(f"{key}: --out file differs from the printed report")
    return problems

