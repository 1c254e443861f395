"""Command-line surface.

Subcommands: ``generate`` (draw an instance file), ``solve`` (run a
constructive algorithm), ``evaluate`` (relaxed / exact / grid regret of a
schedule), ``bench`` (grid sweep to CSV), ``check`` (the property battery on
an enumeration-sized instance).

Exit code 0 means the requested operation fully succeeded; failures print a
one-line JSON diagnostic to stderr. Job and machine labels in log lines are
1-based; all file formats are 0-based (see :mod:`robust_sched.io`).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import io
from .bounds import lb_combined, relaxed_regret
from .datagen import (
    GenParams,
    generate,
    params_for_dataset,
    provenance,
    random_schedule,
)
from .heuristics import (
    HeuristicConfig,
    build_schedule,
    detect_disjoint,
    detect_dominant_job,
    pm,
)
from .model import (
    InfeasibleScenarioError,
    InvalidScheduleError,
    extreme_scenarios,
    lower_scenario,
    regret_upper_bound,
)
from .oracle import (
    GRID_SCENARIO_LIMIT,
    LimitExceededError,
    OracleLimits,
    exact_worst_case_regret,
    grid_regret,
    optimal_makespan,
)
from .experiments import (
    ExperimentSpec,
    render_markdown,
    rows_to_csv,
    run_benchmark,
)

_USER_ERRORS = (
    io.FormatError,
    InvalidScheduleError,
    InfeasibleScenarioError,
    LimitExceededError,
    ValueError,
    OSError,
)


def _fail(kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return 1


def _limits(args: argparse.Namespace) -> OracleLimits:
    return OracleLimits(
        max_jobs=args.max_jobs,
        max_machines=args.max_machines,
        time_budget=args.time_budget,
    )


def _gen_params(args: argparse.Namespace) -> GenParams:
    overrides = {}
    for name in ("p_lo", "p_hi", "r_domain_hi", "segments", "offset_lo", "offset_hi"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    dataset = args.dataset.lower()
    if dataset in ("ds1", "ds2"):
        base = params_for_dataset(dataset, args.n, args.m)
        return dataclasses.replace(base, **overrides) if overrides else base
    if dataset != "custom":
        raise ValueError(f"unknown dataset {args.dataset!r}")
    return GenParams(n=args.n, m=args.m, **overrides)


def cmd_generate(args: argparse.Namespace) -> int:
    params = _gen_params(args)
    inst = generate(params, args.seed)
    document = io.instance_to_dict(inst)
    document["provenance"] = provenance(params, args.seed)
    io.write_json(args.out, document)
    print(f"wrote {args.out}: {inst.n} jobs on {inst.m} machines")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    inst = io.read_instance(args.instance)
    config = HeuristicConfig(algorithm=args.algo, bound_mode=args.bound_mode)
    started = time.perf_counter()
    schedule = build_schedule(inst, config)
    wall_ms = (time.perf_counter() - started) * 1000.0
    report = relaxed_regret(schedule, inst)
    if args.out:
        io.write_json(args.out, io.schedule_to_dict(schedule))
    print(
        f"algorithm={args.algo} boundMode={config.bound_mode} "
        f"relaxedRegret={float(report.value)} wallMs={wall_ms:.3f}"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    inst = io.read_instance(args.instance)
    schedule = io.read_schedule(args.schedule)
    if args.mode == "relaxed":
        report = relaxed_regret(schedule, inst)
    elif args.mode == "exact":
        report = exact_worst_case_regret(schedule, inst, _limits(args))
    else:
        report = grid_regret(schedule, inst, args.grid_points, _limits(args))
    document = io.regret_report_to_dict(report)
    text = io.write_json(args.out, document) if args.out else io.dumps(document)
    print(text, end="")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        dataset=args.dataset,
        n_values=tuple(args.n_values),
        m_values=tuple(args.m_values),
        algorithms=tuple(args.algos),
        bound_mode=args.bound_mode,
        repetitions=args.reps,
        seed_base=args.seed_base,
    )
    rows = run_benchmark(spec)
    rows_to_csv(rows, args.out)
    print(f"wrote {args.out}: {len(rows)} rows")
    if args.markdown:
        print(render_markdown(rows), end="")
    return 0


def _battery(inst, limits: OracleLimits, grid_points: int) -> list[tuple[str, str]]:
    """Run all property checks; return (status, description) pairs."""
    results: list[tuple[str, str]] = []
    schedules = {
        "pm": pm(inst),
        "pr": build_schedule(inst, HeuristicConfig(algorithm="pr")),
        "pre": build_schedule(inst, HeuristicConfig(algorithm="pre")),
    }
    for seed in range(3):
        schedules[f"random{seed}"] = random_schedule(inst, seed)

    exact = {
        name: exact_worst_case_regret(schedule, inst, limits)
        for name, schedule in schedules.items()
    }

    grid_cells = 1
    for lo, hi in inst.release:
        grid_cells *= min(grid_points, hi - lo + 1)
    if grid_cells <= GRID_SCENARIO_LIMIT:
        ok = all(
            grid_regret(schedule, inst, grid_points, limits).value
            == exact[name].value
            for name, schedule in schedules.items()
        )
        results.append(
            ("pass" if ok else "fail", "extreme-scenario reduction (grid == exact)")
        )
    else:
        results.append(("skip", "extreme-scenario reduction (grid too large)"))

    ok = all(
        exact_worst_case_regret(s, inst, limits, effective_only=False).value
        == exact[name].value
        for name, s in schedules.items()
    )
    results.append(("pass" if ok else "fail", "covered-job pruning keeps the maximum"))

    ok = all(
        0 <= exact[name].value <= regret_upper_bound(s, inst)
        for name, s in schedules.items()
    )
    results.append(("pass" if ok else "fail", "regret within [0, upper bound]"))

    ok = True
    for scenario in extreme_scenarios(inst) + [lower_scenario(inst)]:
        report = lb_combined(scenario, inst)
        optimum = optimal_makespan(inst, scenario, limits).makespan
        ok = ok and report.combined <= optimum and report.lb_avg <= report.lb2
    results.append(("pass" if ok else "fail", "lower bounds below the optimum"))

    ok = all(
        relaxed_regret(s, inst).value >= exact[name].value
        for name, s in schedules.items()
    )
    results.append(("pass" if ok else "fail", "relaxed regret dominates exact"))

    if detect_disjoint(inst):
        ok = exact["pm"].value == 0
        results.append(("pass" if ok else "fail", "disjoint intervals: pm is optimal"))
    else:
        results.append(("skip", "disjoint intervals (condition not met)"))

    if detect_dominant_job(inst) is not None:
        ok = exact["pm"].value == 0
        results.append(("pass" if ok else "fail", "dominant job: pm is optimal"))
    else:
        results.append(("skip", "dominant job (condition not met)"))
    return results


def cmd_check(args: argparse.Namespace) -> int:
    inst = io.read_instance(args.instance)
    results = _battery(inst, _limits(args), args.grid_points)
    for status, description in results:
        print(f"{status:4s} {description}")
    return 0 if all(status != "fail" for status, _ in results) else 1


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _algo_list(text: str) -> list[str]:
    return [part.strip().lower() for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robust-sched",
        description=(
            "Minimax-regret scheduling on unrelated parallel machines "
            "with interval release dates"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="draw a random instance file")
    gen.add_argument("--dataset", default="DS1", help="DS1, DS2 or custom")
    gen.add_argument("--n", type=int, required=True, help="job count")
    gen.add_argument("--m", type=int, required=True, help="machine count")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output instance JSON path")
    gen.add_argument("--p-lo", dest="p_lo", type=int)
    gen.add_argument("--p-hi", dest="p_hi", type=int)
    gen.add_argument("--r-domain-hi", dest="r_domain_hi", type=int)
    gen.add_argument("--segments", type=int)
    gen.add_argument("--offset-lo", dest="offset_lo", type=float)
    gen.add_argument("--offset-hi", dest="offset_hi", type=float)
    gen.set_defaults(handler=cmd_generate)

    solve = sub.add_parser("solve", help="run a constructive algorithm")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--algo", required=True, choices=("pm", "pr", "pre"))
    solve.add_argument(
        "--bound-mode", dest="bound_mode", default="full", choices=("full", "short")
    )
    solve.add_argument("--out", help="schedule JSON output path")
    solve.set_defaults(handler=cmd_solve)

    evaluate = sub.add_parser("evaluate", help="regret of a schedule")
    evaluate.add_argument("--instance", required=True)
    evaluate.add_argument("--schedule", required=True)
    evaluate.add_argument(
        "--mode", required=True, choices=("relaxed", "exact", "grid")
    )
    evaluate.add_argument("--grid-points", dest="grid_points", type=int, default=5)
    evaluate.add_argument("--max-jobs", dest="max_jobs", type=int, default=8)
    evaluate.add_argument("--max-machines", dest="max_machines", type=int, default=3)
    evaluate.add_argument("--time-budget", dest="time_budget", type=float)
    evaluate.add_argument("--out", help="report JSON output path")
    evaluate.set_defaults(handler=cmd_evaluate)

    bench = sub.add_parser("bench", help="grid sweep to CSV")
    bench.add_argument("--dataset", default="DS1")
    bench.add_argument(
        "--n-values", dest="n_values", type=_int_list, required=True,
        help="comma-separated job counts",
    )
    bench.add_argument(
        "--m-values", dest="m_values", type=_int_list, required=True,
        help="comma-separated machine counts",
    )
    bench.add_argument(
        "--algos", type=_algo_list, default=["pm", "pr", "pre"],
        help="comma-separated subset of pm,pr,pre",
    )
    bench.add_argument(
        "--bound-mode", dest="bound_mode", default="full", choices=("full", "short")
    )
    bench.add_argument("--reps", type=int, default=1)
    bench.add_argument("--seed-base", dest="seed_base", type=int, default=0)
    bench.add_argument("--out", required=True, help="CSV output path")
    bench.add_argument(
        "--markdown", action="store_true", help="also print pivot tables"
    )
    bench.set_defaults(handler=cmd_bench)

    check = sub.add_parser(
        "check", help="property battery on an enumeration-sized instance"
    )
    check.add_argument("--instance", required=True)
    check.add_argument("--grid-points", dest="grid_points", type=int, default=5)
    check.add_argument("--max-jobs", dest="max_jobs", type=int, default=8)
    check.add_argument("--max-machines", dest="max_machines", type=int, default=3)
    check.add_argument("--time-budget", dest="time_budget", type=float)
    check.set_defaults(handler=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _USER_ERRORS as exc:
        return _fail(type(exc).__name__, str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
