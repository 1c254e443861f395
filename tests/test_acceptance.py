"""Acceptance battery.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live).

Two tests are expected red, both backed by analysis in the decisions ledger:

* criterion 6 as stated: the disjoint-interval zero-regret claim is false
  for two or more machines once processing times spill past later release
  windows (a brute-force-verified counterexample is embedded below, on
  which even the best schedule has regret 1). A companion test covers the
  provable no-spill subfamily.
* criterion 8b: the strict "pre below pr" mean ordering does not reproduce
  on regenerated data with the algorithms as published; both land in the
  same quality band. The pm density trend (8a) does reproduce.
"""
import hashlib
import random
import statistics
import time
from fractions import Fraction

import pytest

from robust_sched import (
    HeuristicConfig,
    Instance,
    Scenario,
    derive_family,
    detect_disjoint,
    detect_dominant_job,
    ds1_params,
    exact_worst_case_regret,
    exhaustive_min_regret,
    generate,
    grid_regret,
    lb_combined,
    lower_scenario,
    optimal_makespan,
    pm,
    pr,
    pre,
    random_schedule,
    regret_upper_bound,
    relaxed_regret,
)
from robust_sched import io
from robust_sched.experiments import ExperimentSpec, run_benchmark
from robust_sched.oracle import DEFAULT_LIMITS, _grid_rows

from _reference import subset_dp_grid_regrets
from conftest import random_instance, random_valid_schedule
from test_heuristics import (
    disjoint_instance,
    dominant_job_instance,
    no_spill_disjoint_instance,
)


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE criterion {number:02d}: {status} - {detail}")


@pytest.fixture(scope="module")
def theorem_corpus():
    """>= 200 random integer instances (n <= 5, m <= 2), 3 schedules each."""
    rng = random.Random(91)
    corpus = []
    for _ in range(200):
        inst = random_instance(
            rng, rng.randint(1, 5), rng.randint(1, 2),
            p_max=10, r_max=8, width_max=6,
        )
        schedules = [random_valid_schedule(rng, inst) for _ in range(3)]
        corpus.append((inst, schedules))
    return corpus


def test_criterion_01_extreme_scenario_reduction(theorem_corpus):
    started = time.monotonic()
    checked = 0
    for inst, schedules in theorem_corpus:
        # the dense grid scored against a subset DP over every row, which
        # uses nothing of the extreme scenarios; grid_regret, which derives
        # its value from them, must report the same value and row
        rows = _grid_rows(inst, 5, DEFAULT_LIMITS)
        swept = subset_dp_grid_regrets(schedules, inst, rows, DEFAULT_LIMITS)
        for schedule, dense in zip(schedules, swept):
            exact = exact_worst_case_regret(schedule, inst)
            assert dense.value == exact.value, (
                f"grid sweep {dense.value} != extreme sweep {exact.value} "
                f"on {inst}"
            )
            lazy = grid_regret(schedule, inst, 5)
            assert (lazy.value, lazy.scenario) == (dense.value, dense.scenario)
            checked += 1
    elapsed = time.monotonic() - started
    ok = elapsed < 600
    report(1, ok, f"grid == extreme sweep on {checked} schedule evaluations "
                  f"({elapsed:.1f}s)")
    assert ok, "exceeded the 10-minute budget"


def test_criterion_02_covered_job_pruning(theorem_corpus):
    checked = 0
    for inst, schedules in theorem_corpus:
        for schedule in schedules:
            pruned = exact_worst_case_regret(schedule, inst, effective_only=True)
            full = exact_worst_case_regret(schedule, inst, effective_only=False)
            assert pruned.value == full.value, (
                f"pruned sweep {pruned.value} != full sweep {full.value} "
                f"on {inst}"
            )
            checked += 1
    report(2, True, f"pruned == full extreme sweep on {checked} evaluations")


def test_criterion_03_bound_validity():
    rng = random.Random(17)
    pairs = 0
    while pairs < 500:
        inst = random_instance(
            rng, rng.randint(1, 6), rng.randint(1, 3), p_max=12, r_max=10,
            width_max=7,
        )
        scenarios = [
            lower_scenario(inst),
            Scenario(r=tuple(hi for _, hi in inst.release)),
            Scenario(r=tuple(rng.randint(lo, hi) for lo, hi in inst.release)),
            Scenario(r=tuple(rng.randint(lo, hi) for lo, hi in inst.release)),
        ]
        for scenario in scenarios:
            bounds = lb_combined(scenario, inst)
            optimum = optimal_makespan(inst, scenario).makespan
            for name, value in (
                ("averaged", bounds.lb_avg),
                ("single-job", bounds.lb1),
                ("anchored-average", bounds.lb2),
                ("batched", bounds.lb3),
            ):
                assert value <= optimum, (
                    f"{name} bound {value} exceeds optimum {optimum} on {inst}"
                )
            assert bounds.lb_avg <= bounds.lb2, f"dominance broken on {inst}"
            pairs += 1
    report(3, True, f"all four bounds below the optimum on {pairs} "
                    "(instance, scenario) pairs; averaged <= anchored held")


def test_criterion_04_regret_sandwich(theorem_corpus):
    checked = 0
    for inst, schedules in theorem_corpus:
        for schedule in schedules:
            value = exact_worst_case_regret(schedule, inst).value
            upper = regret_upper_bound(schedule, inst)
            assert 0 <= value <= upper, (
                f"regret {value} outside [0, {upper}] on {inst}"
            )
            checked += 1
    report(4, True, f"0 <= exact regret <= upper bound on {checked} schedules")


def test_criterion_05_relaxed_dominates_exact(theorem_corpus):
    checked = 0
    for inst, _ in theorem_corpus:
        for algorithm in (pm, pr, pre):
            schedule = algorithm(inst)
            relaxed = relaxed_regret(schedule, inst).value
            exact = exact_worst_case_regret(schedule, inst).value
            assert relaxed >= exact, (
                f"relaxed {relaxed} < exact {exact} on {inst}"
            )
            checked += 1
    report(5, True, f"relaxed >= exact regret on {checked} heuristic runs")


# Pairwise disjoint intervals, yet no schedule reaches regret 0 (verified by
# full enumeration of schedules and integer scenarios): job 0's processing
# spills past job 1's release window.
SPILLOVER_COUNTEREXAMPLE = Instance(
    p=((9, 7, 7, 5), (6, 4, 3, 7), (9, 5, 3, 4)),
    release=((19, 22), (25, 28), (3, 7), (11, 15)),
)


def test_criterion_06_disjoint_intervals_zero_regret_as_stated():
    """Disjoint intervals => exact zero regret of the pm schedule, as stated.

    EXPECTED RED: the claim is false for m >= 2. SPILLOVER_COUNTEREXAMPLE
    above is a disjoint-interval instance whose minimum worst-case regret
    over ALL schedules is 1, so no construction can reach 0. See the
    companion no-spill test and the decisions ledger.
    """
    rng = random.Random(23)
    failures = []
    total = 0
    while total < 100:
        inst = disjoint_instance(rng, rng.randint(2, 6), rng.randint(1, 3))
        assert detect_disjoint(inst)
        value = exact_worst_case_regret(pm(inst), inst).value
        total += 1
        if value != 0:
            failures.append((inst, value))
    ok = not failures
    detail = (
        f"zero regret on all {total} generated disjoint instances"
        if ok
        else f"{len(failures)}/{total} disjoint instances have nonzero regret"
    )
    report(6, ok, detail)
    if failures:
        inst, value = failures[0]
        floor = exhaustive_min_regret(inst).regret
        pytest.fail(
            "the disjoint-interval zero-regret claim fails for m >= 2: "
            f"{len(failures)}/{total} generated instances have nonzero "
            f"regret; first counterexample {inst} has regret {value} "
            f"(best possible over all schedules: {floor}); processing "
            "spill-over past later release windows breaks the argument - "
            "see the no-spill companion test"
        )


def test_criterion_06_companion_no_spill_disjoint_family():
    """The provable subfamily: gaps absorb each job's slowest processing."""
    rng = random.Random(29)
    total = 0
    for _ in range(60):
        inst = no_spill_disjoint_instance(rng, rng.randint(2, 6), rng.randint(1, 3))
        assert detect_disjoint(inst)
        assert exact_worst_case_regret(pm(inst), inst).value == 0, f"{inst}"
        total += 1
    for _ in range(40):  # one machine: plain disjointness is already enough
        inst = disjoint_instance(rng, rng.randint(2, 6), 1)
        assert exact_worst_case_regret(pm(inst), inst).value == 0, f"{inst}"
        total += 1
    report(6, True, f"(companion) zero regret on {total} no-spill or "
                    "single-machine disjoint instances")


def test_criterion_07_dominant_job_zero_regret():
    rng = random.Random(31)
    total = 0
    for _ in range(100):
        inst = dominant_job_instance(rng, rng.randint(2, 6), rng.randint(1, 3))
        dominant = detect_dominant_job(inst)
        assert dominant is not None, f"detector silent on {inst}"
        value = exact_worst_case_regret(pm(inst), inst).value
        assert value == 0, f"regret {value} on dominant-job instance {inst}"
        total += 1
    report(7, True, f"zero regret on {total} generated dominant-job instances")


SIZE_GRID = tuple(range(50, 501, 50))
TREND_SEEDS = 20


@pytest.fixture(scope="module")
def ds1_trend_means():
    """Mean relaxed regrets on nested DS1 families, m=5, per algorithm."""
    means: dict[str, dict[int, Fraction]] = {"pm": {}, "pr": {}, "pre": {}}
    sums: dict[tuple[str, int], Fraction] = {}
    for seed in range(TREND_SEEDS):
        params = ds1_params(500, 5)
        base = generate(params, seed=seed)
        for n in SIZE_GRID:
            inst = derive_family(base, params, n, 5, seed=seed)
            runs = {"pm": pm(inst)}
            if n >= 150:
                runs["pr"] = pr(inst)
                runs["pre"] = pre(inst)
            for name, schedule in runs.items():
                value = relaxed_regret(schedule, inst).value
                sums[(name, n)] = sums.get((name, n), Fraction(0)) + value
    for (name, n), total in sums.items():
        means[name][n] = total / TREND_SEEDS
    return means


def test_criterion_08a_pm_degrades_with_density(ds1_trend_means):
    pm_series = [ds1_trend_means["pm"][n] for n in SIZE_GRID]
    increasing = all(a < b for a, b in zip(pm_series, pm_series[1:]))
    report(
        8,
        increasing,
        "pm means strictly increase "
        f"{float(pm_series[0]):.1f} -> {float(pm_series[-1]):.1f} "
        f"over n=50..500 ({TREND_SEEDS} seeds)",
    )
    assert increasing, f"pm means not strictly increasing: {pm_series}"


def test_criterion_08b_pre_dominates_pr_as_stated(ds1_trend_means):
    """Mean relaxed regret of pre below pr for every n >= 150, as stated.

    EXPECTED RED: with the algorithms as published (append-only placement,
    single-assignment update, the stated complexity), pr and pre land in the
    same quality band on regenerated data and the strict ordering does not
    reproduce; the separation in the original experiments is tied to
    unpublished instances or implementation details. The decisions ledger
    records the alternative readings that were tried and falsified.
    """
    means = ds1_trend_means
    table = {
        n: (float(means["pre"][n]), float(means["pr"][n]))
        for n in SIZE_GRID
        if n >= 150
    }
    pre_wins = all(pre_v < pr_v for pre_v, pr_v in table.values())
    rendered = ", ".join(
        f"n={n}: pre {pre_v:.1f} vs pr {pr_v:.1f}"
        for n, (pre_v, pr_v) in table.items()
    )
    report(8, pre_wins, f"pre < pr means at every n >= 150 ({rendered})")
    assert pre_wins, (
        "the strict pre < pr ordering does not reproduce on regenerated "
        f"data ({TREND_SEEDS} seeds): {rendered}; both algorithms sit in "
        "the same quality band, well below pm"
    )


def test_criterion_09_runtime_ordering():
    inst = generate(ds1_params(300, 10), seed=5)
    started = time.monotonic()
    for fn in (pm, pr, pre):  # warm caches and the allocator before timing
        fn(inst)

    # the three builds alternate, so a noise burst lands on all three
    samples = {fn: [] for fn in (pm, pr, pre)}
    for _ in range(9):
        for fn, times in samples.items():
            t0 = time.perf_counter()
            fn(inst)
            times.append((time.perf_counter() - t0) * 1000.0)
    t_pm, t_pr, t_pre = map(statistics.median, samples.values())
    elapsed = time.monotonic() - started
    ratio = t_pre / t_pr
    ok = t_pm < t_pr < t_pre and ratio >= 10 and elapsed < 300
    report(
        9,
        ok,
        f"medians pm {t_pm:.0f}ms < pr {t_pr:.0f}ms < pre {t_pre:.0f}ms, "
        f"pre/pr = {ratio:.1f} (cell took {elapsed:.0f}s)",
    )
    assert t_pm < t_pr < t_pre, (t_pm, t_pr, t_pre)
    assert ratio >= 10, f"pre/pr ratio {ratio:.1f} below 10"
    assert elapsed < 300, "cell exceeded the 5-minute budget"


def test_criterion_10_short_sighted_bounds_do_not_improve():
    seeds = range(20)
    sizes = (50, 100, 150)
    totals = {("pr", "full"): Fraction(0), ("pr", "short"): Fraction(0),
              ("pre", "full"): Fraction(0), ("pre", "short"): Fraction(0)}
    cells = 0
    for seed in seeds:
        for n in sizes:
            inst = generate(ds1_params(n, 5), seed=seed)
            for name, algorithm in (("pr", pr), ("pre", pre)):
                for mode in ("full", "short"):
                    config = HeuristicConfig(algorithm=name, bound_mode=mode)
                    schedule = algorithm(inst, config)
                    assert schedule.job_count() == inst.n
                    totals[(name, mode)] += relaxed_regret(schedule, inst).value
            cells += 1
    means = {key: value / cells for key, value in totals.items()}
    ok = (
        means[("pr", "short")] >= means[("pr", "full")]
        and means[("pre", "short")] >= means[("pre", "full")]
    )
    report(
        10,
        ok,
        "short-sighted bound means do not improve on full bounds: "
        f"pr {float(means[('pr', 'full')]):.1f} -> "
        f"{float(means[('pr', 'short')]):.1f}, "
        f"pre {float(means[('pre', 'full')]):.1f} -> "
        f"{float(means[('pre', 'short')]):.1f} "
        f"({cells} cells, n in {sizes}, m=5)",
    )
    assert ok, means


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_criterion_11_bit_reproducibility():
    params = ds1_params(60, 4)
    hashes = set()
    for _ in range(2):
        inst = generate(params, seed=123)
        derived = derive_family(inst, params, 30, 2, seed=7)
        pieces = [
            io.dumps(io.instance_to_dict(inst)),
            io.dumps(io.instance_to_dict(derived)),
            io.dumps(io.schedule_to_dict(random_schedule(inst, seed=3))),
        ]
        for algorithm in (pm, pr, pre):
            schedule = algorithm(derived)
            pieces.append(io.dumps(io.schedule_to_dict(schedule)))
            pieces.append(
                io.dumps(io.regret_report_to_dict(relaxed_regret(schedule, derived)))
            )
        hashes.add(_digest("".join(pieces)))

    spec = ExperimentSpec(
        dataset="DS1", n_values=(50,), m_values=(5,),
        algorithms=("pm", "pr", "pre"), repetitions=2, seed_base=11,
    )
    bench_hashes = {
        _digest(
            "".join(
                f"{r.dataset},{r.n},{r.m},{r.algorithm},{r.bound_mode},"
                f"{r.seed},{r.relaxed_regret}\n"
                for r in run_benchmark(spec)
            )
        )
        for _ in range(2)
    }
    ok = len(hashes) == 1 and len(bench_hashes) == 1
    report(11, ok, "identical hashes for generator, solver, report and "
                   "benchmark outputs across repeated runs")
    assert ok
