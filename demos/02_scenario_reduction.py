"""Walkthrough: why evaluating n extreme scenarios is enough.

The scenario set is a box with uncountably many points, yet the worst-case
regret of any schedule is attained at one of the n extreme scenarios (all
release dates low, one raised). This demo solves the optimum under every
point of a dense grid, one search per point, and shows the grid's worst
regret never beats the extreme sweep. ``grid_regret`` builds on that
reduction: it takes its value from the extreme optima and searches only the
grid points those optima cannot rule out, to name the first point that
attains it. Last, the demo prunes scenarios of jobs whose whole interval
hides behind their predecessors.
"""
import itertools
import random

from robust_sched import (
    Instance,
    Scenario,
    Schedule,
    covered_jobs,
    effective_scenarios,
    exact_worst_case_regret,
    grid_regret,
    makespan,
    optimal_makespan,
)

rng = random.Random(5)

for trial in range(5):
    n, m = rng.randint(3, 5), rng.randint(1, 2)
    p = tuple(tuple(rng.randint(1, 9) for _ in range(n)) for _ in range(m))
    release = []
    for _ in range(n):
        lo = rng.randint(0, 8)
        release.append((lo, lo + rng.randint(0, 6)))
    inst = Instance(p=p, release=tuple(release))

    machines = [[] for _ in range(m)]
    for job in range(n):
        machines[rng.randrange(m)].append(job)
    schedule = Schedule(machines=tuple(tuple(seq) for seq in machines))

    # five evenly spaced release dates per interval, both ends included and
    # rounded half-up: the grid that grid_regret lays out at five points
    axes = [sorted({lo + (q * (hi - lo) + 2) // 4 for q in range(5)})
            for lo, hi in inst.release]
    dense = max(
        makespan(schedule, scenario, inst)
        - optimal_makespan(inst, scenario).makespan
        for scenario in map(Scenario, itertools.product(*axes))
    )
    extreme = exact_worst_case_regret(schedule, inst)
    named = grid_regret(schedule, inst, grid_points=5)
    print(f"trial {trial}: grid sweep {dense:3d}   "
          f"extreme sweep {extreme.value:3d}   "
          f"agree: {dense == extreme.value}   "
          f"first worst grid point {named.scenario.r}")

# Pruning: a job whose upper release bound is covered by its predecessor's
# completion can never move the makespan through its release date.
inst = Instance(p=((10, 2, 3),), release=((0, 0), (3, 8), (20, 30)))
schedule = Schedule(machines=((0, 1, 2),))
print("\ncovered jobs:", sorted(covered_jobs(schedule, inst)))
print("effective scenarios:",
      [(job, scenario.r) for job, scenario in effective_scenarios(schedule, inst)])
pruned = exact_worst_case_regret(schedule, inst, effective_only=True)
full = exact_worst_case_regret(schedule, inst, effective_only=False)
print(f"pruned sweep {pruned.value} == full sweep {full.value}")
