import random

import pytest
from hypothesis import strategies as st

from robust_sched import Instance, Schedule


def random_instance(rng: random.Random, n: int, m: int, *,
                    p_max: int = 12, r_max: int = 10, width_max: int = 6) -> Instance:
    p = tuple(
        tuple(rng.randint(1, p_max) for _ in range(n)) for _ in range(m)
    )
    release = []
    for _ in range(n):
        lo = rng.randint(0, r_max)
        release.append((lo, lo + rng.randint(0, width_max)))
    return Instance(p=p, release=tuple(release))


def random_valid_schedule(rng: random.Random, inst: Instance) -> Schedule:
    machines = [[] for _ in range(inst.m)]
    for job in range(inst.n):
        machines[rng.randrange(inst.m)].append(job)
    for seq in machines:
        rng.shuffle(seq)
    return Schedule(machines=tuple(tuple(seq) for seq in machines))


@st.composite
def instance_and_schedule(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 4))
    p_max = draw(st.sampled_from([1, 3, 30]))
    p = tuple(
        tuple(draw(st.integers(1, p_max)) for _ in range(n)) for _ in range(m)
    )
    lows = st.integers(0, draw(st.sampled_from([0, 4, 40])))
    release = tuple(
        (lo, lo + draw(st.sampled_from([0, 0, 1, 5, 60])))
        for lo in (draw(lows) for _ in range(n))
    )
    inst = Instance(p=p, release=release)
    machines = [[] for _ in range(m)]
    for job in draw(st.permutations(range(n))):
        machines[draw(st.integers(0, m - 1))].append(job)
    return inst, Schedule(machines=tuple(tuple(seq) for seq in machines))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240601)


@pytest.fixture
def two_machine_instance() -> Instance:
    # p rows per machine; optimum 9 under r=(2, 3)
    return Instance(p=((4, 7), (5, 6)), release=((2, 2), (3, 3)))


@pytest.fixture
def hill_instance() -> Instance:
    # single machine, job 0 has a wide interval; job order matters
    return Instance(p=((3, 4),), release=((0, 10), (0, 0)))
