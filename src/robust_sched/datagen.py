"""Reproducible instance generation.

Instances follow the dense/sparse recipes ``DS1``/``DS2``: processing times
are discrete uniform draws, the release lower-bound domain is split into
``segments`` equal consecutive slices, each slice receives its share of jobs
(leftovers round-robin from the first slice), and every interval's width is
the job's machine-averaged processing time stretched by a continuous uniform
offset. Upper bounds may exceed the lower-bound domain cap by construction.

Generation is a pure function of ``(params, seed)``. The RNG is pinned to
numpy's PCG64 with a fixed draw order (processing matrix, then lower bounds,
then offsets); :data:`GENERATOR_VERSION` names that contract and is embedded
in the provenance header of emitted files.

Smaller family members are derived from a base instance by removing jobs
evenly across the segments, so the surviving data is shared with the base.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .model import Instance, Schedule

GENERATOR_VERSION = "pcg64/1"


@dataclass(frozen=True)
class GenParams:
    """Knobs of the dataset recipe; defaults match the dense variant (DS1)."""

    n: int
    m: int
    p_lo: int = 5
    p_hi: int = 50
    r_domain_hi: int = 150
    segments: int = 10
    offset_lo: float = 0.2
    offset_hi: float = 5.0

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("need at least one job and one machine")
        if self.p_lo < 1 or self.p_hi < self.p_lo:
            raise ValueError("processing range must satisfy 1 <= p_lo <= p_hi")
        if self.segments < 1:
            raise ValueError("need at least one segment")
        if self.n < self.segments:
            raise ValueError("need at least one job per segment")
        if self.r_domain_hi < self.segments:
            raise ValueError("release domain too small for the segment count")
        # offset_lo == offset_hi is allowed and degenerates to a constant offset
        if not (0 <= self.offset_lo <= self.offset_hi):
            raise ValueError("offsets must satisfy 0 <= offset_lo <= offset_hi")


def ds1_params(n: int, m: int) -> GenParams:
    """Dense recipe: lower bounds in [0, 150] over 10 segments."""
    return GenParams(n=n, m=m, r_domain_hi=150, segments=10)


def ds2_params(n: int, m: int) -> GenParams:
    """Sparse recipe: lower bounds in [0, 300] over 5 segments."""
    return GenParams(n=n, m=m, r_domain_hi=300, segments=5)


def params_for_dataset(dataset: str, n: int, m: int) -> GenParams:
    name = dataset.strip().lower()
    if name == "ds1":
        return ds1_params(n, m)
    if name == "ds2":
        return ds2_params(n, m)
    raise ValueError(f"unknown dataset {dataset!r} (expected DS1 or DS2)")


def segment_bounds(params: GenParams) -> list[tuple[int, int]]:
    """Closed integer bounds of each lower-bound segment, in timeline order."""
    edges = [
        (s * params.r_domain_hi) // params.segments
        for s in range(params.segments + 1)
    ]
    return [(edges[s], edges[s + 1] - 1) for s in range(params.segments)]


def job_segments(params: GenParams) -> list[int]:
    """Segment owning each job index: block of floor(n/w) jobs per segment,
    the n mod w leftovers appended round-robin from the first segment."""
    base, extra = divmod(params.n, params.segments)
    counts = [base + (1 if s < extra else 0) for s in range(params.segments)]
    owners: list[int] = []
    for s, count in enumerate(counts):
        owners.extend([s] * count)
    return owners


def generate(params: GenParams, seed: int) -> Instance:
    """Draw one instance; bit-reproducible for a fixed ``(params, seed)``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    p = rng.integers(params.p_lo, params.p_hi + 1, size=(params.m, params.n))

    bounds = segment_bounds(params)
    owners = job_segments(params)
    seg_lo = np.array([bounds[s][0] for s in owners], dtype=np.int64)
    seg_hi = np.array([bounds[s][1] for s in owners], dtype=np.int64)
    release_lo = rng.integers(seg_lo, seg_hi + 1)

    offsets = rng.uniform(params.offset_lo, params.offset_hi, size=params.n)
    averaged = p.sum(axis=0) / params.m
    width = np.floor(averaged * offsets + 0.5).astype(np.int64)  # round half up
    release_hi = release_lo + width

    return Instance(p=p, release=np.stack((release_lo, release_hi), axis=1))


def provenance(params: GenParams, seed: int) -> dict:
    """Header recorded next to generated instances."""
    return {
        "params": asdict(params),
        "seed": int(seed),
        "generatorVersion": GENERATOR_VERSION,
    }


def derive_family(
    base: Instance,
    params: GenParams,
    target_n: int,
    target_m: int,
    seed: int,
) -> Instance:
    """Shrink a generated instance, keeping the surviving data unchanged.

    Jobs are dropped uniformly at random within each segment so every segment
    keeps its proportional share (leftover keeps round-robin from the first
    segment, mirroring generation); machines are truncated to the first
    ``target_m`` rows. ``params`` must be the parameters ``base`` was
    generated with, since they define the segment membership.
    """
    if base.n != params.n or base.m != params.m:
        raise ValueError("base instance does not match the generation params")
    if not (1 <= target_n <= base.n):
        raise ValueError(f"target job count {target_n} not in 1..{base.n}")
    if not (1 <= target_m <= base.m):
        raise ValueError(f"target machine count {target_m} not in 1..{base.m}")
    if target_n < params.segments:
        raise ValueError("target job count smaller than the segment count")

    owners = job_segments(params)
    per_segment: list[list[int]] = [[] for _ in range(params.segments)]
    for job, s in enumerate(owners):
        per_segment[s].append(job)

    base_keep, extra = divmod(target_n, params.segments)
    rng = np.random.Generator(np.random.PCG64(seed))
    survivors: list[int] = []
    for s, jobs in enumerate(per_segment):
        keep = base_keep + (1 if s < extra else 0)
        picked = rng.choice(len(jobs), size=keep, replace=False)
        survivors.extend(jobs[k] for k in sorted(int(v) for v in picked))

    return Instance(
        p=base.p_array[:target_m, survivors],
        release=np.stack(
            (base.release_lo[survivors], base.release_hi[survivors]), axis=1
        ),
    )


def random_schedule(inst: Instance, seed: int) -> Schedule:
    """Uniform random valid schedule: random machine per job, shuffled orders."""
    rng = np.random.Generator(np.random.PCG64(seed))
    assignment = rng.integers(0, inst.m, size=inst.n)
    machines: list[list[int]] = [[] for _ in range(inst.m)]
    for job in range(inst.n):
        machines[int(assignment[job])].append(job)
    for seq in machines:
        rng.shuffle(seq)
    return Schedule(machines=tuple(tuple(seq) for seq in machines))
