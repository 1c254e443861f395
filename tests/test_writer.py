"""``io.dumps`` against the pinned writer, byte for byte.

``io.dumps`` writes each container of scalars with one C-encoder call;
``reference_dumps`` is ``json.dumps(..., sort_keys=True, indent=2)``, the
writer it replaced. They must agree on every document kind the package
writes and on random nested documents.
"""
import random
from fractions import Fraction

import pytest

from robust_sched import (
    GenParams,
    RegretReport,
    Scenario,
    Schedule,
    exact_worst_case_regret,
    generate,
    grid_regret,
    io,
    lb_combined,
    lower_scenario,
    pm,
    relaxed_regret,
)
from robust_sched.datagen import params_for_dataset, provenance

from _reference import reference_dumps


def assert_same_bytes(document):
    text = io.dumps(document)
    assert text == reference_dumps(document)
    return text


@pytest.fixture(scope="module")
def small():
    inst = generate(GenParams(n=6, m=2, r_domain_hi=20, segments=2), 3)
    return inst, pm(inst)


def test_generated_instance_with_provenance():
    params = params_for_dataset("DS2", 300, 5)
    document = io.instance_to_dict(generate(params, 7))
    document["provenance"] = provenance(params, 7)
    assert_same_bytes(document)


def test_schedule_and_scenario(small):
    inst, schedule = small
    assert_same_bytes(io.schedule_to_dict(schedule))
    assert_same_bytes(io.schedule_to_dict(Schedule(machines=((2, 0, 1), ()))))
    assert_same_bytes(io.scenario_to_dict(lower_scenario(inst)))


def test_relaxed_exact_and_grid_reports(small):
    inst, schedule = small
    for effective_only in (False, True):
        report = relaxed_regret(schedule, inst, effective_only=effective_only)
        assert_same_bytes(io.regret_report_to_dict(report))
    exact = exact_worst_case_regret(schedule, inst)
    assert_same_bytes(io.regret_report_to_dict(exact))
    grid = grid_regret(schedule, inst, 3)
    assert grid.per_scenario == {}
    assert '"perScenario": {}' in assert_same_bytes(io.regret_report_to_dict(grid))


def test_report_without_scenario_and_with_fractions():
    empty = RegretReport(value=0, scenario=None, per_scenario={}, certified=False)
    assert '"scenario": null' in assert_same_bytes(io.regret_report_to_dict(empty))
    thirds = RegretReport(
        value=Fraction(7, 3), scenario=Scenario(r=(1, 0)),
        per_scenario={0: Fraction(7, 3), 1: Fraction(-2, 1), 10: Fraction(1, 3)},
    )
    assert_same_bytes(io.regret_report_to_dict(thirds))


def test_bounds_report(small):
    inst, _ = small
    assert_same_bytes(io.bounds_report_to_dict(lb_combined(lower_scenario(inst), inst)))


def test_evaluate_report_at_scale():
    inst = generate(params_for_dataset("DS1", 2000, 20), 0)
    assert_same_bytes(io.regret_report_to_dict(relaxed_regret(pm(inst), inst)))


_TEXT = ["a", "Z", "é", "中", "😀", '"', "\\", "/", "\n", "\t", "\x00", "\x1f",
         " ", "[", "]", "{", "}", ",", ":", " "]


def _scalar(rng):
    return rng.choice([
        None, True, False, 0, -1, rng.randint(-10**20, 10**20), 2**70,
        rng.random() * 1e5, -0.0, 1e-300, 1.5e300, float("inf"), float("-inf"),
        float("nan"), "".join(rng.choice(_TEXT) for _ in range(rng.randint(0, 6))),
    ])


def _document(rng, depth=0):
    draw = rng.random()
    if depth > 4 or draw < 0.3:
        return _scalar(rng)
    size = rng.choice([0, 0, 1, 2, 3, 5])
    if draw < 0.55:
        return [_document(rng, depth + 1) for _ in range(size)]
    if draw < 0.65:
        return tuple(_document(rng, depth + 1) for _ in range(size))
    return {
        "".join(rng.choice(_TEXT) for _ in range(rng.randint(0, 3))):
            _document(rng, depth + 1)
        for _ in range(size)
    }


def test_random_nested_documents():
    rng = random.Random(15)
    for _ in range(5000):
        document = {"doc": _document(rng), "more": [_document(rng)], "empty": {}}
        assert_same_bytes(document)
        assert_same_bytes(_document(rng))
