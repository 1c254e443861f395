from fractions import Fraction

import pytest

from robust_sched import (
    Instance,
    RegretReport,
    Scenario,
    Schedule,
    lb_combined,
    relaxed_regret,
)
from robust_sched import io


@pytest.fixture
def inst():
    return Instance(p=((4, 7), (5, 6)), release=((2, 5), (3, 3)))


def test_instance_round_trip(inst):
    document = io.instance_to_dict(inst)
    assert document == {
        "m": 2,
        "n": 2,
        "p": [[4, 7], [5, 6]],
        "release": [[2, 5], [3, 3]],
    }
    assert io.instance_from_dict(document) == inst


def test_instance_rejects_inconsistent_counts(inst):
    document = io.instance_to_dict(inst)
    document["n"] = 3
    with pytest.raises(io.FormatError):
        io.instance_from_dict(document)


@pytest.mark.parametrize(
    "field, value",
    [("p", [[True, 7], [5, 6]]), ("release", [[2, 5], [False, 3]]), ("m", True)],
)
def test_instance_rejects_booleans(inst, field, value):
    document = io.instance_to_dict(inst)
    document[field] = value
    if field == "m":  # one machine, so that m == True would compare equal
        document["p"] = document["p"][:1]
    with pytest.raises(io.FormatError):
        io.instance_from_dict(document)


def test_schedule_and_scenario_reject_booleans():
    with pytest.raises(io.FormatError):
        io.schedule_from_dict({"machines": [[True, 0], []]})
    with pytest.raises(io.FormatError):
        io.scenario_from_dict({"r": [2, False]})


def test_read_instance_refuses_a_boolean_in_the_file(inst, tmp_path):
    path = tmp_path / "inst.json"
    text = io.dumps(io.instance_to_dict(inst))
    path.write_text(text.replace("7", "true", 1), encoding="utf-8")
    with pytest.raises(io.FormatError):
        io.read_instance(path)
    path.write_text('{"machines": [[0], [true]]}', encoding="utf-8")
    with pytest.raises(io.FormatError):
        io.read_schedule(path)


def test_read_instance_scans_only_text_that_could_hold_a_boolean(
    inst, tmp_path, monkeypatch
):
    scans = []
    check_ints = io._check_ints
    monkeypatch.setattr(
        io, "_check_ints", lambda *arrays: scans.append(1) or check_ints(*arrays)
    )
    document = io.instance_to_dict(inst)
    path = tmp_path / "inst.json"
    io.write_json(path, document)
    assert io.read_instance(path) == inst
    assert scans == []
    # a "true" in a string is no boolean, but the text still gets the scan
    document["provenance"] = {"note": "true to the paper's generator"}
    io.write_json(path, document)
    assert io.read_instance(path) == inst
    assert scans == [1]


def test_instance_ignores_provenance_key(inst, tmp_path):
    document = io.instance_to_dict(inst)
    document["provenance"] = {"seed": 1}
    path = tmp_path / "inst.json"
    io.write_json(path, document)
    assert io.read_instance(path) == inst


def test_schedule_round_trip(tmp_path):
    schedule = Schedule(machines=((1, 0), ()))
    path = tmp_path / "sched.json"
    io.write_json(path, io.schedule_to_dict(schedule))
    assert io.read_schedule(path) == schedule


def test_scenario_round_trip(tmp_path):
    scenario = Scenario(r=(2, 3))
    path = tmp_path / "scen.json"
    io.write_json(path, io.scenario_to_dict(scenario))
    assert io.read_scenario(path) == scenario


def test_regret_report_round_trip(inst):
    report = relaxed_regret(Schedule(machines=((0, 1), ())), inst)
    document = io.regret_report_to_dict(report)
    parsed = io.regret_report_from_dict(document)
    assert parsed.scenario == report.scenario
    assert parsed.certified == report.certified
    assert parsed.value == float(report.value)
    # a second dump of the parsed document is byte-identical
    assert io.dumps(io.regret_report_to_dict(parsed)) == io.dumps(document)


def test_fraction_serialization():
    report = RegretReport(
        value=Fraction(7, 2), scenario=Scenario(r=(1,)), per_scenario={0: Fraction(7, 2)}
    )
    document = io.regret_report_to_dict(report)
    assert document["value"] == 3.5
    assert document["perScenario"] == {"0": 3.5}
    whole = RegretReport(value=Fraction(4, 1), scenario=None)
    assert io.regret_report_to_dict(whole)["value"] == 4


def test_bounds_report_serialization(inst):
    report = lb_combined(Scenario(r=(2, 3)), inst)
    document = io.bounds_report_to_dict(report)
    assert document["lb1"] == 9
    assert document["combined"] == 9
    assert set(document["perJob"]) == {"0", "1"}


def test_read_json_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(io.FormatError):
        io.read_json(path)
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(io.FormatError):
        io.read_json(path)


def test_dumps_is_deterministic(inst):
    a = io.dumps(io.instance_to_dict(inst))
    round_tripped = io.instance_from_dict(io.instance_to_dict(inst))
    b = io.dumps(io.instance_to_dict(round_tripped))
    assert a == b
    assert a.endswith("\n")
