"""JSON file formats.

All indices in files are 0-based. Formats:

* instance: ``{"m": int, "n": int, "p": [[int, ...], ...], "release":
  [[lo, hi], ...]}`` with ``m`` rows and ``n`` columns in ``p``; generated
  files add a ``"provenance"`` key, which readers ignore.
* schedule: ``{"machines": [[job, ...], ...]}``
* scenario: ``{"r": [int, ...]}``
* regret report: ``{"value": number, "scenario": {...}, "perScenario":
  {"job": number, ...}, "certified": bool}``
* bounds report: ``{"lbAvg": number, "lb1": int, "lb2": number, "lb3": int,
  "combined": number, "perJob": {"job": [number, int], ...}}``

Fractional values (averaged bounds, relaxed regrets) are written as floats.
Serialization is deterministic: sorted keys, fixed separators, a trailing
newline.
"""
from __future__ import annotations

import itertools
import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .bounds import BoundsReport
from .model import Instance, RegretReport, Scenario, Schedule


class FormatError(ValueError):
    """Raised when a JSON document does not match its expected format."""


def _number(value: Any) -> int | float:
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else float(value)
    return value


def _check_ints(*arrays) -> None:
    """Refuse JSON booleans among integers: Python treats ``True`` as the
    integer 1, a document does not."""
    if bool in map(type, itertools.chain(*arrays)):
        raise ValueError("expected integers, found a boolean")


def instance_to_dict(inst: Instance) -> dict:
    return {
        "m": inst.m,
        "n": inst.n,
        "p": [list(row) for row in inst.p],
        "release": [list(pair) for pair in inst.release],
    }


def instance_from_dict(data: dict) -> Instance:
    try:
        p = tuple(map(tuple, data["p"]))
        release = tuple(map(tuple, data["release"]))
        m, n = data.get("m"), data.get("n")
        _check_ints((m, n), *p, *release)
        inst = Instance(p=p, release=release)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad instance document: {exc}") from exc
    if (inst.m, inst.n) != (m, n):
        raise FormatError("instance document m/n fields disagree with the arrays")
    return inst


def schedule_to_dict(schedule: Schedule) -> dict:
    return {"machines": [list(seq) for seq in schedule.machines]}


def schedule_from_dict(data: dict) -> Schedule:
    try:
        machines = tuple(map(tuple, data["machines"]))
        _check_ints(*machines)
        return Schedule(machines=machines)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad schedule document: {exc}") from exc


def scenario_to_dict(scenario: Scenario) -> dict:
    return {"r": list(scenario.r)}


def scenario_from_dict(data: dict) -> Scenario:
    try:
        r = tuple(data["r"])
        _check_ints(r)
        return Scenario(r=r)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad scenario document: {exc}") from exc


def regret_report_to_dict(report: RegretReport) -> dict:
    return {
        "value": _number(report.value),
        "scenario": None
        if report.scenario is None
        else scenario_to_dict(report.scenario),
        "perScenario": {
            str(job): _number(term) for job, term in report.per_scenario.items()
        },
        "certified": report.certified,
    }


def regret_report_from_dict(data: dict) -> RegretReport:
    try:
        scenario = (
            None if data["scenario"] is None else scenario_from_dict(data["scenario"])
        )
        return RegretReport(
            value=data["value"],
            scenario=scenario,
            per_scenario={int(k): v for k, v in data["perScenario"].items()},
            certified=bool(data.get("certified", True)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad regret report document: {exc}") from exc


def bounds_report_to_dict(report: BoundsReport) -> dict:
    return {
        "lbAvg": _number(report.lb_avg),
        "lb1": report.lb1,
        "lb2": _number(report.lb2),
        "lb3": report.lb3,
        "combined": _number(report.combined),
        "perJob": {
            str(job): [_number(avg), batched]
            for job, (avg, batched) in report.per_job.items()
        },
    }


def dumps(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def write_json(path: str | Path, document: dict) -> str:
    """Write the document and return the text written."""
    text = dumps(document)
    Path(path).write_text(text, encoding="utf-8")
    return text


def read_json(path: str | Path) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return data


def read_instance(path: str | Path) -> Instance:
    return instance_from_dict(read_json(path))


def read_schedule(path: str | Path) -> Schedule:
    return schedule_from_dict(read_json(path))


def read_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(read_json(path))
