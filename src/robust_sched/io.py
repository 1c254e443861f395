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
Serialization is deterministic: sorted keys, an indent of two spaces, a
trailing newline, byte for byte what ``json.dumps(..., sort_keys=True,
indent=2)`` writes.
"""
from __future__ import annotations

import functools
import itertools
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
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
    return _instance_from_dict(data, scan=True)


def _instance_from_dict(data: dict, scan: bool) -> Instance:
    """``instance_from_dict``, with the boolean scan only when ``scan``."""
    try:
        p, release = data["p"], data["release"]
        m, n = data.get("m"), data.get("n")
        if scan:
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
    return _schedule_from_dict(data, scan=True)


def _schedule_from_dict(data: dict, scan: bool) -> Schedule:
    """``schedule_from_dict``, with the boolean scan only when ``scan``."""
    try:
        machines = tuple(map(tuple, data["machines"]))
        if scan:
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
    # a relaxed report shares one Fraction among all jobs with equal terms,
    # so each distinct term object is converted once
    terms = report.per_scenario.values()
    distinct = dict(zip(map(id, terms), terms))
    numbers = {key: _number(term) for key, term in distinct.items()}
    per_scenario = dict(zip(
        map(str, report.per_scenario), map(numbers.__getitem__, map(id, terms))
    ))
    return {
        "value": _number(report.value),
        "scenario": None
        if report.scenario is None
        else scenario_to_dict(report.scenario),
        "perScenario": per_scenario,
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


_INDENT = "  "


@functools.cache
def _flat_encoder(depth: int):
    """C-encoder ``encode`` for a container of scalars whose items sit at
    nesting depth ``depth``: the item separator carries their newline and
    indent."""
    separator = ",\n" + _INDENT * depth
    return json.JSONEncoder(sort_keys=True, separators=(separator, ": ")).encode


def _encode(value: Any, depth: int) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it
    at nesting depth ``depth``. Object keys are strings."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        return _flat_encoder(depth)(value)  # a scalar, or "{}" / "[]"
    is_object = isinstance(value, dict)
    children = value.values() if is_object else value
    inner, outer = "\n" + _INDENT * (depth + 1), "\n" + _INDENT * depth
    if not any(map(isinstance, children, itertools.repeat((dict, list, tuple)))):
        text = _flat_encoder(depth + 1)(value)
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if is_object:
        items = [f"{encode_basestring_ascii(name)}: {_encode(child, depth + 1)}"
                 for name, child in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + outer + "}"
    items = [_encode(child, depth + 1) for child in value]
    return "[" + inner + ("," + inner).join(items) + outer + "]"


def dumps(document: dict) -> str:
    """The document with sorted keys, an indent of two spaces and a trailing
    newline: the bytes of ``json.dumps(document, sort_keys=True, indent=2)``
    plus ``"\\n"``, written by one C-encoder call per container of scalars
    rather than by the pure-Python indenting encoder."""
    return _encode(document, 0) + "\n"


def write_json(path: str | Path, document: dict) -> str:
    """Write the document and return the text written."""
    text = dumps(document)
    Path(path).write_text(text, encoding="utf-8")
    return text


def _load(path: str | Path) -> tuple[dict, bool]:
    """The JSON object in the file, and whether its text could hold a
    boolean: JSON writes one only as the literal ``true`` or ``false``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc
    except RecursionError as exc:
        raise FormatError(f"{path}: JSON nested too deeply to read") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return data, "true" in text or "false" in text


def read_json(path: str | Path) -> dict:
    return _load(path)[0]


def read_instance(path: str | Path) -> Instance:
    return _instance_from_dict(*_load(path))


def read_schedule(path: str | Path) -> Schedule:
    return _schedule_from_dict(*_load(path))


def read_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(read_json(path))
