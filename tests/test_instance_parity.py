"""The ``Instance`` constructor against its entry-by-entry reference.

``Instance`` reads ``p`` and ``release`` in one numpy conversion and checks
them on arrays; ``reference_instance_tables`` is the per-entry conversion
and check it replaced. On every input both must accept the same tables or
refuse with the same exception type and message.
"""
import json
import random

import numpy as np
import pytest

from robust_sched import Instance, io

from _reference import reference_instance_tables

_B = 2**62
_I64 = 2**63


def _outcome(build):
    try:
        return "ok", build()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def _instance_tables(p, release):
    inst = Instance(p=p, release=release)
    return inst.p, inst.release


def assert_parity(p, release):
    expected = _outcome(lambda: reference_instance_tables(p, release))
    assert _outcome(lambda: _instance_tables(p, release)) == expected
    return expected


CASES = {
    "float entry": (((1, 2.0),), ((0, 1), (0, 1))),
    "integral float": (((1.0,),), ((0, 1),)),
    "nan entry": (((1, float("nan")),), ((0, 1), (0, 1))),
    "float release": (((1, 2),), ((0, 1.5), (0, 1))),
    "nan release": (((1, 2),), ((float("nan"), 1), (0, 1))),
    "str entry": (((1, "2"),), ((0, 1), (0, 1))),
    "str row": (("12",), ((0, 1), (0, 1))),
    "str release": (((1, 2),), ((0, 1), ("0", 1))),
    "numpy int entries": (
        ((np.int64(3), np.int32(2)), (np.uint8(1), 4)),
        ((np.int16(0), 5), (1, np.int64(2))),
    ),
    "numpy int64 arrays": (
        np.array([[3, 2], [1, 4]]), np.array([[0, 5], [1, 2]]),
    ),
    "numpy int32 arrays": (
        np.array([[3, 2], [1, 4]], dtype=np.int32),
        np.array([[0, 5], [1, 2]], dtype=np.int32),
    ),
    "numpy float array": (np.array([[3.0, 2.0]]), ((0, 5), (1, 2))),
    "python bool entries": (((True, 2),), ((0, True), (False, 1))),
    "all bools": (((True,),), ((False, True),)),
    "ragged rows": (((1, 2), (3,)), ((0, 1), (0, 1))),
    "ragged rows, short first": (((1,), (2, 3)), ((0, 1),)),
    "empty p": ((), ()),
    "empty row": (((),), ()),
    "empty first row": (((), (1,)), ((0, 1),)),
    "empty later row": (((1,), ()), ((0, 1),)),
    "too few intervals": (((1, 2),), ((0, 1),)),
    "too many intervals": (((1,),), ((0, 1), (0, 1))),
    "interval of three": (((1,),), ((0, 1, 2),)),
    "interval of one": (((1,),), ((0,),)),
    "interval not a pair": (((1,),), (5,)),
    "zero time": (((0, 2),), ((0, 1), (0, 1))),
    "negative time": (((3, -2),), ((0, 1), (0, 1))),
    "negative release": (((1, 2),), ((0, 1), (-1, 2))),
    "lo above hi": (((1, 2),), ((0, 1), (4, 2))),
    "deterministic": (((2,),), ((3, 3),)),
    "time at 2**63": (((1, _I64),), ((0, 1), (0, 1))),
    "time past 2**64": (((1, 2**64 + 5),), ((0, 1), (0, 1))),
    "time at -2**63 - 1": (((1, -_I64 - 1),), ((0, 1), (0, 1))),
    "time at -2**63": (((1, -_I64),), ((0, 1), (0, 1))),
    "mixed huge times": (((_I64, -1),), ((0, 1), (0, 1))),
    "release at 2**63": (((1, 2),), ((0, 1), (0, _I64))),
    "release lo at 2**63": (((1, 2),), ((0, 1), (_I64, _I64 + 1))),
    "release at -2**63 - 1": (((1, 2),), ((0, 1), (-_I64 - 1, 0))),
    "int64 max hi": (((1,),), ((0, _I64 - 1),)),
    "just below the horizon": (((2**59,),), ((0, 2**62 - 2**59 - 1),)),
    "at the horizon": (((2**59,),), ((0, 2**62 - 2**59),)),
    "column sums past int64": (((_I64 - 1, _I64 - 1), (1, 1)), ((0, 0), (0, 0))),
    "float before ragged": (((1.5,), (1, 2)), ((0, 1),)),
    "ragged before zero": (((0,), (1, 2)), ((0, 1),)),
    "zero before bad interval": (((0,),), ((2, 1),)),
}
# the near-2**62 instances the evaluate-large workload scores
INT64_CASES = {
    "int64 case 1": (((_B, _B), (_B, _B)), ((0, 1), (0, 1))),
    "int64 case 2": (((_B, _B), (_B, _B)), ((0, 0), (1, 2))),
    "int64 case 3": (((_B, _B), (_B, _B)), ((0, 5), (2, 3))),
    "int64 case 4": (((_B - 1, _B), (_B, _B + 3)), ((0, 0), (1, 2))),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_same_outcome_as_the_per_entry_reference(name):
    assert_parity(*CASES[name])


@pytest.mark.parametrize("name", sorted(INT64_CASES))
def test_near_the_int64_limit_is_refused_as_before(name):
    kind, message = assert_parity(*INT64_CASES[name])
    assert kind is ValueError and "2**62" in message


def test_refusals_keep_their_types():
    assert assert_parity(*CASES["nan entry"])[0] is TypeError
    assert assert_parity(*CASES["str release"])[0] is TypeError
    assert assert_parity(*CASES["ragged rows"])[0] is ValueError
    assert assert_parity(*CASES["time past 2**64"])[0] is ValueError
    assert assert_parity(*CASES["all bools"])[0] == "ok"


@pytest.mark.parametrize("field, path", [
    ("p", (0, 1)), ("release", (1, 0)), ("release", (0, 1)),
])
def test_json_booleans_are_refused_through_io(field, path):
    document = {"m": 1, "n": 2, "p": [[1, 2]], "release": [[0, 1], [0, 1]]}
    row, column = path
    document[field][row][column] = True
    with pytest.raises(io.FormatError, match="boolean"):
        io.instance_from_dict(json.loads(json.dumps(document)))


@pytest.mark.parametrize("release", [
    [[0, 5], [1, 2]], np.array([[0, 5], [1, 2]]), np.array([[0, 1], [5, 2]]).T,
])
@pytest.mark.parametrize("p", [[[3, 2], [1, 4]], np.array([[3, 1], [2, 4]]).T])
def test_arrays_and_tuples_come_from_one_conversion(p, release):
    inst = Instance(p=p, release=release)
    assert inst.p == ((3, 2), (1, 4)) and inst.release == ((0, 5), (1, 2))
    assert all(type(v) is int for row in inst.p + inst.release for v in row)
    for array, values in ((inst.p_array, [[3, 2], [1, 4]]),
                          (inst.release_lo, [0, 1]), (inst.release_hi, [5, 2])):
        assert array.dtype == np.int64 and not array.flags.writeable
        assert array.flags.c_contiguous  # the builders gather from them
        assert array.tolist() == values
    assert inst == Instance(p=((3, 2), (1, 4)), release=((0, 5), (1, 2)))
    assert hash(inst) == hash(Instance(p=inst.p, release=inst.release))


def _random_entry(rng):
    kind = rng.random()
    if kind < 0.75:
        return rng.choice([rng.randint(-3, 40), rng.randint(0, 5)])
    return rng.choice([
        0, -1, 2.0, float("nan"), "7", True, False, np.int32(4), _I64,
        -_I64 - 1, _B, 2**61, 2**59,
    ])


def test_random_inputs_match_the_reference():
    rng = random.Random(20260)
    for _ in range(4000):
        m, n = rng.randint(0, 3), rng.randint(0, 4)
        p = [[_random_entry(rng) for _ in range(n)] for _ in range(m)]
        if p and rng.random() < 0.1:
            p[rng.randrange(m)].append(1)  # a ragged row
        intervals = []
        for _ in range(n + (rng.random() < 0.05) - (rng.random() < 0.05)):
            lo = _random_entry(rng)
            hi = lo + rng.randint(-1, 9) if type(lo) is int else _random_entry(rng)
            intervals.append((lo, hi))
        assert_parity(p, intervals)
