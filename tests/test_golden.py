"""Golden digests of schedules and relaxed reports at scale.

The sha256 digests below were frozen from the matrix implementation of the
extreme-scenario kernels. Any rewrite of the bound kernel, the extreme
makespans or the builders must reproduce them exactly: the same schedules,
bit for bit, and the same exact report values. The DS1 n=1000 and DS2 n=80
cases were frozen later, from the separate pr and pre builder loops, before
those loops were merged. The short-mode DS1 n=300 pr and n=150 pre cases
were frozen from the argsort tensor bound kernel, before the short-sighted
bounds moved onto the anchor kernel. The full-mode pm and pr cases at DS1
n=5000 and DS2 n=2000 were frozen from the dense per-iteration rescans,
before those two builders became event-driven.
"""
import hashlib
import json

import pytest

from robust_sched import HeuristicConfig, generate, relaxed_regret
from robust_sched.datagen import params_for_dataset
from robust_sched.heuristics import build_schedule


def _digest(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _report_payload(report):
    return [
        str(report.value),
        list(report.scenario.r),
        [[job, str(term)] for job, term in sorted(report.per_scenario.items())],
    ]


def _golden_payload(inst, config):
    schedule = build_schedule(inst, config)
    return (
        _digest([list(seq) for seq in schedule.machines]),
        _digest(_report_payload(relaxed_regret(schedule, inst))),
        _digest(_report_payload(relaxed_regret(schedule, inst, effective_only=True))),
    )


# (dataset, n, m, seed, algorithm, bound mode) ->
# (schedule, relaxed report, effective-only relaxed report)
GOLDEN = {
    ("DS1", 150, 5, 0, "pm", "full"): (
        "a71502397284266a", "c63df8213a9d0bb4", "a9dbf0dd34865993"
    ),
    ("DS1", 150, 5, 0, "pr", "full"): (
        "900ec19f1a92166e", "a014bd2a64d78779", "d5213f510c28ce0c"
    ),
    ("DS1", 150, 5, 0, "pre", "full"): (
        "70b391f33aa1c6bb", "57c5cb22bf8fd048", "a111320ea952f646"
    ),
    ("DS2", 300, 10, 1, "pm", "full"): (
        "db9aeaff5facc169", "3cc6b283e5357ddf", "767017eb5872c283"
    ),
    ("DS2", 300, 10, 1, "pr", "full"): (
        "a6be969f6ce39366", "ad718a455f18007f", "cff6376a164405be"
    ),
    ("DS2", 300, 10, 1, "pre", "full"): (
        "43e102a91db88458", "e011d5b01983c0c9", "ffaba940b9fea72b"
    ),
    ("DS1", 500, 5, 2, "pm", "full"): (
        "4423347bbffa61ea", "818f81f03c950df3", "5b8a38067faac0fd"
    ),
    ("DS1", 500, 5, 2, "pr", "full"): (
        "241a83b52c0abb6b", "39ea7ad4eef9a51d", "d0bf4bf3ae812968"
    ),
    ("DS1", 500, 5, 2, "pre", "full"): (
        "03b81752d09a185b", "cef0cd7bd755f2ca", "bcb85890c519e9b1"
    ),
    ("DS2", 500, 20, 3, "pm", "full"): (
        "174eafd82303a38b", "71eee673368e5c6f", "568f7164c28921ba"
    ),
    ("DS2", 500, 20, 3, "pr", "full"): (
        "03e0e938a01502c0", "475b5391376eb2e9", "db9a4a6647127f94"
    ),
    ("DS2", 500, 20, 3, "pre", "full"): (
        "1f49627c86d74c74", "3b12a7a264658c8e", "52aa1204b9b2b1e0"
    ),
    ("DS1", 40, 3, 0, "pr", "short"): (
        "5b84ddf9e6f40d29", "fdbeb9daefa5435f", "2366641ea5d85b1c"
    ),
    ("DS1", 40, 3, 0, "pre", "short"): (
        "94b16b2b2b602838", "20503994301f52b3", "9251fca3e80a5c4c"
    ),
    ("DS2", 60, 5, 1, "pr", "short"): (
        "f27daaea3e464130", "fd82a4c81129fbac", "d28bc2a647c3409a"
    ),
    ("DS2", 60, 5, 1, "pre", "short"): (
        "f8810a44e6ccf624", "300060871bc02cb1", "54d9f8570202eaed"
    ),
    ("DS1", 1000, 10, 0, "pr", "full"): (
        "1a55a519348c78e4", "040351fd28a804b7", "dd7daa8845a3f790"
    ),
    ("DS2", 80, 10, 1, "pr", "short"): (
        "0bc307644b065728", "dbe4e2ff7a4bf8ed", "1ea4e8c2ee485382"
    ),
    ("DS2", 80, 10, 1, "pre", "short"): (
        "09a754963ae15331", "bb8e504179967ca4", "6e3607331a622426"
    ),
    ("DS1", 300, 5, 0, "pr", "short"): (
        "ddcf6692f45d97f1", "f4745f4249ee74de", "9f0e7b31cb92d993"
    ),
    ("DS1", 150, 5, 0, "pre", "short"): (
        "bc7e5f2dc8aa0433", "dd8fab2cbc53d5a9", "9ce4770708e45539"
    ),
    ("DS1", 5000, 10, 0, "pm", "full"): (
        "f23c026f4d947c25", "0b3373e7b52812c3", "ce6a1375f4765c96"
    ),
    ("DS1", 5000, 10, 0, "pr", "full"): (
        "7538bdbeeefb0e27", "9121fb6a604a1b11", "9ba1bd46fbb83512"
    ),
    ("DS2", 2000, 20, 1, "pm", "full"): (
        "49bf79dff153bb5b", "1d58ec23b76773ec", "6e645b5242d6b563"
    ),
    ("DS2", 2000, 20, 1, "pr", "full"): (
        "87c431e9b389fd3e", "8d2fe8287338880e", "936c52bdd9542ae8"
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_golden_digests(case):
    dataset, n, m, seed, algorithm, mode = case
    inst = generate(params_for_dataset(dataset, n, m), seed)
    config = HeuristicConfig(algorithm=algorithm, bound_mode=mode)
    assert _golden_payload(inst, config) == GOLDEN[case]
