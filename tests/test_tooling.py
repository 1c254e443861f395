"""Guards for the benchmark's traced run (``perfbench/tracing.py``).

The tracer finds every layer function by name in its defining module and
replaces the module global of that name in each listed user module. A
renamed or moved function would leave the traced run timing nothing, so
each entry must still name a function of its home module that every user
module reaches through a module global of the same object.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Entries that name a module no longer reaching the function: bounds and
# oracle read coverage through ``covered_mask``, and the oracle's suffix
# bounds come from a reverse scan, not from ``scaled_combined_rows``, so
# the tracer only adds an unused attribute there.
STALE_USERS = {
    ("covered_jobs", "bounds"),
    ("covered_jobs", "oracle"),
    ("scaled_combined_rows", "oracle"),
}


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_is_a_global_of_its_users():
    missing = set()
    for _, home, attr, users in _layers():
        function = getattr(importlib.import_module(f"robust_sched.{home}"), attr)
        assert callable(function), f"{home}.{attr}"
        for user in users:
            module = importlib.import_module(f"robust_sched.{user}")
            if vars(module).get(attr) is not function:
                missing.add((attr, user))
    assert missing == STALE_USERS
