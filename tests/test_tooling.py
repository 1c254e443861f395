"""Guards for the benchmark's traced run (``perfbench/tracing.py``) and for
the package size the README states.

The tracer finds every layer function by name in its defining module and
replaces the module global of that name in each listed user module. A
renamed or moved function would leave the traced run timing nothing, so
each entry must still name a function of its home module that every user
module reaches through a module global of the same object.
"""
import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"

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


def test_readme_states_the_package_line_count():
    # the count of ``wc -l src/robust_sched/*.py``: newline characters
    stated = re.search(r"`src/robust_sched`\s+holds\s+([\d,]+)\s+lines",
                       (ROOT / "README.md").read_text(encoding="utf-8"))
    assert stated, "README no longer states the src/robust_sched line count"
    total = sum(
        path.read_bytes().count(b"\n")
        for path in (ROOT / "src" / "robust_sched").glob("*.py")
    )
    assert int(stated.group(1).replace(",", "")) == total
