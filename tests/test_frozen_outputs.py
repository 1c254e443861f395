"""Frozen sha256 digests of whole CLI output files at DS1 n=2000, m=20.

The digests were taken from the pure-Python ``indent=2`` JSON writer and
the per-entry ``Instance`` constructor. Any change to the writer, the
readers or the instance conversion must reproduce these files byte for
byte: the generated instance with its provenance, the ``pm`` schedule and
the relaxed report of ``evaluate --out``.
"""
import hashlib

from robust_sched.cli import main

GENERATE_SHA256 = "b455e2e0ff752908de91940d91244999c4c2fb34042129a409c63728be0e3b6f"
SCHEDULE_SHA256 = "eb75a8b6e86c5c87f59ce52d49be4a1cba26a1f41442dd1348e6607b72c7f301"
EVALUATE_SHA256 = "3b3a4771ead1f6037b42838adaf8f6f0359021e77568d25c050aec515185630f"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_generate_solve_and_evaluate_files_are_frozen(tmp_path, capsys):
    inst, schedule, report = (tmp_path / f"{name}.json"
                              for name in ("inst", "sched", "report"))
    assert main(["generate", "--dataset", "DS1", "--n", "2000", "--m", "20",
                 "--seed", "0", "--out", str(inst)]) == 0
    assert main(["solve", "--instance", str(inst), "--algo", "pm",
                 "--out", str(schedule)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--instance", str(inst), "--schedule", str(schedule),
                 "--mode", "relaxed", "--out", str(report)]) == 0
    assert capsys.readouterr().out == report.read_text(encoding="utf-8")
    assert _sha256(inst) == GENERATE_SHA256
    assert _sha256(schedule) == SCHEDULE_SHA256
    assert _sha256(report) == EVALUATE_SHA256
