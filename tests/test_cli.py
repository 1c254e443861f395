import csv
import json
import os
import subprocess
import sys
import time

import pytest

from robust_sched import GenParams, cli, generate, io
from robust_sched.cli import _limits, build_parser, main
from robust_sched.experiments import ExperimentSpec, render_markdown, run_benchmark
from robust_sched.model import validate_schedule
from robust_sched.oracle import OracleLimits

from conftest import count_searches


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def small_instance_file(tmp_path):
    path = tmp_path / "inst.json"
    assert run(
        ["generate", "--dataset", "custom", "--n", "4", "--m", "2",
         "--segments", "2", "--r-domain-hi", "20", "--p-lo", "2", "--p-hi", "9",
         "--seed", "3", "--out", path]
    ) == 0
    return path


class TestGenerate:
    def test_writes_instance_with_provenance(self, tmp_path):
        path = tmp_path / "ds1.json"
        assert run(["generate", "--dataset", "DS1", "--n", "50", "--m", "5",
                    "--seed", "1", "--out", path]) == 0
        document = io.read_json(path)
        assert document["n"] == 50 and document["m"] == 5
        assert document["provenance"]["generatorVersion"]
        assert io.read_instance(path).n == 50

    def test_byte_identical_reruns(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for path in (first, second):
            assert run(["generate", "--dataset", "DS2", "--n", "20", "--m", "3",
                        "--seed", "4", "--out", path]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_rejects_too_few_jobs(self, tmp_path, capsys):
        code = run(["generate", "--dataset", "DS1", "--n", "5", "--m", "2",
                    "--seed", "0", "--out", tmp_path / "x.json"])
        assert code == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert diagnostic["error"] == "ValueError"


class TestSolve:
    @pytest.mark.parametrize("algo", ["pm", "pr", "pre"])
    def test_solves_and_reports(self, small_instance_file, tmp_path, capsys, algo):
        out = tmp_path / f"{algo}.json"
        assert run(["solve", "--instance", small_instance_file,
                    "--algo", algo, "--out", out]) == 0
        line = capsys.readouterr().out.strip()
        assert f"algorithm={algo}" in line and "relaxedRegret=" in line
        schedule = io.read_schedule(out)
        inst = io.read_instance(small_instance_file)
        assert validate_schedule(schedule, inst) is None

    def test_single_job_instance(self, tmp_path, capsys):
        inst_path = tmp_path / "one.json"
        io.write_json(inst_path, {"m": 1, "n": 1, "p": [[5]], "release": [[0, 4]]})
        out = tmp_path / "sched.json"
        assert run(["solve", "--instance", inst_path, "--algo", "pm",
                    "--out", out]) == 0
        assert io.read_schedule(out).machines == ((0,),)
        assert "relaxedRegret=0" in capsys.readouterr().out

    def test_invalid_json_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        assert run(["solve", "--instance", bad, "--algo", "pm"]) == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert diagnostic["error"] == "FormatError"

    def test_short_bound_mode(self, small_instance_file, capsys):
        assert run(["solve", "--instance", small_instance_file, "--algo", "pr",
                    "--bound-mode", "short"]) == 0
        assert "boundMode=short" in capsys.readouterr().out


class TestEvaluate:
    def _schedule_file(self, tmp_path, instance_file):
        out = tmp_path / "sched.json"
        assert run(["solve", "--instance", instance_file, "--algo", "pm",
                    "--out", out]) == 0
        return out

    def test_relaxed_report(self, small_instance_file, tmp_path, capsys):
        sched = self._schedule_file(tmp_path, small_instance_file)
        capsys.readouterr()
        assert run(["evaluate", "--instance", small_instance_file,
                    "--schedule", sched, "--mode", "relaxed"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] >= 0
        assert report["scenario"]["r"]

    def test_exact_below_relaxed(self, small_instance_file, tmp_path, capsys):
        sched = self._schedule_file(tmp_path, small_instance_file)
        capsys.readouterr()
        values = {}
        for mode in ("relaxed", "exact", "grid"):
            assert run(["evaluate", "--instance", small_instance_file,
                        "--schedule", sched, "--mode", mode]) == 0
            values[mode] = json.loads(capsys.readouterr().out)["value"]
        assert values["exact"] <= values["relaxed"]
        assert values["grid"] == values["exact"]

    def test_limit_exceeded_on_large_instance(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        assert run(["generate", "--dataset", "DS1", "--n", "10", "--m", "2",
                    "--seed", "0", "--out", path]) == 0
        sched = self._schedule_file(tmp_path, path)
        assert run(["evaluate", "--instance", path, "--schedule", sched,
                    "--mode", "exact"]) == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert diagnostic["error"] == "LimitExceededError"

    def test_negative_time_budget_is_a_clean_error(
        self, small_instance_file, tmp_path, capsys
    ):
        sched = self._schedule_file(tmp_path, small_instance_file)
        capsys.readouterr()
        assert run(["evaluate", "--instance", small_instance_file,
                    "--schedule", sched, "--mode", "exact",
                    "--time-budget", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        diagnostic = json.loads(captured.err)
        assert diagnostic["error"] == "ValueError"
        assert "time budget" in diagnostic["message"]

    def test_nan_time_budget_is_a_clean_error(
        self, small_instance_file, tmp_path, capsys
    ):
        sched = self._schedule_file(tmp_path, small_instance_file)
        capsys.readouterr()
        assert run(["evaluate", "--instance", small_instance_file,
                    "--schedule", sched, "--mode", "exact",
                    "--time-budget", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        diagnostic = json.loads(captured.err)
        assert diagnostic["error"] == "ValueError"
        assert "time budget" in diagnostic["message"]

    @pytest.mark.parametrize("content, reason", [
        (b"[" * 200_000, "nested too deeply"),
        ('{"m": "\u00e9"}'.encode("latin-1"), "not UTF-8"),
    ], ids=["deep", "latin-1"])
    def test_unreadable_file_is_a_clean_format_error(
        self, small_instance_file, tmp_path, capsys, content, reason
    ):
        sched = self._schedule_file(tmp_path, small_instance_file)
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        capsys.readouterr()
        for instance, schedule in ((bad, sched), (small_instance_file, bad)):
            assert run(["evaluate", "--instance", instance, "--schedule", schedule,
                        "--mode", "relaxed"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            diagnostic = json.loads(captured.err)
            assert diagnostic["error"] == "FormatError"
            assert str(bad) in diagnostic["message"]
            assert reason in diagnostic["message"]

    def test_report_written_to_file(self, small_instance_file, tmp_path):
        sched = self._schedule_file(tmp_path, small_instance_file)
        out = tmp_path / "report.json"
        assert run(["evaluate", "--instance", small_instance_file,
                    "--schedule", sched, "--mode", "relaxed", "--out", out]) == 0
        assert io.read_json(out)["value"] >= 0


class TestBench:
    def test_row_count_and_determinism(self, tmp_path, capsys):
        args = ["bench", "--dataset", "DS1", "--n-values", "50,100",
                "--m-values", "5", "--algos", "pm,pr,pre", "--reps", "3",
                "--seed-base", "7"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", first]) == 0
        assert run(args + ["--out", second]) == 0
        capsys.readouterr()

        def strip_wall(path):
            with open(path, newline="") as handle:
                rows = list(csv.reader(handle))
            assert rows[0] == list(
                ("dataset", "n", "m", "algorithm", "boundMode", "seed",
                 "relaxedRegret", "wallMs")
            )
            return [row[:-1] for row in rows[1:]]

        rows = strip_wall(first)
        assert len(rows) == 18  # 2 sizes x 1 machine count x 3 algorithms x 3 reps
        assert rows == strip_wall(second)

    def test_empty_algorithms_rejected(self, tmp_path, capsys):
        assert run(["bench", "--dataset", "DS1", "--n-values", "50",
                    "--m-values", "5", "--algos", "", "--out",
                    tmp_path / "x.csv"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"

    def test_markdown_rendering(self, capsys, tmp_path):
        assert run(["bench", "--dataset", "DS1", "--n-values", "50",
                    "--m-values", "5", "--algos", "pm", "--reps", "2",
                    "--seed-base", "1", "--out", tmp_path / "t.csv",
                    "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "### DS1, m=5" in out
        assert "| n | pm |" in out


class TestCheck:
    def test_passes_on_oracle_sized_instance(self, small_instance_file, capsys):
        assert run(["check", "--instance", small_instance_file]) == 0
        out = capsys.readouterr().out
        assert "extreme-scenario reduction" in out
        assert "fail" not in out

    def test_reports_disjoint_property_when_it_holds(self, tmp_path, capsys):
        # disjoint intervals with no-spill gaps: the zero-regret line fires
        path = tmp_path / "disjoint.json"
        io.write_json(path, {
            "m": 2, "n": 3,
            "p": [[2, 3, 4], [3, 2, 5]],
            "release": [[0, 1], [6, 8], [14, 15]],
        })
        assert run(["check", "--instance", path]) == 0
        out = capsys.readouterr().out
        assert "pass disjoint intervals: pm is optimal" in out

    def test_budget_cut_grid_is_skipped_not_failed(self, tmp_path, capsys):
        # a 1 ms budget for the whole battery runs out in its exact searches
        path = tmp_path / "seven.json"
        inst = generate(GenParams(n=7, m=3, r_domain_hi=30, segments=2), 0)
        io.write_json(path, io.instance_to_dict(inst))
        run(["check", "--instance", path, "--grid-points", "3",
             "--time-budget", "0.001"])
        out = capsys.readouterr().out
        assert "skip extreme-scenario reduction (budget cut a search)" in out

    def test_grid_too_large_is_skipped_not_failed(self, tmp_path, capsys):
        # 5 points on each of 8 intervals of width 6 make 5**8 = 390,625
        # scenarios, above the grid limit of 250,000
        path = tmp_path / "wide.json"
        io.write_json(path, {
            "m": 1, "n": 8,
            "p": [[3, 5, 2, 4, 6, 3, 2, 5]],
            "release": [[4 * j, 4 * j + 6] for j in range(8)],
        })
        assert run(["check", "--instance", path, "--grid-points", "5"]) == 0
        out = capsys.readouterr().out
        assert "skip extreme-scenario reduction (grid too large)" in out
        assert "fail" not in out

    def test_grid_of_fourteen_jobs_is_scored(self, tmp_path, capsys):
        # 2**14 corner rows are within the grid limit, and the grid is
        # scored from the extreme optima at any job count the limits accept
        path = tmp_path / "fourteen.json"
        inst = generate(GenParams(n=14, m=3, r_domain_hi=30, segments=2), 0)
        io.write_json(path, io.instance_to_dict(inst))
        code = run(["check", "--instance", path, "--max-jobs", "14",
                    "--grid-points", "2"])
        assert (code, capsys.readouterr().out.splitlines()) == (
            0, ALL_PASS + CONDITIONS_NOT_MET
        )

    def test_time_budget_is_the_wall_clock_of_the_command(self, tmp_path, capsys):
        # about 26 oracle calls share the one budget; with a fresh budget
        # each, the command took about 0.5-0.9 s here
        path = tmp_path / "seven.json"
        inst = generate(GenParams(n=7, m=3, r_domain_hi=30, segments=2), 0)
        io.write_json(path, io.instance_to_dict(inst))
        started = time.perf_counter()
        assert run(["check", "--instance", path, "--time-budget", "0.01"]) == 0
        elapsed = time.perf_counter() - started
        lines = capsys.readouterr().out.splitlines()
        assert elapsed < 0.4, elapsed
        cut = [line for line in lines if line.endswith("(budget cut a search)")]
        assert cut and all(line.startswith("skip ") for line in cut)
        assert not any(line.startswith("fail") for line in lines)

    def test_spilling_disjoint_instance_is_skipped_not_failed(self, tmp_path, capsys):
        # disjoint intervals on 3 machines where processing spills past the
        # next lower release: the minimum regret of any schedule is 1
        path = tmp_path / "spill.json"
        io.write_json(path, {
            "m": 3, "n": 4,
            "p": [[9, 7, 7, 5], [6, 4, 3, 7], [9, 5, 3, 4]],
            "release": [[19, 22], [25, 28], [3, 7], [11, 15]],
        })
        assert run(["check", "--instance", path]) == 0
        out = capsys.readouterr().out
        assert "skip disjoint intervals (processing spills over a gap)" in out
        assert "fail" not in out

    def test_every_line_reading_a_cut_search_is_skipped(self, small_instance_file, capsys):
        # a zero budget leaves every search uncertified
        assert run(["check", "--instance", small_instance_file,
                    "--time-budget", "0"]) == 0
        out = capsys.readouterr().out
        for line in ("covered-job pruning keeps the maximum",
                     "regret within [0, upper bound]",
                     "lower bounds below the optimum",
                     "relaxed regret dominates exact"):
            assert f"skip {line} (budget cut a search)" in out
        assert "pass" not in out and "fail" not in out

    def test_limit_exceeded_on_large_instance(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        assert run(["generate", "--dataset", "DS1", "--n", "10", "--m", "2",
                    "--seed", "0", "--out", path]) == 0
        assert run(["check", "--instance", path]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "LimitExceededError"


ALL_PASS = [
    "pass extreme-scenario reduction (grid == exact)",
    "pass covered-job pruning keeps the maximum",
    "pass regret within [0, upper bound]",
    "pass lower bounds below the optimum",
    "pass relaxed regret dominates exact",
]
CONDITIONS_NOT_MET = [
    "skip disjoint intervals (condition not met)",
    "skip dominant job (condition not met)",
]


class TestCheckOutputIsPinned:
    """The battery's whole stdout and exit code, frozen while each battery
    schedule still made its own ``grid_regret`` call."""

    DISJOINT = {"m": 2, "n": 3, "p": [[2, 3, 4], [3, 2, 5]],
                "release": [[0, 1], [6, 8], [14, 15]]}
    SPILL = {"m": 3, "n": 4, "p": [[9, 7, 7, 5], [6, 4, 3, 7], [9, 5, 3, 4]],
             "release": [[19, 22], [25, 28], [3, 7], [11, 15]]}
    WIDE = {"m": 1, "n": 8, "p": [[3, 5, 2, 4, 6, 3, 2, 5]],
            "release": [[4 * j, 4 * j + 6] for j in range(8)]}

    @staticmethod
    def seven_file(tmp_path):
        path = tmp_path / "seven.json"
        inst = generate(GenParams(n=7, m=3, r_domain_hi=30, segments=2), 0)
        io.write_json(path, io.instance_to_dict(inst))
        return path

    def check(self, capsys, path, *flags):
        code = run(["check", "--instance", path, *flags])
        return code, capsys.readouterr().out.splitlines()

    def test_small(self, small_instance_file, capsys):
        assert self.check(capsys, small_instance_file) == (0, ALL_PASS + CONDITIONS_NOT_MET)

    def test_seven_jobs_three_machines_at_three_points(self, tmp_path, capsys):
        path = self.seven_file(tmp_path)
        assert self.check(capsys, path, "--grid-points", "3") == (
            0, ALL_PASS + CONDITIONS_NOT_MET
        )

    def test_disjoint(self, tmp_path, capsys):
        path = tmp_path / "disjoint.json"
        io.write_json(path, self.DISJOINT)
        assert self.check(capsys, path) == (0, ALL_PASS + [
            "pass disjoint intervals: pm is optimal",
            "pass dominant job: pm is optimal",
        ])

    def test_spill(self, tmp_path, capsys):
        path = tmp_path / "spill.json"
        io.write_json(path, self.SPILL)
        assert self.check(capsys, path) == (0, ALL_PASS + [
            "skip disjoint intervals (processing spills over a gap)",
            "skip dominant job (condition not met)",
        ])

    def test_wide_grid_too_large(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        io.write_json(path, self.WIDE)
        assert self.check(capsys, path, "--grid-points", "5") == (0, [
            "skip extreme-scenario reduction (grid too large)", *ALL_PASS[1:],
            *CONDITIONS_NOT_MET,
        ])

    def test_wide_grid_too_large_at_zero_budget(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        io.write_json(path, self.WIDE)
        cut = [line.replace("pass", "skip", 1) + " (budget cut a search)"
               for line in ALL_PASS[1:]]
        assert self.check(capsys, path, "--grid-points", "5", "--time-budget", "0") == (
            0, ["skip extreme-scenario reduction (grid too large)", *cut,
                *CONDITIONS_NOT_MET],
        )

    @pytest.mark.parametrize("flags", [[], ["--time-budget", "0"]])
    @pytest.mark.parametrize("points", ["1", "0"])
    def test_bad_grid_points_refused_before_any_search(
        self, small_instance_file, capsys, monkeypatch, flags, points
    ):
        def no_search(*args, **kwargs):
            raise AssertionError("an exact search ran")

        monkeypatch.setattr(cli, "exact_worst_case_regret", no_search)
        code = run(["check", "--instance", small_instance_file,
                    "--grid-points", points, *flags])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert json.loads(captured.err)["error"] == "ValueError"


@pytest.mark.parametrize("points", ["3", "5"])
def test_check_searches_each_distinct_scenario_once(tmp_path, capsys, monkeypatch, points):
    # the battery's exact regrets, its grid and its optima list share the
    # optima kept on the instance: one search per distinct scenario (the n
    # extreme ones, the lower one and the one grid row that the extreme
    # optima cannot settle, at 3 and at 5 points, where the subset DP
    # solved all 3**7 or 5**7 rows), where each call searched again before
    searches = count_searches(monkeypatch)
    path = TestCheckOutputIsPinned.seven_file(tmp_path)
    code = run(["check", "--instance", path, "--grid-points", points])
    assert (code, capsys.readouterr().out.splitlines()) == (
        0, ALL_PASS + CONDITIONS_NOT_MET
    )
    assert len(searches) == len(set(searches)) == 7 + 1 + 1


class TestOneParserPerProcess:
    """``main`` builds its parser once; each call must still print what the
    same command prints in a process of its own."""

    @staticmethod
    def alone(argv):
        child = subprocess.run(
            [sys.executable, "-m", "robust_sched", *map(str, argv)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        return child.returncode, child.stdout, child.stderr

    def test_calls_in_one_process_print_what_each_prints_alone(
        self, small_instance_file, tmp_path, capsys
    ):
        sched = tmp_path / "sched.json"
        assert run(["solve", "--instance", small_instance_file, "--algo", "pr",
                    "--out", sched]) == 0
        evaluate = ["evaluate", "--instance", small_instance_file,
                    "--schedule", sched, "--mode", "exact"]
        check = ["check", "--instance", small_instance_file, "--grid-points", "3"]
        bad_flags = ["evaluate", "--instance", small_instance_file, "--mode", "grid"]
        capsys.readouterr()
        seen = []
        for argv in (evaluate, check, evaluate, bad_flags, check, evaluate):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        assert [code for code, _, _ in seen] == [0, 0, 0, 2, 0, 0]
        for argv, (code, out, err) in zip((evaluate, check), seen[:2]):
            assert self.alone(argv) == (code, out, err)
        assert seen[2] == seen[5] == seen[0] and seen[4] == seen[1]
        assert self.alone(bad_flags) == seen[3]


class TestOracleFlags:
    @pytest.mark.parametrize("argv", [
        ["evaluate", "--instance", "i.json", "--schedule", "s.json",
         "--mode", "exact"],
        ["check", "--instance", "i.json"],
    ])
    def test_defaults_are_the_default_limits(self, argv):
        args = build_parser().parse_args(argv)
        assert _limits(args) == OracleLimits()
        assert args.grid_points == 5

    def test_flags_reach_the_limits(self):
        args = build_parser().parse_args(
            ["check", "--instance", "i.json", "--max-jobs", "9",
             "--max-machines", "4", "--time-budget", "0.5"]
        )
        assert _limits(args) == OracleLimits(
            max_jobs=9, max_machines=4, time_budget=0.5
        )


class TestExperimentSpecValidation:
    def test_rejects_empty_grids(self):
        with pytest.raises(ValueError):
            ExperimentSpec(dataset="DS1", n_values=(), m_values=(5,),
                           algorithms=("pm",))

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            ExperimentSpec(dataset="DS1", n_values=(50,), m_values=(5,),
                           algorithms=("magic",))

    def test_rejects_unknown_bound_mode_up_front(self):
        # refused at construction, before any cell runs, even for pm alone
        for algorithms in (("pm",), ("pm", "pr")):
            with pytest.raises(ValueError, match="bound mode"):
                ExperimentSpec(dataset="DS1", n_values=(50,), m_values=(5,),
                               algorithms=algorithms, bound_mode="bogus")

    def test_rejects_every_bad_size_up_front(self):
        # n = 5 has fewer jobs than DS1's 10 segments, though n = 100 is fine
        with pytest.raises(ValueError, match="one job per segment"):
            ExperimentSpec(dataset="DS1", n_values=(5, 100), m_values=(5,),
                           algorithms=("pm",))
        with pytest.raises(ValueError, match="one machine"):
            ExperimentSpec(dataset="DS1", n_values=(50,), m_values=(0, 5),
                           algorithms=("pm",))

    def test_rows_sorted_deterministically(self):
        spec = ExperimentSpec(
            dataset="DS1", n_values=(100, 50), m_values=(5,),
            algorithms=("pre", "pm"), repetitions=2, seed_base=0,
        )
        rows = run_benchmark(spec)
        keys = [(r.n, r.algorithm, r.seed) for r in rows]
        assert keys == sorted(keys, key=lambda k: (k[0], {"pm": 0, "pre": 2}[k[1]], k[2]))
        table = render_markdown(rows)
        assert "| n | pm | pre |" in table

    def test_parallel_workers_match_sequential(self):
        spec = ExperimentSpec(
            dataset="DS2", n_values=(50,), m_values=(3,),
            algorithms=("pm", "pr"), repetitions=2, seed_base=4,
        )
        sequential = run_benchmark(spec, workers=1)
        parallel = run_benchmark(spec, workers=2)
        strip = lambda rows: [
            (r.dataset, r.n, r.m, r.algorithm, r.bound_mode, r.seed,
             r.relaxed_regret)
            for r in rows
        ]
        assert strip(sequential) == strip(parallel)

    def test_worker_count_env(self, monkeypatch):
        from robust_sched.experiments import THREADS_ENV_VAR, worker_count

        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        assert worker_count() == 3
        monkeypatch.setenv(THREADS_ENV_VAR, "not-a-number")
        assert worker_count() == 1
        monkeypatch.delenv(THREADS_ENV_VAR)
        assert worker_count() == 1
