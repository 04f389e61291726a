import json
import math
import os

import numpy as np
import pytest

import clearq.cli as cli
import clearq.simulate as simulate
import clearq.thresholds as thresholds
from clearq.experiments import EXAMPLE_PARAMS, SweepSpec, sweep
from clearq.thresholds import CapExceeded, Classification, search_caps, threshold_spec


def run(argv):
    return cli.main(argv)


class TestSolveCommand:
    def test_writes_value_and_diff_csv(self, tmp_path):
        code = run([
            "solve", "--c1", "4", "--c2", "2", "--mu1", "3", "--mu2", "0.96",
            "--h0", "0.1", "--h1", "1", "--h2", "0.16", "--imax", "20",
            "--outdir", str(tmp_path),
        ])
        assert code == 0
        values = (tmp_path / "values.csv").read_text().splitlines()
        diffs = (tmp_path / "diff.csv").read_text().splitlines()
        assert values[0] == "i,k,l,value"
        assert diffs[0] == "i,k,l,D"
        assert len(values) == 1 + 10 + 21 * 5  # header + partial triangle + levels 0..20

    def test_missing_flag_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--c1", "4", "--imax", "5", "--outdir", str(tmp_path)])
        assert exc.value.code == 2

    def test_imax_zero_boundary_only(self, tmp_path):
        code = run(["solve", "--preset", "ex1", "--imax", "0", "--outdir", str(tmp_path)])
        assert code == 0
        assert len((tmp_path / "values.csv").read_text().splitlines()) == 1 + 10 + 5

    def test_byte_identical_rerun(self, tmp_path):
        args = ["solve", "--preset", "ex5", "--imax", "14", "--outdir"]
        run(args + [str(tmp_path / "a")])
        run(args + [str(tmp_path / "b")])
        assert (tmp_path / "a/values.csv").read_bytes() == (tmp_path / "b/values.csv").read_bytes()
        assert (tmp_path / "a/diff.csv").read_bytes() == (tmp_path / "b/diff.csv").read_bytes()

    def test_params_json_with_flag_override(self, tmp_path):
        params_file = tmp_path / "p.json"
        params_file.write_text(json.dumps(
            {"C1": 4, "C2": 2, "mu1": 3, "mu2": 0.96, "h0": 0.1, "h1": 1, "h2": 0.16}))
        code = run([
            "solve", "--params-json", str(params_file), "--imax", "0",
            "--outdir", str(tmp_path / "out"),
        ])
        assert code == 0

    def test_unknown_json_key_rejected(self, tmp_path):
        params_file = tmp_path / "p.json"
        params_file.write_text(json.dumps({"C1": 4, "bogus": 1}))
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--params-json", str(params_file), "--imax", "0",
                 "--outdir", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text, got", [
        ("5", "a number"), ("2.5", "a number"), ("null", "null"), ("true", "a boolean"),
        ("[1, 2]", "an array"), ('"C1"', "a string"),
    ])
    def test_params_json_not_an_object_one_line_error(self, tmp_path, capsys, text, got):
        params_file = tmp_path / "p.json"
        params_file.write_text(text)
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--preset", "ex1", "--params-json", str(params_file), "--imax", "0",
                 "--outdir", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == f"clearq: parameter error: {params_file} must hold a JSON object, got {got}\n"
        assert not (tmp_path / "out").exists()

    def test_missing_params_json_one_line_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--params-json", str(tmp_path / "absent.json"), "--imax", "0",
                 "--outdir", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("clearq: ") and err.count("\n") == 1
        assert "absent.json" in err

    def test_bool_rate_in_params_json_one_line_error(self, tmp_path, capsys):
        params_file = tmp_path / "p.json"
        params_file.write_text(json.dumps(
            {"C1": 4, "C2": 2, "mu1": True, "mu2": 0.96, "h0": 0.1, "h1": 1, "h2": 0.16}))
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--params-json", str(params_file), "--imax", "0",
                 "--outdir", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("clearq: ") and err.count("\n") == 1
        assert "mu1 must be a number" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("source", ["flag", "params-json"])
    def test_non_finite_rate_or_cost_one_line_error(self, tmp_path, capsys, value, source):
        if source == "flag":
            given = ["--preset", "ex1", "--h2", value]
        else:
            params_file = tmp_path / "p.json"
            params_file.write_text(json.dumps(dict(EXAMPLE_PARAMS["ex1"].to_json_dict(),
                                                   h2=float(value))))
            given = ["--params-json", str(params_file)]
        with pytest.raises(SystemExit) as exc:
            run(["solve", *given, "--imax", "0", "--outdir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"clearq: parameter error: parameter h2 must be finite and positive, got {value}\n")
        assert not (tmp_path / "out").exists()

    # Finite rates and costs (C1 C2 mu1 mu2 h0 h1 h2) so far apart in magnitude that a
    # term of the thresholds overflows or underflows, and the term the error names.
    FAR_APART = [
        ("2 1 1e-300 1e300 1 1 1", "m = mu2/mu1 is inf"),
        ("2 1 10 4 5e-324 1 0.1", "c is -0.0"),
        ("3 1 2e-100 7e100 3e-100 2 2e-100", "a cap coefficient is 0.0"),
        ("1 3 7e300 5e-50 1e-50 3e150 6e10", "h1*mu2 - h2*mu1 is -inf"),
    ]
    FAR_APART_IDS = ["m-overflows", "c-underflows", "cap-coefficient-underflows",
                     "cost-gap-overflows"]

    @staticmethod
    def far_apart_flags(values):
        return [arg for flag, value in zip(("--c1", "--c2", "--mu1", "--mu2", "--h0", "--h1",
                                            "--h2"), values.split()) for arg in (flag, value)]

    @pytest.mark.parametrize("values, term", FAR_APART, ids=FAR_APART_IDS)
    def test_far_apart_rates_and_costs_one_line_error(self, tmp_path, capsys, values, term):
        with pytest.raises(SystemExit) as exc:
            run(["thresholds", *self.far_apart_flags(values), "--outdir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"clearq: parameter error: {term}: the rates and costs are too far apart in "
            "magnitude for float arithmetic\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("values, term", FAR_APART[:2], ids=FAR_APART_IDS[:2])
    def test_far_apart_heuristic_simulation_one_line_error(self, tmp_path, capsys, values, term):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", *self.far_apart_flags(values), "--policy", "heuristic", "--i0", "3",
                 "--reps", "10", "--out", str(tmp_path / "sim.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"clearq: parameter error: {term}: ") and err.count("\n") == 1
        assert not (tmp_path / "sim.json").exists()

    def test_uncreatable_outdir_one_line_error(self, tmp_path, capsys):
        blocker = tmp_path / "plain-file"
        blocker.write_text("")
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--preset", "ex1", "--imax", "3", "--outdir", str(blocker / "x")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("clearq: ") and err.count("\n") == 1
        assert "plain-file" in err

    def test_depth_too_large_to_allocate_one_line_error(self, tmp_path, capsys):
        # The table's allocation fails at once, far beyond any address space.
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--preset", "ex1", "--imax", "1000000000000000",
                 "--outdir", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("clearq: out of memory: ") and err.count("\n") == 1
        assert not (tmp_path / "values.csv").exists()

    def test_replications_too_many_to_allocate_one_line_error(self, tmp_path, monkeypatch,
                                                              capsys):
        # The cost array's allocation fails at once, far beyond any address space,
        # before any batch runs.
        def no_batch(*args):
            pytest.fail("a batch ran before the cost array was allocated")

        monkeypatch.setattr(simulate, "_batch_costs", no_batch)
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--preset", "ex1", "--policy", "pi1", "--i0", "2",
                 "--reps", str(10**17), "--out", str(tmp_path / "sim.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("clearq: out of memory: Unable to allocate ")
        assert err.count("\n") == 1
        assert not (tmp_path / "sim.json").exists()

    DEEP = 10**20  # past numpy's index range, which it reports as ValueError

    @pytest.mark.parametrize("argv, what", [
        (["solve", "--preset", "ex1", "--imax", str(DEEP), "--outdir", "out"],
         f"a table of queue depth {DEEP}"),
        (["curve", "--preset", "ex1", "--k", "1", "--imax", str(DEEP), "--out", "dh.csv"],
         f"a table of queue depth {DEEP}"),
        (["verify", "--grid", "examples", "--imax", str(DEEP), "--jobs", "1", "--out", "v.json"],
         f"a table of queue depth {DEEP}"),
        # Rates 10 orders of magnitude apart: the search cap, and so the solve depth.
        (["thresholds", "--c1", "2", "--c2", "1", "--mu1", "1e-5", "--mu2", "1e5", "--h0", "1",
          "--h1", "1", "--h2", "1", "--outdir", "out"],
         "a table of queue depth 99999999989999960067"),
        (["simulate", "--preset", "ex1", "--policy", "pi1", "--i0", "2", "--reps", str(DEEP),
          "--out", "sim.json"], f"the costs of {DEEP} replications"),
        (["simulate", "--preset", "ex1", "--policy", "pi1", "--i0", str(DEEP), "--reps", "10",
          "--out", "sim.json"], f"an episode of {DEEP + 4} events"),
    ], ids=["solve", "curve", "verify", "thresholds", "simulate-reps", "simulate-i0"])
    def test_size_past_the_index_range_is_out_of_memory(self, argv, what, tmp_path, monkeypatch,
                                                        capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"clearq: out of memory: cannot allocate {what} (")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_bare_memory_error_one_line_without_detail(self, monkeypatch, capsys):
        # A failed allocation of a Python object, a list say, raises MemoryError() bare.
        def command(args):
            raise MemoryError()

        monkeypatch.setattr(cli, "cmd_simulate", command)
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--preset", "ex1", "--policy", "pi1", "--i0", "2", "--reps", "10"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "clearq: out of memory\n"


class TestThresholdsCommand:
    def test_condition_column_and_values(self, tmp_path):
        code = run(["thresholds", "--preset", "ex3b", "--outdir", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "thresholds.csv").read_text().splitlines()
        assert rows[0] == "index,actual,heuristic,cond1"
        assert "2,13,13,HoldsQueueSide" in rows

    def test_highcost_slow_station2_all_infinite(self, tmp_path):
        code = run([
            "thresholds", "--c1", "3", "--c2", "1", "--mu1", "10", "--mu2", "4",
            "--h0", "0.1", "--h1", "1", "--h2", "2", "--outdir", str(tmp_path),
        ])
        assert code == 0
        rows = (tmp_path / "thresholds.csv").read_text().splitlines()[1:]
        assert rows and all(row.split(",")[1] == "inf" for row in rows)

    def test_single_server_heuristic_exact(self, tmp_path):
        code = run([
            "thresholds", "--c1", "1", "--c2", "1", "--mu1", "10", "--mu2", "4",
            "--h0", "0.1", "--h1", "1", "--h2", "0.1", "--outdir", str(tmp_path),
        ])
        assert code == 0
        for row in (tmp_path / "thresholds.csv").read_text().splitlines()[1:]:
            _, actual, heuristic, _ = row.split(",")
            assert actual == heuristic

    def test_profile_files_emitted(self, tmp_path):
        run(["thresholds", "--preset", "ex1", "--outdir", str(tmp_path)])
        for name in ("actual_profile.csv", "actual_profile.json",
                     "heuristic_profile.csv", "heuristic_profile.json"):
            assert (tmp_path / name).exists()

    @pytest.mark.parametrize("fill", [1.0, math.nan], ids=["CapExceeded", "NaNInDiff"])
    def test_bug_trap_one_line_exit_1(self, fill, tmp_path, monkeypatch, capsys):
        # Value column k of every level holds k * fill, so D = 1.0 never turns negative
        # (CapExceeded), or D is NaN (NaNInDiff), at every level.
        params = EXAMPLE_PARAMS["ex1"]
        real = thresholds.solve_optimal

        def corrupted(params, i_max):
            table = real(params, i_max)
            table.levels[:] = np.arange(params.C1 + 1) * fill
            return table

        monkeypatch.setattr(thresholds, "solve_optimal", corrupted)
        first = next(s for s in threshold_spec(params)
                     if s.classification is Classification.FINITE_EXPECTED)
        if math.isnan(fill):
            message = (f"D(0,{first.k},{first.l}) is NaN at or before the sign change at "
                       f"index {first.index}; this indicates a solver bug")
        else:
            message = str(CapExceeded(first.index, search_caps(params)[first.index]))
        with pytest.raises(SystemExit) as exc:
            run(["thresholds", "--preset", "ex1", "--outdir", str(tmp_path / "out")])
        assert exc.value.code == 1
        assert capsys.readouterr().err == f"clearq: {message}\n"
        assert not (tmp_path / "out").exists()


class TestSimulateCommand:
    def test_json_output(self, tmp_path, capsys):
        code = run([
            "simulate", "--preset", "ex1", "--policy", "heuristic",
            "--i0", "10", "--reps", "500", "--seed", "7",
            "--out", str(tmp_path / "est.json"),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "est.json").read_text())
        assert payload["replications"] == 500 and payload["seed"] == 7
        assert payload["mean"] > 0 and payload["std_error"] > 0
        assert json.loads(capsys.readouterr().out) == payload

    def test_same_seed_same_output(self, capsys):
        args = ["simulate", "--preset", "ex1", "--policy", "pi4",
                "--i0", "8", "--reps", "400", "--seed", "3"]
        run(args)
        first = capsys.readouterr().out
        run(args)
        assert capsys.readouterr().out == first

    def test_optimal_policy_runs(self, capsys):
        code = run(["simulate", "--preset", "ex1", "--policy", "optimal",
                    "--i0", "6", "--reps", "200", "--seed", "1"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["mean"] > 0

    def test_bad_initial_split_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--preset", "ex1", "--policy", "pi1",
                 "--i0", "5", "--k0", "1", "--l0", "1", "--reps", "10", "--seed", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("policy", ["optimal", "heuristic", "pi1"])
    def test_negative_initial_queue_one_line_error(self, policy, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--preset", "ex1", "--policy", policy,
                 "--i0", "-1", "--reps", "10", "--seed", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "clearq: initial state State(i=-1, k=4, l=0) is outside the state space\n")

    @pytest.mark.parametrize("policy", ["optimal", "pi1"])
    def test_negative_seed_one_line_error(self, policy, monkeypatch, capsys):
        solved = []
        monkeypatch.setattr(cli, "solve_optimal", lambda *args: solved.append(args))
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--preset", "ex1", "--policy", policy,
                 "--i0", "3", "--reps", "10", "--seed", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "clearq: seed must be non-negative, got -1\n"
        assert not solved  # rejected before the optimal policy's solve


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ["verify", "--grid", "examples", "--imax", "5"],
])
def test_jobs_below_one_one_line_error(command, jobs, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(command + ["--jobs", jobs])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"clearq: jobs must be at least 1, got {jobs}\n"
    assert not list(tmp_path.glob("*.csv"))


def test_sweep_has_no_jobs_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--jobs", "2", "--outdir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, message", [
    (["solve", "--preset", "ex1", "--imax", "-1"], "i_max must be non-negative"),
    (["thresholds", "--preset", "ex1"], "no profile"),
    (["sweep"], "no sweep"),
], ids=["solve", "thresholds", "sweep"])
def test_failed_command_creates_no_outdir(command, message, tmp_path, monkeypatch, capsys):
    def failing(message):
        def fail(*args):
            raise ValueError(message)
        return fail

    monkeypatch.setattr(cli, "compute_actual_profile", failing("no profile"))
    monkeypatch.setattr(cli, "sweep", failing("no sweep"))
    with pytest.raises(SystemExit) as exc:
        run(command + ["--outdir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"clearq: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["verify", "--grid", "examples", "--imax", "5", "--jobs", "1"],
    ["simulate", "--preset", "ex1", "--policy", "optimal", "--i0", "3", "--reps", "10"],
    ["curve", "--preset", "ex1", "--k", "2", "--imax", "20000"],
], ids=["verify", "simulate", "curve"])
def test_unwritable_out_rejected_before_any_work(command, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        pytest.fail("the command worked before checking --out")

    for name in ("verify", "estimate", "solve_optimal", "dh_curve"):
        monkeypatch.setattr(cli, name, never)
    blocker = tmp_path / "plain-file"
    blocker.write_text("kept")
    for out, reason in ((blocker / "r.json", "Not a directory"),
                        (tmp_path / "missing" / "r.json", "No such file or directory"),
                        (tmp_path, "Is a directory")):
        with pytest.raises(SystemExit) as exc:
            run(command + ["--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"clearq: cannot write {out}: {reason}\n"
    assert not (tmp_path / "missing").exists()
    assert blocker.read_text() == "kept"


@pytest.mark.parametrize("command, work", [
    (["solve", "--preset", "ex1", "--imax", "3"], "solve_optimal"),
    (["thresholds", "--preset", "ex1"], "compute_actual_profile"),
    (["sweep", "--table", "5"], "sweep"),
], ids=["solve", "thresholds", "sweep"])
def test_unwritable_outdir_rejected_before_any_work(command, work, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        pytest.fail("the command worked before checking --outdir")

    monkeypatch.setattr(cli, work, never)
    blocker = tmp_path / "plain-file"
    blocker.write_text("kept")
    for outdir in (blocker / "sub", blocker, blocker / "sub" / "deeper"):
        with pytest.raises(SystemExit) as exc:
            run(command + ["--outdir", str(outdir)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"clearq: cannot write {outdir}: Not a directory\n"
    # A directory the user may not write into, which root never meets.
    monkeypatch.setattr(os, "access", lambda *args: False)
    with pytest.raises(SystemExit) as exc:
        run(command + ["--outdir", str(tmp_path / "new" / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"clearq: cannot write {tmp_path / 'new' / 'out'}: Permission denied\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain-file"]
    assert blocker.read_text() == "kept"


@pytest.mark.parametrize("command, work, names", [
    (["solve", "--preset", "ex1", "--imax", "3"], "solve_optimal", ["values.csv", "diff.csv"]),
    (["thresholds", "--preset", "ex1"], "compute_actual_profile",
     ["heuristic_profile.csv", "heuristic_profile.json", "actual_profile.csv",
      "actual_profile.json", "thresholds.csv"]),
    (["sweep", "--table", "5", "--table", "9"], "sweep",
     ["sweep_raw.csv", "table5.csv", "table9.csv"]),
], ids=["solve", "thresholds", "sweep"])
def test_output_file_taken_by_a_directory_rejected_before_any_work(
        command, work, names, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        pytest.fail("the command worked before checking its output files")

    monkeypatch.setattr(cli, work, never)
    for taken in names:
        outdir = tmp_path / f"out-{taken}"
        (outdir / taken).mkdir(parents=True)
        # Every other output exists as a file already, which the check keeps as it is.
        for name in names:
            if name != taken:
                (outdir / name).write_text("kept")
        with pytest.raises(SystemExit) as exc:
            run(command + ["--outdir", str(outdir)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"clearq: cannot write {outdir / taken}: Is a directory\n")
        assert sorted(p.name for p in outdir.iterdir()) == sorted(names)
        assert list((outdir / taken).iterdir()) == []
        assert all((outdir / name).read_text() == "kept" for name in names if name != taken)


def test_writable_out_is_neither_created_nor_truncated_by_the_check(tmp_path, monkeypatch):
    existing = tmp_path / "r.json"
    existing.write_text("kept")
    cli.check_writable(existing)
    cli.check_writable(tmp_path / "new.json")
    assert existing.read_text() == "kept"
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]
    # A directory the user may not write into, which root never meets.
    monkeypatch.setattr(os, "access", lambda *args: False)
    with pytest.raises(OSError, match=r"^cannot write .*new\.json: Permission denied$"):
        cli.check_writable(tmp_path / "new.json")


class TestVerifyCommand:
    def test_examples_grid_passes(self, tmp_path, capsys):
        code = run(["verify", "--grid", "examples", "--imax", "25",
                    "--out", str(tmp_path / "report.json"), "--jobs", "1"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] and report["failures"] == []
        assert "failures: 0" in capsys.readouterr().out

    def test_failure_exit_code(self, monkeypatch, capsys):
        from clearq.experiments import CheckResult, VerificationReport
        from clearq.model import SystemParams

        def fake_verify(points, imax, jobs=None):
            report = VerificationReport()
            report.results.append(CheckResult(
                "diff_diagonal_monotone", SystemParams(2, 1, 10, 4, 0.1, 1, 0.1),
                passed=False, detail="D(1,2,0) < D(1,1,1)"))
            return report

        monkeypatch.setattr(cli, "verify", fake_verify)
        code = run(["verify", "--grid", "examples", "--imax", "5", "--jobs", "1"])
        assert code == 1
        assert "FAIL diff_diagonal_monotone" in capsys.readouterr().out

    def test_workers_capped_at_point_count(self, monkeypatch, capsys):
        # A fake pool that records its size and maps in this process: no process starts.
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        assert run(["verify", "--grid", "examples", "--imax", "5", "--jobs", "10000"]) == 0
        assert sizes == [len(EXAMPLE_PARAMS)]
        assert run(["verify", "--grid", "examples", "--imax", "5", "--jobs", "2"]) == 0
        assert sizes == [len(EXAMPLE_PARAMS), 2]
        out = capsys.readouterr().out.splitlines()
        assert out[0] == out[1] == f"checks: {12 * len(EXAMPLE_PARAMS)}, failures: 0"

    def test_negative_imax_one_line_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--grid", "examples", "--imax", "-1", "--jobs", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "clearq: i_max must be non-negative\n"

    def test_negative_imax_rejected_before_the_pool_starts(self, monkeypatch, capsys):
        import concurrent.futures

        def never(*args, **kwargs):
            pytest.fail("a process pool started before i_max was checked")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", never)
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--grid", "examples", "--imax", "-1", "--jobs", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "clearq: i_max must be non-negative\n"


class TestSweepCommand:
    # Plumbing checks on a narrowed grid; full-grid accuracy is covered by
    # the acceptance suite.
    @staticmethod
    def small_sweep(spec):
        return sweep(SweepSpec(
            server_configs=((2, 1),), h0_values=(0.1,),
            h2_values=(0.1, 2.0), mu2_values=(4.0, 12.0),
            i0_values=spec.i0_values))

    def test_table_csv_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "sweep", self.small_sweep)
        code = run(["sweep", "--table", "5", "--table", "9",
                    "--outdir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "sweep_raw.csv").exists()
        t5 = (tmp_path / "table5.csv").read_text().splitlines()
        t9 = (tmp_path / "table9.csv").read_text().splitlines()
        assert t5[0].startswith("policy,stat,")
        assert t9[1].split(",")[0] == "heuristic"

    def test_repeated_table_written_once(self, tmp_path, monkeypatch, capsys):
        written = []
        real_write_table_csv = cli.write_table_csv

        def write_table_csv(stats, table, path):
            written.append(table)
            real_write_table_csv(stats, table, path)

        monkeypatch.setattr(cli, "sweep", self.small_sweep)
        monkeypatch.setattr(cli, "write_table_csv", write_table_csv)
        code = run(["sweep", "--table", "5", "--table", "5",
                    "--outdir", str(tmp_path)])
        assert code == 0
        assert written == [5]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep_raw.csv", "table5.csv"]
        assert capsys.readouterr().out.endswith(" and 1 aggregated table(s)\n")


class TestCurveCommand:
    def test_csv_format(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run(["curve", "--preset", "ex5", "--k", "2", "--imax", "14",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "i,D,H"
        assert len(lines) == 16

    def test_requires_exactly_one_index(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["curve", "--preset", "ex5", "--k", "2", "--l", "1",
                 "--imax", "5", "--out", str(tmp_path / "c.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--l", "5", "l must be in 0..3, got 5"),
        ("--l", "-1", "l must be in 0..3, got -1"),
        ("--k", "0", "k must be in 1..4, got 0"),
    ])
    def test_index_out_of_range_one_line_error(self, flag, value, message, tmp_path, capsys):
        out = tmp_path / "c.csv"
        with pytest.raises(SystemExit) as exc:
            run(["curve", "--preset", "ex1", flag, value, "--imax", "3", "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"clearq: {message}\n"
        assert not out.exists()
