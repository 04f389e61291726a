import json

import pytest

import clearq.cli as cli
from clearq.experiments import EXAMPLE_PARAMS, SweepSpec, sweep


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
