import math

import pytest

import clearq.experiments as experiments
import clearq.thresholds as thresholds
from clearq.experiments import (
    EXAMPLE_PARAMS,
    SweepSpec,
    aggregate_stats,
    check_diagonal_monotone,
    dh_curve,
    round_half_up,
    sweep,
    table4_params,
    table_cells,
    verify,
    verify_point,
    write_table_csv,
)
from clearq.model import SystemParams
from clearq.solver import DiffTable, diff, solve_optimal


@pytest.fixture(scope="module")
def small_result():
    spec = SweepSpec(
        server_configs=((2, 1),),
        h0_values=(0.1, 1.0),
        h2_values=(0.1, 2.0),
        mu2_values=(4.0, 12.0),
        i0_values=(20, 30),
    )
    return sweep(spec)


class TestSweep:

    def test_errors_nonnegative(self, small_result):
        assert all(row[-1] >= -1e-9 for row in small_result.raw_rows)

    def test_optimal_policy_errors_zero(self):
        spec = SweepSpec(
            server_configs=((2, 1),),
            h0_values=(0.1,), h2_values=(0.1,), mu2_values=(4.0,),
            i0_values=(20,), policies=("optimal",),
        )
        result = sweep(spec)
        assert result.raw_rows
        assert all(row[-1] == 0.0 for row in result.raw_rows)

    def test_heuristic_dominates_benchmarks_per_cell(self, small_result):
        by_cell = {}
        for s in small_result.stats:
            by_cell.setdefault((s.c1, s.c2, s.cost_regime, s.rate_regime, s.i0), {})[s.policy] = s
        checked = 0
        for cell in by_cell.values():
            if "heuristic" not in cell:
                continue
            for policy, stats in cell.items():
                if policy != "heuristic":
                    assert cell["heuristic"].avg_err <= stats.avg_err + 1e-9
                    checked += 1
        assert checked

    def test_longer_initial_queue_improves_heuristic(self, small_result):
        by_key = {}
        for s in small_result.stats:
            if s.policy == "heuristic":
                by_key.setdefault((s.c1, s.c2, s.cost_regime, s.rate_regime), {})[s.i0] = s
        checked = 0
        for cell in by_key.values():
            if {20, 30} <= set(cell):
                assert cell[30].avg_err <= cell[20].avg_err + 1e-9
                assert cell[30].max_err <= cell[20].max_err + 1e-9
                checked += 1
        assert checked

    def test_equal_cost_excluded_by_default(self, small_result):
        # (h2=0.1, mu2=... ) none equal here; verify via a spec that contains one
        spec = SweepSpec(
            server_configs=((2, 1),), h0_values=(0.1,), h2_values=(1.0,),
            mu2_values=(10.0,), i0_values=(20,),
        )
        assert not sweep(spec).raw_rows
        spec_inc = SweepSpec(
            server_configs=((2, 1),), h0_values=(0.1,), h2_values=(1.0,),
            mu2_values=(10.0,), i0_values=(20,), include_equal_cost=True,
        )
        assert sweep(spec_inc).raw_rows

    def test_parallel_equals_serial(self):
        spec = SweepSpec(
            server_configs=((2, 1),), h0_values=(0.1,), h2_values=(0.1, 2.0),
            mu2_values=(4.0, 12.0), i0_values=(20,),
        )
        assert sweep(spec, jobs=2) == sweep(spec)

    def test_raw_csv_header(self, small_result, tmp_path):
        small_result.write_raw_csv(tmp_path / "raw.csv")
        first = (tmp_path / "raw.csv").read_text().splitlines()[0]
        assert first == "C1,C2,h0,h1,h2,mu1,mu2,i0,k0,l0,policy,v_opt,v_pi,err_pct"

    def test_table_csv_layout(self, small_result, tmp_path):
        write_table_csv(small_result.stats, 5, tmp_path / "t5.csv")
        lines = (tmp_path / "t5.csv").read_text().splitlines()
        assert lines[0].startswith("policy,stat,C1=2 C2=1,")
        assert lines[1].split(",")[:2] == ["heuristic", "max"]
        assert len(lines) == 1 + 5 * 3

    def test_table_cells_filter(self, small_result):
        cells = table_cells(small_result.stats, 5)
        assert ("heuristic", 2, 1) in cells
        assert all(key[1:] == (2, 1) for key in cells)


class TestRounding:
    def test_half_up(self):
        assert round_half_up(0.005) == 0.01
        assert round_half_up(0.004999) == 0.0
        assert round_half_up(263.475) == 263.48


class TestVerify:
    def test_examples_pass(self):
        report = verify(list(EXAMPLE_PARAMS.values()), 25)
        assert report.passed, [f.detail for f in report.failures()]

    def test_c2_at_least_c1_points(self):
        # No-queueing corollaries: heuristic equals actual for one server.
        points = [
            SystemParams(1, 1, 10.0, 4.0, 0.1, 1.0, 0.1),
            SystemParams(1, 2, 3.0, 30.0, 0.1, 1.0, 12.5),
            SystemParams(2, 2, 10.0, 4.0, 0.2, 1.0, 0.1),
            SystemParams(2, 3, 10.0, 12.0, 0.2, 1.0, 2.0),
        ]
        report = verify(points, 30)
        assert report.passed, [f.detail for f in report.failures()]

    def test_fault_injection_flags_diagonal(self):
        params = EXAMPLE_PARAMS["ex1"]
        dt = diff(solve_optimal(params, 10))
        corrupted = dt.levels.copy()
        corrupted[4, 3] = corrupted[4, 2] - 5.0  # D(4,3,1) = D(4,2,2) - 5
        bad = DiffTable(params, 10, dt.boundary, corrupted)
        detail = check_diagonal_monotone(params, bad, 10)
        assert detail is not None and "D(4,3,1)" in detail

    def test_report_json(self, tmp_path):
        report = verify([EXAMPLE_PARAMS["ex1"]], 15)
        report.write_json(tmp_path / "report.json")
        text = (tmp_path / "report.json").read_text()
        assert '"passed": true' in text

    def test_verify_point_computes_search_caps_once(self, monkeypatch):
        # The caps set the solve depth and bound the threshold search; the
        # threshold-structure check must reuse them, not compute them again.
        params = EXAMPLE_PARAMS["ex3b"]
        want = verify_point(params, 15)
        calls = []
        real = thresholds.search_caps

        def counting(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(thresholds, "search_caps", counting)
        monkeypatch.setattr(experiments, "search_caps", counting)
        assert verify_point(params, 15) == want
        assert len(calls) == 1

    def test_verify_point_works_out_condition1_once_per_index(self, monkeypatch):
        # ex3b has the condition holding at k = 2, where the increment check
        # also needs the verdict at k = 1.
        params = EXAMPLE_PARAMS["ex3b"]
        want = verify_point(params, 15)
        calls = []
        real = thresholds.condition1

        def counting(p, k):
            calls.append(k)
            return real(p, k)

        monkeypatch.setattr(experiments, "condition1", counting)
        assert verify_point(params, 15) == want
        assert len(calls) <= params.C1
        assert len(calls) == len(set(calls)) == 2

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="^i_max must be non-negative$"):
            verify_point(EXAMPLE_PARAMS["ex1"], -1)

    def test_point_check_names_stable(self):
        results = verify_point(EXAMPLE_PARAMS["ex5"], 15)
        names = {r.name for r in results}
        assert "recursion_residual" in names and "threshold_structure" in names


class TestDhCurve:
    def test_ex5_curves_cross_together(self):
        rows = dh_curve(EXAMPLE_PARAMS["ex5"], k=2, i_max=15)
        d = {i: d_val for i, d_val, _ in rows}
        h = {i: h_val for i, _, h_val in rows}
        assert d[12] == pytest.approx(0.0, abs=1e-9)
        assert h[12] == pytest.approx(0.0, abs=1e-12)
        assert d[13] < -1e-3 and h[13] < -1e-3
        assert d[11] > 1e-3 and h[11] > 1e-3

    def test_ex2_h_crosses_before_d(self):
        rows = dh_curve(EXAMPLE_PARAMS["ex2"], k=4, i_max=8)
        h = {i: h_val for i, _, h_val in rows}
        d = {i: d_val for i, d_val, _ in rows}
        assert h[0] > 0 > h[1]
        assert d[3] > 0 > d[4]

    def test_constant_branch(self):
        rows = dh_curve(EXAMPLE_PARAMS["ex7"], k=2, i_max=10)
        assert all(h_val == -1.0 for _, _, h_val in rows)

    def test_index_by_l(self):
        params = EXAMPLE_PARAMS["ex7"]
        by_l = dh_curve(params, l=0, i_max=5)
        by_k = dh_curve(params, k=params.C1, i_max=5)
        assert by_l == by_k

    def test_exactly_one_index(self):
        with pytest.raises(ValueError):
            dh_curve(EXAMPLE_PARAMS["ex7"], k=1, l=0, i_max=5)
        with pytest.raises(ValueError):
            dh_curve(EXAMPLE_PARAMS["ex7"], i_max=5)


class TestGrid:
    def test_table4_size(self):
        pts = table4_params()
        assert len(pts) == 6 * 7 * 6 * 9
        assert len({(p.C1, p.C2, p.h0, p.h2, p.mu2) for p in pts}) == len(pts)

    def test_aggregate_stats_sample_std(self):
        rows = [
            (2, 1, 0.1, 1.0, 0.1, 10.0, 4.0, 20, 0, 2, "pi1", 1.0, 1.0 + e / 100, e)
            for e in (1.0, 2.0, 3.0)
        ]
        stats = aggregate_stats(rows)
        assert len(stats) == 1
        assert stats[0].avg_err == pytest.approx(2.0)
        assert stats[0].std_err == pytest.approx(1.0)  # sample, not population
