import dataclasses
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import clearq.experiments as experiments
import clearq.solver as solver
import clearq.thresholds as thresholds
from clearq.experiments import (
    EXAMPLE_PARAMS,
    ErrorStats,
    SweepSpec,
    aggregate_stats,
    check_boundary_formula,
    check_diagonal_monotone,
    check_greedy_reproduces_optimal,
    check_policy_dominance,
    check_single_sign_change,
    cost_regime_label,
    dh_curve,
    policy_family,
    round_half_up,
    sweep,
    table4_params,
    table_cells,
    verify,
    verify_point,
    write_table_csv,
)
from clearq.model import SystemParams
from clearq.policies import optimal_greedy, policy_by_id
from clearq.solver import DiffTable, ValueTable, diff, solve_optimal, solve_under_policy


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
        # h1/mu1 = h2/mu2 at the one point of this spec: the point has rows, the sweep none.
        spec = SweepSpec(
            server_configs=((2, 1),), h0_values=(0.1,), h2_values=(1.0,),
            mu2_values=(10.0,), i0_values=(20,),
        )
        assert not sweep(spec).raw_rows
        tie = SystemParams(2, 1, 10.0, 10.0, 0.1, 1.0, 1.0)
        rows, cells = [], {}
        experiments._sweep_point(tie, (20,), rows, cells)
        assert rows and cells

    def test_stats_equal_aggregate_of_rows(self):
        # Both cost regimes and both rate splits, in two server blocks.
        spec = SweepSpec(
            server_configs=((2, 1), (3, 2)), h0_values=(0.1,), h2_values=(0.1, 2.0),
            mu2_values=(4.0, 12.0), i0_values=(20, 5),
        )
        result = sweep(spec)
        assert {(s.cost_regime, s.rate_regime) for s in result.stats} == {
            (cost, rate) for cost in ("lowcost", "highcost") for rate in ("mu1_ge", "mu1_lt")}
        # The stats kept from the cells as rows are built equal a second parse of the rows.
        want = aggregate_stats(result.raw_rows)
        assert result.stats == want
        assert [repr(s) for s in result.stats] == [repr(s) for s in want]

    def test_raw_csv_header(self, small_result, tmp_path):
        small_result.write_raw_csv(tmp_path / "raw.csv")
        first = (tmp_path / "raw.csv").read_text().splitlines()[0]
        assert first == "C1,C2,h0,h1,h2,mu1,mu2,i0,k0,l0,policy,v_opt,v_pi,err_pct"

    def test_raw_csv_rows_format_each_field(self, small_result, tmp_path):
        # Floats by repr, the rest by str, whether or not a head, v_opt or v_pi
        # is shared with another row.
        v_opt, tie = 2.0000000000000004, float("2.0000000000000004")
        head = (2, 1, 0.1, 1.0, 0.1, 10.0, 4.0, 20, 0, 2)
        rows = [head + ("pi1", v_opt, v_opt, 0.0), head + ("pi2", v_opt, tie, 0.0),
                head + ("pi3", v_opt, 3.0, 49.99999999999999),
                head[:8] + (1, 1, "pi1", 1.5, 1.5, 0.0), *small_result.raw_rows]
        experiments.SweepResult(stats=[], raw_rows=rows).write_raw_csv(tmp_path / "raw.csv")
        lines = (tmp_path / "raw.csv").read_text().splitlines()[1:]
        assert lines == [",".join(repr(x) if isinstance(x, float) else str(x) for x in row)
                         for row in rows]
        assert lines[1] == ("2,1,0.1,1.0,0.1,10.0,4.0,20,0,2,pi2,"
                            "2.0000000000000004,2.0000000000000004,0.0")

    def test_table_csv_layout(self, small_result, tmp_path):
        write_table_csv(small_result.stats, 5, tmp_path / "t5.csv")
        lines = (tmp_path / "t5.csv").read_text().splitlines()
        assert lines[0].startswith("policy,stat,C1=2 C2=1,")
        assert lines[1].split(",")[:2] == ["heuristic", "max"]
        assert len(lines) == 1 + 5 * 3

    BAD_FIELDS = [
        ("i0_values", (), "at least one"),
        ("i0_values", [], "at least one"),
        ("i0_values", (-1, 20), "-1"),
        ("i0_values", (20, True), "True"),
        ("i0_values", (20.0,), "20.0"),
        ("i0_values", ("20",), "'20'"),
        ("i0_values", (20, 30, 20), "20 twice"),
        ("server_configs", ((2, 1), (3, 1), (2, 1)), "(2, 1) twice"),
        ("h0_values", (0.1, 0.1), "0.1 twice"),
        ("h2_values", [0.5, 1.0, 1.0], "1.0 twice"),
        ("mu2_values", (4.0, 4), "4 twice"),
        ("server_configs", (), "at least one"),
        ("h0_values", (), "at least one"),
        ("h2_values", [], "at least one"),
        ("mu2_values", (), "at least one"),
        ("server_configs", ((2,),), "(2,)"),
        ("server_configs", ((2, 1), (2, 0)), "(2, 0)"),
        ("server_configs", ((2.0, 1),), "(2.0, 1)"),
        ("server_configs", ((True, 1),), "(True, 1)"),
        ("server_configs", ((2, 1, 1),), "(2, 1, 1)"),
        ("server_configs", (2,), "got 2"),
    ]

    # Ids as pytest makes them for a first argument named after the field.
    @pytest.mark.parametrize("field, values, shown", BAD_FIELDS, ids=[
        f"{field}{n}-{shown}" for n, (field, _, shown) in enumerate(BAD_FIELDS)])
    def test_bad_initial_queues_rejected(self, field, values, shown):
        with pytest.raises(ValueError) as exc:
            SweepSpec(**{field: values})
        message = str(exc.value)
        assert message.startswith(f"{field} must ") and shown in message
        assert "\n" not in message

    def test_initial_queue_zero_reads_the_boundary_row(self):
        params = SystemParams(2, 1, 10.0, 4.0, 0.1, 1.0, 0.1)
        spec = SweepSpec(server_configs=((2, 1),), h0_values=(0.1,), h2_values=(0.1,),
                         mu2_values=(4.0,), i0_values=(0, 3))
        rows = sweep(spec).raw_rows
        optimal = solve_optimal(params, 3)
        assert [row[7:10] for row in rows[:6]] == [
            (i0, k0, 2 - k0) for i0 in (0, 3) for k0 in range(3)]
        assert all(row[11] == optimal.levels[row[7], row[8]] for row in rows)

    def test_table_cells_filter(self, small_result):
        cells = table_cells(small_result.stats, 5)
        assert ("heuristic", 2, 1) in cells
        assert all(key[1:] == (2, 1) for key in cells)


class TestRounding:
    def test_only_rounding_loads_decimal(self):
        """A sweep leaves decimal unloaded; round_half_up loads it when the tables are written."""
        code = (
            "import sys\n"
            "from clearq.experiments import SweepSpec, round_half_up, sweep\n"
            "sweep(SweepSpec(server_configs=((2, 1),), h0_values=(0.1,), h2_values=(0.5,),\n"
            "                mu2_values=(4.0,), i0_values=(5,)))\n"
            "print('decimal' in sys.modules)\n"
            "round_half_up(0.005)\n"
            "print('decimal' in sys.modules)\n"
        )
        src = str(Path(experiments.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        assert out.split() == ["False", "True"]

    def test_half_up(self):
        assert round_half_up(0.005) == 0.01
        assert round_half_up(0.004999) == 0.0
        assert round_half_up(263.475) == 263.48


class TestVerify:
    def test_examples_pass(self):
        report = verify(list(EXAMPLE_PARAMS.values()), 25)
        assert report.passed, [f.detail for f in report.failures()]

    def test_serial_runs_load_no_pool(self):
        code = (
            "import sys\n"
            "from clearq.experiments import EXAMPLE_PARAMS, SweepSpec, sweep, verify\n"
            "verify([EXAMPLE_PARAMS['ex1'], EXAMPLE_PARAMS['ex7']], 5, jobs=1)\n"
            "verify([EXAMPLE_PARAMS['ex1']], 5, jobs=2)\n"
            "sweep(SweepSpec(server_configs=((2, 1),), h0_values=(0.1,), h2_values=(0.5,),\n"
            "                mu2_values=(4.0,), i0_values=(5,)))\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        src = str(Path(experiments.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        assert out.split() == ["False"]

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
        detail = check_diagonal_monotone(params, experiments._point_arrays(params, bad, 10))
        assert detail is not None and "D(4,3,1)" in detail

    @pytest.mark.parametrize("params, k, corrupt, side", [
        # Collaborative orientation: D at k = 2 turns negative at i = 2 and must stay so.
        (EXAMPLE_PARAMS["ex1"], 2, 1.0, "positive"),
        # Independent orientation: D at k = 3 (l = 1) turns positive at i = 8 and must stay so.
        (EXAMPLE_PARAMS["ex8"], 3, -1.0, "negative"),
    ])
    def test_fault_injection_flags_sign_change(self, params, k, corrupt, side):
        dt = diff(solve_optimal(params, 12))
        assert check_single_sign_change(params, experiments._point_arrays(params, dt, 12)) is None
        corrupted = dt.levels.copy()
        corrupted[10, k] = corrupt
        bad = DiffTable(params, 12, dt.boundary, corrupted)
        detail = check_single_sign_change(params, experiments._point_arrays(params, bad, 12))
        assert detail == f"D returned {side} at (10,{k},{params.C1 - k}) after crossing"

    def test_fault_injection_flags_boundary_row(self):
        # Row n = C1 of the i = 0 triangle is levels[0], held nowhere else.
        params = EXAMPLE_PARAMS["ex1"]
        dt = diff(solve_optimal(params, 5))
        assert check_boundary_formula(params, experiments._point_arrays(params, dt, 5)) is None
        corrupted = dt.levels.copy()
        corrupted[0, 2] += 1e-6
        bad = DiffTable(params, 5, dt.boundary, corrupted)
        assert check_boundary_formula(params, experiments._point_arrays(params, bad, 5)) == (
            "D(0,2,2) != boundary formula")

    def test_fault_injection_flags_policy_dominance(self):
        # At ex6, depth 10, k = 1, pi2 does better than the heuristic.  An
        # optimal value raised to the heuristic's passes the heuristic and
        # flags pi2, the first family member below it.
        params = EXAMPLE_PARAMS["ex6"]
        table = solve_optimal(params, 10)
        family = [solve_under_policy(params, policy_by_id(params, policy_id), 10)
                  for policy_id in policy_family(cost_regime_label(params))]
        assert check_policy_dominance(params, table, family, 10) is None
        heuristic = family[0].levels[10]
        raised = table.levels.copy()
        raised[10, 1] = heuristic[1]
        bad = ValueTable(params, 10, table.boundary, raised, "optimal")
        assert check_policy_dominance(params, bad, family, 10) == "v^pi2(10,1,3) < optimal"

    def test_fault_injection_flags_greedy_value(self):
        # Decisions at queue q > 4 move only the levels above 4, so the
        # corrupted entry is the first that differs.
        params = EXAMPLE_PARAMS["ex1"]
        table = solve_optimal(params, 10)
        v_g = solve_under_policy(params, optimal_greedy(table), 10)
        assert check_greedy_reproduces_optimal(params, table, v_g, 10) is None
        corrupted = table.levels.copy()
        corrupted[4, 2] += 1.0
        bad = ValueTable(params, 10, table.boundary, corrupted, "optimal")
        # The greedy rule is read off the corrupted table, as verify_point reads it.
        bad_g = solve_under_policy(params, optimal_greedy(bad), 10)
        assert check_greedy_reproduces_optimal(params, bad, bad_g, 10) == (
            "greedy value differs at (4, 2, 2)")

    def test_report_json(self, tmp_path):
        report = verify([EXAMPLE_PARAMS["ex1"]], 15)
        report.write_json(tmp_path / "report.json")
        text = (tmp_path / "report.json").read_text()
        assert '"passed": true' in text

    def test_verify_point_computes_search_caps_once(self, monkeypatch):
        # The caps set the solve depth and bound the threshold search; the
        # threshold-structure check must reuse them, not build them again.
        params = EXAMPLE_PARAMS["ex3b"]
        want = verify_point(params, 15)
        thresholds.search_caps.cache_clear()
        built = []
        real = thresholds._search_cap

        def counting(p, spec, s, heur):
            built.append(s.index)
            return real(p, spec, s, heur)

        monkeypatch.setattr(thresholds, "_search_cap", counting)
        assert verify_point(params, 15) == want
        assert thresholds.search_caps.cache_info().misses == 1
        assert built == list(thresholds.search_caps(params)) == [1, 2]

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

    @pytest.mark.parametrize("name", ["ex2", "ex7"])  # lowcost below depth 40, highcost above
    def test_verify_point_is_two_solves(self, monkeypatch, name):
        # One deep optimal solve and one family pass without an optimal row; the
        # checks only read tables.
        params = EXAMPLE_PARAMS[name]
        want = verify_point(params, 40)
        calls = []

        def recording(fn_name):
            real = getattr(experiments, fn_name, None)

            def record(*args):
                calls.append((fn_name, *args))
                return real(*args)
            return record

        for fn_name in ("solve_optimal", "solve_family", "solve_under_policy", "optimal_greedy",
                        "_solve"):
            monkeypatch.setattr(experiments, fn_name, recording(fn_name), raising=False)
        assert verify_point(params, 40) == want
        assert [call[0] for call in calls] == ["solve_optimal", "optimal_greedy", "_solve"]
        (_, p, depth), (_, deep), (_, q, i_max, policies, optimal) = calls
        assert (p, depth) == (params, max(40, thresholds.required_depth(params)))
        assert (q, i_max, optimal) == (params, 40, False) and deep.i_max == depth
        assert [policy.id for policy in policies] == [
            *policy_family(cost_regime_label(params)), "optimal"]

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="^i_max must be non-negative$"):
            verify_point(EXAMPLE_PARAMS["ex1"], -1)

    def test_point_check_names_stable(self):
        results = verify_point(EXAMPLE_PARAMS["ex5"], 15)
        names = {r.name for r in results}
        assert "recursion_residual" in names and "threshold_structure" in names


def _edited_verify(monkeypatch, params, i_max, table=None, d=None):
    """verify_point's details by check name, with faults put into the tables it reads.

    ``table(t)`` sees each value table as the solver builds it, before any check
    or rule reads it, and returns it or a replacement.  Its ``kind`` tells the
    tables apart: "optimal", or "policy:<id>", where the greedy rule's id is
    "optimal".  ``d(dt)`` edits the difference table in place.
    """
    if table is not None:
        build = solver.ValueTable
        monkeypatch.setattr(solver, "ValueTable", lambda *args: table(build(*args)))
    if d is not None:
        real_diff = experiments.diff

        def edited_diff(t):
            dt = real_diff(t)
            d(dt)
            return dt
        monkeypatch.setattr(experiments, "diff", edited_diff)
    return {r.name: r.detail for r in verify_point(params, i_max)}


def _set(kind, cells):
    """A ``table`` edit of _edited_verify: levels[i, k] = x for each (i, k): x of cells."""
    def edit(t):
        if t.kind == kind:
            for at, x in cells.items():
                t.levels[at] = x
        return t
    return edit


def _set_d(cells):
    """A ``d`` edit of _edited_verify: D(i, k, C1 - k) = x for each (i, k): x of cells."""
    def edit(dt):
        for at, x in cells.items():
            dt.levels[at] = x
    return edit


EX1_UNEDITED = solve_optimal(EXAMPLE_PARAMS["ex1"], 10)


class TestCheckFaults:
    """Each check's exact detail at a known fault, injected through the tables verify_point reads.

    Where two faults are injected, the detail names the first offender in the
    check's own order, which a restructured check must keep.
    """

    def test_value_drop_flagged(self, monkeypatch):
        details = _edited_verify(monkeypatch, EXAMPLE_PARAMS["ex1"], 10,
                                 table=_set("optimal", {(5, 2): 2.0}))
        lo = float(EX1_UNEDITED.levels[4, 2])
        assert details["value_monotone_in_queue"] == f"v(5,2,2) < v(4,2,2): 2.0 < {lo!r}"

    @pytest.mark.parametrize("at", [(3, 3), (3, 4)])  # negative, and a band zero (strict)
    def test_not_positive_without_blocking_flagged(self, monkeypatch, at):
        # ex3: mu1 < mu2 and h1/mu1 > h2/mu2, so D > 0 wherever l < C2 = 2.
        params = EXAMPLE_PARAMS["ex3"]
        x = -1.0 if at[1] == 3 else 0.0
        details = _edited_verify(monkeypatch, params, 10, d=_set_d({at: x}))
        i, k = at
        assert details["positive_without_blocking"] == f"D({i},{k},{4 - k}) not positive"

    def test_positive_when_blocked_flagged(self, monkeypatch):
        # ex7: mu1 < mu2 and h1/mu1 < h2/mu2, so D <= 0 wherever l >= C2 = 2.
        details = _edited_verify(monkeypatch, EXAMPLE_PARAMS["ex7"], 10,
                                 d=_set_d({(3, 1): 1.0}))
        assert details["nonpositive_when_blocked"] == "D(3,1,3) > 0"

    @pytest.mark.parametrize("name, at, step, want", [
        # ex1: mu1 > mu2, so D is non-increasing in the queue at every k.
        ("ex1", (5, 2), 1.0, "D not non-increasing at (4,2,2)"),
        # ex7: mu1 < mu2 and h1/mu1 < h2/mu2, so non-decreasing where l < C2.
        ("ex7", (5, 4), -1.0, "D not non-decreasing at (4,4,0)"),
    ])
    def test_queue_monotonicity_flagged(self, monkeypatch, name, at, step, want):
        params = EXAMPLE_PARAMS[name]
        below = diff(solve_optimal(params, 10)).levels[at[0] - 1, at[1]]
        details = _edited_verify(monkeypatch, params, 10, d=_set_d({at: below + step}))
        assert details["diff_monotone_in_queue"] == want

    @pytest.mark.parametrize("name, x, want", [
        ("ex1", -1e6, "D(3,2,2) below affine lower bound"),
        ("ex7", 1e6, "D(3,2,2) above affine upper bound"),  # mu2 > mu1: the upper bound holds
    ])
    def test_affine_bound_flagged(self, monkeypatch, name, x, want):
        details = _edited_verify(monkeypatch, EXAMPLE_PARAMS[name], 10, d=_set_d({(3, 2): x}))
        assert details["affine_bounds"] == want

    def test_recursion_residual_flagged(self, monkeypatch):
        # No level reads the deepest one, so only its own residual moves: to exactly 1.
        params = EXAMPLE_PARAMS["ex1"]
        depth = thresholds.required_depth(params)
        details = _edited_verify(monkeypatch, params, 10, d=_set_d({(depth, 2): 1e300}))
        assert details["recursion_residual"] == (
            f"max scaled residual 1.0 at State(i={depth}, k=2, l=2)")

    def test_threshold_structure_flagged(self, monkeypatch):
        # ex5 has h0 = h2; a negative D(5,2,2) moves i_D(2) to 5, below i_D(1).
        details = _edited_verify(monkeypatch, EXAMPLE_PARAMS["ex5"], 10,
                                 d=_set_d({(5, 2): -1.0}))
        assert details["threshold_structure"] == (
            "i_D(1) > i_D(2); h0=h2 but i_H(2) != i_D(2); h0=h2 but i_D(2) != i_D(1) + 1")

    def test_diagonal_first_offender(self, monkeypatch):
        # By level, then total jobs in service, then k: level 2 comes before level 6.
        dt = diff(EX1_UNEDITED).levels
        details = _edited_verify(monkeypatch, EXAMPLE_PARAMS["ex1"], 10, d=_set_d({
            (6, 2): dt[6, 1] - 5.0, (2, 4): dt[2, 3] - 5.0}))
        assert details["diff_diagonal_monotone"] == "D(2,4,0) < D(2,3,1)"

    def test_affine_first_offender(self, monkeypatch):
        details = _edited_verify(monkeypatch, EXAMPLE_PARAMS["ex7"], 10, d=_set_d({
            (5, 1): -1e6, (3, 3): 1e6}))
        assert details["affine_bounds"] == "D(3,3,1) above affine upper bound"

    def test_dominance_first_offender(self, monkeypatch):
        # In policy order, then k: pi1 at k = 2 comes before pi1 at k = 3 and pi2 at k = 0.
        pi1 = _set("policy:pi1", {(10, 3): -1.0, (10, 2): -1.0})
        pi2 = _set("policy:pi2", {(10, 0): -1.0})
        details = _edited_verify(monkeypatch, EXAMPLE_PARAMS["ex1"], 10,
                                 table=lambda t: pi2(pi1(t)))
        assert details["policy_dominance"] == "v^pi1(10,2,2) < optimal"

    def test_greedy_first_offender(self, monkeypatch):
        details = _edited_verify(monkeypatch, EXAMPLE_PARAMS["ex1"], 10, table=_set(
            "policy:optimal", {(5, 1): 9.0, (3, 3): 9.0}))
        assert details["greedy_reproduces_optimal"] == "greedy value differs at (3, 3, 1)"

    def test_greedy_boundary_before_levels(self, monkeypatch):
        # The i = 0 states with fewer than C1 jobs in service come first.
        def edit(t):
            if t.kind == "policy:optimal":
                t.levels[1, 1] = 9.0
                boundary = t.boundary.copy()
                boundary[2, 1] = 9.0  # v(0,1,1)
                t = dataclasses.replace(t, boundary=boundary)
            return t
        details = _edited_verify(monkeypatch, EXAMPLE_PARAMS["ex1"], 10, table=edit)
        assert details["greedy_reproduces_optimal"] == "greedy value differs at (0, 1, 1)"

    def test_threshold_search_past_its_cap_is_a_failure(self, monkeypatch):
        # ex1 expects a finite i_D(3) below its cap of 70; a D(., 3, 1) that never
        # turns negative makes the search raise, and verify_point reports it.
        def edit(dt):
            dt.levels[:, 3] = 1.0
        details = _edited_verify(monkeypatch, EXAMPLE_PARAMS["ex1"], 10, d=edit)
        assert details["threshold_structure"] == str(thresholds.CapExceeded(3, 70)) == (
            "no sign change up to analytic cap 70 at index 3; this indicates a solver bug")


class TestNaNFails:
    """A NaN fails every check that reads it, with a detail naming its state."""

    def test_at_a_boundary_state(self, monkeypatch):
        # D(0,1,1) has fewer than C1 jobs in service, so the recursion residual,
        # which is taken on the fully-busy levels, does not read it.
        def edit(dt):
            dt.boundary[2, 1] = math.nan
        details = _edited_verify(monkeypatch, EXAMPLE_PARAMS["ex1"], 10, d=edit)
        assert {name: details[name] for name in (
            "boundary_formula", "diff_diagonal_monotone", "affine_bounds")} == {
            "boundary_formula": "D(0,1,1) != boundary formula",
            "diff_diagonal_monotone": "D(0,2,0) < D(0,1,1)",
            "affine_bounds": "D(0,1,1) below affine lower bound",
        }

    @pytest.mark.parametrize("name, at, want", [
        ("ex1", (3, 2), {
            "diff_diagonal_monotone": "D(3,2,2) < D(3,1,3)",
            "single_sign_change": "D returned positive at (3,2,2) after crossing",
            "diff_monotone_in_queue": "D not non-increasing at (2,2,2)",
            "affine_bounds": "D(3,2,2) below affine lower bound",
            "recursion_residual": "max scaled residual inf at State(i=3, k=2, l=2)",
        }),
        ("ex3", (3, 3), {"positive_without_blocking": "D(3,3,1) not positive"}),
        ("ex7", (3, 1), {"nonpositive_when_blocked": "D(3,1,3) > 0"}),
    ])
    def test_at_a_level(self, monkeypatch, name, at, want):
        details = _edited_verify(monkeypatch, EXAMPLE_PARAMS[name], 10,
                                 d=_set_d({at: math.nan}))
        assert {check: details[check] for check in want} == want

    def test_in_the_optimal_table(self, monkeypatch):
        details = _edited_verify(monkeypatch, EXAMPLE_PARAMS["ex1"], 10,
                                 table=_set("optimal", {(4, 2): math.nan}))
        lo = float(EX1_UNEDITED.levels[3, 2])
        assert details["value_monotone_in_queue"] == f"v(4,2,2) < v(3,2,2): nan < {lo!r}"

    def test_in_the_optimal_table_at_the_compared_level(self, monkeypatch):
        details = _edited_verify(monkeypatch, EXAMPLE_PARAMS["ex1"], 10,
                                 table=_set("optimal", {(10, 2): math.nan}))
        assert details["policy_dominance"] == "v^heuristic(10,2,2) < optimal"

    def test_in_a_policy_table(self, monkeypatch):
        details = _edited_verify(monkeypatch, EXAMPLE_PARAMS["ex1"], 10,
                                 table=_set("policy:pi1", {(10, 2): math.nan}))
        assert details["policy_dominance"] == "v^pi1(10,2,2) < optimal"

    def test_in_the_greedy_table(self, monkeypatch):
        details = _edited_verify(monkeypatch, EXAMPLE_PARAMS["ex1"], 10,
                                 table=_set("policy:optimal", {(4, 2): math.nan}))
        assert details["greedy_reproduces_optimal"] == "greedy value differs at (4, 2, 2)"

    def test_at_a_threshold_sign_change(self, monkeypatch):
        # ex1 solves to depth 103 for its threshold search.  D(2,2,2) is the first
        # negative entry of k = 2; read as a band zero, a NaN there would move i_D(2)
        # from 2 to 3 and pass the check.
        details = _edited_verify(monkeypatch, EXAMPLE_PARAMS["ex1"], 10,
                                 d=_set_d({(2, 2): math.nan}))
        assert details["threshold_structure"] == (
            "D(2,2,2) is NaN at or before the sign change at index 2; "
            "this indicates a solver bug")


def _draw_points(seed, n, draw, max_depth=math.inf):
    """n points from draw(rng), leaving out those whose required_depth exceeds max_depth."""
    rng = random.Random(seed)
    points = []
    while len(points) < n:
        params = draw(rng)
        if thresholds.required_depth(params) <= max_depth:
            points.append(params)
    return points


def _log_uniform_point(rng):
    c1 = rng.randint(1, 7)
    mu1, mu2 = (10 ** rng.uniform(-0.5, 1.5) for _ in range(2))
    h0 = 10 ** rng.uniform(-2, 0.5)
    h1, h2 = (10 ** rng.uniform(-1, 1) for _ in range(2))
    return SystemParams(c1, rng.randint(1, c1), mu1, mu2, h0, h1, h2)


def _tie_heavy_point(rng):
    # Few distinct values, so rate, cost and threshold ties are common.
    c1 = rng.randint(1, 5)
    values = (0.5, 1.0, 2.0, 3.0, 4.0)
    return SystemParams(c1, rng.randint(1, c1), *(rng.choice(values) for _ in range(5)))


class TestOffGrid:
    """Every check at depth 40 off the study grid, which fixes h1 and mu1 and keeps C1 <= 4."""

    def test_random_points_pass(self):
        # Points with C1 = 5..7 run the seven-row family kernel.
        points = _draw_points(20261019, 200, _log_uniform_point, max_depth=20_000)
        report = verify(points, 40)
        assert report.passed, [(f.name, f.params, f.detail) for f in report.failures()]

    def test_tie_heavy_points_pass(self):
        points = _draw_points(20261020, 300, _tie_heavy_point)
        report = verify(points, 40)
        assert report.passed, [(f.name, f.params, f.detail) for f in report.failures()]


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


def aggregate_stats_oracle(raw_rows):
    """``aggregate_stats`` as it was before it worked the regime labels out from the row's floats.

    Kept as the oracle the current one must equal: it builds and validates
    a ``SystemParams`` per distinct point and a flat key per row.
    """
    cells = {}
    labels = {}
    for row in raw_rows:
        c1, c2, h0, h1, h2, mu1, mu2, i0, k0, l0, policy_id, _, _, err = row
        point = row[:7]
        if point not in labels:
            params = SystemParams(c1, c2, mu1, mu2, h0, h1, h2)
            labels[point] = (cost_regime_label(params),
                             "mu1_ge" if params.mu1 >= params.mu2 else "mu1_lt")
        key = (policy_id, c1, c2, *labels[point], i0)
        cells.setdefault(key, []).append(err)
    stats = []
    for key in sorted(cells):
        errs = cells[key]
        n = len(errs)
        mean = sum(errs) / n
        if n > 1:
            std = math.sqrt(sum((e - mean) ** 2 for e in errs) / (n - 1))
        else:
            std = 0.0
        stats.append(ErrorStats(*key, max_err=max(errs), avg_err=mean, std_err=std, count=n))
    return stats


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

    def test_aggregate_stats_equals_oracle_on_interleaved_points(self):
        # Points of every cost and rate regime, equal-cost ties included, with
        # their rows dealt out one at a time so no point's rows form a block.
        # The sweep leaves ties out, so the rows come from its per-point function.
        grid = experiments._grid(((2, 1), (3, 2)), (0.1,), (0.1, 1.0, 2.0),
                                 (4.0, 10.0, 25.0), 10.0, 1.0)
        points = []
        for params in grid:
            point_rows, cells = [], {}
            experiments._sweep_point(params, (20, 5), point_rows, cells)
            points.append((point_rows, cells))
        rows = [row for point_rows, _ in points for row in point_rows]
        blocks = {}
        for row in rows:
            blocks.setdefault(row[:7], []).append(row)
        assert len(blocks) == 18
        assert {cost_regime_label(SystemParams(*p[:2], p[5], p[6], p[2], p[3], p[4]))
                for p in blocks} == {"lowcost", "highcost", "equal"}
        dealt = [block[n] for n in range(max(map(len, blocks.values())))
                 for block in blocks.values() if n < len(block)]
        assert sorted(dealt) == sorted(rows)
        for sample in (dealt, dealt[::-1], rows):
            got = aggregate_stats(sample)
            assert got == aggregate_stats_oracle(sample)
            assert [repr(s) for s in got] == [repr(s) for s in aggregate_stats_oracle(sample)]
        # Each point's cells hold its rows' errors by (policy, group, i0), in row order.
        for point_rows, cells in points:
            assert experiments._error_stats(cells) == aggregate_stats(point_rows)
            assert [e for errs in cells.values() for e in errs] == [row[13] for row in point_rows]
