"""Acceptance gate: every criterion at its stated tolerance.

Each criterion reports one pass/fail line outside pytest's capture, so the
lines show in any run; run the module alone via
`pytest tests/test_acceptance.py`.
"""
import hashlib
import json
import os
import random
import time

import pytest

from clearq.experiments import (
    EXAMPLE_PARAMS,
    SweepSpec,
    round_half_up,
    sweep,
    table4_params,
    table_cells,
)
from clearq.model import State, SystemParams
from clearq.policies import optimal_greedy, pi_prime
from clearq.simulate import SimConfig, estimate
from clearq.solver import diff, recursion_check, solve_optimal, solve_under_policy
from clearq.thresholds import boundary_diff_formula, compute_actual_profile, heuristic_profile

from golden_tables import GOLDEN_TABLES, SERVER_COLUMNS
from test_solver import entries

JOBS = os.cpu_count() or 1


@pytest.fixture
def report(capsys):
    def _report(criterion: int, passed: bool, detail: str = ""):
        status = "PASS" if passed else "FAIL"
        suffix = f" - {detail}" if detail else ""
        with capsys.disabled():
            print(f"[acceptance] criterion {criterion}: {status}{suffix}")
        assert passed, f"criterion {criterion}: {detail}"

    return _report


def test_criterion_1_worked_examples(report):
    t0 = time.time()
    expected = [
        ("ex1", 3, 10, 10),
        ("ex2", 4, 4, 1),
        ("ex3", 2, 3, 4),
        ("ex3b", 2, 13, 13),
        ("ex4", 2, 4, 2),
        ("ex4b", 2, 17, 17),
        ("ex5", 2, 13, 13),
        ("ex7", 0, 12, 12),
        ("ex8", 0, 8, 5),
    ]
    mismatches = []
    for name, index, want_actual, want_heuristic in expected:
        params = EXAMPLE_PARAMS[name]
        got_actual = compute_actual_profile(params)[index]
        got_heuristic = heuristic_profile(params)[index]
        if (got_actual, got_heuristic) != (want_actual, want_heuristic):
            mismatches.append(
                f"{name}[{index}]: actual {got_actual} (want {want_actual}), "
                f"heuristic {got_heuristic} (want {want_heuristic})"
            )
    elapsed = time.time() - t0
    report(1, not mismatches, "; ".join(mismatches) or f"9 example thresholds exact in {elapsed:.2f}s")


@pytest.fixture(scope="module")
def full_sweep():
    return sweep(SweepSpec())


def test_criterion_2_table_reproduction(full_sweep, report):
    t0 = time.time()
    mismatches = []
    compared = 0
    for table, golden in GOLDEN_TABLES.items():
        cells = table_cells(full_sweep.stats, table)
        for policy, stats in golden.items():
            for col, (c1, c2) in enumerate(SERVER_COLUMNS):
                cell = cells.get((policy, c1, c2))
                if cell is None:
                    mismatches.append(f"table {table} {policy} C1={c1},C2={c2}: missing cell")
                    continue
                got = {
                    "max": round_half_up(cell.max_err),
                    "avg": round_half_up(cell.avg_err),
                    "std": round_half_up(cell.std_err),
                }
                for stat, tol in (("max", 0.02), ("avg", 0.02), ("std", 0.06)):
                    compared += 1
                    want = stats[stat][col]
                    if abs(got[stat] - want) > tol + 1e-9:
                        mismatches.append(
                            f"table {table} {policy} C1={c1},C2={c2} {stat}: "
                            f"got {got[stat]:.2f}, published {want:.2f}"
                        )
    for line in mismatches:
        print(f"[acceptance] table mismatch: {line}")
    elapsed = time.time() - t0
    report(2, not mismatches, f"{compared} table cells within tolerance in {elapsed:.0f}s"
           if not mismatches else f"{len(mismatches)} of {compared} cells off")


FULL_SWEEP_RAW_SHA256 = "d40caca3b9e49cb8298d800bf6492e588be649d533d94ccb67c708bdedbd75a5"


def test_full_sweep_raw_csv_byte_identical(full_sweep, tmp_path):
    """Every raw row of the whole-grid sweep, as ``write_raw_csv`` writes it, pinned by SHA-256.

    The digest was taken from the code before the per-parameter-set caches
    (boundary triangle, heuristic constants, decision and column index grids)
    were added, with no source change applied.  It reuses criterion 2's sweep.
    """
    path = tmp_path / "sweep_raw.csv"
    full_sweep.write_raw_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FULL_SWEEP_RAW_SHA256


FULL_SWEEP_STATS_SHA256 = "3ade94aea75fc0fc339e018366954686bb4aa44978105de79588e408c9e29284"


def test_full_sweep_stats_exact(full_sweep):
    """Every ``ErrorStats`` of the whole-grid sweep, one ``repr`` a line, pinned by SHA-256.

    The tables round the stats to two decimals and the raw CSV holds only the
    rows, so this pins the exact floats of every max, mean and sample std.
    The digest was taken from the code that built a ``SystemParams`` per point
    to label its rows, with no source change applied.  It reuses criterion 2's
    sweep.
    """
    text = "".join(f"{stats!r}\n" for stats in full_sweep.stats)
    assert len(full_sweep.stats) == 240
    assert hashlib.sha256(text.encode()).hexdigest() == FULL_SWEEP_STATS_SHA256


def test_criterion_3_invariant_suite(tmp_path, report):
    import clearq.cli as cli

    t0 = time.time()
    out = tmp_path / "verify_report.json"
    code = cli.main(["verify", "--grid", "table4", "--imax", "40",
                     "--jobs", str(JOBS), "--out", str(out)])
    elapsed = time.time() - t0
    payload = json.loads(out.read_text())
    for failure in payload["failures"][:10]:
        print(f"[acceptance] invariant failure: {failure}")
    report(3, code == 0 and payload["passed"],
           f"{payload['checks_run']} checks, {len(payload['failures'])} counterexamples "
           f"in {elapsed:.0f}s (exit {code})")


def test_criterion_4_oracle_equivalence(report):
    t0 = time.time()
    rng = random.Random(20240811)
    grid = table4_params()
    checks = 0
    outliers = []
    for draw in range(50):
        params = grid[rng.randrange(len(grid))]
        k0 = rng.randrange(0, params.C1 + 1)
        state = State(20, k0, params.C1 - k0)
        table = solve_optimal(params, 20)
        for policy_name, policy in (("optimal", optimal_greedy(table)),
                                    ("heuristic", pi_prime(params))):
            if policy_name == "optimal":
                dp_value = table.levels[20, k0]
            else:
                dp_value = solve_under_policy(params, policy, 20).levels[20, k0]
            sim = estimate(params, policy, SimConfig(seed=draw, replications=100000,
                                                     initial_state=state))
            checks += 1
            z = abs(sim.mean - dp_value) / sim.std_error
            if z > 3.5:
                outliers.append(f"{policy_name} {params.to_json_dict()} k0={k0}: z={z:.2f}")
    for line in outliers:
        print(f"[acceptance] oracle outlier: {line}")
    elapsed = time.time() - t0
    report(4, len(outliers) <= 1,
           f"{checks} checks, {len(outliers)} beyond 3.5 SE in {elapsed:.0f}s")


def test_criterion_5_recursion_residuals(report):
    t0 = time.time()
    worst = 0.0
    worst_point = None
    for params in table4_params():
        table = solve_optimal(params, 40)
        res = recursion_check(params, diff(table))
        if res.max_scaled_residual > worst:
            worst = res.max_scaled_residual
            worst_point = (params, res.worst_state)
    elapsed = time.time() - t0
    report(5, worst <= 1e-9,
           f"max scaled residual {worst:.3e} at {worst_point} in {elapsed:.0f}s"
           if worst > 1e-9 else f"max scaled residual {worst:.3e} in {elapsed:.0f}s")


def test_criterion_6_boundary_formula(report):
    t0 = time.time()
    worst = 0.0
    for params in table4_params():
        v = entries(solve_optimal(params, 0))
        for total in range(1, params.C1 + 1):
            for k in range(1, total + 1):
                l = total - k
                want = boundary_diff_formula(params, k, l)
                got = v[State(0, k, l)] - v[State(0, k - 1, l + 1)]
                rel = abs(got - want) / (1.0 + abs(want))
                worst = max(worst, rel)
    elapsed = time.time() - t0
    report(6, worst <= 1e-12, f"max relative deviation {worst:.3e} in {elapsed:.0f}s")
