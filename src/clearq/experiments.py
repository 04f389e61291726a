"""Numerical study drivers: parameter sweeps, invariant checks, D/H curves.

The sweep reproduces the relative-error comparison of threshold policies
against the optimal over a fixed parameter grid; the verifier runs every
structural property the solver and threshold machinery are supposed to
satisfy and reports the first counterexample per failure.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .model import SystemParams, band_sign, band_signs, cost_gap_sign
from .policies import optimal_greedy, pi_prime, policy_by_id
from .solver import (
    DiffTable,
    ValueTable,
    boundary_diff_formula,
    diff,
    recursion_check,
    solve_optimal,
    solve_under_policy,
)
from .thresholds import (
    Classification,
    Condition1Verdict,
    actual_profile,
    condition1,
    constants,
    heuristic_profile,
    search_caps,
    surrogate,
    threshold_spec,
)

# Parameter grid of the numerical study; h1 and mu1 are fixed by scaling.
TABLE4_H0 = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
TABLE4_H2 = (0.1, 0.2, 0.5, 1.0, 1.5, 2.0)
TABLE4_MU2 = (4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 15.0, 20.0, 25.0)
TABLE4_SERVERS = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3))
TABLE4_H1 = 1.0
TABLE4_MU1 = 10.0

LOWCOST_POLICIES = ("heuristic", "pi1", "pi2", "pi3", "pi4")
HIGHCOST_POLICIES = ("heuristic", "tpi1", "tpi2", "tpi3", "tpi4")

# Worked-example parameter sets (ex3b/ex4b are the stated h1 variants).
EXAMPLE_PARAMS = {
    "ex1": SystemParams(4, 2, 3.0, 0.96, 0.1, 1.0, 0.16),
    "ex2": SystemParams(4, 2, 3.0, 0.6, 1.0, 1.0, 0.04),
    "ex3": SystemParams(4, 2, 1.0, 1.5, 2.0, 2.0, 1.0),
    "ex3b": SystemParams(4, 2, 1.0, 1.5, 2.0, 8.0, 1.0),
    "ex4": SystemParams(4, 2, 1.0, 1.5, 0.16, 0.8, 0.4),
    "ex4b": SystemParams(4, 2, 1.0, 1.5, 0.16, 1.6, 0.4),
    "ex5": SystemParams(4, 2, 1.0, 1.5, 0.2, 1.0, 0.2),
    "ex6": SystemParams(4, 3, 10.0, 10.0, 0.01, 1.0, 0.5),
    "ex7": SystemParams(4, 2, 3.0, 30.0, 0.1, 1.0, 12.5),
    "ex8": SystemParams(4, 2, 3.0, 3.3, 1.0, 1.0, 1.22),
}


def _grid(server_configs, h0_values, h2_values, mu2_values, mu1, h1) -> Iterator[SystemParams]:
    """Every parameter combination of a grid, servers outermost and mu2 innermost."""
    for c1, c2 in server_configs:
        for h0 in h0_values:
            for h2 in h2_values:
                for mu2 in mu2_values:
                    yield SystemParams(c1, c2, mu1, mu2, h0, h1, h2)


def table4_params(server_configs: Sequence[tuple[int, int]] = TABLE4_SERVERS) -> list[SystemParams]:
    """Every parameter combination of the study grid."""
    return list(_grid(server_configs, TABLE4_H0, TABLE4_H2, TABLE4_MU2, TABLE4_MU1, TABLE4_H1))


def cost_regime_label(params: SystemParams) -> str:
    gap = cost_gap_sign(params)
    if gap > 0:
        return "lowcost"
    if gap < 0:
        return "highcost"
    return "equal"


def rate_regime_label(params: SystemParams) -> str:
    return "mu1_ge" if params.mu1 >= params.mu2 else "mu1_lt"


def policy_family(cost_regime: str) -> tuple[str, ...]:
    """The policies compared in a cost regime: pi1..pi4, or tpi1..tpi4 when highcost."""
    return HIGHCOST_POLICIES if cost_regime == "highcost" else LOWCOST_POLICIES


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep; defaults reproduce the study grid."""

    server_configs: Sequence[tuple[int, int]] = TABLE4_SERVERS
    h0_values: Sequence[float] = TABLE4_H0
    h2_values: Sequence[float] = TABLE4_H2
    mu2_values: Sequence[float] = TABLE4_MU2
    h1: float = TABLE4_H1
    mu1: float = TABLE4_MU1
    i0_values: Sequence[int] = (20, 30)
    policies: Sequence[str] | None = None  # None: regime-appropriate family
    include_equal_cost: bool = False


@dataclass(frozen=True)
class ErrorStats:
    policy: str
    c1: int
    c2: int
    cost_regime: str
    rate_regime: str
    i0: int
    max_err: float
    avg_err: float
    std_err: float
    count: int


@dataclass(frozen=True)
class SweepResult:
    stats: list[ErrorStats]
    raw_rows: list[tuple]

    RAW_HEADER = "C1,C2,h0,h1,h2,mu1,mu2,i0,k0,l0,policy,v_opt,v_pi,err_pct"

    def write_raw_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.RAW_HEADER + "\n")
            for row in self.raw_rows:
                fh.write(",".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n")


def _map(fn, jobs: int | None, chunksize: int, *args) -> list:
    """fn over the argument lists, in order, on ``jobs`` worker processes when jobs > 1."""
    if jobs is None or jobs <= 1:
        return list(map(fn, *args))
    from concurrent.futures import ProcessPoolExecutor  # so serial runs never load multiprocessing
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, *args, chunksize=chunksize))


def _sweep_combo(args) -> list[tuple]:
    """Raw error rows for one parameter combination (worker function)."""
    params, i0_values, policies = args
    c1 = params.C1
    point = (c1, params.C2, params.h0, params.h1, params.h2, params.mu1, params.mu2)
    depth = max(i0_values)
    optimal = solve_optimal(params, depth)
    if policies is None:
        policies = policy_family(cost_regime_label(params))
    # Rows live as long as the sweep result, so they share floats: each
    # optimal value is read once for every policy, and a policy value that
    # ties it (about a quarter of the study grid's rows) reuses it.
    starts = [(i0, k0, c1 - k0, optimal.value(i0, k0, c1 - k0))
              for i0 in i0_values for k0 in range(0, c1 + 1)]
    rows = []
    for policy_id in policies:
        policy = policy_by_id(params, policy_id, value_table=optimal)
        v_pi = solve_under_policy(params, policy, depth) if policy_id != "optimal" else optimal
        for i0, k0, l0, v_opt_val in starts:
            v_pi_val = v_pi.value(i0, k0, l0)
            if v_pi_val == v_opt_val:
                v_pi_val, err_pct = v_opt_val, 0.0
            else:
                err_pct = (v_pi_val - v_opt_val) / v_opt_val * 100.0
            rows.append((*point, i0, k0, l0, policy_id, v_opt_val, v_pi_val, err_pct))
    return rows


def sweep(spec: SweepSpec, jobs: int | None = None) -> SweepResult:
    """Relative errors of every requested policy over the grid.

    Strict-inequality regime captions exclude cost-order ties unless
    include_equal_cost is set.  Aggregation is an associative merge over a
    deterministically ordered combination list, so the worker count cannot
    change the result.
    """
    grid = _grid(spec.server_configs, spec.h0_values, spec.h2_values, spec.mu2_values,
                 spec.mu1, spec.h1)
    i0_values = tuple(spec.i0_values)
    policies = tuple(spec.policies) if spec.policies else None
    combos = [
        (params, i0_values, policies)
        for params in grid
        if spec.include_equal_cost or cost_gap_sign(params) != 0
    ]
    raw_rows = [row for rows in _map(_sweep_combo, jobs, 8, combos) for row in rows]
    return SweepResult(stats=aggregate_stats(raw_rows), raw_rows=raw_rows)


def aggregate_stats(raw_rows: Iterable[tuple]) -> list[ErrorStats]:
    """Per-cell max/avg/std of the error sample, in percent.

    Spread is the sample standard deviation, which is what the published
    tables report.
    """
    cells: dict[tuple, list[float]] = {}
    labels: dict[tuple, tuple[str, str]] = {}  # regime labels per distinct grid point
    for row in raw_rows:
        c1, c2, h0, h1, h2, mu1, mu2, i0, k0, l0, policy_id, _, _, err = row
        point = row[:7]
        if point not in labels:
            params = SystemParams(c1, c2, mu1, mu2, h0, h1, h2)
            labels[point] = (cost_regime_label(params), rate_regime_label(params))
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


def round_half_up(x: float, places: int = 2) -> float:
    q = Decimal(10) ** -places
    return float(Decimal(repr(x)).quantize(q, rounding=ROUND_HALF_UP))


# Published table layout: (cost regime, rate split, initial queue).
TABLE_DEFS = {
    5: ("lowcost", "mu1_ge", 20),
    6: ("lowcost", "mu1_lt", 20),
    7: ("lowcost", "mu1_ge", 30),
    8: ("lowcost", "mu1_lt", 30),
    9: ("highcost", "mu1_lt", 20),
    10: ("highcost", "mu1_lt", 30),
}


def table_cells(stats: list[ErrorStats], table: int) -> dict[tuple, ErrorStats]:
    """Cells of one published-table reproduction, keyed (policy, c1, c2)."""
    cost_regime, rate_regime, i0 = TABLE_DEFS[table]
    return {
        (s.policy, s.c1, s.c2): s
        for s in stats
        if s.cost_regime == cost_regime and s.rate_regime == rate_regime and s.i0 == i0
    }


def write_table_csv(stats: list[ErrorStats], table: int, path) -> None:
    """Aggregated CSV mirroring the published layout (columns = servers)."""
    cells = table_cells(stats, table)
    policies = policy_family(TABLE_DEFS[table][0])
    cols = [(c1, c2) for c1, c2 in TABLE4_SERVERS]
    with open(path, "w", encoding="utf-8") as fh:
        header = "policy,stat," + ",".join(f"C1={c1} C2={c2}" for c1, c2 in cols)
        fh.write(header + "\n")
        for policy_id in policies:
            for stat in ("max", "avg", "std"):
                row = [policy_id, stat]
                for c1, c2 in cols:
                    cell = cells.get((policy_id, c1, c2))
                    if cell is None:
                        row.append("")
                        continue
                    value = {"max": cell.max_err, "avg": cell.avg_err, "std": cell.std_err}[stat]
                    row.append(f"{round_half_up(value):.2f}")
                fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# Invariant verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    params: SystemParams
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks_run": len(self.results),
            "checks_by_name": dict(Counter(r.name for r in self.results)),
            "failures": [
                {
                    "name": r.name,
                    "params": r.params.to_json_dict(),
                    "detail": r.detail,
                }
                for r in self.failures()
            ],
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


def _ineq_tol(*values):
    """Inequality slack; elementwise when given arrays."""
    return 1e-9 * (1.0 + sum(abs(v) for v in values))


def _first(mask: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True entry of mask in row-major order, or None."""
    hits = np.flatnonzero(mask)
    if hits.size == 0:
        return None
    return tuple(int(x) for x in np.unravel_index(hits[0], mask.shape))


def _by_k(dt: DiffTable, i_max: int) -> np.ndarray:
    """D on the fully-busy levels 0..i_max, row k-1 holding index k = 1..C1."""
    return dt.levels[: i_max + 1, 1:].T


def _l_by_k(params: SystemParams) -> np.ndarray:
    """Station 2 count l = C1 - k of each row of _by_k, as a column."""
    return (params.C1 - np.arange(1, params.C1 + 1))[:, None]


def check_value_monotone(params: SystemParams, table: ValueTable, i_max: int):
    lo, hi = table.levels[:i_max], table.levels[1:i_max + 1]
    at = _first(hi < lo - _ineq_tol(lo, hi))
    if at is None:
        return None
    i, k = at
    l = params.C1 - k
    return f"v({i + 1},{k},{l}) < v({i},{k},{l}): {float(hi[at])!r} < {float(lo[at])!r}"


def check_diagonal_monotone(params: SystemParams, dt: DiffTable, i_max: int):
    # In column order (by level, then total jobs in service, then k) the
    # partner (i, k+1, l-1) of a state with l >= 1 is the next state.
    i, k, l, d = dt.columns(i_max)
    lo, hi = d[:-1], d[1:]
    at = _first((l[:-1] >= 1) & (hi < lo - _ineq_tol(lo, hi)))
    if at is None:
        return None
    (n,) = at
    return f"D({i[n]},{k[n] + 1},{l[n] - 1}) < D({i[n]},{k[n]},{l[n]})"


def check_single_sign_change(params: SystemParams, dt: DiffTable, i_max: int):
    # Band-zeros commit to neither side; only a strict sign reversal counts.
    lowcost = cost_gap_sign(params) >= 0
    signs = band_signs(_by_k(dt, i_max))
    crossing, back = (signs < 0, signs > 0) if lowcost else (signs > 0, signs < 0)
    at = _first(back & np.logical_or.accumulate(crossing, axis=1))
    if at is None:
        return None
    k, i = at[0] + 1, at[1]
    side = "positive" if lowcost else "negative"
    return f"D returned {side} at ({i},{k},{params.C1 - k}) after crossing"


def check_positive_no_blocking(params: SystemParams, dt: DiffTable, i_max: int):
    # mu1 <= mu2 with a free dedicated server: collaborative always weakly wins.
    if band_sign(params.mu1 - params.mu2) > 0 or cost_gap_sign(params) < 0:
        return None
    strict = cost_gap_sign(params) > 0
    signs = band_signs(_by_k(dt, i_max))
    at = _first((_l_by_k(params) < params.C2) & ((signs < 0) | (strict & (signs == 0))))
    if at is None:
        return None
    k, i = at[0] + 1, at[1]
    return f"D({i},{k},{params.C1 - k}) not positive"


def check_nonpositive_blocked(params: SystemParams, dt: DiffTable, i_max: int):
    if band_sign(params.mu2 - params.mu1) < 0 or cost_gap_sign(params) > 0:
        return None
    signs = band_signs(_by_k(dt, i_max))
    at = _first((_l_by_k(params) >= params.C2) & (signs > 0))
    if at is None:
        return None
    k, i = at[0] + 1, at[1]
    return f"D({i},{k},{params.C1 - k}) > 0"


def check_monotone_in_queue(params: SystemParams, dt: DiffTable, i_max: int):
    rate = band_sign(params.mu1 - params.mu2)
    gap = cost_gap_sign(params)
    l = _l_by_k(params)
    if rate >= 0:
        direction = np.full_like(l, -1)  # non-increasing
    else:
        direction = np.where(
            (gap >= 0) & (l >= params.C2), -1, np.where((gap <= 0) & (l < params.C2), 1, 0)
        )
    d = _by_k(dt, i_max)
    lo, hi = d[:, :-1], d[:, 1:]
    tol = _ineq_tol(lo, hi)
    at = _first(((direction < 0) & (hi > lo + tol)) | ((direction > 0) & (hi < lo - tol)))
    if at is None:
        return None
    k, i = at[0] + 1, at[1]
    trend = "non-increasing" if direction[at[0], 0] < 0 else "non-decreasing"
    return f"D not {trend} at ({i},{k},{params.C1 - k})"


def check_affine_bounds(params: SystemParams, dt: DiffTable, i_max: int):
    cst = constants(params)
    i, k, l, d = dt.columns(i_max)
    lower = i * cst.c_prime + cst.b_prime
    below = d < lower - _ineq_tol(d, lower)
    above = np.zeros_like(below)
    if band_sign(params.mu2 - params.mu1) >= 0:
        upper = i * cst.c + cst.b
        above = d > upper + _ineq_tol(d, upper)
    at = _first(below | above)
    if at is None:
        return None
    (n,) = at
    bound = "below affine lower bound" if below[n] else "above affine upper bound"
    return f"D({i[n]},{k[n]},{l[n]}) {bound}"


def check_recursion_residual(params: SystemParams, table: ValueTable, dt: DiffTable):
    report = recursion_check(params, table, dt)
    if report.max_scaled_residual > 1e-9:
        return f"max scaled residual {report.max_scaled_residual!r} at {report.worst_state}"
    return None


def check_boundary_formula(params: SystemParams, dt: DiffTable):
    _, ks, ls, ds = dt.columns(0)
    for k, l, d_val in zip(ks.tolist(), ls.tolist(), ds.tolist()):
        expected = boundary_diff_formula(params, k, l)
        if abs(d_val - expected) > 1e-12 * (1.0 + abs(expected)):
            return f"D(0,{k},{l}) != boundary formula"
    return None


def check_policy_dominance(params: SystemParams, table: ValueTable, i_max: int):
    opt = table.levels[i_max]
    for policy_id in policy_family(cost_regime_label(params)):
        policy = policy_by_id(params, policy_id, value_table=table)
        got = solve_under_policy(params, policy, i_max).levels[i_max]
        at = _first(got < opt - _ineq_tol(opt, got))
        if at is not None:
            (k,) = at
            return f"v^{policy_id}({i_max},{k},{params.C1 - k}) < optimal"
    return None


def check_greedy_reproduces_optimal(params: SystemParams, table: ValueTable, i_max: int):
    greedy = optimal_greedy(table)
    v_g = solve_under_policy(params, greedy, i_max)
    i, k, l, opt = table.columns(i_max)
    got = v_g.columns(i_max)[3]
    at = _first(np.abs(got - opt) > 1e-9 * (1.0 + np.abs(opt)))
    if at is None:
        return None
    (n,) = at
    return f"greedy value differs at {(int(i[n]), int(k[n]), int(l[n]))}"


def _band_integer(r: float) -> bool:
    return abs(r - round(r)) <= 1e-9 * max(1.0, abs(r))


def check_threshold_structure(
    params: SystemParams, dt: DiffTable, *, caps: Mapping[int, int] | None = None
):
    """Threshold-level structural guarantees.

    Exactness and increment assertions are scoped to non-degenerate points:
    where a surrogate root sits exactly on an integer, or a neighbouring
    index sits exactly on the blocked-cost equality, the published
    guarantees are boundary-tight and the collaborative-side tie rule can
    shift one side by one.  ``caps`` is passed on to ``actual_profile``.
    """
    spec = threshold_spec(params)
    heur = heuristic_profile(params)
    act = actual_profile(params, dt, caps=caps)
    cst = constants(params)
    # Independent-orientation thresholds carry a tilde and are indexed by l.
    d_name, h_name, ix = ("i~_D", "i~_H", "l") if spec.independent else ("i_D", "i_H", "k")
    finite = Classification.FINITE_EXPECTED
    issues = []
    verdicts = {}  # condition1 per index, each worked out once
    indices = act.indices()
    for a, b in zip(indices, indices[1:]):
        if act[a] > act[b]:
            issues.append(f"{d_name}({a}) > {d_name}({b})")
    for s in spec:
        index, k, l = s.index, s.k, s.l
        i_h, i_d = heur[index], act[index]
        if l < params.C2 and s.classification is finite:
            if not (i_h <= i_d <= i_h + params.C1 - 1):
                issues.append(f"sandwich fails at {ix}={index}: {i_h} vs {i_d}")
        if math.isinf(i_h) != math.isinf(i_d):
            issues.append(f"finiteness mismatch at {ix}={index}")
        if spec.independent or l < params.C2:
            continue
        # Collaborative orientation with a Station 2 queue: index = k.
        strict = s.classification is finite
        if strict == (i_d == 0):
            issues.append(f"zero-threshold iff fails at k={k}")
        if i_d >= 1:
            h_gap = band_sign(params.h0 - params.h2)
            if h_gap > 0 and i_h < i_d:
                issues.append(f"h0>h2 but i_H({k}) < i_D({k})")
            if h_gap < 0 and i_h > i_d:
                issues.append(f"h0<h2 but i_H({k}) > i_D({k})")
            if h_gap == 0 and i_h != i_d:
                issues.append(f"h0=h2 but i_H({k}) != i_D({k})")
        clean_k = not _band_integer(cst.r2[k])
        neighbour_strict = k >= 2 and spec[k - 1].classification is finite
        verdict = verdicts[k] = condition1(params, k)
        holds = verdict in (
            Condition1Verdict.HOLDS_QUEUE_SIDE,
            Condition1Verdict.HOLDS_COLLAB_SIDE,
        )
        if holds and clean_k:
            if i_h != i_d:
                issues.append(f"condition holds at k={k} but thresholds differ")
            # k - 1 has a longer Station 2 queue, so its verdict is already known.
            prev_holds = k >= 2 and verdicts[k - 1] == verdict
            if prev_holds and neighbour_strict and not _band_integer(cst.r2[k - 1]):
                if act[k] != act[k - 1] + 1:
                    issues.append(f"condition holds at k={k} but i_D increment != 1")
        if (
            band_sign(params.h0 - params.h2) == 0
            and neighbour_strict
            and strict
            and act[k] != act[k - 1] + 1
        ):
            issues.append(f"h0=h2 but i_D({k}) != i_D({k - 1}) + 1")
        if (
            neighbour_strict
            and strict
            and not math.isinf(heur[k])
            and heur[k] >= 1
            and heur[k] != heur[k - 1] + 1
        ):
            issues.append(f"i_H({k}) != i_H({k - 1}) + 1")
    if params.C1 == 1:
        for index in indices:
            if not math.isinf(act[index]) and act[index] != heur[index]:
                issues.append(f"C1=1 but {d_name}({index}) != {h_name}({index})")
    return "; ".join(issues) if issues else None


POINT_CHECKS = (
    "value_monotone_in_queue",
    "diff_diagonal_monotone",
    "single_sign_change",
    "positive_without_blocking",
    "nonpositive_when_blocked",
    "diff_monotone_in_queue",
    "affine_bounds",
    "recursion_residual",
    "boundary_formula",
    "policy_dominance",
    "greedy_reproduces_optimal",
    "threshold_structure",
)


def verify_point(params: SystemParams, i_max: int) -> list[CheckResult]:
    if i_max < 0:
        raise ValueError("i_max must be non-negative")
    caps = search_caps(params)
    table = solve_optimal(params, max([i_max, *caps.values()]))
    dt = diff(table)
    outcomes = {
        "value_monotone_in_queue": check_value_monotone(params, table, i_max),
        "diff_diagonal_monotone": check_diagonal_monotone(params, dt, i_max),
        "single_sign_change": check_single_sign_change(params, dt, i_max),
        "positive_without_blocking": check_positive_no_blocking(params, dt, i_max),
        "nonpositive_when_blocked": check_nonpositive_blocked(params, dt, i_max),
        "diff_monotone_in_queue": check_monotone_in_queue(params, dt, i_max),
        "affine_bounds": check_affine_bounds(params, dt, i_max),
        "recursion_residual": check_recursion_residual(params, table, dt),
        "boundary_formula": check_boundary_formula(params, dt),
        "policy_dominance": check_policy_dominance(params, table, i_max),
        "greedy_reproduces_optimal": check_greedy_reproduces_optimal(params, table, i_max),
        "threshold_structure": check_threshold_structure(params, dt, caps=caps),
    }
    return [
        CheckResult(name, params, passed=(detail is None), detail=detail or "")
        for name, detail in outcomes.items()
    ]


def verify(
    params_list: Sequence[SystemParams], i_max: int, jobs: int | None = None
) -> VerificationReport:
    """Run the full invariant suite over the supplied parameter points."""
    per_point = _map(verify_point, jobs, 4, params_list, [i_max] * len(params_list))
    return VerificationReport([r for results in per_point for r in results])


# ---------------------------------------------------------------------------
# D/H curves
# ---------------------------------------------------------------------------

def dh_curve(
    params: SystemParams,
    *,
    k: int | None = None,
    l: int | None = None,
    i_max: int,
) -> list[tuple[int, float, float]]:
    """Aligned series of the exact difference and its affine surrogate."""
    if (k is None) == (l is None):
        raise ValueError("give exactly one of k or l")
    if k is None:
        k = params.C1 - l
    if not 1 <= k <= params.C1:
        raise ValueError(f"k must be in 1..{params.C1}, got {k}")
    column = diff(solve_optimal(params, i_max)).levels[:, k].tolist()
    return [(i, d_val, surrogate(params, i, k)) for i, d_val in enumerate(column)]


def write_dh_csv(rows: list[tuple[int, float, float]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,D,H\n")
        for i, d_val, h_val in rows:
            fh.write(f"{i},{d_val!r},{h_val!r}\n")
