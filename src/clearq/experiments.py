"""Numerical study drivers: parameter sweeps, invariant checks, D/H curves.

The sweep reproduces the relative-error comparison of threshold policies
against the optimal over a fixed parameter grid; the verifier runs every
structural property the solver and threshold machinery are supposed to
satisfy and reports the first counterexample per failure.
"""
from __future__ import annotations

import json
import math
import operator
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .model import (
    SystemParams,
    _band_sides,
    _check_rate_or_cost,
    _is_integer,
    band_sign,
    cost_gap_sign,
    snaps_to_integer,
)
from .policies import optimal_greedy, policy_by_id
from .solver import (
    DiffTable,
    ValueTable,
    _solve,
    diff,
    recursion_check,
    solve_family,
    solve_optimal,
)
from .thresholds import (
    CapExceeded,
    Classification,
    Condition1Verdict,
    NaNInDiff,
    actual_profile,
    boundary_diff_formula,
    condition1,
    constants,
    heuristic_profile,
    required_depth,
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


def table4_params() -> list[SystemParams]:
    """Every parameter combination of the study grid."""
    return list(_grid(TABLE4_SERVERS, TABLE4_H0, TABLE4_H2, TABLE4_MU2, TABLE4_MU1, TABLE4_H1))


_COST_REGIMES = {1: "lowcost", -1: "highcost", 0: "equal"}  # by the sign of h1/mu1 - h2/mu2


def cost_regime_label(params: SystemParams) -> str:
    return _COST_REGIMES[cost_gap_sign(params)]


def policy_family(cost_regime: str) -> tuple[str, ...]:
    """The policies compared in a cost regime: pi1..pi4, or tpi1..tpi4 when highcost."""
    return HIGHCOST_POLICIES if cost_regime == "highcost" else LOWCOST_POLICIES


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep; defaults reproduce the study grid.

    Each point compares the policy family of its cost regime with the
    optimal; points where h1/mu1 = h2/mu2 are left out.  A repeated value in
    a sequence field would repeat raw rows, so it is rejected.  A rate or
    cost that ``SystemParams`` would reject raises its ``ParameterError``
    here, before any point is solved.
    """

    server_configs: Sequence[tuple[int, int]] = TABLE4_SERVERS
    h0_values: Sequence[float] = TABLE4_H0
    h2_values: Sequence[float] = TABLE4_H2
    mu2_values: Sequence[float] = TABLE4_MU2
    h1: float = TABLE4_H1
    mu1: float = TABLE4_MU1
    i0_values: Sequence[int] = (20, 30)

    def __post_init__(self):
        for pair in self.server_configs:
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and _is_integer(pair[0]) and _is_integer(pair[1]) and min(pair) > 0):
                raise ValueError(
                    f"server_configs must hold pairs of positive integers (C1, C2), got {pair!r}")
        for i0 in self.i0_values:
            if not _is_integer(i0) or i0 < 0:
                raise ValueError(f"i0_values must be non-negative integers, got {i0!r}")
        # Each rate and cost as SystemParams checks it, before any point is solved.
        for name, values in (("h0", self.h0_values), ("h2", self.h2_values),
                             ("mu2", self.mu2_values), ("h1", (self.h1,)), ("mu1", (self.mu1,))):
            for value in values:
                _check_rate_or_cost(name, value)
        for name in ("server_configs", "h0_values", "h2_values", "mu2_values", "i0_values"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must name at least one value")
            if name == "server_configs":  # a pair given as a tuple and as a list repeats
                values = [tuple(pair) for pair in values]
            for n, value in enumerate(values):
                if value in values[:n]:
                    raise ValueError(f"{name} must not repeat a value, got {value!r} twice")


class ErrorStats(NamedTuple):
    """One cell of the relative-error tables: the errors of a policy in percent."""

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


class _PointRows(NamedTuple):
    """One point's raw rows, as the values they are formed from.

    ``values[j, 0, k0]`` is the optimal value at the start state
    (i0_values[j], k0, C1 - k0) and ``values[j, 1 + n, k0]`` the value there
    under ``family[n]``.
    """

    point: tuple  # (C1, C2, h0, h1, h2, mu1, mu2)
    i0_values: tuple
    family: tuple
    values: np.ndarray

    @property
    def size(self) -> int:
        """The number of rows: one per policy and start state."""
        n_i0, tables, width = self.values.shape
        return n_i0 * (tables - 1) * width

    def starts(self) -> list[tuple[tuple, float]]:
        """(head, v_opt) of each start state, by i0 and then k0."""
        c1 = self.point[0]
        return [(self.point + (i0, k0, c1 - k0), v_opt)
                for i0, v_opts in zip(self.i0_values, self.values[:, 0].tolist())
                for k0, v_opt in enumerate(v_opts)]

    def v_pis(self, n: int) -> list[float]:
        """The values under ``family[n]`` at the start states, in ``starts`` order."""
        return self.values[:, 1 + n].ravel().tolist()


class RawRows:
    """A sweep's raw rows, read-only: one value array per point, each row formed as it is iterated.

    A row is ``(C1, C2, h0, h1, h2, mu1, mu2, i0, k0, l0, policy, v_opt,
    v_pi, err_pct)``, ordered by point, then policy, then i0, then k0.  A
    ``v_pi`` equal to ``v_opt`` is ``v_opt`` itself, with ``err_pct`` 0.0.
    """

    __slots__ = ("_points",)

    def __init__(self, points: Iterable[_PointRows]):
        self._points = tuple(points)

    def __len__(self) -> int:
        return sum(point.size for point in self._points)

    def __iter__(self) -> Iterator[tuple]:
        for point in self._points:
            starts = point.starts()
            for n, policy_id in enumerate(point.family):
                for (head, v_opt), v_pi in zip(starts, point.v_pis(n)):
                    if v_pi == v_opt:
                        yield head + (policy_id, v_opt, v_opt, 0.0)
                    else:
                        yield head + (policy_id, v_opt, v_pi, (v_pi - v_opt) / v_opt * 100.0)

    def __eq__(self, other):
        if not isinstance(other, RawRows):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def _csv_lines(self) -> Iterator[str]:
        """Each row as ``SweepResult.write_raw_csv`` writes it: floats by repr, the rest by str.

        Each head and v_opt is formatted once per start state, and a ``v_pi``
        that ties is written as its ``v_opt``.  The error is ``__iter__``'s,
        inlined: this loop writes every row of a full sweep.
        """
        for point in self._points:
            head = _csv_fields(point.point)
            starts = [(f"{head},{_csv_fields(start[7:])},", v_opt, repr(v_opt))
                      for start, v_opt in point.starts()]
            for n, policy_id in enumerate(point.family):
                for (head_text, v_opt, v_opt_text), v_pi in zip(starts, point.v_pis(n)):
                    if v_pi == v_opt:
                        yield f"{head_text}{policy_id},{v_opt_text},{v_opt_text},0.0\n"
                    else:
                        err_pct = (v_pi - v_opt) / v_opt * 100.0
                        yield f"{head_text}{policy_id},{v_opt_text},{v_pi!r},{err_pct!r}\n"


def _csv_fields(fields: Iterable) -> str:
    return ",".join(repr(x) if isinstance(x, float) else str(x) for x in fields)


@dataclass(frozen=True)
class SweepResult:
    stats: list[ErrorStats]
    raw_rows: RawRows

    RAW_HEADER = "C1,C2,h0,h1,h2,mu1,mu2,i0,k0,l0,policy,v_opt,v_pi,err_pct"

    def write_raw_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.RAW_HEADER + "\n")
            fh.writelines(self.raw_rows._csv_lines())


def _sweep_point(params: SystemParams, i0_values: tuple[int, ...],
                 cells: dict[tuple, list[float]]) -> _PointRows:
    """One point's raw rows; each row's error is appended to its (policy, group, i0) cell."""
    group = _group(params)
    family = policy_family(group[2])
    tables = solve_family(
        params, [policy_by_id(params, policy_id) for policy_id in family], max(i0_values))
    # The start states (i0, k0, C1 - k0) of one i0 are row i0 of the levels.
    values = np.array([[table.levels[i0] for table in tables] for i0 in i0_values])
    v_opt, v_pi = values[:, :1], values[:, 1:]
    # The errors RawRows and _csv_lines form, in the same float expression.
    errs = np.where(v_pi == v_opt, 0.0, (v_pi - v_opt) / v_opt * 100.0)
    for policy_id, per_i0 in zip(family, errs.transpose(1, 0, 2).tolist()):
        for i0, policy_errs in zip(i0_values, per_i0):
            cells.setdefault((policy_id, group, i0), []).extend(policy_errs)
    point = (params.C1, params.C2, params.h0, params.h1, params.h2, params.mu1, params.mu2)
    return _PointRows(point, i0_values, family, values)


def sweep(spec: SweepSpec) -> SweepResult:
    """Relative errors of each point's policy family over the grid.

    The regime captions are strict inequalities, so cost-order ties are left
    out.  Each cell's errors are in raw row order, so the stats equal
    ``aggregate_stats`` of the raw rows.
    """
    grid = _grid(spec.server_configs, spec.h0_values, spec.h2_values, spec.mu2_values,
                 spec.mu1, spec.h1)
    i0_values, cells = tuple(spec.i0_values), {}
    points = [_sweep_point(params, i0_values, cells)
              for params in grid if cost_gap_sign(params) != 0]
    return SweepResult(stats=_error_stats(cells), raw_rows=RawRows(points))


def aggregate_stats(raw_rows: Iterable[tuple]) -> list[ErrorStats]:
    """Per-cell max/avg/std of the error sample, in percent."""
    cells: dict[tuple, list[float]] = {}
    groups: dict[tuple, tuple] = {}  # _group per distinct grid point
    for row in raw_rows:
        point = row[:7]
        group = groups.get(point)
        if group is None:
            c1, c2, h0, h1, h2, mu1, mu2 = point
            group = groups[point] = _group(SystemParams(c1, c2, mu1, mu2, h0, h1, h2))
        key = (row[10], group, row[7])  # (policy, group, i0): sorts as the flat stats key
        cell = cells.get(key)
        if cell is None:
            cells[key] = [row[13]]
        else:
            cell.append(row[13])
    return _error_stats(cells)


def _group(params: SystemParams) -> tuple:
    """A point's (C1, C2, cost regime, rate regime): the group of its stats cells."""
    rate = "mu1_ge" if params.mu1 >= params.mu2 else "mu1_lt"
    return (params.C1, params.C2, cost_regime_label(params), rate)


def _error_stats(cells: dict[tuple, list[float]]) -> list[ErrorStats]:
    """The stats of each (policy, group, i0) cell's error sample, in key order.

    Spread is the sample standard deviation, which is what the published
    tables report.
    """
    stats = []
    for key in sorted(cells):
        policy_id, group, i0 = key
        errs = cells[key]
        n = len(errs)
        mean = sum(errs) / n
        if n > 1:
            std = math.sqrt(sum((e - mean) ** 2 for e in errs) / (n - 1))
        else:
            std = 0.0
        stats.append(ErrorStats(policy_id, *group, i0, max(errs), mean, std, n))
    return stats


def round_half_up(x: float) -> float:
    """x to 2 decimal places, ties away from zero, read from its shortest repr."""
    from decimal import ROUND_HALF_UP, Decimal  # only the table writers round
    return float(Decimal(repr(x)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


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


def _ineq_tol(a, b):
    """Inequality slack between a and b; elementwise when given arrays."""
    return 1e-9 * (1.0 + (abs(a) + abs(b)))


def _first(mask: np.ndarray) -> tuple[int, ...]:
    """Index of the first True entry of a mask that holds one, in row-major order."""
    return tuple(int(x) for x in np.unravel_index(int(mask.argmax()), mask.shape))


class _PointArrays(NamedTuple):
    """What the checks read of a point's difference table up to i_max, derived once per point.

    ``d[k - 1, i]`` is D(i, k, C1 - k) on the fully-busy levels.  ``neg`` and
    ``pos`` mark where its band sign is negative and where positive, a NaN in
    both, so a NaN fails every sign check.  ``l`` is the Station 2 count of each
    row of ``d``, as a column, and ``columns`` is ``dt.columns(i_max)``.
    """

    d: np.ndarray
    neg: np.ndarray
    pos: np.ndarray
    l: np.ndarray
    columns: tuple


def _point_arrays(params: SystemParams, dt: DiffTable, i_max: int) -> _PointArrays:
    d = dt.levels[: i_max + 1, 1:].T
    l = np.arange(params.C1 - 1, -1, -1)[:, None]
    return _PointArrays(d, *_band_sides(d), l, dt.columns(i_max))


# Each check returns None when it holds, else a detail naming its first
# offending state.  Each mask marks the states that fail, a NaN among them:
# a comparison that must hold is negated, as in ~(hi >= lo - tol).

def check_value_monotone(params: SystemParams, table: ValueTable, i_max: int):
    lo, hi = table.levels[:i_max], table.levels[1:i_max + 1]
    bad = ~(hi >= lo - _ineq_tol(lo, hi))
    if not bad.any():
        return None
    at = _first(bad)
    i, k = at
    l = params.C1 - k
    return f"v({i + 1},{k},{l}) < v({i},{k},{l}): {float(hi[at])!r} < {float(lo[at])!r}"


def check_diagonal_monotone(params: SystemParams, arrays: _PointArrays):
    # In column order (by level, then total jobs in service, then k) the
    # partner (i, k+1, l-1) of a state with l >= 1 is the next state.
    i, k, l, d = arrays.columns
    lo, hi = d[:-1], d[1:]
    bad = (l[:-1] >= 1) & ~(hi >= lo - _ineq_tol(lo, hi))
    if not bad.any():
        return None
    (n,) = _first(bad)
    return f"D({i[n]},{k[n] + 1},{l[n] - 1}) < D({i[n]},{k[n]},{l[n]})"


def check_single_sign_change(params: SystemParams, arrays: _PointArrays):
    # Band-zeros commit to neither side; only a strict sign reversal counts.
    independent = threshold_spec(params).independent
    crossing, back = (arrays.pos, arrays.neg) if independent else (arrays.neg, arrays.pos)
    bad = back & np.logical_or.accumulate(crossing, axis=1)
    if not bad.any():
        return None
    k, i = _first(bad)
    k += 1
    side = "negative" if independent else "positive"
    return f"D returned {side} at ({i},{k},{params.C1 - k}) after crossing"


def check_positive_no_blocking(params: SystemParams, arrays: _PointArrays):
    # mu1 <= mu2 with a free dedicated server: collaborative always weakly wins.
    if band_sign(params.mu1 - params.mu2) > 0 or cost_gap_sign(params) < 0:
        return None
    # Strictly, D fails where it is not positive; weakly, where it is negative.
    failing = (~arrays.pos | arrays.neg) if cost_gap_sign(params) > 0 else arrays.neg
    bad = (arrays.l < params.C2) & failing
    if not bad.any():
        return None
    k, i = _first(bad)
    k += 1
    return f"D({i},{k},{params.C1 - k}) not positive"


def check_nonpositive_blocked(params: SystemParams, arrays: _PointArrays):
    if band_sign(params.mu2 - params.mu1) < 0 or cost_gap_sign(params) > 0:
        return None
    bad = (arrays.l >= params.C2) & arrays.pos
    if not bad.any():
        return None
    k, i = _first(bad)
    k += 1
    return f"D({i},{k},{params.C1 - k}) > 0"


def check_monotone_in_queue(params: SystemParams, arrays: _PointArrays):
    # The rows of arrays.d with l >= C2, k = 1..C1 - C2, lead.
    c1 = params.C1
    if band_sign(params.mu1 - params.mu2) >= 0:
        falling, rising = c1, c1  # D non-increasing at every k
    else:
        gap = cost_gap_sign(params)
        blocked = max(c1 - params.C2, 0)
        falling = blocked if gap >= 0 else 0  # rows 0..falling-1: non-increasing
        rising = blocked if gap <= 0 else c1  # rows rising..C1-1: non-decreasing
    for first, stop, falls in ((0, falling, True), (rising, c1, False)):
        if first == stop:
            continue
        lo, hi = arrays.d[first:stop, :-1], arrays.d[first:stop, 1:]
        tol = _ineq_tol(lo, hi)
        bad = ~(hi <= lo + tol) if falls else ~(hi >= lo - tol)
        if bad.any():
            row, i = _first(bad)
            k = first + row + 1
            trend = "non-increasing" if falls else "non-decreasing"
            return f"D not {trend} at ({i},{k},{c1 - k})"
    return None


def check_affine_bounds(params: SystemParams, arrays: _PointArrays):
    cst = constants(params)
    i, k, l, d = arrays.columns
    lower = i * cst.c_prime + cst.b_prime
    below = bad = ~(d >= lower - _ineq_tol(d, lower))
    if band_sign(params.mu2 - params.mu1) >= 0:
        upper = i * cst.c + cst.b
        bad = below | ~(d <= upper + _ineq_tol(d, upper))
    if not bad.any():
        return None
    (n,) = _first(bad)
    bound = "below affine lower bound" if below[n] else "above affine upper bound"
    return f"D({i[n]},{k[n]},{l[n]}) {bound}"


def check_recursion_residual(params: SystemParams, dt: DiffTable):
    report = recursion_check(params, dt)
    if report.max_scaled_residual > 1e-9:
        return f"max scaled residual {report.max_scaled_residual!r} at {report.worst_state}"
    return None


def check_boundary_formula(params: SystemParams, arrays: _PointArrays):
    # The C1 (C1 + 1) / 2 states at i = 0 lead the columns.
    count = params.C1 * (params.C1 + 1) // 2
    _, ks, ls, ds = (column[:count].tolist() for column in arrays.columns)
    for k, l, d_val in zip(ks, ls, ds):
        expected = boundary_diff_formula(params, k, l)
        if not abs(d_val - expected) <= 1e-12 * (1.0 + abs(expected)):
            return f"D(0,{k},{l}) != boundary formula"
    return None


def check_policy_dominance(
    params: SystemParams, table: ValueTable, family_tables: Sequence[ValueTable], i_max: int
):
    # family_tables: one table per policy of the point's family, in policy_family order.
    opt = table.levels[i_max]
    got = np.array([v_pi.levels[i_max] for v_pi in family_tables])
    bad = ~(got >= opt - _ineq_tol(opt, got))
    if not bad.any():
        return None
    row, k = _first(bad)
    policy_id = policy_family(cost_regime_label(params))[row]
    return f"v^{policy_id}({i_max},{k},{params.C1 - k}) < optimal"


def _differs(opt: np.ndarray, got: np.ndarray) -> np.ndarray:
    return ~(np.abs(got - opt) <= 1e-9 * (1.0 + np.abs(opt)))


def check_greedy_reproduces_optimal(
    params: SystemParams, table: ValueTable, greedy_table: ValueTable, i_max: int
):
    # greedy_table: the values under the greedy rule read off ``table``.  In
    # column order the i = 0 states with fewer than C1 jobs in service, the
    # lower triangle of the boundary by (n, k), come before the levels.  Tables
    # of one parameter set share their boundary, which then needs no comparison.
    c1 = params.C1
    if greedy_table.boundary is not table.boundary:
        bad = np.tri(c1, dtype=bool) & _differs(table.boundary, greedy_table.boundary)
        if bad.any():
            n, k = _first(bad)
            return f"greedy value differs at {(0, k, n - k)}"
    bad = _differs(table.levels[:i_max + 1], greedy_table.levels)
    if not bad.any():
        return None
    i, k = _first(bad)
    return f"greedy value differs at {(i, k, c1 - k)}"


def check_threshold_structure(params: SystemParams, dt: DiffTable):
    """Threshold-level structural guarantees.

    Exactness and increment assertions are scoped to non-degenerate points:
    where a surrogate root sits exactly on an integer, or a neighbouring
    index sits exactly on the blocked-cost equality, the published
    guarantees are boundary-tight and the collaborative-side tie rule can
    shift one side by one.
    """
    spec = threshold_spec(params)
    heur = heuristic_profile(params)
    try:
        act = actual_profile(params, dt)
    except (CapExceeded, NaNInDiff) as exc:
        return str(exc)
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
        clean_k = not snaps_to_integer(cst.r2[k])
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
            if prev_holds and neighbour_strict and not snaps_to_integer(cst.r2[k - 1]):
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
    """The POINT_CHECKS at one point up to queue i_max: two solves, then checks that read tables.

    The optimal table goes as deep as ``required_depth`` asks.  One pass of the level kernel to
    i_max, over policy rows alone, evaluates the point's policy family and the greedy rule read
    off that table.  The arrays the checks share are derived once, by ``_point_arrays``.
    """
    if i_max < 0:
        raise ValueError("i_max must be non-negative")
    table = solve_optimal(params, max(i_max, required_depth(params)))
    dt = diff(table)
    arrays = _point_arrays(params, dt, i_max)
    policies = [policy_by_id(params, p) for p in policy_family(cost_regime_label(params))]
    *family_tables, greedy_table = _solve(params, i_max, (*policies, optimal_greedy(table)), False)
    outcomes = {
        "value_monotone_in_queue": check_value_monotone(params, table, i_max),
        "diff_diagonal_monotone": check_diagonal_monotone(params, arrays),
        "single_sign_change": check_single_sign_change(params, arrays),
        "positive_without_blocking": check_positive_no_blocking(params, arrays),
        "nonpositive_when_blocked": check_nonpositive_blocked(params, arrays),
        "diff_monotone_in_queue": check_monotone_in_queue(params, arrays),
        "affine_bounds": check_affine_bounds(params, arrays),
        "recursion_residual": check_recursion_residual(params, dt),
        "boundary_formula": check_boundary_formula(params, arrays),
        "policy_dominance": check_policy_dominance(params, table, family_tables, i_max),
        "greedy_reproduces_optimal": check_greedy_reproduces_optimal(
            params, table, greedy_table, i_max),
        "threshold_structure": check_threshold_structure(params, dt),
    }
    return [
        CheckResult(name, params, passed=(detail is None), detail=detail or "")
        for name, detail in outcomes.items()
    ]


def verify(
    params_list: Sequence[SystemParams], i_max: int, jobs: int | None = None
) -> VerificationReport:
    """Run the full invariant suite over the points, on at most ``jobs`` processes (one per point)."""
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if i_max < 0:  # before any worker starts
        raise ValueError("i_max must be non-negative")
    workers = min(jobs or 1, len(params_list))
    i_maxes = [i_max] * len(params_list)
    if workers <= 1:
        per_point = map(verify_point, params_list, i_maxes)
    else:
        from concurrent.futures import ProcessPoolExecutor  # so serial runs never load multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_point = list(pool.map(verify_point, params_list, i_maxes, chunksize=4))
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
        if not 0 <= l < params.C1:
            raise ValueError(f"l must be in 0..{params.C1 - 1}, got {l}")
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
