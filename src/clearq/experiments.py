"""Numerical study drivers: parameter sweeps, invariant checks, D/H curves.

The sweep reproduces the relative-error comparison of threshold policies
against the optimal over a fixed parameter grid; the verifier runs every
structural property the solver and threshold machinery are supposed to
satisfy and reports the first counterexample per failure.
"""
from __future__ import annotations

import functools
import json
import math
import operator
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .model import (
    WITHOUT_H0_CACHE_SIZE,
    ZERO_BAND,
    SystemParams,
    WithoutH0,
    _check_rate_or_cost,
    _is_integer,
    band_sign,
    check_index,
    cost_gap_sign,
    read_only,
    snaps_to_integer,
)
from .policies import optimal_greedy, policy_by_id
from .solver import (
    DiffTable,
    ValueTable,
    _solve,
    diff,
    solve_family,
    solve_optimal,
)
from .thresholds import (
    CapExceeded,
    Classification,
    Condition1Verdict,
    NaNInDiff,
    _threshold_spec,
    actual_profile,
    boundary_diff_formula,
    condition1,
    constants,
    heuristic_profile,
    recursion_check,
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

class CheckResult(NamedTuple):
    """One check at one point: ``detail`` names the first offending state when it fails."""

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


def _ineq_tol(size_a, size_b):
    """Inequality slack between two values of magnitudes size_a and size_b; elementwise."""
    return 1e-9 * (1.0 + (size_a + size_b))


def _first_failure(holds: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first False entry of a mask, in row-major order; None if every entry holds."""
    if np.count_nonzero(holds) == holds.size:
        return None
    return tuple(int(x) for x in np.unravel_index(int(holds.argmin()), holds.shape))


class _CheckTerms(NamedTuple):
    """What the checks read of a parameter set that does not read h0; read-only.

    Rows are rows of ``_PointArrays.d``: row k - 1 is D column k, whose Station 2 count
    C1 - k falls with the row, so the rows with l >= C2 lead.
    """

    family: tuple[str, ...]  # the policy family, in policy_family order
    independent: bool  # the threshold orientation
    positive: tuple[int, bool] | None  # rows first.. (l < C2) where D > 0, strictly or weakly
    blocked: int | None  # rows ..stop-1 (l >= C2) where D <= 0
    monotone: tuple[tuple[int, int, bool], ...]  # row ranges (first, stop, non-increasing)
    upper: bool  # whether D has the affine upper bound as well as the lower one
    boundary: np.ndarray  # D(0, k, l) by the closed form, then its slack, in column order


@functools.lru_cache(maxsize=WITHOUT_H0_CACHE_SIZE)
def _check_terms(params: WithoutH0) -> _CheckTerms:
    """The checks' h0-free terms, built once per ``params.without_h0``."""
    c1, c2 = params.C1, params.C2
    gap, rate = cost_gap_sign(params), band_sign(params.mu1 - params.mu2)
    blocked = max(c1 - c2, 0)  # rows 0..blocked-1 have l >= C2
    # mu1 <= mu2 with a free dedicated server: collaborative always weakly wins;
    # strictly when h1/mu1 > h2/mu2.
    positive = (blocked, gap > 0) if rate <= 0 and gap >= 0 else None
    if rate >= 0:
        falling, rising = c1, c1  # D non-increasing in the queue at every k
    else:
        falling = blocked if gap >= 0 else 0  # rows 0..falling-1: non-increasing
        rising = blocked if gap <= 0 else c1  # rows rising..C1-1: non-decreasing
    monotone = tuple((first, stop, falls) for first, stop, falls in
                     ((0, falling, True), (rising, c1, False)) if first != stop)
    # The i = 0 states lead the columns: by total jobs in service n, then k.
    expected = [boundary_diff_formula(params, k, n - k)
                for n in range(1, c1 + 1) for k in range(1, n + 1)]
    (boundary,) = read_only(np.array([expected, [1e-12 * (1.0 + abs(x)) for x in expected]]))
    return _CheckTerms(
        policy_family(cost_regime_label(params)), _threshold_spec(params).independent,
        positive, blocked if rate <= 0 and gap <= 0 else None, monotone, rate <= 0, boundary)


class _PointArrays(NamedTuple):
    """What the checks read of a point's difference table up to i_max, derived once per point.

    ``columns`` is ``dt.columns(i_max)`` and ``size`` the magnitude of its entries.
    ``d[k - 1, i]`` is D(i, k, C1 - k) on the fully-busy levels and ``d_size`` its
    magnitude, views of the two.  ``not_neg`` and ``not_pos`` mark where its band
    sign is not negative and where not positive, a NaN in neither, so a NaN fails
    every sign check.  ``terms`` is the parameter set's ``_CheckTerms``.
    """

    columns: tuple
    size: np.ndarray
    d: np.ndarray
    d_size: np.ndarray
    not_neg: np.ndarray
    not_pos: np.ndarray
    terms: _CheckTerms


def _point_arrays(params: SystemParams, dt: DiffTable, i_max: int) -> _PointArrays:
    columns = dt.columns(i_max)
    entry, c1 = columns[3], params.C1
    size = np.abs(entry)
    # The levels follow the C1 (C1 - 1) / 2 states with fewer than C1 jobs in service.
    first = c1 * (c1 - 1) // 2
    d, d_size = entry[first:].reshape(-1, c1).T, size[first:].reshape(-1, c1).T
    tol = ZERO_BAND * (1.0 + d_size)  # model.band_sign, as two masks
    return _PointArrays(columns, size, d, d_size, d >= -tol, d <= tol,
                        _check_terms(params.without_h0))


# Each check returns None when it holds, else a detail naming its first
# offending state.  Each mask marks the states where the check holds; a
# comparison that must hold is False at a NaN, so a NaN fails.

def check_value_monotone(params: SystemParams, table: ValueTable, i_max: int):
    v = table.levels[:i_max + 1]
    size = np.abs(v)
    lo, hi = v[:-1], v[1:]
    at = _first_failure(hi >= lo - _ineq_tol(size[:-1], size[1:]))
    if at is None:
        return None
    i, k = at
    l = params.C1 - k
    return f"v({i + 1},{k},{l}) < v({i},{k},{l}): {float(hi[at])!r} < {float(lo[at])!r}"


def check_diagonal_monotone(params: SystemParams, arrays: _PointArrays):
    # In column order (by level, then total jobs in service, then k) the
    # partner (i, k+1, l-1) of a state with l >= 1 is the next state.
    i, k, l, d = arrays.columns
    size = arrays.size
    holds = d[1:] >= d[:-1] - _ineq_tol(size[:-1], size[1:])
    holds |= l[:-1] < 1
    at = _first_failure(holds)
    if at is None:
        return None
    (n,) = at
    return f"D({i[n]},{k[n] + 1},{l[n] - 1}) < D({i[n]},{k[n]},{l[n]})"


def check_single_sign_change(params: SystemParams, arrays: _PointArrays):
    # Band-zeros commit to neither side; only a strict sign reversal counts.  D holds
    # where it has not crossed yet, or where it does not cross back.
    independent = arrays.terms.independent
    before, stays = ((arrays.not_pos, arrays.not_neg) if independent
                     else (arrays.not_neg, arrays.not_pos))
    at = _first_failure(stays | np.logical_and.accumulate(before, axis=1))
    if at is None:
        return None
    k, i = at
    k += 1
    side = "negative" if independent else "positive"
    return f"D returned {side} at ({i},{k},{params.C1 - k}) after crossing"


def check_positive_no_blocking(params: SystemParams, arrays: _PointArrays):
    if arrays.terms.positive is None:
        return None
    first, strict = arrays.terms.positive
    # Strictly, D fails where it is not positive; weakly, where it is negative.
    holds = arrays.not_neg[first:]
    if strict:
        holds = holds & ~arrays.not_pos[first:]
    at = _first_failure(holds)
    if at is None:
        return None
    row, i = at
    k = first + row + 1
    return f"D({i},{k},{params.C1 - k}) not positive"


def check_nonpositive_blocked(params: SystemParams, arrays: _PointArrays):
    if arrays.terms.blocked is None:
        return None
    at = _first_failure(arrays.not_pos[:arrays.terms.blocked])
    if at is None:
        return None
    k, i = at
    k += 1
    return f"D({i},{k},{params.C1 - k}) > 0"


def check_monotone_in_queue(params: SystemParams, arrays: _PointArrays):
    d, size, c1 = arrays.d, arrays.d_size, params.C1
    for first, stop, falls in arrays.terms.monotone:
        lo, hi = d[first:stop, :-1], d[first:stop, 1:]
        tol = _ineq_tol(size[first:stop, :-1], size[first:stop, 1:])
        at = _first_failure(hi <= lo + tol if falls else hi >= lo - tol)
        if at is not None:
            row, i = at
            k = first + row + 1
            trend = "non-increasing" if falls else "non-decreasing"
            return f"D not {trend} at ({i},{k},{c1 - k})"
    return None


def check_affine_bounds(params: SystemParams, arrays: _PointArrays):
    cst = constants(params)
    i, k, l, d = arrays.columns
    size = arrays.size
    lower = i * cst.c_prime + cst.b_prime
    holds = over_lower = d >= lower - _ineq_tol(size, np.abs(lower))
    if arrays.terms.upper:
        upper = i * cst.c + cst.b
        holds = over_lower & (d <= upper + _ineq_tol(size, np.abs(upper)))
    at = _first_failure(holds)
    if at is None:
        return None
    (n,) = at
    bound = "above affine upper bound" if over_lower[n] else "below affine lower bound"
    return f"D({i[n]},{k[n]},{l[n]}) {bound}"


def check_recursion_residual(params: SystemParams, dt: DiffTable):
    report = recursion_check(params, dt)
    if report.max_scaled_residual > 1e-9:
        return f"max scaled residual {report.max_scaled_residual!r} at {report.worst_state}"
    return None


def check_boundary_formula(params: SystemParams, arrays: _PointArrays):
    # The C1 (C1 + 1) / 2 states at i = 0 lead the columns.
    expected, slack = arrays.terms.boundary
    _, k, l, d = arrays.columns
    at = _first_failure(np.abs(d[:len(expected)] - expected) <= slack)
    if at is None:
        return None
    (n,) = at
    return f"D(0,{k[n]},{l[n]}) != boundary formula"


def check_policy_dominance(
    params: SystemParams, table: ValueTable, family_tables: Sequence[ValueTable], i_max: int
):
    # family_tables: one table per policy of the point's family, in policy_family order.
    opt = table.levels[i_max]
    got = np.array([v_pi.levels[i_max] for v_pi in family_tables])
    at = _first_failure(got >= opt - _ineq_tol(np.abs(opt), np.abs(got)))
    if at is None:
        return None
    row, k = at
    policy_id = policy_family(cost_regime_label(params))[row]
    return f"v^{policy_id}({i_max},{k},{params.C1 - k}) < optimal"


def _agrees(opt: np.ndarray, got: np.ndarray) -> np.ndarray:
    return np.abs(got - opt) <= 1e-9 * (1.0 + np.abs(opt))


def check_greedy_reproduces_optimal(
    params: SystemParams, table: ValueTable, greedy_table: ValueTable, i_max: int
):
    # greedy_table: the values under the greedy rule read off ``table``.  In
    # column order the i = 0 states with fewer than C1 jobs in service, the
    # lower triangle of the boundary by (n, k), come before the levels.  Tables
    # of one parameter set share their boundary, which then needs no comparison.
    c1 = params.C1
    if greedy_table.boundary is not table.boundary:
        outside = ~np.tri(c1, dtype=bool)  # above the diagonal, NaN in both
        at = _first_failure(outside | _agrees(table.boundary, greedy_table.boundary))
        if at is not None:
            n, k = at
            return f"greedy value differs at {(0, k, n - k)}"
    at = _first_failure(_agrees(table.levels[:i_max + 1], greedy_table.levels))
    if at is None:
        return None
    i, k = at
    return f"greedy value differs at {(i, k, c1 - k)}"


def check_threshold_structure(params: SystemParams, table: ValueTable):
    """Threshold-level structural guarantees.

    Exactness and increment assertions are scoped to non-degenerate points:
    where a surrogate root sits exactly on an integer, or a neighbouring
    index sits exactly on the blocked-cost equality, the published
    guarantees are boundary-tight and the collaborative-side tie rule can
    shift one side by one.
    """
    spec = threshold_spec(params)
    heur = heuristic_profile(params).entries
    try:
        act = actual_profile(params, table).entries
    except (CapExceeded, NaNInDiff) as exc:
        return str(exc)
    cst = constants(params)
    c1, c2, independent = params.C1, params.C2, spec.independent
    # Independent-orientation thresholds carry a tilde and are indexed by l.
    d_name, h_name, ix = ("i~_D", "i~_H", "l") if independent else ("i_D", "i_H", "k")
    finite = Classification.FINITE_EXPECTED
    holding = (Condition1Verdict.HOLDS_QUEUE_SIDE, Condition1Verdict.HOLDS_COLLAB_SIDE)
    h_gap = band_sign(params.h0 - params.h2)
    issues = []
    verdicts = {}  # condition1 per index, each worked out once
    indices = sorted(act)
    for a, b in zip(indices, indices[1:]):
        if act[a] > act[b]:
            issues.append(f"{d_name}({a}) > {d_name}({b})")
    for index, k, l, classification in spec:
        i_h, i_d = heur[index], act[index]
        strict = classification is finite
        if l < c2 and strict:
            if not (i_h <= i_d <= i_h + c1 - 1):
                issues.append(f"sandwich fails at {ix}={index}: {i_h} vs {i_d}")
        if math.isinf(i_h) != math.isinf(i_d):
            issues.append(f"finiteness mismatch at {ix}={index}")
        if independent or l < c2:
            continue
        # Collaborative orientation with a Station 2 queue: index = k.
        if strict == (i_d == 0):
            issues.append(f"zero-threshold iff fails at k={k}")
        if i_d >= 1:
            if h_gap > 0 and i_h < i_d:
                issues.append(f"h0>h2 but i_H({k}) < i_D({k})")
            if h_gap < 0 and i_h > i_d:
                issues.append(f"h0<h2 but i_H({k}) > i_D({k})")
            if h_gap == 0 and i_h != i_d:
                issues.append(f"h0=h2 but i_H({k}) != i_D({k})")
        clean_k = not snaps_to_integer(cst.r2[k])
        neighbour_strict = k >= 2 and spec[k - 1].classification is finite
        verdict = verdicts[k] = condition1(params, k)
        if verdict in holding and clean_k:
            if i_h != i_d:
                issues.append(f"condition holds at k={k} but thresholds differ")
            # k - 1 has a longer Station 2 queue, so its verdict is already known.
            prev_holds = k >= 2 and verdicts[k - 1] == verdict
            if prev_holds and neighbour_strict and not snaps_to_integer(cst.r2[k - 1]):
                if i_d != act[k - 1] + 1:
                    issues.append(f"condition holds at k={k} but i_D increment != 1")
        if h_gap == 0 and neighbour_strict and strict and i_d != act[k - 1] + 1:
            issues.append(f"h0=h2 but i_D({k}) != i_D({k - 1}) + 1")
        if (
            neighbour_strict
            and strict
            and not math.isinf(i_h)
            and i_h >= 1
            and i_h != heur[k - 1] + 1
        ):
            issues.append(f"i_H({k}) != i_H({k - 1}) + 1")
    if c1 == 1:
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
    off that table.  The arrays the checks share are derived once per point, by
    ``_point_arrays``; what they read that does not depend on h0 is built once per
    ``params.without_h0``.
    """
    check_index("i_max", i_max)
    table = solve_optimal(params, max(i_max, required_depth(params)))
    dt = diff(table)
    arrays = _point_arrays(params, dt, i_max)
    policies = [policy_by_id(params, p) for p in arrays.terms.family]
    *family_tables, greedy_table = _solve(params, i_max, (*policies, optimal_greedy(table)), False)
    details = (  # in POINT_CHECKS order
        check_value_monotone(params, table, i_max),
        check_diagonal_monotone(params, arrays),
        check_single_sign_change(params, arrays),
        check_positive_no_blocking(params, arrays),
        check_nonpositive_blocked(params, arrays),
        check_monotone_in_queue(params, arrays),
        check_affine_bounds(params, arrays),
        check_recursion_residual(params, dt),
        check_boundary_formula(params, arrays),
        check_policy_dominance(params, table, family_tables, i_max),
        check_greedy_reproduces_optimal(params, table, greedy_table, i_max),
        check_threshold_structure(params, table),
    )
    return [CheckResult(name, params, detail is None, detail or "")
            for name, detail in zip(POINT_CHECKS, details)]


def verify(
    params_list: Sequence[SystemParams], i_max: int, jobs: int | None = None
) -> VerificationReport:
    """Run the full invariant suite over the points, on at most ``jobs`` processes (one per point)."""
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    check_index("i_max", i_max)  # before any worker starts
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
    name, index = ("k", k) if l is None else ("l", l)
    if not _is_integer(index):
        raise ValueError(f"{name} must be an integer, got {index!r}")
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
