"""Exact expected clearing costs by level recursion.

The value of a state is the expected total holding cost to empty the system.
With no external arrivals the queue length can only fall, so values at queue
level i depend only on level i-1 and the i = 0 boundary layer, which in turn
recurses on the total number of jobs in service.  One sweep is exact; there
is no iteration or truncation error beyond float arithmetic.

Tables are two float64 arrays.  ``boundary[n, k]`` holds the entry at
(0, k, n - k), the i = 0 triangle by total jobs in service n.  ``levels[i, k]``
holds the entry at (i, k, C1 - k) for the fully-busy levels i = 0..i_max, so
row 0 is the full boundary row ``boundary[C1]``.  Cells outside a table's
index set are NaN.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import State, SystemParams, band_signs, enumerate_states, service_rate
from .policies import decision_grid
from .thresholds import affine_pieces, probs

class IndexOutOfSpace(KeyError):
    """Difference requested at an index outside the admissible set."""


@dataclass(frozen=True, eq=False)
class _Table:
    params: SystemParams
    i_max: int
    boundary: np.ndarray
    levels: np.ndarray

    K_MIN = 0  # smallest Station 1 count with an entry

    def _get(self, i: int, k: int, l: int) -> float:
        c1 = self.params.C1
        if k >= self.K_MIN and l >= 0:
            if i == 0 and k + l <= c1:
                return float(self.boundary[k + l, k])
            if 0 < i <= self.i_max and k + l == c1:
                return float(self.levels[i, k])
        raise KeyError(State(i, k, l))

    def states(self) -> list[State]:
        return [s for s in enumerate_states(self.params, self.i_max) if s.k >= self.K_MIN]

    def columns(self, i_max: int | None = None):
        """Arrays (i, k, l, entry) over the states up to queue i_max, in states() order."""
        depth = self.i_max if i_max is None else min(i_max, self.i_max)
        c1 = self.params.C1
        n, tri_k = np.tril_indices(c1 + 1)
        keep = tri_k >= self.K_MIN
        n, tri_k = n[keep], tri_k[keep]
        ks = np.arange(self.K_MIN, c1 + 1)
        i = np.concatenate([np.zeros_like(n), np.repeat(np.arange(1, depth + 1), len(ks))])
        k = np.concatenate([tri_k, np.tile(ks, depth)])
        total = np.concatenate([n, np.full(depth * len(ks), c1)])
        entry = np.concatenate(
            [self.boundary[n, tri_k], self.levels[1:depth + 1, self.K_MIN:].ravel()]
        )
        return i, k, total - k, entry

    def _write_csv(self, path, column: str) -> None:
        i, k, l, entry = self.columns()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"i,k,l,{column}\n")
            fh.writelines(
                f"{a},{b},{c},{x!r}\n"
                for a, b, c, x in zip(i.tolist(), k.tolist(), l.tolist(), entry.tolist())
            )


@dataclass(frozen=True, eq=False)
class ValueTable(_Table):
    kind: str

    def value(self, i: int, k: int, l: int) -> float:
        return self._get(i, k, l)

    def __getitem__(self, state) -> float:
        return self._get(*state)

    def to_csv(self, path) -> None:
        self._write_csv(path, "value")


@dataclass(frozen=True, eq=False)
class DiffTable(_Table):
    """D(i, k, l) = v(i, k, l) - v(i, k-1, l+1) on all admissible indices."""

    K_MIN = 1

    def d(self, i: int, k: int, l: int) -> float:
        if k < 1:
            raise IndexOutOfSpace(f"difference undefined for k = {k} < 1")
        try:
            return self._get(i, k, l)
        except KeyError:
            raise IndexOutOfSpace(f"no difference entry at {(i, k, l)}") from None

    def to_csv(self, path) -> None:
        self._write_csv(path, "D")


def solve_boundary(params: SystemParams) -> dict[State, float]:
    """Values of the no-decision layer i = 0, by total jobs in service.

    Terms with a zero rate coefficient are skipped, so successor states
    outside the state space are never touched.
    """
    v: dict[State, float] = {State(0, 0, 0): 0.0}
    for total in range(1, params.C1 + 1):
        for k in range(0, total + 1):
            l = total - k
            d = service_rate(params, k, l)
            acc = k * params.h1 + l * params.h2
            if k > 0:
                acc += k * params.mu1 * v[State(0, k - 1, l)]
            served = min(l, params.C2)
            if served > 0:
                acc += served * params.mu2 * v[State(0, k, l - 1)]
            v[State(0, k, l)] = acc / d
    return v


def boundary_diff_formula(params: SystemParams, k: int, l: int) -> float:
    """Closed form for D(0, k, l): h1/mu1 - max(l+1, C2)/C2 * h2/mu2."""
    return params.h1 / params.mu1 - (max(l + 1, params.C2) / params.C2) * (
        params.h2 / params.mu2
    )


def _solve(params: SystemParams, i_max: int, rule: Callable | None, kind: str) -> ValueTable:
    if i_max < 0:
        raise ValueError("i_max must be non-negative")
    c1, c2 = params.C1, params.C2
    boundary = np.full((c1 + 1, c1 + 1), np.nan)
    for (_, k, l), value in solve_boundary(params).items():
        boundary[k + l, k] = value
    # Per-k coefficients: each is the same float product the scalar recursion
    # forms, and the sums below keep its order, so values match it bit for bit.
    coefficients = [
        (k, k * params.h1, (c1 - k) * params.h2, k * params.mu1,
         min(c1 - k, c2) * params.mu2, service_rate(params, k, c1 - k))
        for k in range(c1 + 1)
    ]
    choices = None
    if rule is not None and i_max:
        after1, after2 = decision_grid(rule, c1, i_max)
        choices = list(zip(after1.tolist(), after2.tolist()))
    prev = boundary[c1].tolist()
    rows = [prev]
    for i in range(1, i_max + 1):
        queue_cost = i * params.h0
        go1, go2 = choices[i - 1] if choices else (None, None)
        row = []
        # "move if move < stay else stay" is min(stay, move) without the call.
        for k, hold1, hold2, up, down, rate in coefficients:
            acc = queue_cost + hold1 + hold2
            if k > 0:
                stay, move = prev[k], prev[k - 1]
                if go1 is None:
                    acc += up * (move if move < stay else stay)
                else:
                    acc += up * (move if go1[k] else stay)
            if k < c1:
                stay, move = prev[k + 1], prev[k]
                if go2 is None:
                    acc += down * (move if move < stay else stay)
                else:
                    acc += down * (move if go2[k] else stay)
            row.append(acc / rate)
        rows.append(row)
        prev = row
    return ValueTable(params, i_max, boundary, np.array(rows), kind)


def solve_optimal(params: SystemParams, i_max: int) -> ValueTable:
    """Optimal expected clearing costs up to queue depth i_max."""
    return _solve(params, i_max, None, "optimal")


def solve_under_policy(params: SystemParams, policy, i_max: int) -> ValueTable:
    """Expected clearing costs when every decision follows the given policy.

    The policy is called as policy(q, k_busy, l_busy, station), once per
    station with integer arrays over every decision of the table, so it must
    be elementwise and total for q up to i_max.
    """
    policy_id = getattr(policy, "id", getattr(policy, "__name__", "anonymous"))
    return _solve(params, i_max, policy, f"policy:{policy_id}")


def _k_differences(a: np.ndarray) -> np.ndarray:
    out = np.full_like(a, np.nan)
    np.subtract(a[:, 1:], a[:, :-1], out=out[:, 1:])
    return out


def diff(table: ValueTable) -> DiffTable:
    """Difference table of an optimal solve."""
    if table.kind != "optimal":
        raise ValueError(f"diff requires an optimal table, got kind={table.kind!r}")
    return DiffTable(
        table.params, table.i_max, _k_differences(table.boundary), _k_differences(table.levels)
    )


@dataclass(frozen=True)
class RecursionReport:
    max_scaled_residual: float
    worst_state: State | None
    checked: int


def recursion_check(
    params: SystemParams, table: ValueTable, diff_table: DiffTable
) -> RecursionReport:
    """Residuals of the one-step difference recursions.

    At each fully-busy state the difference satisfies an exact three-term
    recursion whose form depends on the sign of the difference one level
    down; both forms apply at a zero.  Residuals are scaled by 1/(1 + |D|).
    """
    c1 = params.C1
    d = diff_table.levels
    i = np.arange(1, diff_table.i_max + 1)
    # scaled[i-1, k-1, form]: form 0 holds where D one level down is >= 0,
    # form 1 where it is <= 0; zero where the form does not apply.
    scaled = np.zeros((len(i), c1, 2))
    checked = 0
    for k in range(1, c1 + 1):
        l = c1 - k
        here, prev = d[1:, k], d[:-1, k]
        p, q, r = probs(params, k)
        c_k, b_k = affine_pieces(params, k)
        base = p * (i * c_k + b_k)
        sign_prev = band_signs(prev)
        pos = base + r * prev
        if k >= 2:
            pos += q * np.maximum(0.0, d[:-1, k - 1])
        neg = base + q * prev
        if l >= 1:
            neg += r * np.minimum(d[:-1, k + 1], 0.0)
        for form, (pred, applies) in enumerate(((pos, sign_prev >= 0), (neg, sign_prev <= 0))):
            scaled[:, k - 1, form] = np.where(
                applies, np.abs(here - pred) / (1.0 + np.abs(here)), 0.0
            )
            checked += int(np.count_nonzero(applies))
    scaled[np.isnan(scaled)] = np.inf  # a NaN difference fails, it is never skipped
    worst, worst_state = 0.0, None
    if scaled.size:
        # The first maximum in (i, k, form) order, as a scan would report it.
        at = int(np.argmax(scaled))
        if scaled.flat[at] > 0.0:
            worst = float(scaled.flat[at])
            level, k_index, _ = np.unravel_index(at, scaled.shape)
            worst_state = State(int(level) + 1, int(k_index) + 1, c1 - int(k_index) - 1)
    return RecursionReport(worst, worst_state, checked)
