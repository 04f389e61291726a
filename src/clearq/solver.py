"""Exact expected clearing costs by level recursion.

The value of a state is the expected total holding cost to empty the system.
With no external arrivals the queue length can only fall, so values at queue
level i depend only on level i-1 and the i = 0 boundary layer, which in turn
recurses on the total number of jobs in service.  One sweep is exact; there
is no iteration or truncation error beyond float arithmetic.

Tables are two float64 arrays.  ``boundary[n, k]`` holds the entry at
(0, k, n - k) for the partial rows n = 0..C1-1 of the i = 0 triangle, by total
jobs in service n.  ``levels[i, k]`` holds the entry at (i, k, C1 - k) for the
fully-busy levels i = 0..i_max, so the full row n = C1 of the triangle is
``levels[0]`` and is held nowhere else.  Cells outside a table's index set
are NaN.  The value tables of the parameter sets that differ only in h0
share one read-only partial triangle, built once row by row, each row from
the one before; the full row seeds each solve.

A solve advances the rows of one parameter set together: an optional
optimal row, then one row per policy.  Row r's ``levels`` is ``block[:, r]``
of one float64 array, allocated at its final size and filled a chunk of
CHUNK levels at a time: the chunk's floats are packed into the block with
one struct.pack_into call.  The levels come from a kernel generated once per
C1, number of policy rows and whether an optimal row leads, and unrolled
over k and the rows.  It keeps the previous rows in local variables, resumes
from given rows, and returns its last rows to seed the next chunk.
"""
from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (
    GRID_CACHE_SIZE,
    WITHOUT_H0_CACHE_SIZE,
    State,
    SystemParams,
    WithoutH0,
    allocate,
    check_index,
    read_only,
)

@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def _column_index(c1: int, depth: int, k_min: int) -> tuple[np.ndarray, ...]:
    """Read-only (i, k, l) of the states with k >= k_min to queue depth, and (n, k) of n < C1."""
    n, tri_k = np.tril_indices(c1)
    keep = tri_k >= k_min
    n, tri_k = n[keep], tri_k[keep]
    ks = np.arange(k_min, c1 + 1)
    i = np.concatenate([np.zeros_like(n), np.repeat(np.arange(depth + 1), len(ks))])
    k = np.concatenate([tri_k, np.tile(ks, depth + 1)])
    l = np.concatenate([n, np.full((depth + 1) * len(ks), c1)]) - k
    return read_only(i, k, l, n, tri_k)


@dataclass(frozen=True, eq=False)
class _Table:
    params: SystemParams
    i_max: int
    boundary: np.ndarray
    levels: np.ndarray

    K_MIN = 0  # smallest Station 1 count with an entry
    COLUMN = "value"  # the entry's CSV header

    def _get(self, i: int, k: int, l: int) -> float:
        c1 = self.params.C1
        if k >= self.K_MIN and l >= 0:
            if i == 0 and k + l < c1:
                return float(self.boundary[k + l, k])
            if 0 <= i <= self.i_max and k + l == c1:
                return float(self.levels[i, k])
        raise KeyError(State(i, k, l))

    def columns(self, i_max: int | None = None):
        """Arrays (i, k, l, entry) over the states up to queue i_max; i, k, l are read-only.

        Order: the i = 0 states by total jobs in service, then k; then the levels by i, then k.
        """
        depth = self.i_max if i_max is None else min(i_max, self.i_max)
        i, k, l, n, tri_k = _column_index(self.params.C1, depth, self.K_MIN)
        entry = np.concatenate(
            [self.boundary[n, tri_k], self.levels[:depth + 1, self.K_MIN:].ravel()]
        )
        return i, k, l, entry

    def to_csv(self, path) -> None:
        i, k, l, entry = self.columns()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"i,k,l,{self.COLUMN}\n")
            fh.writelines(
                f"{a},{b},{c},{x!r}\n"
                for a, b, c, x in zip(i.tolist(), k.tolist(), l.tolist(), entry.tolist())
            )


@dataclass(frozen=True, eq=False)
class ValueTable(_Table):
    kind: str

    def value(self, i: int, k: int, l: int) -> float:
        return self._get(i, k, l)


@dataclass(frozen=True, eq=False)
class DiffTable(_Table):
    """D(i, k, l) = v(i, k, l) - v(i, k-1, l+1) on all admissible indices."""

    K_MIN = 1
    COLUMN = "D"

    def d(self, i: int, k: int, l: int) -> float:
        return self._get(i, k, l)


@functools.lru_cache(maxsize=WITHOUT_H0_CACHE_SIZE)
def _fixed_parts(params: WithoutH0) -> tuple[np.ndarray, tuple, tuple]:
    """The read-only partial triangle, the full row C1, and the level coefficients.

    None reads h0, so they are built once per ``params.without_h0``.  Row n
    of the triangle holds the i = 0 values with n jobs in service, by k, each
    from row n - 1; the array keeps rows n < C1, the tuple row C1.  Terms
    with a zero rate coefficient are skipped, so successor states outside the
    state space are never read.
    """
    c1, c2 = params.C1, params.C2
    h1, h2, mu1, mu2 = params.h1, params.h2, params.mu1, params.mu2
    rows = [(0.0,)]
    for total in range(1, c1 + 1):
        prev = rows[-1]
        row = []
        for k in range(0, total + 1):
            l = total - k
            acc = k * h1 + l * h2
            if k > 0:
                acc += k * mu1 * prev[k - 1]
            served = l if l < c2 else c2  # min(l, C2), without a call per entry
            if served > 0:
                acc += served * mu2 * prev[k]
            row.append(acc / (k * mu1 + served * mu2))  # model.service_rate, inlined
        rows.append(tuple(row))
    # Rows n < C1, padded with NaN above the diagonal, as one array.
    (boundary,) = read_only(np.array([row + (np.nan,) * (c1 - len(row)) for row in rows[:c1]]))
    # Per-k coefficients: each is the same float product the scalar recursion
    # forms, and the kernels keep its order of sums, so values match it bit for bit.
    coefficients = []
    for k in range(c1 + 1):
        up, down = k * mu1, min(c1 - k, c2) * mu2
        coefficients.append((k * h1, (c1 - k) * h2, up, down, up + down))
    return boundary, rows[c1], tuple(coefficients)


# The level loop over levels start..stop-1, unrolled over k = 0..C1 and over
# the rows.  Python sums left to right, so entry k of a row is
# ((((i*h0 + hold1) + hold2) + up*pick1) + down*pick2) / rate, the order of
# the scalar recursion; k = 0 has no up term and k = C1 no down term.  With
# more than one row, the head (i*h0 + hold1) + hold2 of entry k is formed once
# per level as e{k} and read by every row.  An entry depends only on i and
# the previous row, so a solve resumed from the rows before ``start`` gives
# the same bits as one run from level 1.  Row r's previous entries live in
# locals p{r}_0..p{r}_C1; each level's new rows are added in row order to the
# caller's list ``flat``, and the last rows are returned to seed the next
# chunk.
_KERNEL_TEMPLATE = """\
def kernel(flat, rows, coefficients, h0, start, stop, *decisions):
    {prev}, = rows
    {coefficients} = coefficients
    for {loop}:
        q = i * h0
{body}    return {last},
"""


def _entry(head: str, k: int, c1: int, r: int) -> str:
    up = f" + u{k} * m{r}_{k}" if k > 0 else ""
    down = f" + d{k} * m{r}_{k + 1}" if k < c1 else ""
    return f"({head}{up}{down}) / r{k}"


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def _kernel(c1: int, n_policies: int, optimal: bool) -> Callable:
    """The level kernel for C1 = c1 and its rows, built once per row set.

    The up pick of entry k and the down pick of entry k - 1 choose between the
    same stay = p{r}_{k} and move = p{r}_{k-1}, so one pick m{r}_{k} serves
    both.  The optimal row, row 0 when ``optimal`` leads, moves iff move is
    cheaper, so a tie stays.  Each policy row takes an iterable of its
    decision grid's rows from level start on as one more argument, in row
    order, and moves iff it collaborates at k_busy = k - 1; the loop zips the
    levels first, so it takes stop - start rows of each.  The generated source
    interpolates nothing but the column and row numbers.
    """
    ks = range(c1 + 1)
    rows = range(optimal + n_policies)
    prevs = [", ".join(f"p{r}_{k}" for k in ks) for r in rows]
    heads = [f"(q + a{k}) + b{k}" for k in ks]
    body = ""
    if len(rows) > 1:
        body += "".join(f"        e{k} = {head}\n" for k, head in zip(ks, heads))
        heads = [f"e{k}" for k in ks]
    go = ""
    for r in rows:
        if optimal and r == 0:
            moves = [f"p0_{k - 1} < p0_{k}" for k in ks[1:]]
        else:
            moves = [f"c{r}_{k - 1}" for k in ks[1:]]
            go += f", ({', '.join(f'c{r}_{k}' for k in ks[:-1])},)"
        body += "".join(f"        m{r}_{k} = p{r}_{k - 1} if {move} else p{r}_{k}\n"
                        for k, move in zip(ks[1:], moves))
        body += (f"        row{r} = ({', '.join(_entry(heads[k], k, c1, r) for k in ks)})\n"
                 f"        flat += row{r}\n"
                 f"        {prevs[r]} = row{r}\n")
    source = _KERNEL_TEMPLATE.format(
        prev=", ".join(f"({prev})" for prev in prevs),
        coefficients=", ".join(f"(a{k}, b{k}, u{k}, d{k}, r{k})" for k in ks),
        loop=f"i{go} in zip(range(start, stop), *decisions)" if go else "i in range(start, stop)",
        body=body,
        last=", ".join(f"row{r}" for r in rows),
    )
    namespace: dict = {}
    name = f"<clearq level kernel C1={c1} policies={n_policies} optimal={optimal}>"
    exec(compile(source, name, "exec"), namespace)
    return namespace["kernel"]


# Levels per kernel call: the floats of one chunk are held as Python objects
# until they are packed into the table block with one struct.pack_into call.
CHUNK = 512


def _solve(
    params: SystemParams, i_max: int, policies: tuple, optimal: bool
) -> list[ValueTable]:
    check_index("i_max", i_max)
    c1 = params.C1
    boundary, full_row, coefficients = _fixed_parts(params.without_h0)
    kinds = ["optimal"] * optimal + [f"policy:{p.id}" for p in policies]
    # block[i, r] is level i of row r, the order in which the kernel makes them.
    block = allocate(np.empty, f"a table of queue depth {i_max}", (i_max + 1, len(kinds), c1 + 1))
    block[0] = full_row
    if i_max:
        kernel = _kernel(c1, len(policies), optimal)
        # Decision row i - 1 belongs to level i.  The kernel zips its levels, first, with
        # these iterators, so each chunk takes the next stop - start rows of each.
        decisions = [iter(p.decision_rows(c1, i_max)) for p in policies]
        rows, width = (full_row,) * len(kinds), len(kinds) * (c1 + 1)
        for start in range(1, i_max + 1, CHUNK):
            stop = min(start + CHUNK, i_max + 1)
            chunk = []
            rows = kernel(chunk, rows, coefficients, params.h0, start, stop, *decisions)
            # Native doubles, copied bit for bit to the chunk's byte offset in the block.
            struct.pack_into(f"{len(chunk)}d", block, 8 * start * width, *chunk)
    return [ValueTable(params, i_max, boundary, block[:, r], kind) for r, kind in enumerate(kinds)]


def solve_optimal(params: SystemParams, i_max: int) -> ValueTable:
    """Optimal expected clearing costs up to queue depth i_max."""
    return _solve(params, i_max, (), True)[0]


def solve_under_policy(params: SystemParams, policy, i_max: int) -> ValueTable:
    """Expected clearing costs when every decision follows the given ``policies.Policy``.

    Its rule is called as rule(q, k_busy, l_busy), once with integer arrays
    over every decision of the table, so it must be elementwise and total for
    q up to i_max.  The Policy keeps those decisions per (C1, depth) in its
    ``rows`` and reuses them, so its rule must be a pure function of its arguments.
    """
    return _solve(params, i_max, (policy,), False)[0]


def solve_family(params: SystemParams, policies, i_max: int) -> list[ValueTable]:
    """The optimal table, then one table per policy in order, from one pass over the levels.

    Each table holds the same values as ``solve_optimal`` or
    ``solve_under_policy`` gives alone; the policies are Policy objects, as there.
    """
    return _solve(params, i_max, tuple(policies), True)


def _k_differences(a: np.ndarray) -> np.ndarray:
    out = np.full_like(a, np.nan)
    np.subtract(a[:, 1:], a[:, :-1], out=out[:, 1:])
    return out


def _require_optimal(table: ValueTable) -> ValueTable:
    """The value table, if it is an optimal solve, the only one D is taken of; else ValueError."""
    if table.kind != "optimal":
        raise ValueError(f"diff requires an optimal table, got kind={table.kind!r}")
    return table


def diff(table: ValueTable) -> DiffTable:
    """Difference table of an optimal solve."""
    _require_optimal(table)
    return DiffTable(
        table.params, table.i_max, _k_differences(table.boundary), _k_differences(table.levels)
    )
