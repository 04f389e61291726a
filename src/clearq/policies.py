"""Decision rules.

Every decision happens when a flexible server frees up with jobs still in
queue.  A rule is called as rule(q, k_busy, l_busy): queue length including
the job being engaged, and busy counts excluding the freed server.  Action
a = 0 starts independent service, a = 1 collaborative.  Whether the
completion was at Station 1 or 2, the optimal comparison is the same
difference D(q-1, k_busy+1, l_busy), so a decision depends on the state
alone.

Rules accept scalars or numpy arrays and must act elementwise: the solver
evaluates them once per (C1, depth) and the simulator once per estimate, on
the whole (queue, k_busy) grid (``decision_grid``), whose shared index arrays
are read-only.  The solvers take Policy objects, and each Policy keeps its
decisions per (C1, depth) in its ``rows`` (``Policy.decision_rows``), so a
rule must be a pure function of its arguments.  A Policy may also carry
``grid``, which forms the rule's whole grid at once, with the same bits;
``decision_grid`` then asks it instead of the rule.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import GRID_CACHE_SIZE, ZERO_BAND, SystemParams, read_only
from .thresholds import heuristic_profile, threshold_spec

BENCHMARK_IDS = ("pi1", "pi2", "pi3", "pi4", "tpi1", "tpi2", "tpi3", "tpi4")
POLICY_IDS = ("optimal", "heuristic") + BENCHMARK_IDS


class DepthExceeded(LookupError):
    """Greedy policy consulted beyond the depth of its value table."""


@dataclass(frozen=True)
class Policy:
    """Deterministic decision rule with a stable identifier.

    ``rows`` keeps its decision rows by (C1, depth), at most GRID_CACHE_SIZE.
    ``grid(c1, depth)``, if given, returns ``decision_grid(rule, c1, depth)``
    without asking the rule, or None where only the rule can answer.
    """

    id: str
    rule: Callable = field(repr=False)
    grid: Callable | None = field(default=None, compare=False, repr=False)
    rows: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __call__(self, q, k_busy, l_busy):
        return self.rule(q, k_busy, l_busy)

    def decision_rows(self, c1: int, depth: int) -> list:
        """``decision_grid``'s rows as lists, evaluated once per (C1, depth); oldest out first."""
        rows = self.rows.get((c1, depth))
        if rows is None:
            if len(self.rows) >= GRID_CACHE_SIZE:
                del self.rows[next(iter(self.rows))]
            rows = self.rows[c1, depth] = decision_grid(self, c1, depth).tolist()
        return rows


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def _decision_contexts(c1: int, q_max: int) -> tuple[np.ndarray, ...]:
    """Read-only (q, k_busy, l_busy) over queue 1..q_max and k_busy 0..C1-1."""
    q, k_busy = np.meshgrid(np.arange(1, q_max + 1), np.arange(c1), indexing="ij")
    return read_only(q, k_busy, c1 - 1 - k_busy)


def decision_grid(rule, c1: int, q_max: int) -> np.ndarray:
    """The rule's action at every decision with queue 1..q_max, from one call.

    A decision with jobs in queue always finds all C1 flexible servers busy,
    so the contexts form a (q, k_busy) grid with l_busy = C1 - 1 - k_busy.
    The rule gets them as shared read-only arrays and must not write into them.
    Returns the boolean array ``collab[q - 1, k_busy]`` of shape (q_max, C1).
    A Station 1 completion from (q, k, C1 - k) decides at k_busy = k - 1, a
    Station 2 completion at k_busy = k.  A Policy whose ``grid`` answers forms
    the array itself, without calling the rule.
    """
    if isinstance(rule, Policy) and rule.grid is not None:
        collab = rule.grid(c1, q_max)
        if collab is not None:
            return collab
    q, k_busy, l_busy = _decision_contexts(c1, q_max)
    collab = np.empty((q_max, c1), dtype=bool)
    collab[:] = np.asarray(rule(q, k_busy, l_busy), dtype=bool)
    return collab


def _k_busy(k_busy, c1: int) -> np.ndarray:
    """k_busy as an array; ValueError outside 0..C1-1, where an index would wrap or overflow."""
    k = np.asarray(k_busy)
    lo, hi = (k.min(), k.max()) if k.size else (0, 0)
    if lo < 0 or hi >= c1:
        raise ValueError(f"k_busy {lo}..{hi} outside 0..{c1 - 1}")
    return k


def optimal_greedy(value_table) -> Policy:
    """Extract the greedy rule from an optimal value table.

    Collaborative service is chosen iff it is strictly cheaper beyond the
    zero band; exact ties go independent.
    """
    i_max, levels, c1 = value_table.i_max, value_table.levels, value_table.params.C1

    def rule(q, k_busy, l_busy):
        q = np.asarray(q)
        lo, hi = (q.min(), q.max()) if q.size else (1, 1)
        if hi > i_max + 1:
            raise DepthExceeded(f"queue {hi} exceeds table depth {i_max}")
        if lo < 1:
            raise ValueError(f"queue {lo} < 1: no job is waiting to assign")
        k = _k_busy(k_busy, c1)
        # D(q - 1, k_busy + 1, C1 - k_busy - 1), read only where the rule is asked;
        # positive beyond the zero band, so a NaN reads False.
        level = q - 1
        d = levels[level, k + 1] - levels[level, k]
        return d > ZERO_BAND * (1.0 + np.abs(d))

    def grid(c1_asked, depth):
        # Queue q reads level q - 1, so the grid is the first depth levels; past them
        # the rule raises.
        if c1_asked != c1 or depth > i_max + 1:
            return None
        d = levels[:depth, 1:] - levels[:depth, :-1]
        return d > ZERO_BAND * (1.0 + np.abs(d))

    return Policy("optimal", rule, grid)


def pi_prime(params: SystemParams) -> Policy:
    """Threshold policy built on the closed-form surrogate thresholds.

    A decision reads the threshold th of the index whose D column is
    k_busy + 1 (so l_busy = C1 - 1 - k_busy), an infinite threshold meaning
    always.  Collaborative orientation: collaborate iff q <= th.  Independent
    orientation: serve independently iff q <= th, that is q - 1 < th.
    """
    spec = threshold_spec(params)
    entries = heuristic_profile(params).entries
    c1, independent = params.C1, spec.independent
    th = [math.inf] * (c1 + 1)  # by D column k; column 0 is never read
    for s in spec:
        th[s.k] = entries[s.index]
    th = np.array(th, dtype=float)

    def rule(q, k_busy, l_busy):
        return (np.asarray(q) <= th[_k_busy(k_busy, c1) + 1]) != independent

    def grid(c1_asked, depth):
        if c1_asked != c1:
            return None
        return (_decision_contexts(c1, depth)[0] <= th[1:]) != independent

    return Policy("heuristic", rule, grid)


# The benchmark rules that read no parameter; pi4 and tpi4 read C2.
_FIXED_RULES = {
    "pi1": lambda q, kb, lb: np.zeros_like(np.asarray(q), dtype=bool),
    "pi2": lambda q, kb, lb: np.asarray(q) <= 10,
    "pi3": lambda q, kb, lb: np.ones_like(np.asarray(q), dtype=bool),
    "tpi2": lambda q, kb, lb: np.asarray(q) > 10,
}
_FIXED_RULES.update(tpi1=_FIXED_RULES["pi1"], tpi3=_FIXED_RULES["pi3"])


def benchmark(params: SystemParams, which: str) -> Policy:
    """Fixed benchmark rules from the numerical study.

    pi1/tpi1 always independent; pi3/tpi3 always collaborative; pi2
    collaborates iff q <= 10 and tpi2 iff q > 10 (the constant 10 is part of
    the benchmark definition); pi4/tpi4 collaborate iff no Station 2 wait,
    l_busy < C2.  The rules read nothing but C2, so the policy is one shared
    object per (which, C2), whose rows hold its decisions at each depth.
    """
    return _benchmark(which, params.C2)


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def _benchmark(which: str, c2: int) -> Policy:
    if which in ("pi4", "tpi4"):
        return Policy(which, lambda q, kb, lb: np.asarray(lb) < c2)
    if which not in _FIXED_RULES:
        raise ValueError(f"unknown benchmark {which!r}; expected one of {BENCHMARK_IDS}")
    return Policy(which, _FIXED_RULES[which])


def policy_by_id(
    params: SystemParams,
    policy_id: str,
    *,
    value_table=None,
) -> Policy:
    """Look up a policy by its CLI identifier."""
    if policy_id == "heuristic":
        return pi_prime(params)
    if policy_id == "optimal":
        if value_table is None:
            raise ValueError("policy 'optimal' needs a solved value table")
        return optimal_greedy(value_table)
    return benchmark(params, policy_id)
