"""Decision rules.

Every decision happens when a flexible server frees up with jobs still in
queue.  A rule is called as rule(q, k_busy, l_busy, station): queue length
including the job being engaged, busy counts excluding the freed server, and
which station completed.  Action a = 0 starts independent service, a = 1
collaborative.  Whether the completion was at Station 1 or 2, the optimal
comparison is the same difference D(q-1, k_busy+1, l_busy), so one rule
covers both completion types.

Rules accept scalars or numpy arrays and must act elementwise: the solver and
the simulator both evaluate them once per completing station, on the whole
(queue, k_busy) grid (``decision_grid``), whose shared index arrays are
read-only.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import GRID_CACHE_SIZE, SystemParams, ZERO_BAND, read_only
from .thresholds import heuristic_profile, threshold_spec

STATION1 = 1
STATION2 = 2

BENCHMARK_IDS = ("pi1", "pi2", "pi3", "pi4", "tpi1", "tpi2", "tpi3", "tpi4")
POLICY_IDS = ("optimal", "heuristic") + BENCHMARK_IDS


class DepthExceeded(LookupError):
    """Greedy policy consulted beyond the depth of its value table."""


@dataclass(frozen=True)
class Policy:
    """Deterministic decision rule with a stable identifier."""

    id: str
    rule: Callable = field(repr=False)

    def __call__(self, q, k_busy, l_busy, station):
        return self.rule(q, k_busy, l_busy, station)


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def _decision_contexts(c1: int, q_max: int) -> tuple[np.ndarray, ...]:
    """Read-only (q, k_busy, l_busy) over queue 1..q_max and k_busy 0..C1-1."""
    q, k_busy = np.meshgrid(np.arange(1, q_max + 1), np.arange(c1), indexing="ij")
    return read_only(q, k_busy, c1 - 1 - k_busy)


def decision_grid(rule, c1: int, q_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The rule's action at every decision with queue 1..q_max, one call per station.

    A decision with jobs in queue always finds all C1 flexible servers busy,
    so the contexts form a (q, k_busy) grid with l_busy = C1 - 1 - k_busy.
    The rule gets them as shared read-only arrays and must not write into them.
    Returns boolean arrays ``after1[q - 1, k]`` and ``after2[q - 1, k]``: the
    action after a Station 1 and after a Station 2 completion leaves state
    (q, k, C1 - k).  Cells with no such completion, k = 0 for Station 1 and
    k = C1 for Station 2, are False.
    """
    q, k_busy, l_busy = _decision_contexts(c1, q_max)
    after1 = np.zeros((q_max, c1 + 1), dtype=bool)
    after2 = np.zeros((q_max, c1 + 1), dtype=bool)
    after1[:, 1:] = np.asarray(rule(q, k_busy, l_busy, STATION1), dtype=bool)
    after2[:, :-1] = np.asarray(rule(q, k_busy, l_busy, STATION2), dtype=bool)
    return after1, after2


def optimal_greedy(value_table) -> Policy:
    """Extract the greedy rule from an optimal value table.

    Collaborative service is chosen iff it is strictly cheaper beyond the
    zero band; exact ties go independent.
    """
    i_max = value_table.i_max
    # d_arr[i, k_busy] = D(i, k_busy + 1, C1 - k_busy - 1)
    d_arr = np.diff(value_table.levels, axis=1)

    def rule(q, k_busy, l_busy, station):
        level = np.asarray(q) - 1
        if np.any(level > i_max):
            raise DepthExceeded(f"queue {np.max(np.asarray(q))} exceeds table depth {i_max}")
        if np.any(level < 0):
            raise ValueError(f"queue {np.min(np.asarray(q))} < 1: no job is waiting to assign")
        d = d_arr[level, np.asarray(k_busy)]
        return d > ZERO_BAND * (1.0 + np.abs(d))

    return Policy("optimal", rule)


def pi_prime(params: SystemParams) -> Policy:
    """Threshold policy built on the closed-form surrogate thresholds.

    A decision reads the threshold th of the index whose D column is
    k_busy + 1 (so l_busy = C1 - 1 - k_busy), an infinite threshold meaning
    always.  Collaborative orientation: collaborate iff q <= th.  Independent
    orientation: serve independently iff q <= th, that is q - 1 < th.
    """
    spec = threshold_spec(params)
    profile = heuristic_profile(params)
    th = np.full(params.C1 + 1, math.inf)  # by D column k; column 0 is never read
    for s in spec:
        th[s.k] = profile[s.index]
    independent = spec.independent

    def rule(q, k_busy, l_busy, station):
        return (np.asarray(q) <= th[np.asarray(k_busy) + 1]) != independent

    return Policy("heuristic", rule)


def benchmark(params: SystemParams, which: str) -> Policy:
    """Fixed benchmark rules from the numerical study.

    pi1/tpi1 always independent; pi3/tpi3 always collaborative; pi2
    collaborates iff q <= 10 and tpi2 iff q > 10 (the constant 10 is part of
    the benchmark definition); pi4/tpi4 collaborate iff no Station 2 wait,
    which reads l_busy < C2 for either completion type.
    """
    c2 = params.C2
    rules = {
        "pi1": lambda q, kb, lb, n: np.zeros_like(np.asarray(q), dtype=bool),
        "pi2": lambda q, kb, lb, n: np.asarray(q) <= 10,
        "pi3": lambda q, kb, lb, n: np.ones_like(np.asarray(q), dtype=bool),
        "pi4": lambda q, kb, lb, n: np.asarray(lb) < c2,
        "tpi2": lambda q, kb, lb, n: np.asarray(q) > 10,
    }
    rules.update(tpi1=rules["pi1"], tpi3=rules["pi3"], tpi4=rules["pi4"])
    if which not in rules:
        raise ValueError(f"unknown benchmark {which!r}; expected one of {BENCHMARK_IDS}")
    return Policy(which, rules[which])


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
