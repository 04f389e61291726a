"""Monte-Carlo oracle for the clearing chain.

Simulates the continuous-time chain under any policy and estimates the
expected total holding cost, independently of the dynamic program.  Every
completion removes exactly one job, so an episode from (i, k, l) has exactly
i + k + l events; whole replication batches therefore run in lockstep with
two uniform draws per event, which keeps streams reproducible and cheap.

In lockstep the queue and the number of jobs in service are the same in
every replication, so a replication's state is its Station 1 count alone.
Once per estimate, the policy is evaluated once on the (q, k_busy) grid,
and every event gets small lookup tables indexed by that count; each event
step is then array arithmetic and table lookups.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import State, SystemParams, _is_integer, in_state_space
from .policies import decision_grid

BATCH_SIZE = 16384


class StuckState(RuntimeError):
    """Total service rate hit zero with jobs still present (bug trap)."""


@dataclass(frozen=True)
class SimConfig:
    seed: int
    replications: int
    initial_state: State

    def __post_init__(self):
        for name in ("seed", "replications"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    std_error: float
    replications: int
    degenerate: bool = False  # single replication: no spread estimate

    def to_json_dict(self, seed: int) -> dict:
        data = {
            "mean": self.mean,
            "std_error": self.std_error,
            "replications": self.replications,
        }
        if self.degenerate:
            data["degenerate"] = True
        data["seed"] = seed
        return data


def _event_tables(params: SystemParams, policy, initial_state: State):
    """Lookup tables for every event of an episode, indexed by the Station 1 count.

    Every replication starts at (i0, k0, l0) and every event removes one job,
    so before event t the queue and the number of jobs in service are the
    same in all replications; only the Station 1 count at1 differs.  Row t of
    ``hold`` and ``total`` holds the holding rate and the total service rate
    at each at1 = 0..C1, formed with the simulator's float operations in its
    order.  ``rate1[at1]`` is the Station 1 rate.  ``after[t, at1]`` is the
    next at1 after a Station 2 completion, and ``after[t, C1 + 1 + at1]``
    after a Station 1 completion.  The policy is consulted once: a freed
    server decides at k_busy = at1 - 1 after a Station 1 completion and at
    k_busy = at1 after a Station 2 completion.
    """
    i0, k0, l0 = initial_state
    c1 = params.C1
    t = np.arange(i0 + k0 + l0)
    queue = np.maximum(i0 - t, 0)[:, None]
    in_service = k0 + l0 - np.maximum(t - i0, 0)[:, None]
    at1 = np.arange(c1 + 1)
    at2 = in_service - at1  # negative where at1 exceeds the jobs in service: never reached
    hold = queue * params.h0 + at1 * params.h1 + at2 * params.h2
    rate1 = at1 * params.mu1
    total = rate1 + np.minimum(at2, params.C2) * params.mu2
    if np.any(total[at2 >= 0] <= 0.0):
        raise StuckState("zero service rate before the system cleared")
    # A freed server that takes the next job independently stays at Station 1.
    indep1 = np.zeros(total.shape, dtype=np.intp)
    indep2 = np.zeros(total.shape, dtype=np.intp)
    if i0:
        collab = decision_grid(policy, c1, i0)[::-1]  # event t has queue i0 - t
        indep1[:i0, 1:] = ~collab
        indep2[:i0, :-1] = ~collab
    after = np.concatenate([at1 + indep2, at1 - 1 + indep1], axis=1)
    np.clip(after, 0, c1, out=after)  # only unreachable cells leave 0..C1
    return hold, total, rate1, after


def _batch_costs(tables, k0: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Holding costs of n replications from Station 1 count k0, one step per table row."""
    hold, total, rate1, after = tables
    width = len(rate1)
    at1 = np.full(n, k0, dtype=np.intp)
    cost = np.zeros(n)
    u_time, u_event, rate, lookup = (np.empty(n) for _ in range(4))
    station1 = np.empty(n, dtype=bool)
    index = np.empty(n, dtype=np.intp)
    for hold_t, total_t, after_t in zip(hold, total, after):
        rng.random(out=u_time)
        rng.random(out=u_event)
        total_t.take(at1, out=rate, mode="clip")
        # cost += hold * (-log(u_time) / rate), bit for bit: negating is exact.
        np.log(u_time, out=u_time)
        u_time /= rate
        u_time *= hold_t.take(at1, out=lookup, mode="clip")
        cost -= u_time
        u_event *= rate
        np.less(u_event, rate1.take(at1, out=lookup, mode="clip"), out=station1)
        np.multiply(station1, width, out=index)
        index += at1
        after_t.take(index, out=at1, mode="clip")
    return cost


def initial_state(params: SystemParams, state) -> State:
    """The state as a State; ValueError if it is outside the state space."""
    state = State(*state)
    if not in_state_space(params, state):
        raise ValueError(f"initial state {state} is outside the state space")
    return state


def estimate(params: SystemParams, policy, config: SimConfig) -> SimEstimate:
    """Mean and standard error over independent replications.

    Replications run in fixed-size batches with generator streams derived
    from the seed, so results are reproducible and batches could be farmed
    out to workers without changing the estimate.
    """
    state = initial_state(params, config.initial_state)
    n = config.replications
    sizes = [BATCH_SIZE] * (n // BATCH_SIZE)
    if n % BATCH_SIZE:
        sizes.append(n % BATCH_SIZE)
    seeds = np.random.SeedSequence(config.seed).spawn(len(sizes))
    tables = _event_tables(params, policy, state)
    costs = np.concatenate([
        _batch_costs(tables, state.k, size, np.random.default_rng(seed))
        for size, seed in zip(sizes, seeds)
    ])
    mean = float(np.mean(costs))
    if n == 1:
        return SimEstimate(mean, 0.0, 1, degenerate=True)
    std_error = float(np.std(costs, ddof=1) / np.sqrt(n))
    return SimEstimate(mean, std_error, n)
