import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clearq.experiments import EXAMPLE_PARAMS
from clearq.model import State, SystemParams
from clearq.policies import (
    POLICY_IDS,
    DepthExceeded,
    benchmark,
    optimal_greedy,
    pi_prime,
    policy_by_id,
)
from clearq.simulate import BATCH_SIZE, SimConfig, SimEstimate, estimate
from clearq.solver import solve_optimal, solve_under_policy


def reference_batch_costs(params, policy, initial_state, n, rng):
    """The lockstep simulator as first written: every replication carries its
    whole state, and the policy is called on each event's busy replications.
    The oracle for the table-driven simulator."""
    i0, k0, l0 = initial_state
    events = i0 + k0 + l0
    queue = np.full(n, i0, dtype=np.int64)
    at1 = np.full(n, k0, dtype=np.int64)
    at2 = np.full(n, l0, dtype=np.int64)
    cost = np.zeros(n)
    for _ in range(events):
        rate1 = at1 * params.mu1
        rate2 = np.minimum(at2, params.C2) * params.mu2
        total = rate1 + rate2
        assert not np.any(total <= 0.0)
        u_time = rng.random(n)
        u_event = rng.random(n)
        cost += (queue * params.h0 + at1 * params.h1 + at2 * params.h2) * (
            -np.log(u_time) / total
        )
        station1 = u_event * total < rate1
        busy = queue >= 1
        collab = np.zeros(n, dtype=bool)
        if np.any(busy):
            q = queue[busy]
            kb = np.where(station1[busy], at1[busy] - 1, at1[busy])
            lb = np.where(station1[busy], at2[busy], at2[busy] - 1)
            station = np.where(station1[busy], 1, 2)
            collab[busy] = np.asarray(policy(q, kb, lb, station), dtype=bool)
        at1 += -station1.astype(np.int64) + (busy & ~collab)
        at2 += -(~station1).astype(np.int64) + (busy & collab)
        queue -= busy.astype(np.int64)
    return cost


def reference_estimate(params, policy, config):
    """estimate's batching and statistics over reference_batch_costs."""
    n = config.replications
    sizes = [BATCH_SIZE] * (n // BATCH_SIZE)
    if n % BATCH_SIZE:
        sizes.append(n % BATCH_SIZE)
    seeds = np.random.SeedSequence(config.seed).spawn(len(sizes))
    costs = np.concatenate([
        reference_batch_costs(params, policy, config.initial_state, size,
                              np.random.default_rng(seed))
        for size, seed in zip(sizes, seeds)
    ])
    mean = float(np.mean(costs))
    if n == 1:
        return SimEstimate(mean, 0.0, 1, degenerate=True)
    return SimEstimate(mean, float(np.std(costs, ddof=1) / np.sqrt(n)), n)


rate = st.floats(0.05, 30.0, allow_nan=False, allow_infinity=False)
cost = st.floats(0.001, 10.0, allow_nan=False, allow_infinity=False)
param_strategy = st.builds(
    SystemParams, C1=st.integers(1, 4), C2=st.integers(1, 4),
    mu1=rate, mu2=rate, h0=cost, h1=cost, h2=cost,
)


@st.composite
def initial_states(draw, c1):
    """Fully busy states with a queue, and i0 = 0 states with idle servers."""
    i0 = draw(st.integers(0, 8))
    if i0 == 0:
        in_service = draw(st.integers(0, c1))
        k = draw(st.integers(0, in_service))
        return State(0, k, in_service - k)
    k = draw(st.integers(0, c1))
    return State(i0, k, c1 - k)


def make_policy(params, policy_id, i0):
    table = solve_optimal(params, i0) if policy_id == "optimal" else None
    return policy_by_id(params, policy_id, value_table=table)


def run_episode(params, policy, initial_state, seed):
    """Total holding cost of one simulated clearing episode: a one-replication estimate."""
    return estimate(params, policy, SimConfig(seed, 1, initial_state)).mean


class TestRunEpisode:
    def test_empty_system_costs_nothing(self):
        params = EXAMPLE_PARAMS["ex1"]
        assert run_episode(params, pi_prime(params), State(0, 0, 0), 0) == 0.0

    def test_costs_positive_and_finite(self):
        params = EXAMPLE_PARAMS["ex1"]
        for seed in range(50):
            cost = run_episode(params, pi_prime(params), State(5, 2, 2), seed)
            assert 0 < cost < 1e6

    def test_invalid_initial_state(self):
        params = EXAMPLE_PARAMS["ex1"]  # C1 = 4
        with pytest.raises(ValueError):
            run_episode(params, pi_prime(params), State(3, 1, 1), 0)


class TestEstimate:
    def test_single_job_expectation(self):
        params = SystemParams(1, 1, 10.0, 4.0, 0.01, 1.0, 0.1)
        est = estimate(
            params, pi_prime(params),
            SimConfig(seed=42, replications=100000, initial_state=State(0, 1, 0)),
        )
        assert abs(est.mean - params.h1 / params.mu1) < 3 * est.std_error

    def test_matches_dp_under_policy(self):
        params = SystemParams(2, 1, 10.0, 4.0, 0.01, 1.0, 0.1)
        policy = pi_prime(params)
        dp = solve_under_policy(params, policy, 20).value(20, 1, 1)
        est = estimate(
            params, policy, SimConfig(seed=7, replications=100000, initial_state=State(20, 1, 1))
        )
        assert abs(est.mean - dp) < 3.5 * est.std_error

    def test_seed_determinism(self):
        params = EXAMPLE_PARAMS["ex1"]
        config = SimConfig(seed=5, replications=4000, initial_state=State(10, 4, 0))
        first = estimate(params, pi_prime(params), config)
        second = estimate(params, pi_prime(params), config)
        assert first == second

    def test_different_seeds_differ(self):
        params = EXAMPLE_PARAMS["ex1"]
        base = SimConfig(seed=5, replications=1000, initial_state=State(10, 4, 0))
        other = SimConfig(seed=6, replications=1000, initial_state=State(10, 4, 0))
        assert estimate(params, pi_prime(params), base) != estimate(params, pi_prime(params), other)

    def test_single_replication_degenerate(self):
        params = EXAMPLE_PARAMS["ex1"]
        est = estimate(
            params, pi_prime(params), SimConfig(seed=1, replications=1, initial_state=State(5, 4, 0))
        )
        assert est.degenerate and est.std_error == 0.0 and est.replications == 1

    def test_replications_validated(self):
        with pytest.raises(ValueError):
            SimConfig(seed=1, replications=0, initial_state=State(5, 4, 0))

    def test_optimal_beats_always_collaborate(self):
        params = SystemParams(2, 1, 10.0, 4.0, 0.1, 1.0, 0.1)
        table = solve_optimal(params, 20)
        state = State(20, 1, 1)
        opt = estimate(params, optimal_greedy(table), SimConfig(3, 20000, state))
        pi3 = estimate(params, benchmark(params, "pi3"), SimConfig(4, 20000, state))
        assert pi3.mean >= opt.mean - 3 * (opt.std_error + pi3.std_error)

    def test_json_payload(self):
        params = EXAMPLE_PARAMS["ex1"]
        est = estimate(
            params, pi_prime(params), SimConfig(seed=1, replications=100, initial_state=State(5, 4, 0))
        )
        payload = est.to_json_dict(seed=1)
        assert set(payload) == {"mean", "std_error", "replications", "seed"}


class TestAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        params=param_strategy,
        policy_id=st.sampled_from(POLICY_IDS),
        replications=st.sampled_from([1, 7, BATCH_SIZE, BATCH_SIZE + 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_estimate_equals_reference(self, data, params, policy_id, replications, seed):
        state = data.draw(initial_states(params.C1))
        policy = make_policy(params, policy_id, state.i)
        config = SimConfig(seed=seed, replications=replications, initial_state=state)
        assert estimate(params, policy, config) == reference_estimate(params, policy, config)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        params=param_strategy,
        policy_id=st.sampled_from(POLICY_IDS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_run_episode_equals_reference(self, data, params, policy_id, seed):
        state = data.draw(initial_states(params.C1))
        policy = make_policy(params, policy_id, state.i)
        got = run_episode(params, policy, state, seed)
        stream = np.random.SeedSequence(seed).spawn(1)[0]  # estimate's stream of its one batch
        want = reference_batch_costs(params, policy, state, 1, np.random.default_rng(stream))
        assert got == float(want[0])

    @pytest.mark.parametrize("policy_id", POLICY_IDS)
    def test_criterion_4_draw_equals_reference(self, policy_id):
        params = EXAMPLE_PARAMS["ex1"]
        state = State(20, 1, params.C1 - 1)
        policy = make_policy(params, policy_id, state.i)
        config = SimConfig(seed=11, replications=2 * BATCH_SIZE + 5, initial_state=state)
        assert estimate(params, policy, config) == reference_estimate(params, policy, config)

    def test_policy_consulted_once_per_station(self):
        params = EXAMPLE_PARAMS["ex1"]
        calls = []

        def rule(q, kb, lb, station):
            calls.append(station)
            return np.asarray(q) <= 5

        estimate(params, rule, SimConfig(seed=1, replications=BATCH_SIZE + 1,
                                         initial_state=State(12, 2, params.C1 - 2)))
        assert sorted(calls) == [1, 2]

    def test_greedy_table_shallower_than_queue_raises(self):
        params = EXAMPLE_PARAMS["ex1"]
        policy = optimal_greedy(solve_optimal(params, 3))
        config = SimConfig(seed=1, replications=10, initial_state=State(10, 2, params.C1 - 2))
        with pytest.raises(DepthExceeded):
            estimate(params, policy, config)
        with pytest.raises(DepthExceeded):
            run_episode(params, policy, State(10, 2, params.C1 - 2), 0)
