import math

import numpy as np
import pytest

from clearq.experiments import EXAMPLE_PARAMS
from clearq.model import SystemParams
from clearq.policies import (
    STATION1,
    STATION2,
    DepthExceeded,
    benchmark,
    optimal_greedy,
    pi_prime,
    policy_by_id,
)
from clearq.solver import diff, solve_optimal, solve_under_policy
from clearq.thresholds import compute_actual_profile, heuristic_profile


def decide(policy, q, k_busy, l_busy, station):
    """The policy's action at one decision: 0 independent, 1 collaborative."""
    return int(bool(policy(q, k_busy, l_busy, station)))


def contexts(params, q):
    """(q, k_busy, l_busy, station) of every decision at queue q."""
    for kb in range(0, params.C1):
        for station in (STATION1, STATION2):
            yield q, kb, params.C1 - 1 - kb, station


class TestOptimalGreedy:
    def test_matches_actual_threshold_away_from_ties(self):
        params = EXAMPLE_PARAMS["ex1"]
        table = solve_optimal(params, 15)
        greedy = optimal_greedy(table)
        act = compute_actual_profile(params)
        dt = diff(table)
        for q in range(1, 15):
            for ctx in contexts(params, q):
                _, kb, lb, _ = ctx
                k = kb + 1
                d_val = dt.d(q - 1, k, lb)
                if abs(d_val) <= 1e-9 * (1 + abs(d_val)):
                    continue  # tie: either action is optimal
                assert decide(greedy, *ctx) == (1 if q <= act[k] else 0)

    def test_example5_threshold_behaviour(self):
        params = EXAMPLE_PARAMS["ex5"]
        greedy = optimal_greedy(solve_optimal(params, 16))
        assert decide(greedy, 12, 1, 2, STATION1) == 1  # level 11: clearly positive
        assert decide(greedy, 14, 1, 2, STATION1) == 0  # level 13: clearly negative

    def test_exact_tie_goes_independent(self):
        # D(0, 1, 1) = 0 exactly here, so the greedy rule picks Station 1.
        params = SystemParams(2, 1, 10.0, 4.0, 0.5, 1.0, 0.2)
        greedy = optimal_greedy(solve_optimal(params, 5))
        assert decide(greedy, 1, 0, 1, STATION1) == 0

    def test_depth_exceeded(self):
        params = EXAMPLE_PARAMS["ex1"]
        greedy = optimal_greedy(solve_optimal(params, 5))
        with pytest.raises(DepthExceeded):
            decide(greedy, 7, 2, 1, STATION1)

    def test_queue_below_one_rejected(self):
        # With q = 0 there is no job to assign; the level index would wrap
        # around to the deepest level.
        greedy = optimal_greedy(solve_optimal(EXAMPLE_PARAMS["ex1"], 5))
        with pytest.raises(ValueError, match="< 1"):
            greedy.rule(0, 0, 1, 1)
        with pytest.raises(ValueError, match="< 1"):
            greedy.rule(np.array([1, 0]), np.array([0, 0]), np.array([3, 3]), STATION2)

    def test_diagonal_consistency(self):
        # Collaborating at (q, kb, lb) implies collaborating at (q, kb+1, lb-1).
        params = EXAMPLE_PARAMS["ex3"]
        greedy = optimal_greedy(solve_optimal(params, 12))
        for q in range(1, 12):
            for kb in range(0, params.C1 - 1):
                lb = params.C1 - 1 - kb
                if decide(greedy, q, kb, lb, STATION1):
                    assert decide(greedy, q, kb + 1, lb - 1, STATION1)

    def test_vectorized_matches_scalar(self):
        params = EXAMPLE_PARAMS["ex1"]
        greedy = optimal_greedy(solve_optimal(params, 12))
        q = np.array([3, 8, 11, 12])
        kb = np.array([2, 2, 2, 2])
        lb = np.array([1, 1, 1, 1])
        st = np.array([1, 1, 2, 2])
        vec = np.asarray(greedy(q, kb, lb, st), dtype=int)
        scalar = [decide(greedy, *args) for args in zip(q, kb, lb, st)]
        assert vec.tolist() == scalar


class TestPiPrime:
    def test_ex1_station1_thresholds(self):
        policy = pi_prime(EXAMPLE_PARAMS["ex1"])
        for q in range(1, 11):
            assert decide(policy, q, 2, 1, STATION1) == 1
        for q in range(11, 20):
            assert decide(policy, q, 2, 1, STATION1) == 0

    def test_highcost_slow_collaboration_always_independent(self):
        params = SystemParams(2, 1, 10.0, 4.0, 0.1, 1.0, 2.0)
        policy = pi_prime(params)
        for q in range(1, 30):
            for ctx in contexts(params, q):
                assert decide(policy, *ctx) == 0

    def test_lowcost_fast_free_collaboration_always_collaborates(self):
        params = SystemParams(2, 2, 10.0, 12.0, 0.1, 1.0, 0.1)
        policy = pi_prime(params)
        for q in range(1, 30):
            for ctx in contexts(params, q):
                assert decide(policy, *ctx) == 1

    def test_highcost_threshold_form(self):
        # a = 1 exactly when q - 1 reaches the per-l threshold
        params = EXAMPLE_PARAMS["ex8"]
        policy = pi_prime(params)
        th = heuristic_profile(params)
        for q in range(1, 25):
            got = decide(policy, q, params.C1 - 1, 0, STATION1)
            assert got == (1 if q - 1 >= th[0] else 0)

    def test_agrees_with_greedy_in_value_when_thresholds_exact(self):
        params = EXAMPLE_PARAMS["ex3b"]  # exactness condition holds
        v_opt = solve_optimal(params, 20)
        v_pp = solve_under_policy(params, pi_prime(params), 20)
        want = v_opt.columns()[3].tolist()
        assert v_pp.columns()[3].tolist() == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_single_flexible_server_is_optimal(self):
        params = SystemParams(1, 2, 3.0, 1.5, 0.5, 1.0, 0.3)
        v_opt = solve_optimal(params, 15)
        v_pp = solve_under_policy(params, pi_prime(params), 15)
        want = v_opt.columns()[3].tolist()
        assert v_pp.columns()[3].tolist() == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestBenchmarks:
    @pytest.mark.parametrize("which", ["pi1", "tpi1"])
    def test_always_station1(self, which):
        params = EXAMPLE_PARAMS["ex1"]
        policy = benchmark(params, which)
        assert all(decide(policy, *ctx) == 0 for ctx in contexts(params, 5))

    @pytest.mark.parametrize("which", ["pi3", "tpi3"])
    def test_always_station2(self, which):
        params = EXAMPLE_PARAMS["ex1"]
        policy = benchmark(params, which)
        assert all(decide(policy, *ctx) == 1 for ctx in contexts(params, 5))

    def test_fixed_ten_threshold(self):
        params = EXAMPLE_PARAMS["ex1"]
        pi2 = benchmark(params, "pi2")
        tpi2 = benchmark(params, "tpi2")
        ctx10 = (10, 1, 2, STATION1)
        ctx11 = (11, 1, 2, STATION1)
        assert decide(pi2, *ctx10) == 1 and decide(pi2, *ctx11) == 0
        assert decide(tpi2, *ctx10) == 0 and decide(tpi2, *ctx11) == 1

    def test_no_wait_rule_both_completion_types(self):
        params = EXAMPLE_PARAMS["ex1"]  # C2 = 2
        pi4 = benchmark(params, "pi4")
        for station in (STATION1, STATION2):
            assert decide(pi4, 7, 2, 1, station) == 1  # l_busy < C2
            assert decide(pi4, 7, 1, 2, station) == 0  # l_busy >= C2

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            benchmark(EXAMPLE_PARAMS["ex1"], "pi9")


class TestPolicyById:
    def test_ids(self):
        params = EXAMPLE_PARAMS["ex1"]
        assert policy_by_id(params, "heuristic").id == "heuristic"
        assert policy_by_id(params, "pi4").id == "pi4"
        table = solve_optimal(params, 3)
        assert policy_by_id(params, "optimal", value_table=table).id == "optimal"

    def test_optimal_requires_table(self):
        with pytest.raises(ValueError):
            policy_by_id(EXAMPLE_PARAMS["ex1"], "optimal")
