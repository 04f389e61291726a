import math

import numpy as np
import pytest

from clearq.experiments import EXAMPLE_PARAMS, table4_params
from clearq.model import SystemParams
from clearq.policies import (
    DepthExceeded,
    benchmark,
    decision_grid,
    optimal_greedy,
    pi_prime,
    policy_by_id,
)
from clearq.solver import diff, solve_optimal, solve_under_policy
from clearq.thresholds import compute_actual_profile, heuristic_profile, threshold_spec
from test_solver import band_signs


def decide(policy, q, k_busy, l_busy):
    """The policy's action at one decision: 0 independent, 1 collaborative."""
    return int(bool(policy(q, k_busy, l_busy)))


def contexts(params, q):
    """(q, k_busy, l_busy) of every decision at queue q."""
    for kb in range(0, params.C1):
        yield q, kb, params.C1 - 1 - kb


class TestOptimalGreedy:
    def test_matches_actual_threshold_away_from_ties(self):
        params = EXAMPLE_PARAMS["ex1"]
        table = solve_optimal(params, 15)
        greedy = optimal_greedy(table)
        act = compute_actual_profile(params)
        dt = diff(table)
        for q in range(1, 15):
            for ctx in contexts(params, q):
                _, kb, lb = ctx
                k = kb + 1
                d_val = dt.levels[q - 1, k]
                if abs(d_val) <= 1e-9 * (1 + abs(d_val)):
                    continue  # tie: either action is optimal
                assert decide(greedy, *ctx) == (1 if q <= act[k] else 0)

    def test_example5_threshold_behaviour(self):
        params = EXAMPLE_PARAMS["ex5"]
        greedy = optimal_greedy(solve_optimal(params, 16))
        assert decide(greedy, 12, 1, 2) == 1  # level 11: clearly positive
        assert decide(greedy, 14, 1, 2) == 0  # level 13: clearly negative

    def test_exact_tie_goes_independent(self):
        # D(0, 1, 1) = 0 exactly here, so the greedy rule picks Station 1.
        params = SystemParams(2, 1, 10.0, 4.0, 0.5, 1.0, 0.2)
        greedy = optimal_greedy(solve_optimal(params, 5))
        assert decide(greedy, 1, 0, 1) == 0

    def test_depth_exceeded(self):
        params = EXAMPLE_PARAMS["ex1"]
        greedy = optimal_greedy(solve_optimal(params, 5))
        with pytest.raises(DepthExceeded):
            decide(greedy, 7, 2, 1)

    def test_queue_below_one_rejected(self):
        # With q = 0 there is no job to assign; the level index would wrap
        # around to the deepest level.
        greedy = optimal_greedy(solve_optimal(EXAMPLE_PARAMS["ex1"], 5))
        with pytest.raises(ValueError, match="< 1"):
            greedy.rule(0, 0, 1)
        with pytest.raises(ValueError, match="< 1"):
            greedy.rule(np.array([1, 0]), np.array([0, 0]), np.array([3, 3]))

    def test_diagonal_consistency(self):
        # Collaborating at (q, kb, lb) implies collaborating at (q, kb+1, lb-1).
        params = EXAMPLE_PARAMS["ex3"]
        greedy = optimal_greedy(solve_optimal(params, 12))
        for q in range(1, 12):
            for kb in range(0, params.C1 - 1):
                lb = params.C1 - 1 - kb
                if decide(greedy, q, kb, lb):
                    assert decide(greedy, q, kb + 1, lb - 1)

    def test_vectorized_matches_scalar(self):
        params = EXAMPLE_PARAMS["ex1"]
        greedy = optimal_greedy(solve_optimal(params, 12))
        q = np.array([3, 8, 11, 12])
        kb = np.array([2, 2, 2, 2])
        lb = np.array([1, 1, 1, 1])
        vec = np.asarray(greedy(q, kb, lb), dtype=int)
        scalar = [decide(greedy, *args) for args in zip(q, kb, lb)]
        assert vec.tolist() == scalar


class TestPiPrime:
    def test_ex1_station1_thresholds(self):
        policy = pi_prime(EXAMPLE_PARAMS["ex1"])
        for q in range(1, 11):
            assert decide(policy, q, 2, 1) == 1
        for q in range(11, 20):
            assert decide(policy, q, 2, 1) == 0

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
            got = decide(policy, q, params.C1 - 1, 0)
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


@pytest.mark.parametrize("make", [lambda p: optimal_greedy(solve_optimal(p, 5)), pi_prime],
                         ids=["greedy", "pi_prime"])
@pytest.mark.parametrize("k_busy", [-1, 4, np.array([0, -1]), np.array([3, 4])])
def test_k_busy_outside_the_flexible_servers_rejected(make, k_busy):
    # ex1 has C1 = 4, so k_busy runs 0..3; -1 would wrap around to the last column.
    params = EXAMPLE_PARAMS["ex1"]
    policy = make(params)
    with pytest.raises(ValueError, match="k_busy"):
        policy(3, k_busy, params.C1 - 1 - k_busy)


def greedy_grid_reference(table, q_max):
    """The greedy rule's decision grid as first written: band_signs of D, positive."""
    level, k_busy = np.meshgrid(np.arange(q_max), np.arange(table.params.C1), indexing="ij")
    return band_signs(table.levels[level, k_busy + 1] - table.levels[level, k_busy]) > 0


def heuristic_grid_reference(params, q_max):
    """The heuristic rule's decision grid as first written, from the profile by D column."""
    spec, profile = threshold_spec(params), heuristic_profile(params)
    th = np.full(params.C1 + 1, math.inf)
    for s in spec:
        th[s.k] = profile[s.index]
    q, k_busy = np.meshgrid(np.arange(1, q_max + 1), np.arange(params.C1), indexing="ij")
    return (q <= th[k_busy + 1]) != spec.independent


class TestDecisionGrids:
    """The greedy and heuristic grids equal their first form, at every study point and preset."""

    def test_grids_equal_the_reference_expressions(self):
        for params in table4_params() + list(EXAMPLE_PARAMS.values()):
            table = solve_optimal(params, 40)
            greedy = decision_grid(optimal_greedy(table), params.C1, 40)
            assert (greedy == greedy_grid_reference(table, 40)).all(), params
            heuristic = decision_grid(pi_prime(params), params.C1, 40)
            assert (heuristic == heuristic_grid_reference(params, 40)).all(), params
            for policy in (optimal_greedy(table), pi_prime(params)):
                assert decision_grid(policy, params.C1, 0).shape == (0, params.C1)

    def test_policy_grids_equal_their_rules(self):
        # decision_grid forms a greedy or heuristic Policy's grid without its rule; the
        # rule gives the same array.  Past the table's depth, or at another C1, the rule
        # answers, with its own error.
        for params in table4_params() + list(EXAMPLE_PARAMS.values()):
            table = solve_optimal(params, 40)
            for policy in (optimal_greedy(table), pi_prime(params)):
                for depth in (0, 1, 40, 41):
                    grid = policy.grid(params.C1, depth)
                    assert grid.dtype == bool and grid.shape == (depth, params.C1)
                    assert (grid == decision_grid(policy.rule, params.C1, depth)).all(), params
                    assert decision_grid(policy, params.C1, depth) is not None
        greedy = optimal_greedy(table)
        assert greedy.grid(params.C1, 42) is None and greedy.grid(params.C1 + 1, 5) is None
        with pytest.raises(DepthExceeded, match="^queue 42 exceeds table depth 40$"):
            decision_grid(greedy, params.C1, 42)
        with pytest.raises(ValueError, match=f"^k_busy 0..{params.C1} outside "):
            decision_grid(greedy, params.C1 + 1, 5)
        heuristic = pi_prime(params)
        assert heuristic.grid(params.C1 + 1, 5) is None
        with pytest.raises(ValueError, match=f"^k_busy 0..{params.C1} outside "):
            decision_grid(heuristic, params.C1 + 1, 5)

    def test_nan_in_the_table_reads_independent(self):
        params = EXAMPLE_PARAMS["ex1"]
        table = solve_optimal(params, 12)
        levels = table.levels.copy()
        levels[3, 2] = np.nan  # D(3, 2, .) and D(3, 3, .) are NaN
        broken = type(table)(params, 12, table.boundary, levels, table.kind)
        grid = decision_grid(optimal_greedy(broken), params.C1, 12)
        assert not grid[3, 1] and not grid[3, 2]
        assert (grid == greedy_grid_reference(broken, 12)).all()
        assert grid.any()

    def test_error_messages(self):
        params = EXAMPLE_PARAMS["ex1"]  # C1 = 4
        greedy = optimal_greedy(solve_optimal(params, 5))
        cases = [
            (greedy, (7, 2, 1), DepthExceeded, "queue 7 exceeds table depth 5"),
            (greedy, (np.array([1, 9, 0]), np.array([0, 1, 2]), np.array([3, 2, 1])),
             DepthExceeded, "queue 9 exceeds table depth 5"),
            (greedy, (0, 0, 3), ValueError, "queue 0 < 1: no job is waiting to assign"),
            (greedy, (np.array([3, -2]), np.array([0, 0]), np.array([3, 3])),
             ValueError, "queue -2 < 1: no job is waiting to assign"),
        ]
        for policy in (greedy, pi_prime(params)):
            cases += [
                (policy, (3, -1, 4), ValueError, "k_busy -1..-1 outside 0..3"),
                (policy, (np.array([3, 3]), np.array([0, 5]), np.array([3, -2])),
                 ValueError, "k_busy 0..5 outside 0..3"),
                (policy, (np.array([3, 3]), np.array([3, 4]), np.array([0, -1])),
                 ValueError, "k_busy 3..4 outside 0..3"),
            ]
        for policy, args, error, message in cases:
            with pytest.raises(error) as exc:
                policy(*args)
            assert str(exc.value) == message


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
        ctx10 = (10, 1, 2)
        ctx11 = (11, 1, 2)
        assert decide(pi2, *ctx10) == 1 and decide(pi2, *ctx11) == 0
        assert decide(tpi2, *ctx10) == 0 and decide(tpi2, *ctx11) == 1

    def test_no_wait_rule_both_completion_types(self):
        params = EXAMPLE_PARAMS["ex1"]  # C2 = 2
        pi4 = benchmark(params, "pi4")
        # Either completion type leaves the same decision state.
        assert decide(pi4, 7, 2, 1) == 1  # l_busy < C2
        assert decide(pi4, 7, 1, 2) == 0  # l_busy >= C2

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            benchmark(EXAMPLE_PARAMS["ex1"], "pi9")

    def test_one_shared_policy_per_id_and_c2(self):
        # ex1 and ex2 differ in rates and costs only; ex6 has C2 = 3.
        ex1, ex2, ex6 = (EXAMPLE_PARAMS[name] for name in ("ex1", "ex2", "ex6"))
        for which in ("pi4", "tpi4", "pi1"):
            assert benchmark(ex1, which) is benchmark(ex2, which)
            assert benchmark(ex1, which) is not benchmark(ex6, which)
        assert benchmark(ex1, "pi4") is not benchmark(ex1, "tpi4")
        assert decide(benchmark(ex6, "pi4"), 7, 1, 2) == 1  # l_busy < C2 = 3


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
