import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clearq.experiments import EXAMPLE_PARAMS
from clearq.model import State, SystemParams, service_rate
from clearq.policies import POLICY_IDS, benchmark, decision_grid, optimal_greedy, policy_by_id
from clearq.solver import (
    IndexOutOfSpace,
    boundary_diff_formula,
    diff,
    recursion_check,
    solve_boundary,
    solve_optimal,
    solve_under_policy,
)
from clearq.thresholds import constants, probs

EX1 = SystemParams(4, 2, 3.0, 0.96, 0.1, 1.0, 0.16)


def enumerate_states(params, i_max):
    """The oracle of a table's state set and order, by a plain loop.

    Boundary states (i = 0) come first, ordered by total jobs in service and
    then by k; queue levels follow, ordered by i and then by k.
    """
    states = []
    for total in range(0, params.C1 + 1):
        for k in range(0, total + 1):
            states.append(State(0, k, total - k))
    for i in range(1, i_max + 1):
        for k in range(0, params.C1 + 1):
            states.append(State(i, k, params.C1 - k))
    return states


def table_states(table):
    """The states of a table's columns(), in their order."""
    i, k, l, _ = table.columns()
    return [State(*s) for s in zip(i.tolist(), k.tolist(), l.tolist())]

param_strategy = st.builds(
    SystemParams,
    C1=st.integers(1, 4),
    C2=st.integers(1, 4),
    mu1=st.sampled_from([0.5, 1.0, 3.0, 10.0]),
    mu2=st.sampled_from([0.6, 1.5, 4.0, 10.0, 25.0]),
    h0=st.sampled_from([0.01, 0.2, 1.0, 2.0]),
    h1=st.sampled_from([0.5, 1.0, 8.0]),
    h2=st.sampled_from([0.04, 0.4, 1.0, 2.0]),
)


class TestBoundary:
    def test_empty_state_is_free(self):
        v = solve_boundary(EX1)
        assert v[State(0, 0, 0)] == 0.0

    def test_single_station1_job(self):
        params = SystemParams(2, 2, 10.0, 4.0, 0.01, 1.0, 0.1)
        v = solve_boundary(params)
        assert v[State(0, 1, 0)] == pytest.approx(0.1)

    def test_single_station2_job(self):
        params = SystemParams(2, 2, 10.0, 4.0, 0.01, 1.0, 0.1)
        v = solve_boundary(params)
        assert v[State(0, 0, 1)] == pytest.approx(0.1 / 4.0)

    @given(param_strategy)
    @settings(max_examples=40, deadline=None)
    def test_boundary_difference_matches_closed_form(self, params):
        v = solve_boundary(params)
        for total in range(1, params.C1 + 1):
            for k in range(1, total + 1):
                l = total - k
                got = v[State(0, k, l)] - v[State(0, k - 1, l + 1)]
                want = boundary_diff_formula(params, k, l)
                assert got == pytest.approx(want, abs=1e-12 * (1 + abs(want)))


class TestOptimal:
    def test_forced_independent_chain_dominates(self):
        # Single flexible server kept at Station 1 clears in i+1 stages.
        params = SystemParams(1, 1, 3.0, 1.5, 0.5, 1.0, 0.3)
        always_indep = benchmark(params, "pi1")
        v_pi = solve_under_policy(params, always_indep, 8)
        v_opt = solve_optimal(params, 8)
        for i in range(0, 9):
            chain = sum(j * params.h0 + params.h1 for j in range(i + 1)) / params.mu1
            assert v_pi.value(i, 1, 0) == pytest.approx(chain, rel=1e-12)
            assert v_opt.value(i, 1, 0) <= chain + 1e-12

    def test_example1_sign_change_at_ten(self):
        dt = diff(solve_optimal(EX1, 12))
        assert dt.d(9, 3, 1) > 0
        assert dt.d(10, 3, 1) < 0

    @given(param_strategy)
    @settings(max_examples=25, deadline=None)
    def test_value_monotone_in_queue(self, params):
        table = solve_optimal(params, 10)
        for i in range(0, 10):
            for k in range(0, params.C1 + 1):
                l = params.C1 - k
                assert table.value(i + 1, k, l) >= table.value(i, k, l) - 1e-9

    def test_values_finite_nonnegative(self):
        table = solve_optimal(EX1, 20)
        values = table.columns()[3]
        assert all(math.isfinite(v) and v >= 0 for v in values.tolist())

    def test_domain_is_exactly_the_enumeration(self):
        table = solve_optimal(EX1, 7)
        domain = []
        for i in range(-1, 9):
            for k in range(-1, EX1.C1 + 2):
                for l in range(-1, EX1.C1 + 2):
                    try:
                        table.value(i, k, l)
                    except KeyError:
                        continue
                    domain.append(State(i, k, l))
        assert set(domain) == set(enumerate_states(EX1, 7))
        assert table_states(table) == enumerate_states(EX1, 7)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            solve_optimal(EX1, -1)


class TestUnderPolicy:
    def test_greedy_reproduces_optimal(self):
        table = solve_optimal(EX1, 15)
        v_g = solve_under_policy(EX1, optimal_greedy(table), 15)
        for s in table_states(table):
            assert v_g[s] == pytest.approx(table[s], rel=1e-9, abs=1e-12)

    def test_always_collaborative_can_be_terrible(self):
        # Worst observed excess of the always-collaborate rule exceeds 200%.
        worst = 0.0
        params_worst = None
        for h0 in (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0):
            for h2 in (0.1, 0.2):
                for mu2 in (4.0, 5.0):
                    params = SystemParams(2, 1, 10.0, mu2, h0, 1.0, h2)
                    v_opt = solve_optimal(params, 20)
                    v_pi3 = solve_under_policy(params, benchmark(params, "pi3"), 20)
                    for k0 in range(0, 3):
                        rel = v_pi3.value(20, k0, 2 - k0) / v_opt.value(20, k0, 2 - k0) - 1
                        if rel > worst:
                            worst, params_worst = rel, params
        assert worst > 2.0, (worst, params_worst)

    @given(param_strategy, st.sampled_from(["pi1", "pi3", "pi4", "tpi2"]))
    @settings(max_examples=25, deadline=None)
    def test_policy_value_dominates_optimal(self, params, which):
        v_opt = solve_optimal(params, 8)
        v_pi = solve_under_policy(params, benchmark(params, which), 8)
        for s in table_states(v_opt):
            opt = v_opt[s]
            assert v_pi[s] >= opt - 1e-9 * (1 + abs(opt))


class TestDiff:
    def test_rejects_policy_tables(self):
        v_pi = solve_under_policy(EX1, benchmark(EX1, "pi1"), 5)
        with pytest.raises(ValueError, match="optimal"):
            diff(v_pi)

    def test_k_zero_out_of_space(self):
        dt = diff(solve_optimal(EX1, 5))
        with pytest.raises(IndexOutOfSpace):
            dt.d(3, 0, 4)

    def test_boundary_zero_when_costs_balance(self):
        params = SystemParams(3, 2, 10.0, 5.0, 0.1, 1.0, 0.5)  # h1/mu1 = h2/mu2
        dt = diff(solve_optimal(params, 2))
        for k in (1, 2):
            l = 3 - k  # l < C2 only for k = 2
            if l < params.C2:
                assert dt.d(0, k, l) == pytest.approx(0.0, abs=1e-15)

    def test_example3_sign_pattern(self):
        params = SystemParams(4, 2, 1.0, 1.5, 2.0, 2.0, 1.0)
        dt = diff(solve_optimal(params, 6))
        assert dt.d(2, 2, 2) > 0
        assert dt.d(3, 2, 2) < 0


class TestRecursion:
    @given(param_strategy)
    @settings(max_examples=25, deadline=None)
    def test_residual_within_band(self, params):
        table = solve_optimal(params, 12)
        report = recursion_check(params, table, diff(table))
        assert report.max_scaled_residual <= 1e-9

    @given(param_strategy, st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_probabilities_sum_to_one(self, params, k):
        if k > params.C1:
            k = params.C1
        p, q, r = probs(params, k)
        assert p + q + r == pytest.approx(1.0, abs=1e-12)

    def test_k1_two_term_collapse(self):
        params = SystemParams(4, 2, 1.0, 1.5, 2.0, 2.0, 1.0)
        p, q, r = probs(params, 1)  # l = 3 >= C2
        assert q == 0.0
        assert r == pytest.approx(params.C2 * params.m / (1 + params.C2 * params.m))


class TestCsv:
    def test_value_and_diff_headers(self, tmp_path):
        table = solve_optimal(EX1, 2)
        table.to_csv(tmp_path / "v.csv")
        diff(table).to_csv(tmp_path / "d.csv")
        v_lines = (tmp_path / "v.csv").read_text().splitlines()
        d_lines = (tmp_path / "d.csv").read_text().splitlines()
        assert v_lines[0] == "i,k,l,value"
        assert d_lines[0] == "i,k,l,D"
        assert v_lines[1] == "0,0,0,0.0"
        # enumeration order: boundary layers by total jobs then k
        assert [line.split(",")[:3] for line in v_lines[1:4]] == [
            ["0", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]]


def scalar_solve(params, i_max, rule=None):
    """The scalar level recursion over dict[State, float] that preceded the array tables.

    Kept here as the oracle the array solver must equal bit for bit.
    """
    v = solve_boundary(params)
    for i in range(1, i_max + 1):
        for k in range(0, params.C1 + 1):
            l = params.C1 - k
            d = service_rate(params, k, l)
            acc = i * params.h0 + k * params.h1 + l * params.h2
            if k > 0:
                stay = v[State(i - 1, k, l)]
                move = v[State(i - 1, k - 1, l + 1)]
                if rule is None:
                    acc += k * params.mu1 * min(stay, move)
                else:
                    acc += k * params.mu1 * (move if rule(i, k - 1, l, 1) else stay)
            served = min(l, params.C2)
            if served > 0:
                stay = v[State(i - 1, k + 1, l - 1)]
                move = v[State(i - 1, k, l)]
                if rule is None:
                    acc += served * params.mu2 * min(stay, move)
                else:
                    acc += served * params.mu2 * (move if rule(i, k, l - 1, 2) else stay)
            v[State(i, k, l)] = acc / d
    return v


class TestScalarOracle:
    @given(param_strategy, st.integers(0, 30), st.sampled_from(POLICY_IDS))
    @settings(max_examples=80, deadline=None)
    def test_array_solver_equals_scalar_recursion(self, params, i_max, policy_id):
        states = enumerate_states(params, i_max)
        table = solve_optimal(params, i_max)
        want = scalar_solve(params, i_max)
        assert {s: table[s] for s in states} == want
        dt = diff(table)
        assert {s: dt.d(*s) for s in states if s.k >= 1} == {
            s: want[s] - want[State(s.i, s.k - 1, s.l + 1)] for s in states if s.k >= 1
        }
        policy = policy_by_id(params, policy_id, value_table=table)
        v_pi = solve_under_policy(params, policy, i_max)
        assert {s: v_pi[s] for s in states} == scalar_solve(params, i_max, policy.rule)

    def test_deep_solve_equals_scalar_recursion(self):
        params = SystemParams(4, 3, 10.0, 10.0, 0.01, 1.0, 0.5)
        table = solve_optimal(params, 400)
        want = scalar_solve(params, 400)
        assert {s: table[s] for s in table_states(table)} == want

    @pytest.mark.parametrize("policy_id", POLICY_IDS)
    def test_grid_decisions_match_scalar_calls(self, policy_id):
        points = [EX1, EXAMPLE_PARAMS["ex3"], EXAMPLE_PARAMS["ex8"],
                  SystemParams(3, 1, 10.0, 4.0, 0.1, 1.0, 0.1),
                  SystemParams(1, 2, 3.0, 1.5, 0.5, 1.0, 0.3)]
        for params in points:
            i_max = 25
            policy = policy_by_id(params, policy_id, value_table=solve_optimal(params, i_max))
            after1, after2 = decision_grid(policy.rule, params.C1, i_max)
            assert after1.shape == after2.shape == (i_max, params.C1 + 1)
            for i in range(1, i_max + 1):
                for k in range(0, params.C1 + 1):
                    l = params.C1 - k
                    want1 = k > 0 and bool(policy.rule(i, k - 1, l, 1))
                    want2 = k < params.C1 and bool(policy.rule(i, k, l - 1, 2))
                    assert after1[i - 1, k] == want1
                    assert after2[i - 1, k] == want2

    def test_scalar_only_rule_result_broadcasts(self):
        table = solve_under_policy(EX1, lambda q, kb, lb, n: 1, 6)
        want = scalar_solve(EX1, 6, lambda q, kb, lb, n: 1)
        assert {s: table[s] for s in table_states(table)} == want

    def test_lookups_return_python_floats(self, tmp_path):
        table = solve_optimal(EX1, 3)
        assert type(table.value(2, 1, 3)) is float
        assert type(table[(0, 1, 1)]) is float
        assert type(diff(table).d(3, 2, 2)) is float
        with pytest.raises(KeyError):
            table.value(4, 1, 3)
        with pytest.raises(KeyError):
            table.value(1, -1, 5)
        with pytest.raises(IndexOutOfSpace):
            diff(table).d(0, 3, 2)

    def test_recursion_check_flags_nan(self):
        table = solve_optimal(EX1, 6)
        dt = diff(table)
        levels = dt.levels.copy()
        levels[3, 2] = np.nan
        broken = type(dt)(EX1, 6, dt.boundary, levels)
        report = recursion_check(EX1, table, broken)
        assert report.max_scaled_residual > 1e-9


class TestSharedData:
    """Tables, rules and checks of one parameter set share read-only derived data."""

    def test_cached_arrays_are_read_only(self):
        table = solve_optimal(EX1, 6)
        with pytest.raises(ValueError, match="read-only"):
            table.boundary[1, 0] = 0.0
        for index in table.columns(4)[:3] + diff(table).columns()[:3]:
            with pytest.raises(ValueError, match="read-only"):
                index[0] = 7
        seen = []
        decision_grid(lambda q, kb, lb, n: seen.extend((q, kb, lb)) or q > 0, EX1.C1, 5)
        for grid in seen:
            with pytest.raises(ValueError, match="read-only"):
                grid[0, 0] = 7
        cst = constants(EX1)
        with pytest.raises(TypeError):
            cst.y[1] = 0.0
        with pytest.raises(TypeError):
            cst.r2[1] = 0.0

    def test_rule_writing_into_its_queue_argument_raises(self):
        def writer(q, kb, lb, n):
            q -= 1
            return q <= 3

        want = scalar_solve(EX1, 9, lambda q, kb, lb, n: q <= 3)
        with pytest.raises(ValueError, match="read-only"):
            solve_under_policy(EX1, writer, 9)
        table = solve_under_policy(EX1, lambda q, kb, lb, n: np.asarray(q) <= 3, 9)
        assert {s: table[s] for s in table_states(table)} == want

    def test_equal_params_with_int_rates_share_one_entry(self):
        ints = SystemParams(4, 2, 3, 1, 1, 2, 1)
        floats = SystemParams(4, 2, 3.0, 1.0, 1.0, 2.0, 1.0)
        assert ints == floats and hash(ints) == hash(floats)
        first, second = solve_optimal(ints, 12), solve_optimal(floats, 12)
        assert first.boundary is second.boundary
        assert constants(ints) is constants(floats)
        for params, table in ((ints, first), (floats, second)):
            assert {s: table[s] for s in table_states(table)} == scalar_solve(params, 12)
        rule = benchmark(ints, "pi4").rule
        for params in (ints, floats):
            table = solve_under_policy(params, rule, 12)
            assert {s: table[s] for s in table_states(table)} == scalar_solve(params, 12, rule)
