import dataclasses
import gc
import math
import random
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clearq.experiments import EXAMPLE_PARAMS, SweepSpec, sweep, table4_params
from clearq.model import (
    GRID_CACHE_SIZE,
    RATE_COST_FIELDS,
    WITHOUT_H0_CACHE_SIZE,
    State,
    SystemParams,
    band_signs,
    service_rate,
)
from clearq.policies import (
    POLICY_IDS,
    Policy,
    benchmark,
    decision_grid,
    optimal_greedy,
    policy_by_id,
)
import clearq.solver as solver
from clearq.solver import (
    diff,
    recursion_check,
    solve_family,
    solve_optimal,
    solve_under_policy,
)
from clearq.thresholds import (
    boundary_diff_formula,
    constants,
    heuristic_profile,
    search_caps,
    threshold_spec,
)
from test_thresholds import affine_pieces, probs

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


def dict_boundary(params):
    """The i = 0 recursion over dict[State, float] that preceded the cached triangle.

    Kept here as the oracle of every table's boundary.
    """
    v = {State(0, 0, 0): 0 * params.h1}  # 0.0, or an exact zero under exact_solve
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


def entries(table):
    """A table's entries by state, read through columns(), in its order."""
    i, k, l, entry = table.columns()
    return dict(zip(map(State, i.tolist(), k.tolist(), l.tolist()), entry.tolist()))

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
    """The i = 0 layer, read from a depth-0 optimal table."""

    def test_empty_state_is_free(self):
        v = entries(solve_optimal(EX1, 0))
        assert v[State(0, 0, 0)] == 0.0

    def test_single_station1_job(self):
        params = SystemParams(2, 2, 10.0, 4.0, 0.01, 1.0, 0.1)
        v = entries(solve_optimal(params, 0))
        assert v[State(0, 1, 0)] == pytest.approx(0.1)

    def test_single_station2_job(self):
        params = SystemParams(2, 2, 10.0, 4.0, 0.01, 1.0, 0.1)
        v = entries(solve_optimal(params, 0))
        assert v[State(0, 0, 1)] == pytest.approx(0.1 / 4.0)

    @staticmethod
    def check_cached_triangle(params):
        c1 = params.C1
        v = entries(solve_optimal(params, 0))
        assert list(v) == enumerate_states(params, 0)
        assert all(type(x) is float for x in v.values())
        assert v == dict_boundary(params)
        # The table holds rows n < C1 of the triangle; row C1 is levels[0] alone.
        table = solve_optimal(params, 3)
        assert table.boundary.shape == (c1, c1)
        triangle = {State(0, k, n - k): float(table.boundary[n, k])
                    for n in range(c1) for k in range(n + 1)}
        full_row = {State(0, k, c1 - k): x for k, x in enumerate(table.levels[0].tolist())}
        assert v == {**triangle, **full_row}
        assert np.isnan(table.boundary[np.triu_indices(c1, 1)]).all()

    @pytest.mark.parametrize("c1", range(1, 8))
    def test_dict_view_of_the_cached_triangle(self, c1):
        for c2 in (1, c1 + 1):
            self.check_cached_triangle(SystemParams(c1, c2, 3.0, 1.5 * c2, 0.2, 1.0, 0.4))

    def test_cached_triangle_on_the_study_grid_and_the_examples(self):
        for params in table4_params() + list(EXAMPLE_PARAMS.values()):
            self.check_cached_triangle(params)

    @given(param_strategy)
    @settings(max_examples=40, deadline=None)
    def test_boundary_difference_matches_closed_form(self, params):
        v = entries(solve_optimal(params, 0))
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
            assert v_pi.levels[i, 1] == pytest.approx(chain, rel=1e-12)
            assert v_opt.levels[i, 1] <= chain + 1e-12

    def test_example1_sign_change_at_ten(self):
        dt = diff(solve_optimal(EX1, 12))
        assert dt.levels[9, 3] > 0
        assert dt.levels[10, 3] < 0

    @given(param_strategy)
    @settings(max_examples=25, deadline=None)
    def test_value_monotone_in_queue(self, params):
        levels = solve_optimal(params, 10).levels
        assert (levels[1:] >= levels[:-1] - 1e-9).all()

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
        assert list(entries(table)) == enumerate_states(EX1, 7)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            solve_optimal(EX1, -1)


class TestUnderPolicy:
    def test_greedy_reproduces_optimal(self):
        table = solve_optimal(EX1, 15)
        v_g = solve_under_policy(EX1, optimal_greedy(table), 15)
        assert entries(v_g) == pytest.approx(entries(table), rel=1e-9, abs=1e-12)

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
                        rel = v_pi3.levels[20, k0] / v_opt.levels[20, k0] - 1
                        if rel > worst:
                            worst, params_worst = rel, params
        assert worst > 2.0, (worst, params_worst)

    @given(param_strategy, st.sampled_from(["pi1", "pi3", "pi4", "tpi2"]))
    @settings(max_examples=25, deadline=None)
    def test_policy_value_dominates_optimal(self, params, which):
        v_opt = entries(solve_optimal(params, 8))
        v_pi = entries(solve_under_policy(params, benchmark(params, which), 8))
        for s, opt in v_opt.items():
            assert v_pi[s] >= opt - 1e-9 * (1 + abs(opt))


class TestDiff:
    def test_rejects_policy_tables(self):
        v_pi = solve_under_policy(EX1, benchmark(EX1, "pi1"), 5)
        with pytest.raises(ValueError, match="optimal"):
            diff(v_pi)

    def test_k_zero_out_of_space(self):
        dt = diff(solve_optimal(EX1, 5))
        with pytest.raises(KeyError):
            dt.d(3, 0, 4)

    def test_boundary_zero_when_costs_balance(self):
        params = SystemParams(3, 2, 10.0, 5.0, 0.1, 1.0, 0.5)  # h1/mu1 = h2/mu2
        dt = diff(solve_optimal(params, 2))
        for k in (1, 2):
            l = 3 - k  # l < C2 only for k = 2
            if l < params.C2:
                assert dt.levels[0, k] == pytest.approx(0.0, abs=1e-15)

    def test_example3_sign_pattern(self):
        params = SystemParams(4, 2, 1.0, 1.5, 2.0, 2.0, 1.0)
        dt = diff(solve_optimal(params, 6))
        assert dt.levels[2, 2] > 0
        assert dt.levels[3, 2] < 0


def recursion_check_reference(params, diff_table):
    """``recursion_check`` one k at a time over every level, with the same arithmetic.

    The oracle of the blocked check: both must return equal reports.
    """
    c1 = params.C1
    d = diff_table.levels
    i = np.arange(1, diff_table.i_max + 1)
    # scaled[i-1, k-1, form]: form 0 holds where D one level down is >= 0,
    # form 1 where it is <= 0; zero where the form does not apply.
    scaled = np.zeros((len(i), c1, 2))
    for k in range(1, c1 + 1):
        here, prev = d[1:, k], d[:-1, k]
        p, q, r = probs(params, k)
        c_k, b_k = affine_pieces(params, k)
        base = p * (i * c_k + b_k)
        sign_prev = band_signs(prev)
        pos = base + r * prev
        if k >= 2:
            pos += q * np.maximum(0.0, d[:-1, k - 1])
        neg = base + q * prev
        if c1 - k >= 1:
            neg += r * np.minimum(d[:-1, k + 1], 0.0)
        for form, (pred, applies) in enumerate(((pos, sign_prev >= 0), (neg, sign_prev <= 0))):
            scaled[:, k - 1, form] = np.where(
                applies, np.abs(here - pred) / (1.0 + np.abs(here)), 0.0)
    scaled[np.isnan(scaled)] = np.inf
    if not scaled.size:
        return solver.RecursionReport(0.0, None)
    at = int(np.argmax(scaled))  # the first maximum in (i, k, form) order
    if not scaled.flat[at] > 0.0:
        return solver.RecursionReport(0.0, None)
    level, k_index, _ = np.unravel_index(at, scaled.shape)
    return solver.RecursionReport(
        float(scaled.flat[at]), State(int(level) + 1, int(k_index) + 1, c1 - int(k_index) - 1))


class TestRecursion:
    @given(param_strategy)
    @settings(max_examples=25, deadline=None)
    def test_residual_within_band(self, params):
        table = solve_optimal(params, 12)
        report = recursion_check(params, diff(table))
        assert report.max_scaled_residual <= 1e-9

    @pytest.mark.parametrize("block", [1, 3, 2048])
    def test_blocks_equal_reference(self, monkeypatch, block):
        # Faults set the worst residual: NaN and inf count as infinite, and the
        # first of equal maxima is reported, also when they lie in different blocks.
        monkeypatch.setattr(solver, "_RESIDUAL_BLOCK", block)
        cases = []
        for params in EXAMPLE_PARAMS.values():
            for depth in (0, 1, 12, 40):
                cases.append((params, diff(solve_optimal(params, depth))))
        deep = SystemParams(4, 3, 10.0, 25.0, 0.01, 1.0, 0.1)
        cases.append((deep, diff(solve_optimal(deep, 3000))))
        for fault, cells in [(np.nan, [(5, 2)]), (np.inf, [(7, 1), (3, 4)]),
                             (1e300, [(9, 3), (2, 3)]), (-1e300, [(0, 2)]), (0.0, [(4, 4)])]:
            dt = diff(solve_optimal(EX1, 12))
            for at in cells:
                dt.levels[at] = fault
            cases.append((EX1, dt))
        with np.errstate(invalid="ignore"):
            for params, dt in cases:
                assert recursion_check(params, dt) == recursion_check_reference(params, dt)

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
        m = params.mu2 / params.mu1
        assert r == pytest.approx(params.C2 * m / (1 + params.C2 * m))


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
    v = dict_boundary(params)
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
                    acc += k * params.mu1 * (move if rule(i, k - 1, l) else stay)
            served = min(l, params.C2)
            if served > 0:
                stay = v[State(i - 1, k + 1, l - 1)]
                move = v[State(i - 1, k, l)]
                if rule is None:
                    acc += served * params.mu2 * min(stay, move)
                else:
                    acc += served * params.mu2 * (move if rule(i, k, l - 1) else stay)
            v[State(i, k, l)] = acc / d
    return v


def exact_solve(params, i_max):
    """``scalar_solve`` in exact rationals, each rate and cost taken as Fraction(repr(x)).

    Its entries are the model's true values at the parameters as written, so
    it can say whether a float D has the sign of the true D.
    """
    exact = dataclasses.replace(
        params, **{f: Fraction(repr(getattr(params, f))) for f in RATE_COST_FIELDS})
    v = scalar_solve(exact, i_max)
    assert {type(x) for x in v.values()} == {Fraction}
    return v


def exact_d_recursion(params, depth):
    """D(i, k, C1 - k) for i = 0..depth, k = 1..C1 by the one-step difference recursion,
    in exact rationals, each rate and cost taken as Fraction(repr(x)).

    D(0, k, l) is the boundary closed form.  Above it, with the weights p_k, q_k,
    r_k and the affine pieces c_k, b_k of the model's formulas,
    D(i, k) = p_k (i c_k + b_k) + r_k D(i-1, k) + q_k max(0, D(i-1, k-1)) where
    D(i-1, k) >= 0, else p_k (i c_k + b_k) + q_k D(i-1, k) + r_k min(D(i-1, k+1), 0).
    No value table is formed, so it shares no code with the solver.
    """
    c1, c2 = params.C1, params.C2
    mu1, mu2, h0, h1, h2 = (Fraction(repr(getattr(params, f))) for f in RATE_COST_FIELDS)
    b = h1 / mu1 - h2 / mu2
    c = h0 / c1 * (1 / mu1 - 1 / mu2)
    b_prime = (h1 - h2) / mu1 - c1 * h2 / (c2 * mu2)
    c_prime = -h0 / (c2 * mu2)
    terms, d = {}, {}
    for k in range(1, c1 + 1):
        l = c1 - k
        d_up = k * mu1 + min(l, c2) * mu2
        d_down = (k - 1) * mu1 + min(l + 1, c2) * mu2
        p = (c1 if l < c2 else c2) * mu1 * mu2 / (d_up * d_down)
        q, r = (k - 1) * mu1 / d_down, min(l, c2) * mu2 / d_up
        terms[k] = (p, q, r, c, b) if l < c2 else (p, q, r, c_prime, b_prime)
        d[0, k] = h1 / mu1 - Fraction(max(l + 1, c2), c2) * (h2 / mu2)
    for i in range(1, depth + 1):
        for k, (p, q, r, c_k, b_k) in terms.items():
            prev = d[i - 1, k]
            # q_1 = 0 and r_C1 = 0, so the missing neighbours of k = 1 and k = C1 read as 0.
            if prev >= 0:
                step = r * prev + q * max(0, d.get((i - 1, k - 1), 0))
            else:
                step = q * prev + r * min(d.get((i - 1, k + 1), 0), 0)
            d[i, k] = p * (i * c_k + b_k) + step
    return d


def assert_row_sets_equal_scalar(params, i_max, policies):
    """Every row set of a kernel equals ``scalar_solve`` table by table, in order and kind.

    The row sets: optimal alone, each policy alone, the policies from the
    sixth on together, and the optimal with the first five.
    """
    want_optimal = scalar_solve(params, i_max)
    wants = [scalar_solve(params, i_max, policy.rule) for policy in policies]
    kinds = [f"policy:{policy.id}" for policy in policies]
    solves = [(["optimal"], [want_optimal], [solve_optimal(params, i_max)])]
    solves += [([kind], [want], [solve_under_policy(params, policy, i_max)])
               for kind, want, policy in zip(kinds, wants, policies)]
    solves.append((kinds[5:], wants[5:], solver._solve(params, i_max, tuple(policies[5:]), False)))
    solves.append((["optimal"] + kinds[:5], [want_optimal] + wants[:5],
                   solve_family(params, policies[:5], i_max)))
    for want_kinds, want_tables, tables in solves:
        assert [table.kind for table in tables] == want_kinds
        for kind, want, table in zip(want_kinds, want_tables, tables):
            assert table.levels.shape == (i_max + 1, params.C1 + 1)
            assert entries(table) == want, (params, i_max, kind)


def assert_exact_recursion_equals_exact_values(points, depth):
    """exact_d_recursion equals exact_solve's value difference at every fully-busy entry."""
    compared = 0
    for params in points:
        v, d = exact_solve(params, depth), exact_d_recursion(params, depth)
        for (i, k), x in d.items():
            l = params.C1 - k
            assert x == v[State(i, k, l)] - v[State(i, k - 1, l + 1)], (params, i, k)
        compared += len(d)
    return compared


class TestExactRecursion:
    """The exact one-step recursion of the difference against the exact value solve."""

    def test_examples_to_depth_25(self):
        assert assert_exact_recursion_equals_exact_values(EXAMPLE_PARAMS.values(), 25) == 1040

    def test_seeded_study_grid_points_to_depth_120(self):
        points = random.Random(20261020).sample(table4_params(), 30)
        assert assert_exact_recursion_equals_exact_values(points, 120) == 11374


class TestScalarOracle:
    @given(param_strategy, st.integers(0, 30), st.sampled_from(POLICY_IDS))
    @settings(max_examples=80, deadline=None)
    def test_array_solver_equals_scalar_recursion(self, params, i_max, policy_id):
        states = enumerate_states(params, i_max)
        table = solve_optimal(params, i_max)
        want = scalar_solve(params, i_max)
        assert entries(table) == want
        assert entries(diff(table)) == {
            s: want[s] - want[State(s.i, s.k - 1, s.l + 1)] for s in states if s.k >= 1
        }
        policy = policy_by_id(params, policy_id, value_table=table)
        v_pi = solve_under_policy(params, policy, i_max)
        assert entries(v_pi) == scalar_solve(params, i_max, policy.rule)

    def test_deep_solve_equals_scalar_recursion(self):
        params = SystemParams(4, 3, 10.0, 10.0, 0.01, 1.0, 0.5)
        table = solve_optimal(params, 400)
        want = scalar_solve(params, 400)
        assert entries(table) == want

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_any_chunk_size_equals_scalar_recursion(self, chunk, monkeypatch):
        """A solve resumed at every chunk boundary gives the one-shot bits."""
        monkeypatch.setattr(solver, "CHUNK", chunk)
        for params, i_max in ((EX1, 23), (EXAMPLE_PARAMS["ex3"], 15), (EXAMPLE_PARAMS["ex8"], 14)):
            table = solve_optimal(params, i_max)
            policies = [policy_by_id(params, p, value_table=table) for p in POLICY_IDS]
            assert_row_sets_equal_scalar(params, i_max, policies)

    def test_depths_around_chunk_boundaries_equal_scalar_recursion(self):
        chunk = solver.CHUNK
        deepest = 2 * chunk + 1
        want = scalar_solve(EX1, deepest)
        for i_max in (chunk - 1, chunk, chunk + 1, deepest):
            table = solve_optimal(EX1, i_max)
            assert entries(table) == {
                s: v for s, v in want.items() if s.i <= i_max}, i_max
        greedy = optimal_greedy(solve_optimal(EX1, deepest))
        policies = [greedy] + [benchmark(EX1, which) for which in ("pi2", "pi4")]
        wants = [want] + [scalar_solve(EX1, deepest, policy.rule) for policy in policies]
        for i_max in (chunk, chunk + 1, deepest):
            tables = [solve_under_policy(EX1, greedy, i_max)] + solve_family(EX1, policies, i_max)
            for table, want_table in zip(tables, [wants[1]] + wants, strict=True):
                assert entries(table) == {
                    s: v for s, v in want_table.items() if s.i <= i_max}, (i_max, table.kind)

    @pytest.mark.parametrize("chunk", [3, None])
    def test_rule_flipping_at_a_chunk_boundary(self, chunk, monkeypatch):
        """Each level takes its own decision row, not a neighbour's, across a boundary."""
        if chunk is not None:
            monkeypatch.setattr(solver, "CHUNK", chunk)
        depth = 2 * solver.CHUNK + 1

        def flipping_at(level):
            return lambda q, kb, lb: np.asarray(q) <= level

        rule = flipping_at(solver.CHUNK)
        want = scalar_solve(EX1, depth, rule)
        # Rows shifted by one level give other values, so an off-by-one shows.
        for shifted in (solver.CHUNK - 1, solver.CHUNK + 1):
            assert scalar_solve(EX1, depth, flipping_at(shifted)) != want
        table = solve_under_policy(EX1, rule, depth)
        assert entries(table) == want
        # Rules flipping around the boundary, each row of a kernel on its own decisions.
        policies = [Policy(f"flip{shift:+d}", flipping_at(solver.CHUNK + shift))
                    for shift in (0, -1, 1, -2, 2)]
        policies += [benchmark(EX1, which) for which in ("pi1", "pi2", "pi3", "pi4", "tpi2")]
        assert_row_sets_equal_scalar(EX1, depth, policies)

    @pytest.mark.parametrize("chunk", [1, 3, None])
    @pytest.mark.parametrize("c1", [1, 2, 7])
    def test_every_chunk_lands_at_its_offset_in_the_block(self, c1, chunk, monkeypatch):
        """Each chunk, the last partial one too, fills its own levels of a 1- and a 7-row block.

        A wrong byte offset or a dropped chunk leaves np.empty garbage behind.
        """
        if chunk is not None:
            monkeypatch.setattr(solver, "CHUNK", chunk)
        depth = 2 * solver.CHUNK + 1
        params = SystemParams(c1, 2, 3.0, 4.0, 0.2, 1.0, 2.0)
        optimal = solve_optimal(params, depth)
        policies = tuple(policy_by_id(params, p, value_table=optimal)
                         for p in ("optimal", "heuristic", "pi1", "pi2", "pi4", "tpi2"))
        want_optimal = scalar_solve(params, depth)
        want_first = scalar_solve(params, depth, policies[0].rule)
        assert entries(optimal) == want_optimal
        [first] = solver._solve(params, depth, policies[:1], False)
        assert entries(first) == want_first
        tables = solver._solve(params, depth, policies, True)
        wants = [want_optimal, want_first]
        wants += [scalar_solve(params, depth, policy.rule) for policy in policies[1:]]
        assert len(tables) == len(wants) == 7
        for table, want in zip(tables, wants):
            assert entries(table) == want, (c1, depth, table.kind)

    @pytest.mark.parametrize("c1", range(1, 7))
    def test_every_kernel_shape_equals_scalar_recursion(self, c1):
        """Each C1 and row set has its own kernel; C1 = 1 has no interior column."""
        decided = set()
        for c2, mu2, h2 in ((1, 1.5, 0.4), (c1 + 1, 4.0, 2.0)):
            params = SystemParams(c1, c2, 3.0, mu2, 0.2, 1.0, h2)
            for i_max in (0, 1, 2, 9):
                table = solve_optimal(params, i_max)
                policies = [policy_by_id(params, p, value_table=table) for p in POLICY_IDS]
                assert_row_sets_equal_scalar(params, i_max, policies)
                for policy in policies:
                    if i_max:
                        decided.update(decision_grid(policy.rule, c1, i_max).flat)
        # Both actions occur, so both branches of every policy pick are read.
        assert decided == {False, True}

    @pytest.mark.parametrize("policy_id", POLICY_IDS)
    def test_grid_decisions_match_scalar_calls(self, policy_id):
        points = [EX1, EXAMPLE_PARAMS["ex3"], EXAMPLE_PARAMS["ex8"],
                  SystemParams(3, 1, 10.0, 4.0, 0.1, 1.0, 0.1),
                  SystemParams(1, 2, 3.0, 1.5, 0.5, 1.0, 0.3)]
        for params in points:
            i_max = 25
            policy = policy_by_id(params, policy_id, value_table=solve_optimal(params, i_max))
            collab = decision_grid(policy.rule, params.C1, i_max)
            assert collab.shape == (i_max, params.C1)
            for i in range(1, i_max + 1):
                for k_busy in range(0, params.C1):
                    want = bool(policy.rule(i, k_busy, params.C1 - 1 - k_busy))
                    assert collab[i - 1, k_busy] == want

    def test_scalar_only_rule_result_broadcasts(self):
        table = solve_under_policy(EX1, lambda q, kb, lb: 1, 6)
        want = scalar_solve(EX1, 6, lambda q, kb, lb: 1)
        assert entries(table) == want

    def test_lookups_return_python_floats(self, tmp_path):
        table = solve_optimal(EX1, 3)
        assert type(table.value(2, 1, 3)) is float
        assert type(table.value(0, 1, 1)) is float
        assert type(diff(table).d(3, 2, 2)) is float
        with pytest.raises(KeyError):
            table.value(4, 1, 3)
        with pytest.raises(KeyError):
            table.value(1, -1, 5)
        with pytest.raises(KeyError):
            diff(table).d(0, 3, 2)

    def test_recursion_check_flags_nan(self):
        table = solve_optimal(EX1, 6)
        dt = diff(table)
        levels = dt.levels.copy()
        levels[3, 2] = np.nan
        broken = type(dt)(EX1, 6, dt.boundary, levels)
        report = recursion_check(EX1, broken)
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
        decision_grid(lambda q, kb, lb: seen.extend((q, kb, lb)) or q > 0, EX1.C1, 5)
        for grid in seen:
            with pytest.raises(ValueError, match="read-only"):
                grid[0, 0] = 7
        cst = constants(EX1)
        with pytest.raises(TypeError):
            cst.y[1] = 0.0
        with pytest.raises(TypeError):
            cst.r2[1] = 0.0
        with pytest.raises(TypeError):
            heuristic_profile(EX1).entries[1] = 0
        with pytest.raises(TypeError):
            search_caps(EX1)[4] = 0

    def test_rule_writing_into_its_queue_argument_raises(self):
        def writer(q, kb, lb):
            q -= 1
            return q <= 3

        want = scalar_solve(EX1, 9, lambda q, kb, lb: q <= 3)
        for _ in range(2):  # a failed evaluation leaves nothing to reuse
            with pytest.raises(ValueError, match="read-only"):
                solve_under_policy(EX1, writer, 9)
            assert writer not in solver._DECISION_ROWS
        table = solve_under_policy(EX1, lambda q, kb, lb: np.asarray(q) <= 3, 9)
        assert entries(table) == want

    def test_study_grid_points_that_differ_only_in_h0_share_their_h0_free_parts(self):
        groups: dict = {}
        for params in table4_params():
            key = (params.C1, params.C2, params.mu1, params.mu2, params.h1, params.h2)
            groups.setdefault(key, []).append(params)
        # The whole grid's keys fit, so no point's parts are rebuilt in any order.
        assert len(groups) == 324 <= WITHOUT_H0_CACHE_SIZE
        for points in groups.values():
            assert len({params.h0 for params in points}) == len(points) == 7
            tables = [solve_optimal(params, 3) for params in points]
            assert all(table.boundary is tables[0].boundary for table in tables)
            assert all(threshold_spec(params) is threshold_spec(points[0]) for params in points)
            c1 = points[0].C1
            assert np.isnan(tables[0].boundary[np.triu_indices(c1, 1)]).all()
            assert not np.isnan(tables[0].boundary[np.tril_indices(c1)]).any()
            for params, table in zip(points, tables):
                assert not np.isnan(table.levels).any()
                assert entries(table) == scalar_solve(params, 3)

    def test_equal_params_with_int_rates_share_one_entry(self):
        ints = SystemParams(4, 2, 3, 1, 1, 2, 1)
        floats = SystemParams(4, 2, 3.0, 1.0, 1.0, 2.0, 1.0)
        assert ints == floats and hash(ints) == hash(floats)
        first, second = solve_optimal(ints, 12), solve_optimal(floats, 12)
        assert first.boundary is second.boundary
        assert constants(ints) is constants(floats)
        assert heuristic_profile(ints) is heuristic_profile(floats)
        assert search_caps(ints) is search_caps(floats)
        for params, table in ((ints, first), (floats, second)):
            assert entries(table) == scalar_solve(params, 12)
        rule = benchmark(ints, "pi4").rule
        for params in (ints, floats):
            table = solve_under_policy(params, rule, 12)
            assert entries(table) == scalar_solve(params, 12, rule)


class TestDecisionRows:
    """Each rule's decision rows are derived once per (C1, depth) while the rule lives."""

    def test_benchmark_rules_evaluated_once_per_depth_across_a_sweep(self, monkeypatch):
        # Eight points of one (C1, C2) block, in both cost regimes.
        spec = dict(server_configs=((3, 2),), h0_values=(0.1, 1.0), h2_values=(0.1, 2.0),
                    mu2_values=(4.0, 12.0))
        evaluated = Counter()
        real = solver.decision_grid

        def counting(rule, c1, q_max):
            evaluated[rule.id, q_max] += 1
            return real(rule, c1, q_max)

        monkeypatch.setattr(solver, "decision_grid", counting)
        solver._DECISION_ROWS.clear()
        first = sweep(SweepSpec(**spec, i0_values=(20,)))
        assert sweep(SweepSpec(**spec, i0_values=(20,))) == first
        sweep(SweepSpec(**spec, i0_values=(25,)))
        ids = {row[10] for row in first.raw_rows}
        assert ids == {"heuristic", "pi1", "pi2", "pi3", "pi4", "tpi1", "tpi2", "tpi3", "tpi4"}
        assert evaluated == Counter(
            {(which, depth): 1 for which in ids - {"heuristic"} for depth in (20, 25)}
            | {("heuristic", 20): 16, ("heuristic", 25): 8})

    def test_greedy_entry_dies_with_its_policy(self):
        table = solve_optimal(EX1, 400)
        greedy = optimal_greedy(table)
        want = solve_under_policy(EX1, greedy, 400).levels
        assert (solve_under_policy(EX1, greedy, 400).levels == want).all()
        assert list(solver._DECISION_ROWS[greedy]) == [(EX1.C1, 400)]
        gone = weakref.ref(greedy)
        del greedy, table
        gc.collect()
        assert gone() is None
        assert not [policy for policy in solver._DECISION_ROWS if policy.id == "optimal"]

    def test_depths_per_rule_are_bounded(self):
        def rule(q, kb, lb):
            return np.asarray(q) <= 3

        depths = range(1, GRID_CACHE_SIZE + 6)
        for depth in depths:
            solve_under_policy(EX1, rule, depth)
        assert list(solver._DECISION_ROWS[rule]) == [
            (EX1.C1, depth) for depth in depths[-GRID_CACHE_SIZE:]]

    def test_rule_without_weak_references_is_evaluated_every_solve(self):
        class Counted:
            __slots__ = ("calls",)

            def __init__(self):
                self.calls = 0

            def __call__(self, q, kb, lb):
                self.calls += 1
                return np.asarray(q) <= 3

        rule = Counted()
        with pytest.raises(TypeError):
            weakref.ref(rule)
        first = solve_under_policy(EX1, rule, 9)
        second = solve_under_policy(EX1, rule, 9)
        assert rule.calls == 2  # one call per solve
        assert (first.levels == second.levels).all()
        assert entries(first) == scalar_solve(EX1, 9, rule)
