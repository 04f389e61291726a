import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import clearq.solver as solver
import clearq.thresholds as thresholds
from clearq.experiments import EXAMPLE_PARAMS, table4_params
from clearq.model import WITHOUT_H0_CACHE_SIZE, SystemParams, band_sign, cost_gap_sign
from clearq.solver import DiffTable, diff, solve_optimal
from clearq.thresholds import (
    CapExceeded,
    Classification,
    Condition1Verdict,
    DegenerateSlope,
    NaNInDiff,
    Orientation,
    ProfileKind,
    actual_profile,
    classify,
    compute_actual_profile,
    condition1,
    constants,
    heuristic_profile,
    required_depth,
    search_caps,
    surrogate,
    threshold_spec,
)


def probs(params, k):
    """(p_k, q_k, r_k) of the difference recursion at k = 1..C1, off threshold_spec's h0-free record."""
    return threshold_spec(params).h0_free.weights[k - 1][:3]


def affine_pieces(params, k):
    """(c_k, b_k) of the difference recursion: (c, b) while l = C1 - k < C2, else (c', b')."""
    cst = constants(params)
    if params.C1 - k < params.C2:
        return cst.c, cst.b
    return cst.c_prime, cst.b_prime


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


class TestConstants:
    def test_ex1_r1(self):
        assert constants(EXAMPLE_PARAMS["ex1"]).R1 == pytest.approx(9.4118, abs=5e-5)

    def test_ex3_r2(self):
        assert constants(EXAMPLE_PARAMS["ex3"]).r2[2] == pytest.approx(3.5, abs=1e-12)

    def test_equal_rates_degenerate_slope(self):
        cst = constants(SystemParams(2, 1, 10.0, 10.0, 0.1, 1.0, 0.5))
        with pytest.raises(DegenerateSlope):
            cst.R1

    @given(param_strategy)
    @settings(max_examples=60, deadline=None)
    def test_piece_ordering(self, params):
        # The primed constants bracket the per-index pieces only when some
        # state can queue for Station 2; with C2 > C1 no state is blocked
        # and the ordering can reverse.
        cst = constants(params)
        assert cst.c_prime < 0
        if params.C2 > params.C1:
            return
        assert cst.b_prime <= cst.b + 1e-12
        assert cst.c_prime <= cst.c + 1e-12
        for k in range(1, params.C1 + 1):
            c_k, b_k = affine_pieces(params, k)
            assert cst.b_prime - 1e-12 <= b_k <= cst.b + 1e-12
            assert cst.c_prime - 1e-12 <= c_k <= cst.c + 1e-12

    @given(param_strategy)
    @settings(max_examples=60, deadline=None)
    def test_sequence_bounds(self, params):
        cst = constants(params)
        if params.mu1 >= params.mu2:
            assert all(y <= params.C1 - 1 + 1e-12 for y in cst.y.values())
        if params.mu2 >= params.mu1:
            z = [(params.C1 - l - 1) / cst.m + l for l in range(0, min(params.C2, params.C1))]
            assert all(z_l <= params.C1 - 1 + 1e-12 for z_l in z)


class TestProbs:
    def test_k1_blocked(self):
        params = EXAMPLE_PARAMS["ex3"]  # C1=4, C2=2 so l=3 >= C2 at k=1
        p, q, r = probs(params, 1)
        assert q == 0.0
        m = params.mu2 / params.mu1
        assert r == pytest.approx(params.C2 * m / (1 + params.C2 * m))

    @given(param_strategy, st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_sum_to_one(self, params, k):
        k = min(k, params.C1)
        p, q, r = probs(params, k)
        assert p + q + r == pytest.approx(1.0, abs=1e-12)
        assert min(p, q, r) >= 0.0

    def test_r_vanishes_without_station2_jobs(self):
        params = SystemParams(2, 1, 10.0, 10.0, 0.1, 1.0, 0.5)
        _, _, r = probs(params, 2)  # l = 0 < C2
        assert r == 0.0


class TestClassify:
    def test_finite_when_mu1_faster(self):
        params = SystemParams(2, 1, 10.0, 4.0, 0.1, 1.0, 0.1)
        assert classify(params, 2) is Classification.FINITE_EXPECTED

    def test_infinite_when_collaboration_free_and_fast(self):
        params = SystemParams(2, 1, 10.0, 12.0, 0.1, 1.0, 0.1)
        assert classify(params, 2) is Classification.PROVABLY_INFINITE  # l = 0 < C2

    def test_highcost_mu1_faster_always_infinite(self):
        params = SystemParams(2, 1, 10.0, 4.0, 0.1, 1.0, 2.0)
        for l in (0, 1):
            assert classify(params, l) is Classification.PROVABLY_INFINITE

    def test_always_zero_band(self):
        # blocked comparison exactly balanced: identically zero threshold
        params = SystemParams(2, 1, 10.0, 4.0, 0.5, 1.0, 0.2)
        assert classify(params, 1) is Classification.ALWAYS_ZERO


class TestThresholdSpec:
    @given(param_strategy)
    @settings(max_examples=60, deadline=None)
    def test_index_facts(self, params):
        spec = threshold_spec(params)
        independent = spec.orientation is Orientation.INDEPENDENT
        assert spec.independent == independent == (cost_gap_sign(params) < 0)
        want = list(range(params.C1)) if independent else list(range(1, params.C1 + 1))
        assert [s.index for s in spec] == want
        for s in spec:
            assert s.k == (params.C1 - s.index if independent else s.index)
            assert s.l == params.C1 - s.k
            assert spec[s.index] == s
            assert classify(params, s.index) is s.classification

    @given(param_strategy)
    @settings(max_examples=60, deadline=None)
    def test_classification_fixes_the_heuristic_shape(self, params):
        heur = heuristic_profile(params)
        for s in threshold_spec(params):
            assert math.isinf(heur[s.index]) == (s.classification is Classification.PROVABLY_INFINITE)
            if s.classification is Classification.ALWAYS_ZERO:
                assert heur[s.index] == 0

    def test_cost_order_tie_is_collaborative(self):
        params = SystemParams(2, 1, 10.0, 5.0, 0.1, 1.0, 0.5)  # h1/mu1 = h2/mu2
        assert threshold_spec(params).orientation is Orientation.COLLABORATIVE
        assert heuristic_profile(params).orientation is Orientation.COLLABORATIVE

    def test_index_range_enforced(self):
        with pytest.raises(ValueError, match=r"k must be in 1\.\.4, got 0"):
            classify(EXAMPLE_PARAMS["ex1"], 0)
        with pytest.raises(ValueError, match=r"l must be in 0\.\.3, got 4"):
            classify(EXAMPLE_PARAMS["ex7"], 4)


class TestHeuristicProfile:
    def test_ex1(self):
        assert heuristic_profile(EXAMPLE_PARAMS["ex1"])[3] == 10

    def test_ex2(self):
        assert heuristic_profile(EXAMPLE_PARAMS["ex2"])[4] == 1

    def test_ex8(self):
        profile = heuristic_profile(EXAMPLE_PARAMS["ex8"])
        assert profile.orientation is Orientation.INDEPENDENT
        assert profile[0] == 5

    def test_infinite_entries(self):
        params = SystemParams(2, 1, 10.0, 12.0, 0.1, 1.0, 0.1)
        assert math.isinf(heuristic_profile(params)[2])


class TestActualProfile:
    def test_ex2_hits_sandwich_top(self):
        params = EXAMPLE_PARAMS["ex2"]
        act = compute_actual_profile(params)
        heur = heuristic_profile(params)
        assert act[4] == 4
        assert act[4] == heur[4] + (params.C1 - 1)

    def test_ex4_underestimates(self):
        params = EXAMPLE_PARAMS["ex4"]
        assert compute_actual_profile(params)[2] == 4
        assert heuristic_profile(params)[2] == 2

    def test_ex7(self):
        act = compute_actual_profile(EXAMPLE_PARAMS["ex7"])
        assert act.orientation is Orientation.INDEPENDENT
        assert act[0] == 12

    def test_shallow_table_rejected(self):
        params = EXAMPLE_PARAMS["ex1"]
        dt = diff(solve_optimal(params, 3))
        with pytest.raises(ValueError, match="search cap"):
            actual_profile(params, dt)

    def test_cap_exceeded_is_a_bug_trap(self):
        # A difference table that never turns negative must trip the trap.
        params = SystemParams(1, 1, 10.0, 4.0, 0.1, 1.0, 0.1)
        cap = search_caps(params)[1]
        # D(i, 1, 0) = 1.0 for i = 0..cap+1; NaN marks cells outside the index set.
        boundary = np.full((1, 1), np.nan)
        levels = np.array([[np.nan, 1.0]] * (cap + 2))
        fake = DiffTable(params, cap + 1, boundary, levels)
        with pytest.raises(CapExceeded):
            actual_profile(params, fake)

    @pytest.mark.parametrize("name, at, index", [
        ("ex1", (2, 2), 2),  # i_D(2) = 2: at the sign change, which would move to 3
        ("ex1", (0, 3), 3),  # before i_D(3) = 10
        ("ex7", (5, 4), 0),  # independent: before i~_D(0) = 12, which would move to 5
    ])
    def test_nan_at_or_before_a_sign_change_is_a_bug_trap(self, name, at, index):
        params = EXAMPLE_PARAMS[name]
        dt = diff(solve_optimal(params, required_depth(params)))
        dt.levels[at] = math.nan
        i, k = at
        with pytest.raises(NaNInDiff) as exc:
            actual_profile(params, dt)
        assert str(exc.value) == (f"D({i},{k},{params.C1 - k}) is NaN at or before the sign "
                                  f"change at index {index}; this indicates a solver bug")

    def test_nan_after_the_sign_changes_is_not_read(self):
        params = EXAMPLE_PARAMS["ex1"]
        dt = diff(solve_optimal(params, required_depth(params)))
        want = actual_profile(params, dt).entries
        dt.levels[3, 2] = dt.levels[12, 4] = math.nan
        assert actual_profile(params, dt).entries == want == {1: 0, 2: 2, 3: 10, 4: 11}

    @given(param_strategy)
    @settings(max_examples=20, deadline=None)
    def test_finite_entries_below_cap(self, params):
        act = compute_actual_profile(params)
        caps = search_caps(params)
        for index, value in act.entries.items():
            if not math.isinf(value):
                cls = classify(params, index)
                assert cls is not Classification.PROVABLY_INFINITE
                if cls is Classification.FINITE_EXPECTED:
                    assert value <= caps[index]


@pytest.fixture(scope="module")
def grid_profiles():
    """(params, actual profile, optimal solve depths, diff calls) at each table4 point."""
    real_solve, real_diff = solver.solve_optimal, solver.diff
    depths, diffs, out = [], [], []

    def counted_solve(params, i_max):
        depths.append(i_max)
        return real_solve(params, i_max)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "solve_optimal", counted_solve)
        mp.setattr(solver, "diff", lambda table: diffs.append(table) or real_diff(table))
        for params in table4_params():
            act = compute_actual_profile(params)
            out.append((params, act, depths[:], len(diffs)))
            depths.clear()
            diffs.clear()
    return out


def has_finite_expected_index(params):
    return any(s.classification is Classification.FINITE_EXPECTED for s in threshold_spec(params))


class TestStudyGrid:
    def test_solves_only_points_with_an_index_to_search(self, grid_profiles):
        # No point builds a difference table: D is read off the solved values.
        assert len(grid_profiles) == 2268
        assert all(n_diff == 0 for *_, n_diff in grid_profiles)
        searched = [(p, depths) for p, _, depths, _ in grid_profiles if has_finite_expected_index(p)]
        assert len(searched) == 1288
        assert all(depths == [required_depth(p)] for p, depths in searched)
        assert sum(depths[0] for _, depths in searched) == 553_779
        unsearched = [(p, act, depths, n_diff) for p, act, depths, n_diff in grid_profiles
                      if not has_finite_expected_index(p)]
        assert len(unsearched) == 980
        for params, act, depths, n_diff in unsearched:
            assert depths == [] and n_diff == 0
            want = actual_profile(params, diff(solve_optimal(params, 0)))
            assert dict(act.entries) == dict(want.entries)
            assert (act.orientation, act.kind, act.i_max_used) == (want.orientation, want.kind, 0)
            assert want.i_max_used == 0

    def test_columns_read_off_the_solved_table_equal_the_diff_table(self, monkeypatch):
        # At every grid point and example, each D column the search reads is the diff
        # table's, bit for bit, and the profile is the one read off the diff table.
        real_search = thresholds._first_sign_changes
        read = []

        def recorded_search(params, depth, d_column):
            def column(k, n):
                got = d_column(k, n)
                read.append((k, n, got))
                return got
            return real_search(params, depth, column)

        monkeypatch.setattr(thresholds, "_first_sign_changes", recorded_search)
        for params in table4_params() + list(EXAMPLE_PARAMS.values()):
            read.clear()
            act = compute_actual_profile(params)
            got = read[:]
            dt = diff(solve_optimal(params, required_depth(params)))
            caps = search_caps(params)
            assert sorted((k, n) for k, n, _ in got) == sorted(
                (threshold_spec(params)[index].k, cap) for index, cap in caps.items())
            for k, n, column in got:
                assert column.tobytes() == dt.levels[:n + 1, k].tobytes(), (params, k)
            want = actual_profile(params, dt)
            assert dict(act.entries) == dict(want.entries)
            assert (act.orientation, act.kind, act.i_max_used) == (
                want.orientation, want.kind, want.i_max_used)

    def test_both_sandwich_ends_are_attained(self, grid_profiles):
        # At a finite-expected index with l < C2, i_H <= i_D <= i_H + C1 - 1.
        lower = upper = 0
        for params, act, _, _ in grid_profiles:
            heur = heuristic_profile(params)
            for s in threshold_spec(params):
                if s.classification is Classification.FINITE_EXPECTED and s.l < params.C2:
                    i_h, i_d = heur[s.index], act[s.index]
                    assert i_h <= i_d <= i_h + params.C1 - 1
                    lower += i_d == i_h
                    upper += i_d == i_h + params.C1 - 1
        assert lower and upper


class TestCondition1:
    def test_ex3_fails_queue_side(self):
        assert condition1(EXAMPLE_PARAMS["ex3"], 2) is Condition1Verdict.FAILS

    def test_ex3b_holds_and_thresholds_agree(self):
        params = EXAMPLE_PARAMS["ex3b"]
        assert condition1(params, 2) is Condition1Verdict.HOLDS_QUEUE_SIDE
        assert compute_actual_profile(params)[2] == heuristic_profile(params)[2] == 13

    def test_ex4b_holds_collab_side(self):
        assert condition1(EXAMPLE_PARAMS["ex4b"], 2) is Condition1Verdict.HOLDS_COLLAB_SIDE

    def test_equal_holding_costs_not_applicable(self):
        params = EXAMPLE_PARAMS["ex5"]
        assert condition1(params, 2) is Condition1Verdict.NOT_APPLICABLE
        assert compute_actual_profile(params)[2] == heuristic_profile(params)[2]

    def test_no_station2_queue_not_applicable(self):
        assert condition1(EXAMPLE_PARAMS["ex1"], 4) is Condition1Verdict.NOT_APPLICABLE


class TestDepthMachinery:
    def test_required_depth_covers_finite_indices(self):
        params = EXAMPLE_PARAMS["ex3b"]
        depth = required_depth(params)
        act = actual_profile(params, diff(solve_optimal(params, depth)))
        assert all(math.isinf(v) or v <= depth for v in act.entries.values())

    @settings(max_examples=60, deadline=None)
    @given(params=param_strategy)
    def test_search_caps_match_search_cap(self, params):
        # One cap per finite-expected index, in index order; the deepest is the required depth.
        caps = search_caps(params)
        orient = heuristic_profile(params).orientation
        indices = range(1, params.C1 + 1) if orient is Orientation.COLLABORATIVE else range(params.C1)
        finite = [i for i in indices if classify(params, i) is Classification.FINITE_EXPECTED]
        assert list(caps) == finite
        assert required_depth(params) == max(caps.values(), default=0)

    def test_actual_profile_builds_one_heuristic_profile(self, monkeypatch):
        params = EXAMPLE_PARAMS["ex3b"]
        want = compute_actual_profile(params)
        thresholds._h0_terms.cache_clear()
        calls = []
        real = thresholds.HeuristicConstants
        monkeypatch.setattr(thresholds, "HeuristicConstants",
                            lambda *fields: calls.append(fields) or real(*fields))
        assert compute_actual_profile(params) == want
        heuristic_profile(params)
        assert len(calls) == 1
        assert thresholds._h0_terms.cache_info().misses == 1

    def test_no_bound_for_provably_infinite(self):
        params = SystemParams(2, 1, 10.0, 12.0, 0.1, 1.0, 0.1)
        assert 2 not in search_caps(params)


def direct_constants(params):
    """m, b, c, b', c', y, R1 or None, R2 by the per-parameter-set formulas (oracle of constants)."""
    m = params.mu2 / params.mu1
    b = params.h1 / params.mu1 - params.h2 / params.mu2
    c = (params.h0 / params.C1) * (1.0 / params.mu1 - 1.0 / params.mu2)
    b_prime = (params.h1 - params.h2) / params.mu1 - params.C1 * params.h2 / (params.C2 * params.mu2)
    c_prime = -params.h0 / (params.C2 * params.mu2)
    ks = range(1, params.C1 + 1)
    y = {k: (k - 1) + min(params.C1 - k, params.C2) * m for k in ks}
    r1 = None if band_sign(params.mu1 - params.mu2) == 0 else -b / c
    r2 = {k: -b_prime / c_prime + y[k] for k in ks}
    return m, b, c, b_prime, c_prime, y, r1, r2


def direct_weights(params, k):
    """(p_k, q_k, r_k, c_k, b_k) of the difference recursion, formed at the parameter set."""
    c1, c2, mu1, mu2 = params.C1, params.C2, params.mu1, params.mu2
    l = c1 - k
    d_up = k * mu1 + min(l, c2) * mu2
    d_down = (k - 1) * mu1 + min(l + 1, c2) * mu2
    p = (c1 if l < c2 else c2) * mu1 * mu2 / (d_up * d_down)
    q = (k - 1) * mu1 / d_down
    r = min(l, c2) * mu2 / d_up
    _, b, c, b_prime, c_prime, *_ = direct_constants(params)
    return (p, q, r, c, b) if l < c2 else (p, q, r, c_prime, b_prime)


def direct_thresholds(params):
    """Heuristic profile entries, search caps and condition1 verdicts, formed at the parameter set.

    The slow path of the h0-free record: every bound and verdict is worked out
    from the seven fields, with the index classes of threshold_spec.
    """
    spec = threshold_spec(params)
    c1, c2, mu1, mu2, h0, h1, h2 = (params.C1, params.C2, params.mu1, params.mu2,
                                    params.h0, params.h1, params.h2)
    m, b, c, b_prime, c_prime, y, r1, r2 = direct_constants(params)
    heur, caps, verdicts = {}, {}, {}
    for s in spec.indices:
        k, l = s.k, s.l
        if s.classification is not Classification.FINITE_EXPECTED:
            heur[s.index] = math.inf if s.classification is Classification.PROVABLY_INFINITE else 0
            continue
        if spec.independent:
            heur[s.index] = thresholds.first_int_at_root(r1)
        elif l >= c2:
            heur[s.index] = max(thresholds.first_int_after_root(r2[k]), 0)
        else:
            heur[s.index] = thresholds.first_int_after_root(r1)
        bounds = [heur[s.index] + c1] if l < c2 else []
        d_prod = (k * mu1 + min(l, c2) * mu2) * ((k - 1) * mu1 + min(l + 1, c2) * mu2)
        if spec.independent:
            bounds.append(math.ceil(-(h1 / mu1 - h2 / mu2) / ((mu2 - mu1) * h0 / d_prod)) + 1)
        else:
            c2_bound = h1 / mu1 - (max(l + 1, c2) / c2) * (h2 / mu2)
            if band_sign(mu1 - mu2) >= 0:
                coef = (mu1 - (mu2 if l < c2 else 0.0)) * h0 / d_prod
                if coef > 0:
                    bounds.append(math.ceil(c2_bound / coef) + 1)
            if band_sign(mu1 - mu2) <= 0 and l >= c2:
                bounds.append(math.ceil(c2_bound / (mu1 * h0 / d_prod)) + 1)
        caps[s.index] = int(max(bounds)) + c1
    for s in spec.indices:
        k, l = s.k, s.l
        verdict = Condition1Verdict.NOT_APPLICABLE
        h_gap = band_sign(h0 - h2)
        if (not spec.independent and l >= c2 and h_gap != 0
                and s.classification is not Classification.ALWAYS_ZERO):
            i_h = heur[k]
            decay = y[k] * (c2 * m / (1.0 + c2 * m)) ** (i_h - k)
            if h_gap > 0:
                rhs = h0 / (h0 - h2) * (r2[k] - (i_h - 1))
                verdict = (Condition1Verdict.HOLDS_QUEUE_SIDE if band_sign(rhs - decay) > 0
                           else Condition1Verdict.FAILS)
            else:
                _, q, rr, _, _ = direct_weights(params, k)
                lhs = rr / (1.0 - q) * decay
                rhs = h0 / (h2 - h0) * (i_h - r2[k])
                verdict = (Condition1Verdict.HOLDS_COLLAB_SIDE if band_sign(rhs - lhs) > 0
                           else Condition1Verdict.FAILS)
        verdicts[s.index] = verdict
    return heur, caps, verdicts


def assert_matches_direct_computation(params):
    cst = constants(params)
    assert (cst.m, cst.b, cst.c, cst.b_prime, cst.c_prime, dict(cst.y), cst.r1,
            dict(cst.r2)) == direct_constants(params)
    heur, caps, verdicts = direct_thresholds(params)
    assert dict(heuristic_profile(params).entries) == heur
    assert dict(search_caps(params)) == caps
    assert list(search_caps(params)) == list(caps)
    assert {s.index: condition1(params, s.index) for s in threshold_spec(params)} == verdicts
    # The weights recursion_check and condition1 read, and c_k, b_k beside them.
    want = [direct_weights(params, k) for k in range(1, params.C1 + 1)]
    assert [(p, q, r, b) for p, q, r, _, b in want] == list(threshold_spec(params).h0_free.weights)
    for k in range(1, params.C1 + 1):
        assert probs(params, k) == want[k - 1][:3]
        assert affine_pieces(params, k) == want[k - 1][3:]


def per_function_h0_terms(params):
    """c, c', R1 or None, R2 and the search caps, each formed on its own from the h0-free
    record with the expressions of the separate constants and search-cap functions that
    the H0Terms record replaced: the oracle that the one-pass build moves no bit."""
    spec = threshold_spec(params)
    t = spec.h0_free
    c = (params.h0 / params.C1) * t.rate_gap
    c_prime = -params.h0 / t.c2_mu2
    r1 = None if t.rate == 0 else -t.b / c
    shift = -t.b_prime / c_prime
    r2 = {k: shift + y for k, y in t.y.items()}
    caps = {}
    for s in t.finite:
        if spec.independent:
            heur = thresholds.first_int_at_root(r1)
        elif s.l >= params.C2:
            heur = max(thresholds.first_int_after_root(r2[s.k]), 0)
        else:
            heur = thresholds.first_int_after_root(r1)
        d_prod, sandwich, linear = t.caps.get(s.index, (None, False, ()))
        bounds = [heur + params.C1] if sandwich and not math.isinf(heur) else []
        for numerator, factor, positive_only in linear:
            if factor > 0 or not positive_only:
                coef = factor * params.h0 / d_prod
                bounds.append(math.ceil(numerator / coef) + 1)
        caps[s.index] = int(max(bounds)) + params.C1
    return c, c_prime, r1, r2, caps


class TestH0FreeTerms:
    """constants, heuristic_profile, search_caps, condition1 and the recursion weights
    add their h0 terms to one h0-free record per WithoutH0 key, and equal the per-point formulas."""

    def test_study_grid_matches_direct_computation_and_shares_one_record_per_key(self):
        groups: dict = {}
        for params in table4_params():
            groups.setdefault(params.without_h0, []).append(params)
        # The whole grid's keys fit, so no point's record is rebuilt in any order.
        assert len(groups) == 324 <= WITHOUT_H0_CACHE_SIZE
        for points in groups.values():
            terms = threshold_spec(points[0]).h0_free
            assert len(points) == 7
            for params in points:
                assert threshold_spec(params).h0_free is terms
                assert constants(params).y is terms.y
                assert_matches_direct_computation(params)

    def test_examples_and_int_rates_match_direct_computation(self):
        ints = SystemParams(4, 2, 3, 1, 1, 2, 1)
        floats = SystemParams(4, 2, 3.0, 1.0, 1.0, 2.0, 1.0)
        for params in (*EXAMPLE_PARAMS.values(), ints, floats):
            assert_matches_direct_computation(params)
        assert threshold_spec(ints).h0_free is threshold_spec(floats).h0_free

    def test_h0_terms_equal_the_per_function_expressions(self):
        for params in (*table4_params(), *EXAMPLE_PARAMS.values()):
            c, c_prime, r1, r2, caps = per_function_h0_terms(params)
            cst = constants(params)
            assert (cst.c, cst.c_prime, cst.r1, dict(cst.r2)) == (c, c_prime, r1, r2), params
            assert list(search_caps(params).items()) == list(caps.items()), params

    def test_record_is_read_only(self):
        terms = threshold_spec(EXAMPLE_PARAMS["ex3"]).h0_free
        for mapping in (terms.y, terms.skeleton, terms.caps, terms.weights):
            with pytest.raises(TypeError):
                mapping[1] = 0

    @given(param_strategy)
    @settings(max_examples=100, deadline=None)
    def test_random_points_match_direct_computation(self, params):
        assert_matches_direct_computation(params)


class TestSurrogate:
    def test_matches_boundary_when_unblocked(self):
        params = EXAMPLE_PARAMS["ex1"]
        cst = constants(params)
        assert surrogate(params, 0, 4) == pytest.approx(cst.b)

    def test_constant_branch(self):
        # Blocked comparison favors independent: flat -1
        params = EXAMPLE_PARAMS["ex7"]
        assert surrogate(params, 0, 2) == -1.0
        assert surrogate(params, 25, 2) == -1.0


class TestSerialization:
    def test_profile_csv_and_json(self, tmp_path):
        params = SystemParams(2, 1, 10.0, 12.0, 0.1, 1.0, 0.1)
        profile = heuristic_profile(params)
        profile.to_csv(tmp_path / "p.csv")
        profile.to_json(tmp_path / "p.json")
        lines = (tmp_path / "p.csv").read_text().splitlines()
        assert lines[0] == "index,kind,orientation,threshold"
        assert lines[2] == "2,heuristic,collaborative,inf"
        assert '"2": "inf"' in (tmp_path / "p.json").read_text()

    def test_profile_kind(self):
        assert heuristic_profile(EXAMPLE_PARAMS["ex1"]).kind is ProfileKind.HEURISTIC
        assert compute_actual_profile(EXAMPLE_PARAMS["ex1"]).kind is ProfileKind.ACTUAL
