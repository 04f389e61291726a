import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import clearq.solver as solver
import clearq.thresholds as thresholds
from clearq.experiments import EXAMPLE_PARAMS, table4_params
from clearq.model import SystemParams, cost_gap_sign
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
    affine_pieces,
    classify,
    compute_actual_profile,
    condition1,
    constants,
    heuristic_profile,
    probs,
    required_depth,
    search_caps,
    surrogate,
    threshold_spec,
)

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
        m = params.m
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

    def test_index_range_enforced(self):
        with pytest.raises(ValueError):
            probs(EXAMPLE_PARAMS["ex1"], 0)


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
        searched = [(p, depths, n_diff) for p, _, depths, n_diff in grid_profiles
                    if has_finite_expected_index(p)]
        assert len(searched) == 1288
        assert all(depths == [required_depth(p)] and n_diff == 1 for p, depths, n_diff in searched)
        assert sum(depths[0] for _, depths, _ in searched) == 553_779
        unsearched = [(p, act, depths, n_diff) for p, act, depths, n_diff in grid_profiles
                      if not has_finite_expected_index(p)]
        assert len(unsearched) == 980
        for params, act, depths, n_diff in unsearched:
            assert depths == [] and n_diff == 0
            want = actual_profile(params, diff(solve_optimal(params, 0)))
            assert dict(act.entries) == dict(want.entries)
            assert (act.orientation, act.kind, act.i_max_used) == (want.orientation, want.kind, 0)
            assert want.i_max_used == 0

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
        thresholds.heuristic_profile.cache_clear()
        thresholds.search_caps.cache_clear()
        calls = []
        real = thresholds.constants
        monkeypatch.setattr(thresholds, "constants", lambda p: calls.append(p) or real(p))
        assert compute_actual_profile(params) == want
        assert len(calls) == 1
        assert thresholds.heuristic_profile.cache_info().misses == 1

    def test_no_bound_for_provably_infinite(self):
        params = SystemParams(2, 1, 10.0, 12.0, 0.1, 1.0, 0.1)
        assert 2 not in search_caps(params)
        # The bound itself is a bug trap for an index that needs no search.
        spec = threshold_spec(params)
        with pytest.raises(ValueError, match="no finite-threshold bound"):
            thresholds._search_cap(params, spec, spec[2], heuristic_profile(params)[2])


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
