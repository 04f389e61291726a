import json

import pytest
from hypothesis import given, strategies as st

from clearq.model import (
    NonPositiveParameter,
    ParameterError,
    State,
    SystemParams,
    ZeroServers,
    in_state_space,
    service_rate,
    validate,
)
from clearq.solver import solve_optimal


def make(C1=2, C2=1, mu1=10, mu2=4, h0=0.01, h1=1, h2=0.1):
    return SystemParams(C1, C2, mu1, mu2, h0, h1, h2)


class TestValidate:
    def test_grid_cell_accepted(self):
        params = make()
        assert validate(params) is params

    def test_zero_servers(self):
        with pytest.raises(ZeroServers):
            SystemParams(0, 1, 10, 4, 0.01, 1, 0.1)
        with pytest.raises(ZeroServers):
            SystemParams(2, 0, 10, 4, 0.01, 1, 0.1)

    def test_negative_holding_cost(self):
        with pytest.raises(NonPositiveParameter) as exc:
            SystemParams(2, 1, 10, 4, -1, 1, 0.1)
        assert exc.value.field == "h0"

    @pytest.mark.parametrize("field", ["mu1", "mu2", "h0", "h1", "h2"])
    def test_zero_rates_and_costs_rejected(self, field):
        kwargs = dict(C1=2, C2=1, mu1=10, mu2=4, h0=0.01, h1=1, h2=0.1)
        kwargs[field] = 0
        with pytest.raises(NonPositiveParameter):
            SystemParams(**kwargs)

    @pytest.mark.parametrize("c1, c2", [(2.0, 1), (2, True), (2.5, 1), ("2", 1), (2, None)])
    def test_server_counts_must_be_integers(self, c1, c2):
        with pytest.raises(ParameterError, match="must be an integer"):
            SystemParams(c1, c2, 10, 4, 0.01, 1, 0.1)

    @pytest.mark.parametrize("field", ["mu1", "mu2", "h0", "h1", "h2"])
    @pytest.mark.parametrize("bad", [True, False, "4", None, [1.0]])
    def test_rates_and_costs_must_be_numbers(self, field, bad):
        kwargs = dict(C1=2, C2=1, mu1=10, mu2=4, h0=0.01, h1=1, h2=0.1)
        kwargs[field] = bad
        with pytest.raises(ParameterError, match=f"{field} must be a number"):
            SystemParams(**kwargs)

    def test_hash_is_the_field_tuple_hash(self):
        ints, floats = make(), make(mu1=10.0, mu2=4.0, h0=0.01, h1=1.0, h2=0.1)
        fields = (2, 1, 10, 4, 0.01, 1, 0.1)
        assert hash(ints) == hash(fields) == hash(floats) and ints == floats
        assert hash(make(C1=3)) == hash((3,) + fields[1:])


class TestRates:
    def test_service_rate_example(self):
        assert service_rate(make(C2=2, mu1=10, mu2=4), k=3, l=1) == 34

    def test_service_rate_empty(self):
        assert service_rate(make(), 0, 0) == 0

    def test_service_rate_clamps_at_capacity(self):
        assert service_rate(make(C2=2, mu2=4), k=0, l=5) == 8

    @given(k=st.integers(0, 6), l=st.integers(0, 6))
    def test_service_rate_monotone(self, k, l):
        params = make(C1=6, C2=2)
        base = service_rate(params, k, l)
        assert service_rate(params, k + 1, l) >= base
        assert service_rate(params, k, l + 1) >= base

    @given(k=st.integers(0, 6), l=st.integers(1, 6))
    def test_service_rate_diagonal_step(self, k, l):
        # Moving one job from Station 2 to Station 1 changes the total rate
        # by mu1 - mu2 while Station 2 stays saturated, by mu1 - [l <= C2]*mu2
        # in general.
        params = make(C1=6, C2=2)
        step = service_rate(params, k + 1, l - 1) - service_rate(params, k, l)
        want = params.mu1 - (params.mu2 if l <= params.C2 else 0.0)
        assert step == pytest.approx(want)


def solved_states(params, i_max):
    """The states of a table solved to i_max, in the order of its columns()."""
    i, k, l, _ = solve_optimal(params, i_max).columns()
    return [State(*s) for s in zip(i.tolist(), k.tolist(), l.tolist())]


class TestEnumeration:
    def test_boundary_order_c1_2(self):
        states = solved_states(make(C1=2), 0)
        assert states == [
            State(0, 0, 0), State(0, 0, 1), State(0, 1, 0),
            State(0, 0, 2), State(0, 1, 1), State(0, 2, 0),
        ]

    def test_level_states_c1_1(self):
        states = solved_states(make(C1=1), 1)
        assert states[-2:] == [State(1, 0, 1), State(1, 1, 0)]

    def test_boundary_count_c1_1(self):
        assert len(solved_states(make(C1=1), 0)) == 3

    @given(i_max=st.integers(0, 6), c1=st.integers(1, 4), c2=st.integers(1, 4))
    def test_membership(self, i_max, c1, c2):
        params = make(C1=c1, C2=c2)
        states = solved_states(params, i_max)
        assert all(in_state_space(params, s) for s in states)
        assert len(states) == len(set(states))

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            solved_states(make(), -1)


class TestJson:
    def test_round_trip(self):
        params = make()
        data = json.loads(json.dumps(params.to_json_dict()))
        assert SystemParams.from_json_dict(data) == params

    def test_exactly_seven_fields(self):
        assert set(make().to_json_dict()) == {"C1", "C2", "mu1", "mu2", "h0", "h1", "h2"}

    def test_unknown_key_rejected(self):
        data = make().to_json_dict()
        data["extra"] = 1
        with pytest.raises(Exception, match="unknown"):
            SystemParams.from_json_dict(data)

    def test_missing_key_rejected(self):
        data = make().to_json_dict()
        del data["mu2"]
        with pytest.raises(Exception, match="missing"):
            SystemParams.from_json_dict(data)

    @pytest.mark.parametrize("field, bad", [("C1", 2.7), ("C1", 2.0), ("C1", "2"), ("C2", True)])
    def test_server_counts_not_coerced(self, field, bad):
        data = make().to_json_dict()
        data[field] = bad
        with pytest.raises(ParameterError, match=field):
            SystemParams.from_json_dict(data)

    @pytest.mark.parametrize("field", ["mu1", "mu2", "h0", "h1", "h2"])
    @pytest.mark.parametrize("bad", [True, "4", None, {"value": 4}])
    def test_rates_and_costs_not_coerced(self, field, bad):
        data = make().to_json_dict()
        data[field] = bad
        with pytest.raises(ParameterError, match=f"{field} must be a number"):
            SystemParams.from_json_dict(data)

    def test_bool_and_string_rates_rejected_together(self):
        data = make().to_json_dict()
        data.update(mu1=True, mu2="4")
        with pytest.raises(ParameterError):
            SystemParams.from_json_dict(data)

    def test_integer_rates_and_costs_become_floats(self):
        data = dict(C1=2, C2=1, mu1=10, mu2=4, h0=1, h1=1, h2=2)
        params = SystemParams.from_json_dict(data)
        assert params == make(mu1=10.0, mu2=4.0, h0=1.0, h1=1.0, h2=2.0)
        assert all(type(params.to_json_dict()[f]) is float for f in ("mu1", "mu2", "h0", "h1", "h2"))

    def test_fractional_and_bool_counts_rejected_together(self):
        data = make().to_json_dict()
        data.update(C1=2.7, C2=True)
        with pytest.raises(ParameterError):
            SystemParams.from_json_dict(data)
