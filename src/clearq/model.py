"""Core model of the two-station clearing system.

A fixed batch of jobs is worked off by C1 flexible servers that can either
serve alone at Station 1 (rate mu1 each) or pair with one of C2 dedicated
servers at Station 2 (rate mu2 per pair).  State (i, k, l) records the queue
length ahead of the decision point, the number of jobs in Station 1 service,
and the number of jobs at Station 2 (in service or waiting for a dedicated
server).  Holding costs h0/h1/h2 accrue per job per unit time in each of the
three pools.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

import numpy as np

# Sign tests on computed differences treat |x| <= ZERO_BAND*(1+|x|) as zero;
# exact ties in the dynamic program otherwise turn into float coin flips.
ZERO_BAND = 1e-9

# Root snapping for the closed-form threshold formulas, same rationale.
INT_SNAP = 1e-9


class ParameterError(ValueError):
    """Invalid system parameterization."""


class NonPositiveParameter(ParameterError):
    def __init__(self, field: str, value: float):
        self.field = field
        self.value = value
        super().__init__(f"parameter {field} must be positive, got {value!r}")


class ZeroServers(ParameterError):
    def __init__(self, field: str):
        self.field = field
        super().__init__(f"{field} must be at least 1")


class State(NamedTuple):
    """Queue length, Station 1 jobs, Station 2 jobs."""

    i: int
    k: int
    l: int


PARAM_FIELDS = ("C1", "C2", "mu1", "mu2", "h0", "h1", "h2")
RATE_COST_FIELDS = PARAM_FIELDS[2:]


@dataclass(frozen=True)
class SystemParams:
    """One instance of the clearing system; immutable after construction."""

    C1: int
    C2: int
    mu1: float
    mu2: float
    h0: float
    h1: float
    h2: float

    def __post_init__(self):
        validate(self)

    @property
    def m(self) -> float:
        """Service-rate ratio mu2/mu1."""
        return self.mu2 / self.mu1

    def to_json_dict(self) -> dict:
        return {
            "C1": self.C1, "C2": self.C2,
            "mu1": self.mu1, "mu2": self.mu2,
            "h0": self.h0, "h1": self.h1, "h2": self.h2,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SystemParams":
        unknown = set(data) - set(PARAM_FIELDS)
        if unknown:
            raise ParameterError(f"unknown parameter keys: {sorted(unknown)}")
        missing = set(PARAM_FIELDS) - set(data)
        if missing:
            raise ParameterError(f"missing parameter keys: {sorted(missing)}")
        for field in RATE_COST_FIELDS:
            _check_number(field, data[field])
        return cls(
            C1=data["C1"], C2=data["C2"],
            **{field: float(data[field]) for field in RATE_COST_FIELDS},
        )


def _check_number(field: str, value) -> None:
    if isinstance(value, float):
        return  # the common case, without the slower abstract-class check below
    # bool is a Real subtype, and "4" would only be coerced by float().
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{field} must be a number, got {value!r}")


def validate(params: SystemParams) -> SystemParams:
    """Return params unchanged iff every invariant holds, else raise."""
    for field in ("C1", "C2"):
        count = getattr(params, field)
        # bool is an Integral subtype, and 2.0 or "2" would only be coerced.
        if isinstance(count, bool) or not isinstance(count, numbers.Integral):
            raise ParameterError(f"{field} must be an integer, got {count!r}")
        if count <= 0:
            raise ZeroServers(field)
    for field in RATE_COST_FIELDS:
        value = getattr(params, field)
        _check_number(field, value)
        if not math.isfinite(value) or value <= 0:
            raise NonPositiveParameter(field, value)
    return params


class CostOrder(Enum):
    """Ordering of the per-job expected service costs h1/mu1 vs h2/mu2."""

    INDEP_COSTLIER = "indep_costlier"
    EQUAL = "equal"
    COLLAB_COSTLIER = "collab_costlier"


class RateOrder(Enum):
    MU1_GT = "mu1_gt"
    MU1_EQ = "mu1_eq"
    MU1_LT = "mu1_lt"


class CapacityOrder(Enum):
    C2_LT_C1 = "c2_lt_c1"
    C2_GE_C1 = "c2_ge_c1"


@dataclass(frozen=True)
class RegimeTag:
    cost_order: CostOrder
    rate_order: RateOrder
    capacity_order: CapacityOrder


def band_sign(x: float) -> int:
    """-1, 0, +1 with a relative dead band around zero."""
    tol = ZERO_BAND * (1.0 + abs(x))
    if x > tol:
        return 1
    if x < -tol:
        return -1
    return 0


def band_signs(x) -> np.ndarray:
    """band_sign elementwise over an array, as an integer array."""
    x = np.asarray(x)
    tol = ZERO_BAND * (1.0 + np.abs(x))
    return np.where(x > tol, 1, np.where(x < -tol, -1, 0))


def cost_gap_sign(params: SystemParams) -> int:
    """Sign of h1/mu1 - h2/mu2, computed cross-multiplied."""
    return band_sign(params.h1 * params.mu2 - params.h2 * params.mu1)


def blocked_cost_gap_sign(params: SystemParams, l: int) -> int:
    """Sign of h1/mu1 - ((l+1)/C2)(h2/mu2), cross-multiplied."""
    return band_sign(
        params.h1 * params.C2 * params.mu2 - (l + 1) * params.h2 * params.mu1
    )


def regime_tag(params: SystemParams) -> RegimeTag:
    cost = cost_gap_sign(params)
    if cost > 0:
        cost_order = CostOrder.INDEP_COSTLIER
    elif cost < 0:
        cost_order = CostOrder.COLLAB_COSTLIER
    else:
        cost_order = CostOrder.EQUAL
    rate = band_sign(params.mu1 - params.mu2)
    if rate > 0:
        rate_order = RateOrder.MU1_GT
    elif rate < 0:
        rate_order = RateOrder.MU1_LT
    else:
        rate_order = RateOrder.MU1_EQ
    capacity = CapacityOrder.C2_GE_C1 if params.C2 >= params.C1 else CapacityOrder.C2_LT_C1
    return RegimeTag(cost_order, rate_order, capacity)


def in_state_space(params: SystemParams, state: State) -> bool:
    i, k, l = state
    if i < 0 or k < 0 or l < 0:
        return False
    if i == 0:
        return k + l <= params.C1
    return k + l == params.C1


def service_rate(params: SystemParams, k: int, l: int) -> float:
    """Overall completion rate with k jobs at Station 1 and l at Station 2."""
    return k * params.mu1 + min(l, params.C2) * params.mu2


def holding_rate(params: SystemParams, state: State) -> float:
    i, k, l = state
    return i * params.h0 + k * params.h1 + l * params.h2


def enumerate_states(params: SystemParams, i_max: int) -> list[State]:
    """All states with queue up to i_max, in a fixed deterministic order.

    Boundary states (i = 0) come first ordered by total jobs in service then
    by k; queue levels follow ordered by i then k.  Value tables and CSV
    dumps inherit this order.
    """
    if i_max < 0:
        raise ValueError("i_max must be non-negative")
    states = []
    for total in range(0, params.C1 + 1):
        for k in range(0, total + 1):
            states.append(State(0, k, total - k))
    for i in range(1, i_max + 1):
        for k in range(0, params.C1 + 1):
            states.append(State(i, k, params.C1 - k))
    return states


def iter_level(params: SystemParams, i: int) -> Iterator[State]:
    """States at queue level i >= 1 (all flexible servers busy)."""
    for k in range(0, params.C1 + 1):
        yield State(i, k, params.C1 - k)
