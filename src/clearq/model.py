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
from typing import NamedTuple

import numpy as np

# Sign tests on computed differences treat |x| <= ZERO_BAND*(1+|x|) as zero;
# exact ties in the dynamic program otherwise turn into float coin flips.
ZERO_BAND = 1e-9

# Root snapping for the closed-form threshold formulas, same rationale.
INT_SNAP = 1e-9

# Bounds of the caches of derived data: entries per parameter set (boundary
# triangle, constants, threshold spec) and per index grid shape.
PARAMS_CACHE_SIZE = 32
GRID_CACHE_SIZE = 32


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
        return {field: getattr(self, field) for field in PARAM_FIELDS}

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


def read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, marked read-only: cached data that every caller shares."""
    for a in arrays:
        a.flags.writeable = False
    return arrays
