"""Closed-form threshold machinery and extraction of actual thresholds.

The optimal assignment rule switches between independent and collaborative
service at an index-dependent queue length.  This module computes the affine
surrogate H of the value difference D, its closed-form crossing points, the
supporting constants and probabilities, and the actual crossing points read
off a solved difference table.

Tie rule: a surrogate or difference value inside the numerical zero band
counts as *collaborative-side*.  Concretely the collaborative-orientation
threshold is the first index where the quantity is strictly negative, while
the independent-orientation threshold is the first index where it is zero or
positive.  The golden values in the acceptance suite pin this direction at
exactly-integer crossing roots; see the README for the full convention.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .model import (
    INT_SNAP,
    SystemParams,
    band_sign,
    band_signs,
    blocked_cost_gap_sign,
    cost_gap_sign,
    service_rate,
)

INF = math.inf


class DegenerateSlope(ValueError):
    """R1 requested with mu1 = mu2, where the affine slope c vanishes."""


class CapExceeded(RuntimeError):
    """A finite threshold was not found below its analytic search cap."""

    def __init__(self, index: int, cap: int):
        self.index = index
        self.cap = cap
        super().__init__(
            f"no sign change up to analytic cap {cap} at index {index}; "
            "this indicates a solver bug"
        )


@dataclass(frozen=True)
class HeuristicConstants:
    """Constants of the affine surrogate, all derived from one instance.

    y and R2 are indexed by k = 1..C1; z by l = 0..C2-1.  r1 is None when
    mu1 = mu2 (slope c vanishes); use the R1 property for checked access.
    """

    m: float
    b: float
    c: float
    b_prime: float
    c_prime: float
    y: Mapping[int, float]
    z: Mapping[int, float]
    r1: float | None
    r2: Mapping[int, float]

    @property
    def R1(self) -> float:
        if self.r1 is None:
            raise DegenerateSlope("R1 undefined: mu1 = mu2 makes c = 0")
        return self.r1


def constants(params: SystemParams) -> HeuristicConstants:
    m = params.m
    b = params.h1 / params.mu1 - params.h2 / params.mu2
    c = (params.h0 / params.C1) * (1.0 / params.mu1 - 1.0 / params.mu2)
    b_prime = (params.h1 - params.h2) / params.mu1 - params.C1 * params.h2 / (params.C2 * params.mu2)
    c_prime = -params.h0 / (params.C2 * params.mu2)
    y = {k: (k - 1) + min(params.C1 - k, params.C2) * m for k in range(1, params.C1 + 1)}
    z = {l: (params.C1 - l - 1) / m + l for l in range(0, min(params.C2, params.C1))}
    r1 = None if band_sign(params.mu1 - params.mu2) == 0 else -b / c
    r2 = {k: -b_prime / c_prime + y[k] for k in range(1, params.C1 + 1)}
    return HeuristicConstants(m, b, c, b_prime, c_prime, y, z, r1, r2)


def probs(params: SystemParams, k: int) -> tuple[float, float, float]:
    """Transition weights (p_k, q_k, r_k) of the difference recursion.

    Defined for k = 1..C1 on the fully-busy manifold l = C1 - k; the three
    weights sum to one.
    """
    if not 1 <= k <= params.C1:
        raise ValueError(f"k must be in 1..{params.C1}, got {k}")
    l = params.C1 - k
    d_up = service_rate(params, k, l)
    d_down = service_rate(params, k - 1, l + 1)
    top = params.C1 if l < params.C2 else params.C2
    p = top * params.mu1 * params.mu2 / (d_up * d_down)
    q = (k - 1) * params.mu1 / d_down
    r = min(l, params.C2) * params.mu2 / d_up
    return p, q, r


def affine_pieces(params: SystemParams, k: int) -> tuple[float, float]:
    """(c_k, b_k): slope/intercept pieces used by the difference recursion."""
    cst = constants(params)
    if params.C1 - k < params.C2:
        return cst.c, cst.b
    return cst.c_prime, cst.b_prime


def surrogate(params: SystemParams, i: int, k: int) -> float:
    """Affine surrogate H(i, k, l) of the difference, l = C1 - k."""
    l = params.C1 - k
    cst = constants(params)
    if l >= params.C2:
        if blocked_cost_gap_sign(params, l) <= 0:
            return -1.0
        return (i - cst.y[k]) * cst.c_prime + cst.b_prime
    return i * cst.c + cst.b


def _snap(r: float) -> float:
    n = round(r)
    if abs(r - n) <= INT_SNAP * max(1.0, abs(r)):
        return float(n)
    return r


def first_int_after_root(r: float) -> int:
    """Smallest integer i with i > r, snapping near-integer roots first."""
    return int(math.floor(_snap(r))) + 1


def first_int_at_root(r: float) -> int:
    """Smallest integer i with i >= r, snapping near-integer roots first."""
    return int(math.ceil(_snap(r)))


class Orientation(Enum):
    # Lowcost regime: collaborate below the threshold, indexed by k.
    COLLABORATIVE = "collaborative"
    # Highcost regime: serve independently below the threshold, indexed by l.
    INDEPENDENT = "independent"


class ProfileKind(Enum):
    ACTUAL = "actual"
    HEURISTIC = "heuristic"


class Classification(Enum):
    FINITE_EXPECTED = "finite_expected"
    PROVABLY_INFINITE = "provably_infinite"
    ALWAYS_ZERO = "always_zero"


def orientation_for(params: SystemParams, equal_cost_as: str = "lowcost") -> Orientation:
    """Threshold orientation implied by the cost ordering.

    Cost-order ties are routed by equal_cost_as, default the lowcost
    (collaborative) branch whose structural results hold weakly.
    """
    gap = cost_gap_sign(params)
    if gap > 0:
        return Orientation.COLLABORATIVE
    if gap < 0:
        return Orientation.INDEPENDENT
    if equal_cost_as not in ("lowcost", "highcost"):
        raise ValueError(f"equal_cost_as must be 'lowcost' or 'highcost', got {equal_cost_as!r}")
    return Orientation.COLLABORATIVE if equal_cost_as == "lowcost" else Orientation.INDEPENDENT


def classify(
    params: SystemParams, index: int, *, equal_cost_as: str = "lowcost"
) -> Classification:
    """Finite-threshold expectation for one index of the active orientation.

    Collaborative orientation: index is k; the threshold is provably
    infinite when mu1 <= mu2 with no Station 2 queue, and identically zero
    when the blocked cost comparison already favors independent service.
    Independent orientation: index is l; finite only when mu1 < mu2 with no
    Station 2 queue.
    """
    orient = orientation_for(params, equal_cost_as)
    rate = band_sign(params.mu1 - params.mu2)
    if orient is Orientation.COLLABORATIVE:
        k = index
        if not 1 <= k <= params.C1:
            raise ValueError(f"k must be in 1..{params.C1}, got {k}")
        l = params.C1 - k
        if l < params.C2:
            return Classification.PROVABLY_INFINITE if rate <= 0 else Classification.FINITE_EXPECTED
        if blocked_cost_gap_sign(params, l) <= 0:
            return Classification.ALWAYS_ZERO
        return Classification.FINITE_EXPECTED
    l = index
    if not 0 <= l <= params.C1 - 1:
        raise ValueError(f"l must be in 0..{params.C1 - 1}, got {l}")
    if l < params.C2 and rate < 0:
        return Classification.FINITE_EXPECTED
    return Classification.PROVABLY_INFINITE


@dataclass(frozen=True)
class ThresholdProfile:
    """Per-index integer thresholds, finite or math.inf."""

    orientation: Orientation
    kind: ProfileKind
    entries: Mapping[int, float]
    i_max_used: int | None = None

    def __getitem__(self, index: int) -> float:
        return self.entries[index]

    def indices(self) -> list[int]:
        return sorted(self.entries)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,kind,orientation,threshold\n")
            for index in self.indices():
                fh.write(
                    f"{index},{self.kind.value},{self.orientation.value},"
                    f"{format_threshold(self.entries[index])}\n"
                )

    def to_json_dict(self) -> dict:
        return {
            "orientation": self.orientation.value,
            "kind": self.kind.value,
            "entries": {str(i): format_threshold_json(v) for i, v in sorted(self.entries.items())},
            "i_max_used": self.i_max_used,
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


def format_threshold(value: float) -> str:
    return "inf" if math.isinf(value) else str(int(value))


def format_threshold_json(value: float):
    return "inf" if math.isinf(value) else int(value)


def heuristic_profile(
    params: SystemParams, *, equal_cost_as: str = "lowcost"
) -> ThresholdProfile:
    """Closed-form thresholds of the affine surrogate.

    Collaborative orientation (index k = 1..C1):
      * Station 2 queueing (l >= C2): 0 when the blocked comparison favors
        independent service, else the first integer past R2(k), clamped at 0.
      * No Station 2 queue: first integer past R1 when mu1 > mu2, else
        infinite.
    Independent orientation (index l = 0..C1-1): first integer at or past R1
    when l < C2 and mu1 < mu2, else infinite.
    """
    cst = constants(params)
    orient = orientation_for(params, equal_cost_as)
    rate = band_sign(params.mu1 - params.mu2)
    entries: dict[int, float] = {}
    if orient is Orientation.COLLABORATIVE:
        for k in range(1, params.C1 + 1):
            l = params.C1 - k
            if l >= params.C2:
                if blocked_cost_gap_sign(params, l) <= 0:
                    entries[k] = 0
                else:
                    entries[k] = max(first_int_after_root(cst.r2[k]), 0)
            elif rate > 0:
                entries[k] = first_int_after_root(cst.R1)
            else:
                entries[k] = INF
    else:
        for l in range(0, params.C1):
            if l < params.C2 and rate < 0:
                entries[l] = first_int_at_root(cst.R1)
            else:
                entries[l] = INF
    return ThresholdProfile(orient, ProfileKind.HEURISTIC, entries)


def search_cap(params: SystemParams, index: int, *, equal_cost_as: str = "lowcost") -> int:
    """Analytic upper bound on the first sign change at a finite index.

    Maximum of the applicable linear crossing bounds (sandwich around the
    surrogate threshold plus the explicit appendix bounds), padded by C1.
    """
    return _search_cap(params, index, heuristic_profile(params, equal_cost_as=equal_cost_as))


def search_caps(params: SystemParams, *, equal_cost_as: str = "lowcost") -> dict[int, int]:
    """search_cap at every finite-expected index, on one heuristic profile."""
    indices = _indices(orientation_for(params, equal_cost_as), params)
    finite = [
        idx for idx in indices
        if classify(params, idx, equal_cost_as=equal_cost_as) is Classification.FINITE_EXPECTED
    ]
    if not finite:
        return {}
    heur = heuristic_profile(params, equal_cost_as=equal_cost_as)
    return {idx: _search_cap(params, idx, heur) for idx in finite}


def _indices(orient: Orientation, params: SystemParams) -> range:
    """Threshold indices of an orientation: k = 1..C1, or l = 0..C1-1."""
    if orient is Orientation.COLLABORATIVE:
        return range(1, params.C1 + 1)
    return range(0, params.C1)


def _search_cap(params: SystemParams, index: int, heur: ThresholdProfile) -> int:
    orient = heur.orientation
    rate = band_sign(params.mu1 - params.mu2)
    bounds: list[float] = []
    if orient is Orientation.COLLABORATIVE:
        k = index
        l = params.C1 - k
        if l < params.C2 and rate > 0 and not math.isinf(heur[k]):
            bounds.append(heur[k] + params.C1)
        d_prod = service_rate(params, k, l) * service_rate(params, k - 1, l + 1)
        c2_bound = params.h1 / params.mu1 - (max(l + 1, params.C2) / params.C2) * (
            params.h2 / params.mu2
        )
        if rate >= 0:
            # mu1 >= mu2: crossing bound from the monotone-decrease argument.
            c1_coef = (params.mu1 - (params.mu2 if l < params.C2 else 0.0)) * params.h0 / d_prod
            if c1_coef > 0:
                bounds.append(math.ceil(c2_bound / c1_coef) + 1)
        if rate <= 0 and l >= params.C2:
            c3_coef = params.mu1 * params.h0 / d_prod
            bounds.append(math.ceil(c2_bound / c3_coef) + 1)
    else:
        l = index
        k = params.C1 - l
        if l < params.C2 and rate < 0:
            if not math.isinf(heur[l]):
                bounds.append(heur[l] + params.C1)
            d_prod = service_rate(params, k, l) * service_rate(params, k - 1, l + 1)
            c5_coef = (params.mu2 - params.mu1) * params.h0 / d_prod
            c6_bound = -(params.h1 / params.mu1 - params.h2 / params.mu2)
            bounds.append(math.ceil(c6_bound / c5_coef) + 1)
    if not bounds:
        raise ValueError(f"no finite-threshold bound applies at index {index}")
    return int(max(bounds)) + params.C1


def required_depth(params: SystemParams, *, equal_cost_as: str = "lowcost") -> int:
    """Queue depth sufficient to extract every finite actual threshold."""
    return max(search_caps(params, equal_cost_as=equal_cost_as).values(), default=0)


def actual_profile(
    params: SystemParams,
    diff_table,
    *,
    equal_cost_as: str = "lowcost",
    caps: Mapping[int, int] | None = None,
) -> ThresholdProfile:
    """First sign change of the solved difference, per index.

    Indices classified provably infinite are emitted as inf without search;
    always-zero indices as 0.  A finite-expected index whose sign change is
    missing below the analytic cap raises CapExceeded (bug trap); a diff
    table shallower than the cap is a precondition error.  ``caps`` is
    ``search_caps(params)``, computed here when not given.
    """
    orient = orientation_for(params, equal_cost_as)
    if caps is None:
        caps = search_caps(params, equal_cost_as=equal_cost_as)
    entries: dict[int, float] = {}
    for index in _indices(orient, params):
        cls = classify(params, index, equal_cost_as=equal_cost_as)
        if cls is Classification.PROVABLY_INFINITE:
            entries[index] = INF
            continue
        if cls is Classification.ALWAYS_ZERO:
            entries[index] = 0
            continue
        cap = caps[index]
        if diff_table.i_max < cap:
            raise ValueError(
                f"diff table depth {diff_table.i_max} is below the search cap {cap} "
                f"required at index {index}"
            )
        k = index if orient is Orientation.COLLABORATIVE else params.C1 - index
        signs = band_signs(diff_table.levels[: cap + 1, k])
        hits = signs < 0 if orient is Orientation.COLLABORATIVE else signs >= 0
        if not hits.any():
            raise CapExceeded(index, cap)
        entries[index] = int(hits.argmax())
    return ThresholdProfile(orient, ProfileKind.ACTUAL, entries, i_max_used=diff_table.i_max)


def compute_actual_profile(
    params: SystemParams, *, equal_cost_as: str = "lowcost"
) -> ThresholdProfile:
    """Solve to the required depth and extract the actual profile."""
    from .solver import diff, solve_optimal  # deferred: solver imports this module

    caps = search_caps(params, equal_cost_as=equal_cost_as)
    table = solve_optimal(params, max(caps.values(), default=0))
    return actual_profile(params, diff(table), equal_cost_as=equal_cost_as, caps=caps)


class Condition1Verdict(Enum):
    HOLDS_QUEUE_SIDE = "holds_queue_side"
    HOLDS_COLLAB_SIDE = "holds_collab_side"
    FAILS = "fails"
    NOT_APPLICABLE = "not_applicable"


def condition1(
    params: SystemParams, k: int, *, equal_cost_as: str = "lowcost"
) -> Condition1Verdict:
    """Sufficient condition for the surrogate threshold to be exact.

    Applicable in the collaborative orientation at indices with a Station 2
    queue (l = C1 - k >= C2) and a strict blocked cost gap; the inequality
    checked depends on the sign of h0 - h2, and h0 = h2 needs no condition.
    """
    orient = orientation_for(params, equal_cost_as)
    if orient is not Orientation.COLLABORATIVE:
        return Condition1Verdict.NOT_APPLICABLE
    l = params.C1 - k
    if l < params.C2 or blocked_cost_gap_sign(params, l) <= 0:
        return Condition1Verdict.NOT_APPLICABLE
    h_gap = band_sign(params.h0 - params.h2)
    if h_gap == 0:
        return Condition1Verdict.NOT_APPLICABLE
    cst = constants(params)
    i_h = heuristic_profile(params, equal_cost_as=equal_cost_as)[k]
    r = params.C2 * cst.m / (1.0 + params.C2 * cst.m)
    decay = cst.y[k] * r ** (i_h - k)
    # Band-equality of either inequality is reported as a failure: at the
    # boundary the exactness guarantee is tight and does not survive the
    # collaborative-side tie rule.
    if h_gap > 0:
        rhs = params.h0 / (params.h0 - params.h2) * (cst.r2[k] - (i_h - 1))
        if band_sign(rhs - decay) > 0:
            return Condition1Verdict.HOLDS_QUEUE_SIDE
        return Condition1Verdict.FAILS
    p, q, rr = probs(params, k)
    lhs = rr / (1.0 - q) * decay
    rhs = params.h0 / (params.h2 - params.h0) * (i_h - cst.r2[k])
    if band_sign(rhs - lhs) > 0:
        return Condition1Verdict.HOLDS_COLLAB_SIDE
    return Condition1Verdict.FAILS
