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

Which orientation applies, and each index's D column and classification,
are decided once per parameter set by ``threshold_spec``; every function
here reads them from its result.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .model import (
    PARAMS_CACHE_SIZE,
    ZERO_BAND,
    SystemParams,
    band_sign,
    blocked_cost_gap_sign,
    cost_gap_sign,
    service_rate,
    snaps_to_integer,
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


class NaNInDiff(RuntimeError):
    """The difference is NaN at or before a finite threshold's sign change."""


@dataclass(frozen=True)
class HeuristicConstants:
    """Constants of the affine surrogate, all derived from one instance.

    y and R2 are read-only mappings indexed by k = 1..C1.  r1 is None when
    mu1 = mu2 (slope c vanishes); use the R1 property for checked access.
    """

    m: float
    b: float
    c: float
    b_prime: float
    c_prime: float
    y: Mapping[int, float]
    r1: float | None
    r2: Mapping[int, float]

    @property
    def R1(self) -> float:
        if self.r1 is None:
            raise DegenerateSlope("R1 undefined: mu1 = mu2 makes c = 0")
        return self.r1


@functools.lru_cache(maxsize=PARAMS_CACHE_SIZE)
def constants(params: SystemParams) -> HeuristicConstants:
    """The surrogate's constants, computed once per parameter set and shared."""
    m = params.m
    b = params.h1 / params.mu1 - params.h2 / params.mu2
    c = (params.h0 / params.C1) * (1.0 / params.mu1 - 1.0 / params.mu2)
    b_prime = (params.h1 - params.h2) / params.mu1 - params.C1 * params.h2 / (params.C2 * params.mu2)
    c_prime = -params.h0 / (params.C2 * params.mu2)
    ks = range(1, params.C1 + 1)
    y = MappingProxyType({k: (k - 1) + min(params.C1 - k, params.C2) * m for k in ks})
    r1 = None if band_sign(params.mu1 - params.mu2) == 0 else -b / c
    r2 = MappingProxyType({k: -b_prime / c_prime + y[k] for k in ks})
    return HeuristicConstants(m, b, c, b_prime, c_prime, y, r1, r2)


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


def boundary_diff_formula(params: SystemParams, k: int, l: int) -> float:
    """Closed form for D(0, k, l): h1/mu1 - max(l+1, C2)/C2 * h2/mu2."""
    return params.h1 / params.mu1 - (max(l + 1, params.C2) / params.C2) * (
        params.h2 / params.mu2
    )


def _snap(r: float) -> float:
    return float(round(r)) if snaps_to_integer(r) else r


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


class IndexSpec(NamedTuple):
    """One threshold index: the D column k it is read off, l = C1 - k, its class."""

    index: int
    k: int
    l: int
    classification: Classification


@dataclass(frozen=True)
class ThresholdSpec:
    """A parameter set's threshold orientation and its indices, in index order.

    Collaborative orientation: index k = 1..C1, read off D column k.
    Independent orientation: index l = 0..C1-1, read off D column C1 - l.
    """

    orientation: Orientation
    indices: tuple[IndexSpec, ...]

    @property
    def independent(self) -> bool:
        return self.orientation is Orientation.INDEPENDENT

    def __iter__(self):
        return iter(self.indices)

    def __getitem__(self, index: int) -> IndexSpec:
        first, last = self.indices[0].index, self.indices[-1].index
        if not first <= index <= last:
            name = "l" if self.independent else "k"
            raise ValueError(f"{name} must be in {first}..{last}, got {index}")
        return self.indices[index - first]


@functools.lru_cache(maxsize=PARAMS_CACHE_SIZE)
def threshold_spec(params: SystemParams) -> ThresholdSpec:
    """Orientation and per-index facts, decided once per parameter set.

    The cost ordering picks the orientation; a cost-order tie takes the
    collaborative one, whose structural results hold weakly.  Collaborative
    orientation: the threshold is provably infinite when mu1 <= mu2 with no
    Station 2 queue (l < C2), and identically zero when the blocked cost
    comparison already favors independent service.  Independent orientation:
    finite only when mu1 < mu2 with no Station 2 queue.  The last few specs
    are cached: every threshold function of one point asks for its spec.
    """
    finite, infinite = Classification.FINITE_EXPECTED, Classification.PROVABLY_INFINITE
    c1, c2 = params.C1, params.C2
    rate = band_sign(params.mu1 - params.mu2)
    if cost_gap_sign(params) < 0:
        indices = tuple(
            IndexSpec(l, c1 - l, l, finite if l < c2 and rate < 0 else infinite)
            for l in range(c1)
        )
        return ThresholdSpec(Orientation.INDEPENDENT, indices)
    collaborative = []
    for k in range(1, c1 + 1):
        l = c1 - k
        if l < c2:
            classification = finite if rate > 0 else infinite
        elif blocked_cost_gap_sign(params, l) <= 0:
            classification = Classification.ALWAYS_ZERO
        else:
            classification = finite
        collaborative.append(IndexSpec(k, k, l, classification))
    return ThresholdSpec(Orientation.COLLABORATIVE, tuple(collaborative))


def classify(params: SystemParams, index: int) -> Classification:
    """Finite-threshold expectation for one index of the active orientation."""
    return threshold_spec(params)[index].classification


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


# Thresholds that the classification alone fixes.
FIXED_THRESHOLDS = {Classification.PROVABLY_INFINITE: INF, Classification.ALWAYS_ZERO: 0}


def _profile(
    spec: ThresholdSpec,
    kind: ProfileKind,
    finite: Callable[[IndexSpec], int],
    i_max_used: int | None = None,
) -> ThresholdProfile:
    """Profile with the fixed thresholds, and finite(s) at finite-expected indices."""
    entries: dict[int, float] = {}
    for s in spec:
        fixed = FIXED_THRESHOLDS.get(s.classification)
        entries[s.index] = finite(s) if fixed is None else fixed
    return ThresholdProfile(spec.orientation, kind, MappingProxyType(entries), i_max_used)


@functools.lru_cache(maxsize=PARAMS_CACHE_SIZE)
def heuristic_profile(params: SystemParams) -> ThresholdProfile:
    """Closed-form thresholds of the affine surrogate, built once per parameter set.

    Provably infinite indices are inf and always-zero ones 0.  At a
    finite-expected index the threshold is, in the collaborative orientation,
    the first integer past R2(k), clamped at 0, with a Station 2 queue
    (l >= C2), else the first integer past R1; in the independent orientation
    it is the first integer at or past R1.
    """
    spec = threshold_spec(params)
    cst = constants(params)

    def finite(s: IndexSpec) -> int:
        if spec.independent:
            return first_int_at_root(cst.R1)
        if s.l >= params.C2:
            return max(first_int_after_root(cst.r2[s.k]), 0)
        return first_int_after_root(cst.R1)

    return _profile(spec, ProfileKind.HEURISTIC, finite)


@functools.lru_cache(maxsize=PARAMS_CACHE_SIZE)
def search_caps(params: SystemParams) -> Mapping[int, int]:
    """Analytic upper bound on the first sign change at every finite-expected index.

    Each is the maximum of the applicable linear crossing bounds (sandwich
    around the surrogate threshold plus the explicit appendix bounds), padded
    by C1.  Built once per parameter set; the mapping is read-only.
    """
    spec, heur = threshold_spec(params), heuristic_profile(params)
    finite = [s for s in spec if s.classification is Classification.FINITE_EXPECTED]
    return MappingProxyType({s.index: _search_cap(params, spec, s, heur[s.index]) for s in finite})


def _search_cap(params: SystemParams, spec: ThresholdSpec, s: IndexSpec, heur: float) -> int:
    rate = band_sign(params.mu1 - params.mu2)
    k, l = s.k, s.l
    bounds: list[float] = []
    if l < params.C2 and not math.isinf(heur):
        bounds.append(heur + params.C1)
    d_prod = service_rate(params, k, l) * service_rate(params, k - 1, l + 1)
    if spec.independent:
        c5_coef = (params.mu2 - params.mu1) * params.h0 / d_prod
        c6_bound = -(params.h1 / params.mu1 - params.h2 / params.mu2)
        bounds.append(math.ceil(c6_bound / c5_coef) + 1)
    else:
        c2_bound = boundary_diff_formula(params, k, l)
        if rate >= 0:
            # mu1 >= mu2: crossing bound from the monotone-decrease argument.
            c1_coef = (params.mu1 - (params.mu2 if l < params.C2 else 0.0)) * params.h0 / d_prod
            if c1_coef > 0:
                bounds.append(math.ceil(c2_bound / c1_coef) + 1)
        if rate <= 0 and l >= params.C2:
            c3_coef = params.mu1 * params.h0 / d_prod
            bounds.append(math.ceil(c2_bound / c3_coef) + 1)
    if not bounds:
        raise ValueError(f"no finite-threshold bound applies at index {s.index}")
    return int(max(bounds)) + params.C1


def required_depth(params: SystemParams) -> int:
    """Queue depth sufficient to extract every finite actual threshold."""
    return max(search_caps(params).values(), default=0)


def actual_profile(params: SystemParams, diff_table) -> ThresholdProfile:
    """First sign change of the solved difference, per index.

    Indices classified provably infinite are emitted as inf without search;
    always-zero indices as 0.  A finite-expected index whose sign change is
    missing below the analytic cap raises CapExceeded, a NaN at or before it
    NaNInDiff (bug traps); a diff table shallower than the cap is a precondition error.
    """
    spec = threshold_spec(params)
    caps = search_caps(params)

    def first_sign_change(s: IndexSpec) -> int:
        cap = caps[s.index]
        if diff_table.i_max < cap:
            raise ValueError(
                f"diff table depth {diff_table.i_max} is below the search cap {cap} "
                f"required at index {s.index}"
            )
        column = diff_table.levels[: cap + 1, s.k]
        tol = ZERO_BAND * (1.0 + abs(column))
        # The collaborative threshold is the first D < 0, the independent the first D >= 0,
        # by band_sign.  Each test is a negated comparison, so a NaN passes it and is found.
        hits = ~(column < -tol) if spec.independent else ~(column >= -tol)
        found = int(hits.argmax())
        if not hits[found]:
            raise CapExceeded(s.index, cap)
        if math.isnan(column[found]):
            raise NaNInDiff(f"D({found},{s.k},{s.l}) is NaN at or before the sign change at "
                            f"index {s.index}; this indicates a solver bug")
        return found

    return _profile(spec, ProfileKind.ACTUAL, first_sign_change, diff_table.i_max)


def compute_actual_profile(params: SystemParams) -> ThresholdProfile:
    """Solve to the required depth and extract the actual profile."""
    from .solver import diff, solve_optimal  # deferred: solver imports this module

    return actual_profile(params, diff(solve_optimal(params, required_depth(params))))


class Condition1Verdict(Enum):
    HOLDS_QUEUE_SIDE = "holds_queue_side"
    HOLDS_COLLAB_SIDE = "holds_collab_side"
    FAILS = "fails"
    NOT_APPLICABLE = "not_applicable"


def condition1(params: SystemParams, k: int) -> Condition1Verdict:
    """Sufficient condition for the surrogate threshold to be exact.

    Applicable in the collaborative orientation at indices with a Station 2
    queue (l = C1 - k >= C2) and a strict blocked cost gap; the inequality
    checked depends on the sign of h0 - h2, and h0 = h2 needs no condition.
    """
    spec = threshold_spec(params)
    if spec.independent:
        return Condition1Verdict.NOT_APPLICABLE
    s = spec[k]
    if s.l < params.C2 or s.classification is Classification.ALWAYS_ZERO:
        return Condition1Verdict.NOT_APPLICABLE
    h_gap = band_sign(params.h0 - params.h2)
    if h_gap == 0:
        return Condition1Verdict.NOT_APPLICABLE
    cst = constants(params)
    i_h = heuristic_profile(params)[k]
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
