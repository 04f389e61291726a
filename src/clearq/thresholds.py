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

Which orientation applies, each index's D column and classification, and
the h0-free terms of everything else here are derived by ``threshold_spec``
once per ``params.without_h0``; each function adds only the h0 terms.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .model import (
    PARAMS_CACHE_SIZE,
    WITHOUT_H0_CACHE_SIZE,
    ZERO_BAND,
    SystemParams,
    WithoutH0,
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
    """The surrogate's constants, once per parameter set; only c, c', R1 and R2 read h0."""
    t = threshold_spec(params).h0_free
    c = (params.h0 / params.C1) * t.rate_gap
    c_prime = -params.h0 / t.c2_mu2
    r1 = None if t.rate == 0 else -t.b / c
    r2 = MappingProxyType({k: -t.b_prime / c_prime + y for k, y in t.y.items()})
    return HeuristicConstants(t.m, t.b, c, t.b_prime, c_prime, t.y, r1, r2)


def probs(params: SystemParams, k: int) -> tuple[float, float, float]:
    """Transition weights (p_k, q_k, r_k) of the difference recursion.

    Defined for k = 1..C1 on the fully-busy manifold l = C1 - k; the three
    weights sum to one.  They never read h0: threshold_spec's record holds them.
    """
    if not 1 <= k <= params.C1:
        raise ValueError(f"k must be in 1..{params.C1}, got {k}")
    return threshold_spec(params).h0_free.weights[k - 1][:3]


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


@dataclass(frozen=True, eq=False)
class H0FreeTerms:
    """What the surrogate, caps, profiles and recursion weights derive without h0; read-only."""

    m: float
    b: float
    b_prime: float
    y: Mapping[int, float]
    rate: int  # band sign of mu1 - mu2
    rate_gap: float  # 1/mu1 - 1/mu2, so c = (h0/C1) * rate_gap
    c2_mu2: float  # C2 * mu2, so c' = -h0 / c2_mu2
    finite: tuple[IndexSpec, ...]  # the finite-expected indices
    skeleton: Mapping[int, float | None]  # fixed threshold by index, None where finite
    # By finite-expected index: d_prod = service_rate(k, l) * service_rate(k - 1, l + 1),
    # whether the sandwich applies (l < C2), and (numerator, rate factor, whether a
    # non-positive coefficient drops it) of each linear bound, in the order taken.
    caps: Mapping[int, tuple[float, bool, tuple[tuple[float, float, bool], ...]]]
    weights: tuple[tuple[float, float, float, float], ...]  # (p_k, q_k, r_k, b_k) by k - 1


@dataclass(frozen=True)
class ThresholdSpec:
    """A parameter set's threshold orientation and its indices, in index order.

    Collaborative orientation: index k = 1..C1, read off D column k.
    Independent orientation: index l = 0..C1-1, read off D column C1 - l.
    """

    orientation: Orientation
    indices: tuple[IndexSpec, ...]
    h0_free: H0FreeTerms = field(compare=False, repr=False)

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


def threshold_spec(params: SystemParams) -> ThresholdSpec:
    """Orientation and per-index facts, decided once per ``params.without_h0``.

    The cost ordering picks the orientation; a cost-order tie takes the
    collaborative one, whose structural results hold weakly.  Collaborative
    orientation: the threshold is provably infinite when mu1 <= mu2 with no
    Station 2 queue (l < C2), and identically zero when the blocked cost
    comparison already favors independent service.  Independent orientation:
    finite only when mu1 < mu2 with no Station 2 queue.  None of it reads
    h0, so the parameter sets that differ only in h0 share one spec.
    """
    return _threshold_spec(params.without_h0)


@functools.lru_cache(maxsize=WITHOUT_H0_CACHE_SIZE)
def _threshold_spec(params: WithoutH0) -> ThresholdSpec:
    finite, infinite = Classification.FINITE_EXPECTED, Classification.PROVABLY_INFINITE
    c1, c2, mu1, mu2, h1, h2 = params
    rate = band_sign(mu1 - mu2)
    if cost_gap_sign(params) < 0:
        orientation = Orientation.INDEPENDENT
        indices = tuple(
            IndexSpec(l, c1 - l, l, finite if l < c2 and rate < 0 else infinite)
            for l in range(c1)
        )
    else:
        orientation = Orientation.COLLABORATIVE
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
        indices = tuple(collaborative)
    # The h0-free terms, in the float expressions of the per-point formulas, so no bit moves.
    m = mu2 / mu1
    b = h1 / mu1 - h2 / mu2
    b_prime = (h1 - h2) / mu1 - c1 * h2 / (c2 * mu2)
    y, weights, d_prods = {}, [], []
    for k in range(1, c1 + 1):
        l = c1 - k
        d_up, d_down = service_rate(params, k, l), service_rate(params, k - 1, l + 1)
        y[k] = (k - 1) + min(l, c2) * m
        d_prods.append(d_up * d_down)
        weights.append(((c1 if l < c2 else c2) * mu1 * mu2 / (d_up * d_down),
                        (k - 1) * mu1 / d_down, min(l, c2) * mu2 / d_up,
                        b if l < c2 else b_prime))
    finite_indices = tuple(s for s in indices if s.classification is finite)
    caps = {}
    for index, k, l, _ in finite_indices:
        if orientation is Orientation.INDEPENDENT:
            bounds = [(-b, mu2 - mu1, False)]  # c6_bound over the c5 coefficient
        else:
            c2_bound = boundary_diff_formula(params, k, l)
            bounds = []
            if rate >= 0:
                # mu1 >= mu2: the monotone-decrease bound, c2_bound over the c1 coefficient.
                bounds.append((c2_bound, mu1 - (mu2 if l < c2 else 0.0), True))
            if rate <= 0 and l >= c2:
                bounds.append((c2_bound, mu1, False))  # c2_bound over the c3 coefficient
        caps[index] = (d_prods[k - 1], l < c2, tuple(bounds))
    terms = H0FreeTerms(
        m, b, b_prime, MappingProxyType(y), rate, 1.0 / mu1 - 1.0 / mu2, c2 * mu2, finite_indices,
        MappingProxyType({s.index: FIXED_THRESHOLDS.get(s.classification) for s in indices}),
        MappingProxyType(caps), tuple(weights),
    )
    return ThresholdSpec(orientation, indices, terms)


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
    finite: Callable[[IndexSpec], int] | None,
    i_max_used: int | None = None,
) -> ThresholdProfile:
    """Profile with the fixed thresholds, and finite(s) at finite-expected indices, if any."""
    entries = dict(spec.h0_free.skeleton)
    for s in spec.h0_free.finite:
        entries[s.index] = finite(s)
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
    by C1.  Built once per parameter set from the h0-free pieces of
    ``threshold_spec``; the mapping is read-only.
    """
    spec, heur = threshold_spec(params), heuristic_profile(params)
    return MappingProxyType(
        {s.index: _search_cap(params, spec, s, heur[s.index]) for s in spec.h0_free.finite})


def _search_cap(params: SystemParams, spec: ThresholdSpec, s: IndexSpec, heur: float) -> int:
    # An index that needs no search has no pieces.
    d_prod, sandwich, linear = spec.h0_free.caps.get(s.index, (None, False, ()))
    bounds: list[float] = [heur + params.C1] if sandwich and not math.isinf(heur) else []
    for numerator, factor, positive_only in linear:
        coef = factor * params.h0 / d_prod
        if coef > 0 or not positive_only:
            bounds.append(math.ceil(numerator / coef) + 1)
    if not bounds:
        raise ValueError(f"no finite-threshold bound applies at index {s.index}")
    return int(max(bounds)) + params.C1


def required_depth(params: SystemParams) -> int:
    """Queue depth sufficient to extract every finite actual threshold."""
    return max(search_caps(params).values(), default=0)


def _first_sign_changes(params: SystemParams, depth: int, d_column) -> ThresholdProfile:
    """First sign change of a depth-deep solve's difference, per index.

    d_column(k, n) gives D(0..n, k, C1 - k).  Indices classified provably
    infinite are emitted as inf without search; always-zero indices as 0.  A
    finite-expected index whose sign change is missing below the analytic cap
    raises CapExceeded, a NaN at or before it NaNInDiff (bug traps); a depth
    below the cap is a precondition error.
    """
    spec = threshold_spec(params)
    caps = search_caps(params)

    def first_sign_change(s: IndexSpec) -> int:
        cap = caps[s.index]
        if depth < cap:
            raise ValueError(f"diff table depth {depth} is below the search cap {cap} "
                             f"required at index {s.index}")
        column = d_column(s.k, cap)
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

    return _profile(spec, ProfileKind.ACTUAL, first_sign_change, depth)


def actual_profile(params: SystemParams, diff_table) -> ThresholdProfile:
    """First sign change of the solved difference table, per index (see _first_sign_changes)."""
    return _first_sign_changes(params, diff_table.i_max, lambda k, n: diff_table.levels[:n + 1, k])


def compute_actual_profile(params: SystemParams) -> ThresholdProfile:
    """Solve to the required depth and extract the actual profile.

    Each D column is read off the solved values up to its cap, as value column
    k minus column k - 1: diff's subtraction, bit for bit, with no difference
    table built.  A point with no finite-expected index is not solved; its
    profile holds the fixed thresholds with i_max_used 0.
    """
    from .solver import solve_optimal  # deferred: solver imports this module

    if not search_caps(params):
        return _profile(threshold_spec(params), ProfileKind.ACTUAL, None, 0)
    depth = required_depth(params)
    v = solve_optimal(params, depth).levels
    return _first_sign_changes(params, depth, lambda k, n: v[:n + 1, k] - v[:n + 1, k - 1])


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
    _, q, rr, _ = spec.h0_free.weights[k - 1]
    lhs = rr / (1.0 - q) * decay
    rhs = params.h0 / (params.h2 - params.h0) * (i_h - cst.r2[k])
    if band_sign(rhs - lhs) > 0:
        return Condition1Verdict.HOLDS_COLLAB_SIDE
    return Condition1Verdict.FAILS
