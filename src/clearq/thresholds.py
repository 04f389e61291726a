"""Closed-form threshold machinery and extraction of actual thresholds.

The optimal assignment rule switches between independent and collaborative
service at an index-dependent queue length.  This module computes the affine
surrogate H of the value difference D, its closed-form crossing points and
supporting constants, the actual crossing points read off an optimal value
table, and the residuals of D's one-step recursion.

Tie rule: a surrogate or difference value inside the numerical zero band
counts as *collaborative-side*.  Concretely the collaborative-orientation
threshold is the first index where the quantity is strictly negative, while
the independent-orientation threshold is the first index where it is zero or
positive.  The golden values in the acceptance suite pin this direction at
exactly-integer crossing roots; see the README for the full convention.

Which orientation applies, each index's D column and classification, and
the h0-free terms of everything else here are one ``ThresholdSpec`` record
per ``params.without_h0``.  The h0 terms (the constants, the heuristic
profile and the search caps) are one ``H0Terms`` record per parameter set.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .model import (
    PARAMS_CACHE_SIZE,
    WITHOUT_H0_CACHE_SIZE,
    ZERO_BAND,
    State,
    SystemParams,
    WithoutH0,
    band_sign,
    blocked_cost_gap_sign,
    cost_gap_sign,
    finite_term,
    service_rate,
    snaps_to_integer,
)
from .solver import DiffTable, _require_optimal, solve_optimal

INF = math.inf


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
    mu1 = mu2 (slope c vanishes); no finite-expected index reads it then.
    """

    m: float
    b: float
    c: float
    b_prime: float
    c_prime: float
    y: Mapping[int, float]
    r1: float | None
    r2: Mapping[int, float]


def constants(params: SystemParams) -> HeuristicConstants:
    """The surrogate's constants, read off the parameter set's H0Terms record."""
    return _h0_terms(params).constants


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
class ThresholdSpec:
    """A parameter set's threshold orientation, its indices in index order, and what the
    surrogate, caps, profiles and recursion weights derive without h0; read-only.

    Collaborative orientation: index k = 1..C1, read off D column k.
    Independent orientation: index l = 0..C1-1, read off D column C1 - l.
    """

    orientation: Orientation
    indices: tuple[IndexSpec, ...]
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
    # whether the sandwich applies (l < C2), and (numerator, positive rate factor) of
    # each linear bound, in the order taken.
    caps: Mapping[int, tuple[float, bool, tuple[tuple[float, float], ...]]]
    weights: tuple[tuple[float, float, float, float], ...]  # (p_k, q_k, r_k, b_k) by k - 1

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
    m = finite_term("m = mu2/mu1", mu2 / mu1)
    b = finite_term("b", h1 / mu1 - h2 / mu2)
    b_prime = (h1 - h2) / mu1 - c1 * h2 / (c2 * mu2)
    y, weights, d_prods = {}, [], []
    for k in range(1, c1 + 1):
        l = c1 - k
        d_up, d_down = service_rate(params, k, l), service_rate(params, k - 1, l + 1)
        y[k] = finite_term("y", (k - 1) + min(l, c2) * m)
        d_prods.append(finite_term("d_up*d_down", d_up * d_down, divisor=True))
        weights.append(((c1 if l < c2 else c2) * mu1 * mu2 / d_prods[-1],
                        (k - 1) * mu1 / d_down, min(l, c2) * mu2 / d_up,
                        b if l < c2 else b_prime))
    finite_indices = tuple(s for s in indices if s.classification is finite)
    caps = {}
    for index, k, l, _ in finite_indices:
        if orientation is Orientation.INDEPENDENT:
            bounds = [(-b, mu2 - mu1)]  # c6_bound over the c5 coefficient; mu1 < mu2 here
        else:
            c2_bound = boundary_diff_formula(params, k, l)
            bounds = []
            # mu1 >= mu2: the monotone-decrease bound, c2_bound over a positive c1 coefficient.
            factor = mu1 - (mu2 if l < c2 else 0.0)
            if rate >= 0 and factor > 0:
                bounds.append((c2_bound, factor))
            if rate <= 0 and l >= c2:
                bounds.append((c2_bound, mu1))  # c2_bound over the c3 coefficient
        caps[index] = (d_prods[k - 1], l < c2, tuple(bounds))
    return ThresholdSpec(
        orientation, indices, m, b, b_prime, MappingProxyType(y), rate, 1.0 / mu1 - 1.0 / mu2,
        c2 * mu2, finite_indices,
        MappingProxyType({s.index: FIXED_THRESHOLDS.get(s.classification) for s in indices}),
        MappingProxyType(caps), tuple(weights),
    )


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


class H0Terms(NamedTuple):
    """What a parameter set's threshold machinery adds to the h0-free record; read-only."""

    spec: ThresholdSpec
    constants: HeuristicConstants
    heuristic: ThresholdProfile
    caps: Mapping[int, int]  # search cap by finite-expected index, in index order
    depth: int  # the deepest cap, 0 with none


@functools.lru_cache(maxsize=PARAMS_CACHE_SIZE)
def _h0_terms(params: SystemParams) -> H0Terms:
    """The h0 terms, once per parameter set, in one pass over the finite-expected indices.

    Only c, c', R1, R2 and each cap coefficient (factor * h0) / d_prod read h0;
    each keeps the float expression of the per-point formulas, so no bit moves.
    """
    spec = threshold_spec(params)
    c1, h0 = params.C1, params.h0
    c = finite_term("c", (h0 / c1) * spec.rate_gap, divisor=spec.rate != 0)
    c_prime = finite_term("c'", -h0 / spec.c2_mu2, divisor=True)
    r1 = None if spec.rate == 0 else finite_term("R1", -spec.b / c)
    shift = finite_term("-b'/c'", -spec.b_prime / c_prime)  # R2(k) = y(k) - b'/c'
    r2 = MappingProxyType({k: shift + y for k, y in spec.y.items()})
    cst = HeuristicConstants(spec.m, spec.b, c, spec.b_prime, c_prime, spec.y, r1, r2)
    heur, caps = dict(spec.skeleton), {}
    for s in spec.finite:
        d_prod, sandwich, linear = spec.caps[s.index]  # sandwich is l < C2
        if spec.independent:  # the heuristic threshold, as heuristic_profile says
            heur[s.index] = first_int_at_root(r1)
        elif not sandwich:
            heur[s.index] = max(first_int_after_root(r2[s.k]), 0)
        else:
            heur[s.index] = first_int_after_root(r1)
        # The cap, as search_caps says.
        bounds = [heur[s.index] + c1] if sandwich else []
        for numerator, factor in linear:
            coef = finite_term("a cap coefficient", factor * h0 / d_prod, divisor=True)
            bounds.append(math.ceil(finite_term("a cap bound", numerator / coef)) + 1)
        caps[s.index] = int(max(bounds)) + c1
    heuristic = ThresholdProfile(spec.orientation, ProfileKind.HEURISTIC, MappingProxyType(heur))
    return H0Terms(spec, cst, heuristic, MappingProxyType(caps), max(caps.values(), default=0))


def heuristic_profile(params: SystemParams) -> ThresholdProfile:
    """Closed-form thresholds of the affine surrogate, read off the H0Terms record.

    Provably infinite indices are inf and always-zero ones 0.  At a
    finite-expected index the threshold is, in the collaborative orientation,
    the first integer past R2(k), clamped at 0, with a Station 2 queue
    (l >= C2), else the first integer past R1; in the independent orientation
    it is the first integer at or past R1.
    """
    return _h0_terms(params).heuristic


def search_caps(params: SystemParams) -> Mapping[int, int]:
    """Analytic upper bound on the first sign change at every finite-expected index.

    Each is the maximum of the applicable linear crossing bounds (sandwich
    around the surrogate threshold plus the explicit appendix bounds), padded
    by C1.  Read off the H0Terms record; the mapping is read-only.
    """
    return _h0_terms(params).caps


def required_depth(params: SystemParams) -> int:
    """Queue depth sufficient to extract every finite actual threshold."""
    return _h0_terms(params).depth


def actual_profile(params: SystemParams, table) -> ThresholdProfile:
    """First sign change of D, per index, read off an optimal value table.

    Each D column k is value column k minus column k - 1 up to its cap: diff's
    subtraction, bit for bit, with no difference table built.  Indices
    classified provably infinite are emitted as inf without search;
    always-zero indices as 0.  A finite-expected index whose sign change is
    missing below the analytic cap raises CapExceeded, a NaN at or before it
    NaNInDiff (bug traps); a table that is not optimal, or below the cap, is a
    precondition error.
    """
    v, depth = _require_optimal(table).levels, table.i_max
    terms = _h0_terms(params)
    spec = terms.spec
    entries = dict(spec.skeleton)
    for s in spec.finite:
        cap = terms.caps[s.index]
        if depth < cap:
            raise ValueError(f"value table depth {depth} is below the search cap {cap} "
                             f"required at index {s.index}")
        column = v[:cap + 1, s.k] - v[:cap + 1, s.k - 1]
        # -ZERO_BAND * (1 + |D|), the negated zero band.  The collaborative threshold is
        # the first D < 0, the independent the first D >= 0, by band_sign: the first
        # entry where the comparison below fails, so a NaN is found too.
        below = -ZERO_BAND * (1.0 + abs(column))
        before = column < below if spec.independent else column >= below
        found = int(before.argmin())
        if before[found]:
            raise CapExceeded(s.index, cap)
        if math.isnan(column[found]):
            raise NaNInDiff(f"D({found},{s.k},{s.l}) is NaN at or before the sign change at "
                            f"index {s.index}; this indicates a solver bug")
        entries[s.index] = found
    return ThresholdProfile(spec.orientation, ProfileKind.ACTUAL, MappingProxyType(entries), depth)


def compute_actual_profile(params: SystemParams) -> ThresholdProfile:
    """Solve to the required depth and extract the actual profile (see actual_profile).

    A point with no finite-expected index is not solved; its profile holds the
    fixed thresholds with i_max_used 0.
    """
    terms = _h0_terms(params)
    if not terms.caps:
        return ThresholdProfile(terms.spec.orientation, ProfileKind.ACTUAL, terms.spec.skeleton, 0)
    return actual_profile(params, solve_optimal(params, terms.depth))


@dataclass(frozen=True)
class RecursionReport:
    max_scaled_residual: float
    worst_state: State | None


# Levels per block of recursion_check, which bounds its temporaries at C1 x
# _RESIDUAL_BLOCK floats each.
_RESIDUAL_BLOCK = 2048


def recursion_check(params: SystemParams, diff_table: DiffTable) -> RecursionReport:
    """Residuals of the one-step difference recursions.

    At each fully-busy state the difference satisfies an exact three-term
    recursion whose form depends on the sign of the difference one level
    down; both forms apply at a zero.  Residuals are scaled by 1/(1 + |D|).
    The levels are taken a block at a time, every k at once, and each
    temporary is reused in place.
    """
    c1 = params.C1
    d = diff_table.levels
    # Column k - 1 of each holds p_k, q_k, r_k, b_k and c_k; only c_k reads h0.
    terms = _h0_terms(params)
    cst = terms.constants
    p, q, r, b, c = np.array([
        (*weights, cst.c if c1 - k < params.C2 else cst.c_prime)
        for k, weights in enumerate(terms.spec.weights, 1)
    ]).T[:, :, None]
    worst, worst_state = 0.0, None
    for start in range(1, diff_table.i_max + 1, _RESIDUAL_BLOCK):
        stop = min(start + _RESIDUAL_BLOCK, diff_table.i_max + 1)
        # dk[k - 1, n] is D(start - 1 + n, k, C1 - k), contiguous along the levels.
        dk = np.ascontiguousarray(d[start - 1:stop, 1:].T)
        here, prev = dk[:, 1:], dk[:, :-1]
        scale = np.abs(dk)
        scale += 1.0  # 1 + |D|: the zero band's scale at prev, the residual's at here
        tol = ZERO_BAND * scale[:, :-1]  # model.band_sign(prev), as two masks below
        base = np.arange(float(start), stop) * c
        base += b
        base *= p
        pos = r * prev  # the form where D one level down is >= 0
        pos += base
        pos[1:] += q[1:] * np.maximum(0.0, prev[:-1])  # k >= 2
        neg = q * prev  # the form where it is <= 0
        neg += base
        neg[:-1] += r[:-1] * np.minimum(prev[1:], 0.0)  # l >= 1
        # Each form's |residual|, 0 where it does not apply.
        np.abs(np.subtract(here, pos, out=pos), out=pos)
        np.copyto(pos, 0.0, where=prev < -tol)
        np.abs(np.subtract(here, neg, out=neg), out=neg)
        np.copyto(neg, 0.0, where=prev > tol)
        # max(x / s, y / s) is max(x, y) / s in floats, since rounding is monotone.
        scaled = np.maximum(pos, neg, out=pos)
        scaled /= scale[:, 1:]
        top = float(scaled.max())
        if top != top:
            top = np.inf  # a NaN difference fails, it is never skipped
        if top > worst:
            # The first maximum in (i, k) order, as a scan would report it.
            hits = scaled == top if top < np.inf else ~(scaled < np.inf)
            level = int(hits.any(axis=0).argmax())
            k_index = int(hits[:, level].argmax())
            worst, worst_state = top, State(start + level, k_index + 1, c1 - k_index - 1)
    return RecursionReport(worst, worst_state)


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
    terms = _h0_terms(params)
    cst, i_h = terms.constants, terms.heuristic[k]
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
    _, q, rr, _ = spec.weights[k - 1]
    lhs = rr / (1.0 - q) * decay
    rhs = params.h0 / (params.h2 - params.h0) * (i_h - cst.r2[k])
    if band_sign(rhs - lhs) > 0:
        return Condition1Verdict.HOLDS_COLLAB_SIDE
    return Condition1Verdict.FAILS
