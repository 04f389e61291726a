"""Per-layer tracing from outside the program.

``Tracer.install`` replaces clearq's public functions, wherever a clearq
module or the benchmark's workloads hold a reference to them, by wrappers that record a span (id,
parent, name, start, end, operation) and count the work the call did.  A
layer's self time is its spans' duration minus the time of the traced calls
made inside them.  The hottest leaves (policy rules, ``constants``,
``validate``) are only counted and timed, not kept as spans, so that the
span list stays small.  ``uninstall`` puts the originals back.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import sys
from time import perf_counter

# The twelve point checks of experiments.POINT_CHECKS and the functions behind them.
CHECK_FUNCTIONS = {
    "value_monotone_in_queue": "check_value_monotone",
    "diff_diagonal_monotone": "check_diagonal_monotone",
    "single_sign_change": "check_single_sign_change",
    "positive_without_blocking": "check_positive_no_blocking",
    "nonpositive_when_blocked": "check_nonpositive_blocked",
    "diff_monotone_in_queue": "check_monotone_in_queue",
    "affine_bounds": "check_affine_bounds",
    "recursion_residual": "check_recursion_residual",
    "boundary_formula": "check_boundary_formula",
    "policy_dominance": "check_policy_dominance",
    "greedy_reproduces_optimal": "check_greedy_reproduces_optimal",
    "threshold_structure": "check_threshold_structure",
}

# Per-layer metrics of a traced run, all per round (one pass over a workload's
# operations) unless the unit says otherwise.
LAYER_METRICS = (
    [(f"solver.{f}.{m}", u) for f in ("solve_optimal", "solve_under_policy")
     for m, u in (("calls", "count"), ("levels", "count"), ("self_s", "s"), ("levels_per_s", "1/s"))]
    + [("solver.solve_boundary.self_s", "s"), ("solver.diff.self_s", "s"),
       ("solver.recursion_check.self_s", "s"), ("solver.max_states", "count"),
       ("policies.rule.calls", "count"), ("policies.rule.self_s", "s"),
       ("policies.optimal_greedy.self_s", "s")]
    + [(f"experiments.check.{name}.self_s", "s") for name in CHECK_FUNCTIONS]
    + [("experiments.verify_point.self_s", "s"), ("experiments.checks_run", "count"),
       ("experiments.aggregate_stats.self_s", "s"),
       ("thresholds.required_depth.self_s", "s"), ("thresholds.actual_profile.self_s", "s"),
       ("thresholds.compute_actual_profile.self_s", "s"),
       ("thresholds.useful_level_ratio", "ratio"), ("thresholds.constants.calls", "count"),
       ("model.validate.calls", "count/op"),
       ("simulate.estimate.self_s", "s"), ("simulate.events", "count"),
       ("simulate.events_per_s", "1/s"),
       ("setup.import_s", "s"), ("setup.inputs_s", "s"), ("trace.overhead_pct", "%")]
)


def _states(params, i_max):
    """States in a table solved to depth i_max: the i = 0 triangle plus i_max levels."""
    return (params.C1 + 1) * (params.C1 + 2) // 2 + i_max * (params.C1 + 1)


class Tracer:
    def __init__(self):
        self.op = None
        self.stats = {}       # name -> [calls, inclusive seconds, self seconds]
        self.counts = {}      # work counters, summed over calls
        self.max_states = 0
        self.spans = []       # (id, parent id, name, start, end, operation)
        self.missing = []
        self.installed = False
        self._stack = [[0.0, None]]  # frames: [time of traced children, span id]
        self._ids = itertools.count()
        self._patched = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name, fn, *, keep_span=True, after=None):
        """``fn`` timed as layer ``name``; ``after(args, kwargs, result)`` may replace the result."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, ids = self._stack, self.spans, self._ids

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, next(ids) if keep_span else parent[1]]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                stats[0] += 1
                stats[1] += end - start
                stats[2] += end - start - frame[0]
                parent[0] += end - start
                if keep_span:
                    spans.append((frame[1], parent[1], name, start, end, self.op))
            return after(args, kwargs, result) if after else result

        return traced

    def _count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _after_solve(self, name):
        def after(args, kwargs, table):
            self._count(f"{name}.levels", table.i_max)
            self.max_states = max(self.max_states, _states(table.params, table.i_max))
            return table
        return after

    def _after_policy(self, args, kwargs, policy):
        rule = self.wrap("policies.rule", policy.rule, keep_span=False)
        return dataclasses.replace(policy, rule=rule)

    def _after_profile(self, args, kwargs, profile):
        if profile.i_max_used:
            finite = [v for v in profile.entries.values() if not math.isinf(v)]
            self._count("thresholds.deepest_threshold", max(finite, default=0))
            self._count("thresholds.depth_solved", profile.i_max_used)
        return profile

    def _after_estimate(self, args, kwargs, result):
        config = args[2] if len(args) > 2 else kwargs["config"]
        # An episode from (i, k, l) has exactly i + k + l events.
        self._count("simulate.events", result.replications * sum(config.initial_state))
        return result

    def _after_verify(self, args, kwargs, results):
        self._count("experiments.checks_run", len(results))
        return results

    def _targets(self):
        """(module, function, layer name, keep spans, after-hook)."""
        targets = [
            ("clearq.solver", "solve_optimal", "solver.solve_optimal", True,
             self._after_solve("solver.solve_optimal")),
            ("clearq.solver", "solve_under_policy", "solver.solve_under_policy", True,
             self._after_solve("solver.solve_under_policy")),
            ("clearq.solver", "solve_boundary", "solver.solve_boundary", True, None),
            ("clearq.solver", "diff", "solver.diff", True, None),
            ("clearq.solver", "recursion_check", "solver.recursion_check", True, None),
            ("clearq.policies", "optimal_greedy", "policies.optimal_greedy", True,
             self._after_policy),
            ("clearq.policies", "pi_prime", "policies.pi_prime", True, self._after_policy),
            ("clearq.policies", "benchmark", "policies.benchmark", True, self._after_policy),
            ("clearq.experiments", "verify_point", "experiments.verify_point", True,
             self._after_verify),
            ("clearq.experiments", "sweep", "experiments.sweep", True, None),
            ("clearq.experiments", "aggregate_stats", "experiments.aggregate_stats", True, None),
            ("clearq.thresholds", "required_depth", "thresholds.required_depth", True, None),
            ("clearq.thresholds", "heuristic_profile", "thresholds.heuristic_profile", True, None),
            ("clearq.thresholds", "actual_profile", "thresholds.actual_profile", True, None),
            ("clearq.thresholds", "compute_actual_profile", "thresholds.compute_actual_profile",
             True, self._after_profile),
            ("clearq.thresholds", "constants", "thresholds.constants", False, None),
            ("clearq.model", "validate", "model.validate", False, None),
            ("clearq.simulate", "estimate", "simulate.estimate", True, self._after_estimate),
        ]
        targets += [("clearq.experiments", fn, f"experiments.check.{name}", True, None)
                    for name, fn in CHECK_FUNCTIONS.items()]
        return targets

    def install(self, callers=()):
        """Wrap the targets in every clearq module and in the ``callers`` modules."""
        self.installed = True
        self.missing.clear()
        modules = [m for n, m in sys.modules.items() if n == "clearq" or n.startswith("clearq.")]
        modules += callers
        for module_name, attr, name, keep_span, after in self._targets():
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(name, original, keep_span=keep_span, after=after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()
        self.installed = False

    # -- results -------------------------------------------------------------

    def snapshot(self):
        """Every exact count so far: calls per layer and work counters."""
        counts = {f"{name}.calls": s[0] for name, s in self.stats.items()}
        counts.update(self.counts)
        counts["solver.max_states"] = self.max_states
        return counts

    def metrics(self, rounds, ops, setup, overhead_pct):
        """Values of LAYER_METRICS, per round; ``setup`` holds median probe timings."""
        def stat(name, field):
            return self.stats.get(name, [0, 0.0, 0.0])[field]

        counts = self.snapshot()
        out = {}
        for f in ("solver.solve_optimal", "solver.solve_under_policy"):
            levels = self.counts.get(f"{f}.levels", 0)
            out[f"{f}.calls"] = stat(f, 0) / rounds
            out[f"{f}.levels"] = levels / rounds
            out[f"{f}.self_s"] = stat(f, 2) / rounds
            out[f"{f}.levels_per_s"] = levels / stat(f, 1) if stat(f, 1) else 0.0
        for f in ("solver.solve_boundary", "solver.diff", "solver.recursion_check",
                  "policies.rule", "policies.optimal_greedy", "experiments.verify_point",
                  "experiments.aggregate_stats", "thresholds.required_depth",
                  "thresholds.actual_profile", "thresholds.compute_actual_profile",
                  "simulate.estimate"):
            out[f"{f}.self_s"] = stat(f, 2) / rounds
        for name in CHECK_FUNCTIONS:
            out[f"experiments.check.{name}.self_s"] = stat(f"experiments.check.{name}", 2) / rounds
        out["solver.max_states"] = self.max_states
        out["policies.rule.calls"] = stat("policies.rule", 0) / rounds
        out["experiments.checks_run"] = counts.get("experiments.checks_run", 0) / rounds
        depth = counts.get("thresholds.depth_solved", 0)
        out["thresholds.useful_level_ratio"] = (
            counts.get("thresholds.deepest_threshold", 0) / depth if depth else 0.0)
        out["thresholds.constants.calls"] = stat("thresholds.constants", 0) / rounds
        out["model.validate.calls"] = stat("model.validate", 0) / ops
        events = counts.get("simulate.events", 0)
        out["simulate.events"] = events / rounds
        out["simulate.events_per_s"] = events / stat("simulate.estimate", 1) if events else 0.0
        out["setup.import_s"] = setup["import_s"]
        out["setup.inputs_s"] = setup["inputs_s"]
        out["trace.overhead_pct"] = overhead_pct
        return out

    def write_spans(self, path):
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "op"],
                       "names": names,
                       "spans": [(s[0], s[1], index[s[2]], round(s[3], 7), round(s[4], 7), s[5])
                                 for s in sorted(self.spans)]}, fh, separators=(",", ":"))
