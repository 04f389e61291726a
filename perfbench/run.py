"""Benchmark of clearq: one workload per run, its metrics as one JSON line.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  One process runs the operations one at a
time (closed loop, serial path) in whole rounds, each round one pass over
the workload's operations, for about ``--seconds``.  The last line of
standard output is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  End-to-end times are scaled to a reference host speed by
a calibration kernel timed through the run (``calibrate.py``).  Details of
the run, unscaled figures too, go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

from calibrate import CAL_EVERY, CAL_REF_S, KERNELS, Calibration

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("verify-grid", "sweep-tables", "thresholds-grid", "oracle-mc")
DEFAULT_SEED = 20240811  # criterion 4's seed
PROBES = 9
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)
REFERENCE_DEEPEST, REFERENCE_SEEDED = 2, 6
TRACE_BLOCKS = 16
SETUP_BASELINE = "import numpy; print('{}', flush=True)"
SETUP_REF_S = 0.2  # baseline time that defines the reference speed of set-up


@dataclass
class Phase:
    calibration: Calibration
    wall: list = field(default_factory=list)
    cpu: list = field(default_factory=list)
    first_round: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    rounds: int = 0
    elapsed: float = 0.0
    failed: int = 0
    setup: list = field(default_factory=list)


def run_rounds(ops, run_op, seconds, kernel, *, probe=None, on_round=None):
    """Whole rounds over ``ops``; another starts only if it should end within ``seconds``.

    With ``probe``, PROBES set-up probes are spread evenly over the first
    round, so that their median samples the same stretches of host speed as
    the operations; the loop is paused while one runs.  The calibration
    ``kernel`` is timed after every CAL_EVERY seconds of operations.
    """
    phase = Phase(Calibration(kernel))
    calibration = phase.calibration
    probe_at = {len(ops) * j // PROBES for j in range(PROBES)} if probe else set()
    paused = 0.0
    since_calibration = 0.0
    calibration.sample()
    start = perf_counter()
    while True:
        for n, op in enumerate(ops):
            if phase.rounds == 0 and n in probe_at:
                t0 = perf_counter()
                phase.setup.append(probe())
                paused += perf_counter() - t0
            c0 = process_time()
            t0 = perf_counter()
            try:
                result = run_op(op)
            except Exception as exc:  # a failed operation is counted; the run goes on
                result = None
                phase.failed += 1
                if phase.failed <= 3:
                    print(f"perfbench: operation failed: {exc!r}", file=sys.stderr)
            t1 = perf_counter()
            phase.cpu.append(process_time() - c0)
            phase.wall.append(t1 - t0)
            phase.spans.append((t0, t1))
            since_calibration += t1 - t0
            if since_calibration >= CAL_EVERY:
                calibration.sample()
                since_calibration = 0.0
            if phase.rounds == 0:
                phase.first_round.append(result)
        phase.rounds += 1
        phase.elapsed = perf_counter() - start - paused
        if on_round:
            on_round()
        if phase.elapsed * (phase.rounds + 1) / phase.rounds > seconds:
            calibration.sample()
            return phase


def time_to_line(cmd):
    """Seconds from starting ``cmd`` to its first line of output, and that line as JSON."""
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"{cmd[1:]} exited with {proc.returncode}")
    return ready - start, json.loads(line)


def probe_setup(workload, seed):
    """(seconds from a fresh interpreter to inputs ready, import_s, inputs_s, baseline_s).

    The baseline is a fresh interpreter that imports numpy alone, timed just
    before the probe: set-up is scaled by it, as operations are by the
    calibration kernel.
    """
    baseline, _ = time_to_line([sys.executable, "-c", SETUP_BASELINE])
    ready, timings = time_to_line([sys.executable, str(HERE / "probe.py"), workload, str(seed)])
    return ready, timings["import_s"], timings["inputs_s"], baseline


def paired_tracing(tracer, workload, n_ops):
    """An operation runner for a round of ``ops * 2``: each operation once traced, once not.

    Each pass is cut into TRACE_BLOCKS blocks; the first pass traces the even
    blocks and the second the odd ones.  Traced and untraced stretches thus
    alternate about every second, over the same operations, so the overhead
    ``wall[True] / wall[False] - 1`` is measured on equal work and the host's
    speed swings mostly cancel.  A round traces each operation exactly once.
    """
    op_span = tracer.wrap(f"op.{workload.name}", workload.run)
    callers = [sys.modules[type(workload).__module__]]
    calls = itertools.count()
    wall = {True: 0.0, False: 0.0}

    def run(op):
        n = next(calls)
        position = n % (2 * n_ops)
        traced = (position % n_ops * TRACE_BLOCKS // n_ops + position // n_ops) % 2 == 0
        if traced and not tracer.installed:
            tracer.install(callers)
        elif not traced and tracer.installed:
            tracer.uninstall()
        tracer.op = n
        start = perf_counter()
        try:
            return op_span(op) if traced else workload.run(op)
        finally:
            wall[traced] += perf_counter() - start

    return run, wall


def tail_percentile(n):
    """Highest ladder percentile with at least ten of n samples beyond it."""
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100 * n) >= 10:
            return pct
    return 50.0


def percentile(values, pct):
    ranked = sorted(values)
    return ranked[max(0, math.ceil(pct / 100 * len(ranked)) - 1)]


def reference_check(workload, ops, seed):
    """Compare clearq's optimal values and first sign changes of D with the reference solver.

    Points: the workload's deepest tables plus a seeded sample of the rest.
    """
    import reference
    from clearq.solver import diff, solve_optimal

    depths = {}
    for op in ops:
        params = workload.params(op)
        depths[params] = workload.depth(params)
    ranked = sorted(depths.items(), key=lambda pd: (pd[1] * (pd[0].C1 + 1), repr(pd[0])))
    rest = ranked[:-REFERENCE_DEEPEST]
    chosen = ranked[-REFERENCE_DEEPEST:] + random.Random(seed).sample(
        rest, min(REFERENCE_SEEDED, len(rest)))
    problems = []
    for p, depth in chosen:
        levels = reference.solve(p.C1, p.C2, p.mu1, p.mu2, p.h0, p.h1, p.h2, depth)
        table = solve_optimal(p, depth)
        dt = diff(table)
        ours = [[table.value(i, k, p.C1 - k) for k in range(p.C1 + 1)] for i in range(depth + 1)]
        worst = max(abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
                    for row_a, row_b in zip(ours, levels) for a, b in zip(row_a, row_b))
        if worst > 1e-9:
            problems.append(f"reference: values differ by {worst:.3e} relative at {p}")
        d_ours = [[0.0] + [dt.d(i, k, p.C1 - k) for k in range(1, p.C1 + 1)]
                  for i in range(depth + 1)]
        collaborative = reference.is_collaborative(p.h1, p.mu1, p.h2, p.mu2)
        want = reference.first_crossings(reference.differences(levels), collaborative)
        got = reference.first_crossings(d_ours, collaborative)
        if got != want:
            problems.append(f"reference: first sign changes {got} vs {want} at {p}")
    return problems


def check_repeats(name, counts):
    """Compare exact counts with an earlier run of the same workload and seed."""
    path = OUT / f"counts-{name}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        changed = sorted(k for k in set(earlier) | set(counts) if earlier.get(k) != counts.get(k))
        if changed:
            print(f"perfbench: NONDETERMINISTIC {name}: {changed} differ from an earlier run",
                  file=sys.stderr)
        return changed
    path.write_text(json.dumps(counts, indent=1, sort_keys=True))
    return []


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = HERE.parent / "src"
    sys.path.insert(0, str(src))
    try:
        import clearq  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import clearq from {src}: {exc}", file=sys.stderr)
        return 2
    from layers import LAYER_METRICS, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    ops = workload.build(args.seed)
    gc.collect()
    probe = functools.partial(probe_setup, workload.name, args.seed)
    kernel = KERNELS[workload.calibration]
    if args.trace:
        tracer = Tracer()
        snapshots = []
        run_paired, wall = paired_tracing(tracer, workload, len(ops))
        try:
            timed = run_rounds(ops * 2, run_paired, args.seconds, kernel, probe=probe,
                               on_round=lambda: snapshots.append(tracer.snapshot()))
        finally:
            tracer.uninstall()
    else:
        timed = run_rounds(ops, workload.run, args.seconds, kernel, probe=probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = timed.setup

    problems = workload.check(ops, timed.first_round[:len(ops)])
    problems += reference_check(workload, ops, args.seed)
    for line in problems[:20]:
        print(f"perfbench: CHECK FAILED {line}", file=sys.stderr)

    counts = {"ops_per_round": len(ops), "failed_first_round": timed.first_round.count(None)}
    nondeterministic = []
    if args.trace:
        rounds = [{k: v - before.get(k, 0) for k, v in after.items() if k != "solver.max_states"}
                  for before, after in zip([{}] + snapshots, snapshots)]
        if any(r != rounds[0] for r in rounds):
            print(f"perfbench: NONDETERMINISTIC {workload.name}: counts differ between rounds",
                  file=sys.stderr)
            nondeterministic.append("between rounds")
        counts.update(rounds[0], **{"solver.max_states": tracer.max_states})
    nondeterministic += check_repeats(tag, counts)

    if args.trace:
        medians = {"import_s": statistics.median(s[1] for s in setup),
                   "inputs_s": statistics.median(s[2] for s in setup)}
        values = tracer.metrics(timed.rounds, len(ops) * timed.rounds, medians,
                                100.0 * (wall[True] / wall[False] - 1.0))
        units = dict(LAYER_METRICS)
        assert values.keys() == units.keys(), "layer metrics out of step with LAYER_METRICS"
        tracer.write_spans(OUT / f"spans-{tag}.json")
        if tracer.missing:
            print(f"perfbench: not traced, absent from clearq: {tracer.missing}", file=sys.stderr)
    else:
        tail = tail_percentile(len(ops))
        calibration = timed.calibration
        wall = [t * s for t, s in zip(timed.wall, calibration.scales(timed.spans, "wall"))]
        cpu = [t * s for t, s in zip(timed.cpu, calibration.scales(timed.spans, "cpu"))]
        values = {
            "ops_per_s": len(wall) / sum(wall),
            "op_p50_ms": 1000 * statistics.median(cpu),
            "op_tail_ms": 1000 * percentile(cpu, tail),
            "setup_s": statistics.median(s[0] * SETUP_REF_S / s[3] for s in setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                 "setup_s": "s", "peak_rss_mb": "MiB"}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    attempted = len(timed.wall)
    result = {"correct": not problems, "attempted": attempted,
              "failed": timed.failed, "metrics": metrics}

    detail = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  rounds=timed.rounds, elapsed_s=timed.elapsed,
                  ops_per_round=len(ops), setup_probes=setup, problems=problems,
                  nondeterministic=nondeterministic, counts=counts)
    if not args.trace:
        detail["tail_percentile"] = tail
        detail["unscaled"] = {
            "ops_per_s": len(timed.wall) / sum(timed.wall),
            "op_p50_ms": 1000 * statistics.median(timed.cpu),
            "op_tail_ms": 1000 * percentile(timed.cpu, tail),
            "setup_s": statistics.median(s[0] for s in setup),
            "setup_baseline_s": statistics.median(s[3] for s in setup),
            "wall_p50_ms": 1000 * statistics.median(timed.wall),
            "wall_tail_ms": 1000 * percentile(timed.wall, tail),
        }
        detail["calibration"] = {
            "kernel": workload.calibration, "samples": len(calibration.at),
            "ref_ms": 1000 * CAL_REF_S,
            "median_wall_ms": 1000 * statistics.median(calibration.wall),
            "median_cpu_ms": 1000 * statistics.median(calibration.cpu),
        }
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1))
    print(f"perfbench: {workload.name} seed {args.seed}: {attempted} operations in "
          f"{timed.rounds} round(s), {len(problems)} check failure(s)",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
