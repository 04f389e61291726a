"""Command-line front end.

Subcommands: solve, thresholds, sweep, simulate, verify, curve.  System
parameters come from flags, a JSON file, or a named example preset; flags
override file values.  Exit codes: 0 success, 1 verification failure,
including a bug trap (CapExceeded, NaNInDiff) in threshold extraction,
2 usage error, including bad parameters, files that cannot be read or
written, and a depth too large to allocate; every exit-2 error and every
bug trap is one `clearq: ...` line on standard error.
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

from .experiments import (
    EXAMPLE_PARAMS,
    TABLE_DEFS,
    SweepSpec,
    dh_curve,
    sweep,
    table4_params,
    verify,
    write_dh_csv,
    write_table_csv,
)
from .model import PARAM_FIELDS, ParameterError, SystemParams
from .policies import POLICY_IDS, policy_by_id
from .simulate import SimConfig, estimate, initial_state
from .solver import diff, solve_optimal
from .thresholds import (
    CapExceeded,
    NaNInDiff,
    Orientation,
    compute_actual_profile,
    condition1,
    format_threshold,
    heuristic_profile,
)

def add_param_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("system parameters")
    group.add_argument("--preset", choices=sorted(EXAMPLE_PARAMS), help="named example parameter set")
    group.add_argument("--params-json", type=Path, help="JSON file with the seven parameter fields")
    group.add_argument("--c1", type=int)
    group.add_argument("--c2", type=int)
    group.add_argument("--mu1", type=float)
    group.add_argument("--mu2", type=float)
    group.add_argument("--h0", type=float)
    group.add_argument("--h1", type=float)
    group.add_argument("--h2", type=float)


def params_from_args(args: argparse.Namespace) -> SystemParams:
    values: dict = {}
    if args.preset:
        values.update(EXAMPLE_PARAMS[args.preset].to_json_dict())
    if args.params_json:
        with open(args.params_json, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            got = {list: "an array", str: "a string", bool: "a boolean", type(None): "null"}
            raise ParameterError(
                f"{args.params_json} must hold a JSON object, got {got.get(type(data), 'a number')}"
            )
        unknown = set(data) - set(PARAM_FIELDS)
        if unknown:
            raise ParameterError(f"unknown keys in {args.params_json}: {sorted(unknown)}")
        values.update(data)
    for field in PARAM_FIELDS:
        value = getattr(args, field.lower())  # the flag of C1 is --c1
        if value is not None:
            values[field] = value
    missing = [f for f in PARAM_FIELDS if f not in values]
    if missing:
        raise ParameterError(f"missing parameters: {missing} (use flags, --params-json, or --preset)")
    return SystemParams.from_json_dict(values)


def check_writable(path: Path) -> None:
    """Raise ``cannot write PATH: reason`` unless a file can be written at PATH.

    Commands call it before their work, so a bad --out costs none.  It
    creates and truncates nothing: an existing file is opened without
    truncation, and for a new one its directory is checked.
    """
    try:
        try:
            os.close(os.open(path, os.O_WRONLY))
        except FileNotFoundError:
            os.stat(path.parent)  # a missing directory raises here
            if not os.access(path.parent, os.W_OK | os.X_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES)) from None
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror}") from exc


def cmd_solve(args) -> int:
    params = params_from_args(args)
    table = solve_optimal(params, args.imax)
    dt = diff(table)
    outdir = args.outdir
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        table.to_csv(outdir / "values.csv")
        dt.to_csv(outdir / "diff.csv")
    except OSError as exc:
        raise OSError(f"cannot write under {outdir}: {exc}") from exc
    print(f"wrote {outdir / 'values.csv'} and {outdir / 'diff.csv'}")
    return 0


def cmd_thresholds(args) -> int:
    params = params_from_args(args)
    heur = heuristic_profile(params)
    act = compute_actual_profile(params)
    outdir = args.outdir
    outdir.mkdir(parents=True, exist_ok=True)
    heur.to_csv(outdir / "heuristic_profile.csv")
    heur.to_json(outdir / "heuristic_profile.json")
    act.to_csv(outdir / "actual_profile.csv")
    act.to_json(outdir / "actual_profile.json")
    summary = outdir / "thresholds.csv"
    with open(summary, "w", encoding="utf-8") as fh:
        fh.write("index,actual,heuristic,cond1\n")
        for index in act.indices():
            verdict = ""
            if act.orientation is Orientation.COLLABORATIVE:
                # The verdict in CamelCase: holds_queue_side -> HoldsQueueSide.
                verdict = condition1(params, index).value.title().replace("_", "")
            fh.write(
                f"{index},{format_threshold(act[index])},"
                f"{format_threshold(heur[index])},{verdict}\n"
            )
    print(f"wrote {summary} (orientation: {act.orientation.value})")
    return 0


def cmd_sweep(args) -> int:
    tables = sorted(set(args.table or TABLE_DEFS))
    i0_values = sorted({TABLE_DEFS[t][2] for t in tables})
    result = sweep(SweepSpec(i0_values=tuple(i0_values)))
    outdir = args.outdir
    outdir.mkdir(parents=True, exist_ok=True)
    result.write_raw_csv(outdir / "sweep_raw.csv")
    for t in tables:
        write_table_csv(result.stats, t, outdir / f"table{t}.csv")
    print(f"wrote {outdir / 'sweep_raw.csv'} and {len(tables)} aggregated table(s)")
    return 0


def cmd_simulate(args) -> int:
    params = params_from_args(args)
    k0 = args.k0 if args.k0 is not None else params.C1
    l0 = args.l0 if args.l0 is not None else params.C1 - k0
    # Checked before the optimal policy's solve.
    config = SimConfig(args.seed, args.reps, initial_state(params, (args.i0, k0, l0)))
    if args.out:
        check_writable(args.out)
    value_table = solve_optimal(params, args.i0) if args.policy == "optimal" else None
    policy = policy_by_id(params, args.policy, value_table=value_table)
    result = estimate(params, policy, config)
    payload = json.dumps(result.to_json_dict(seed=args.seed), indent=2)
    if args.out:
        args.out.write_text(payload + "\n", encoding="utf-8")
    print(payload)
    return 0


def cmd_verify(args) -> int:
    if args.out:
        check_writable(args.out)
    if args.grid == "table4":
        points = table4_params()
    else:
        points = list(EXAMPLE_PARAMS.values())
    report = verify(points, args.imax, jobs=args.jobs)
    if args.out:
        report.write_json(args.out)
    failures = report.failures()
    print(f"checks: {len(report.results)}, failures: {len(failures)}")
    for failure in failures[:20]:
        print(f"  FAIL {failure.name} {failure.params.to_json_dict()}: {failure.detail}")
    return 0 if report.passed else 1


def cmd_curve(args) -> int:
    params = params_from_args(args)
    check_writable(args.out)
    rows = dh_curve(params, k=args.k, l=args.l, i_max=args.imax)
    write_dh_csv(rows, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clearq",
        description="Exact solver, threshold heuristics, and simulation for the two-station clearing system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="write value and difference CSV tables")
    add_param_flags(p)
    p.add_argument("--imax", type=int, required=True, help="queue depth to solve to")
    p.add_argument("--outdir", type=Path, default=Path("."))
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("thresholds", help="write actual and heuristic threshold profiles")
    add_param_flags(p)
    p.add_argument("--outdir", type=Path, default=Path("."))
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("sweep", help="reproduce the relative-error study tables")
    p.add_argument("--table", type=int, action="append", choices=sorted(TABLE_DEFS),
                   help="table number to aggregate (repeatable; default all)")
    p.add_argument("--outdir", type=Path, default=Path("."))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte-Carlo estimate of a policy's expected cost")
    add_param_flags(p)
    p.add_argument("--policy", choices=POLICY_IDS, required=True)
    p.add_argument("--i0", type=int, required=True)
    p.add_argument("--k0", type=int, help="initial Station 1 jobs (default C1)")
    p.add_argument("--l0", type=int, help="initial Station 2 jobs (default C1 - k0)")
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the structural invariant suite")
    p.add_argument("--grid", choices=("table4", "examples"), default="table4")
    p.add_argument("--imax", type=int, default=40)
    p.add_argument("--jobs", type=int, default=os.cpu_count(),
                   help="worker processes, at most one per point (default: CPU count)")
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("curve", help="emit the difference and its affine surrogate as CSV")
    add_param_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="Station 1 index of the curve")
    group.add_argument("--l", type=int, help="Station 2 index of the curve")
    p.add_argument("--imax", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapExceeded, NaNInDiff) as exc:  # a bug trap fired: the run failed verification
        parser.exit(1, f"clearq: {exc}\n")
    except ParameterError as exc:
        parser.exit(2, f"clearq: parameter error: {exc}\n")
    except (ValueError, OSError) as exc:
        parser.exit(2, f"clearq: {exc}\n")
    except MemoryError as exc:  # a table too large to allocate reserves nothing
        parser.exit(2, f"clearq: out of memory: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
