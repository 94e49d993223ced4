"""Command-line front end.

Subcommands: generate random grid instances, schedule them with the
dispatch heuristics, solve exactly, export the MIP as an LP file, convert
unit job-shop instances, validate schedules, and run benchmark sweeps.

Exit codes: 0 success, 1 domain or file error, 2 usage error, 4 schedule
has hard-deadline violations, 5 schedule has slot-window failures, 6
instance infeasible, 7 time limit hit with an incumbent (the best-of-three
warm start counts), 8 time limit hit with no incumbent.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

from .bench import SweepResult, emit_csv, run_sweep
from .core import INF, ObjectiveKind, VspError, evaluate, validate_schedule
from .exact import SolveStatus, check_time_limit, solve_exact
from .heuristics import Mode, VehicleStatus, deadline_and_proximity, run_dispatch
from .instances import (
    DEFAULT_RATIOS,
    ExperimentConfig,
    GridSpec,
    generate_grid_instance,
    read_instance,
    read_jsp,
    read_schedule,
    reduce_jsp_to_vsp,
    write_instance,
    write_schedule,
)
from .mip import export_mip

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_HARD_DEADLINE = 4
EXIT_SLOT_WINDOW = 5
EXIT_INFEASIBLE = 6
EXIT_BUDGET_INCUMBENT = 7
EXIT_BUDGET_EMPTY = 8

# The most ratios a start:stop:step range may expand to.
MAX_RATIOS = 10_000

_MODES = {m.value: m for m in Mode}
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}


def _parse_grid(text: str) -> GridSpec:
    try:
        rows, cols = text.lower().split("x")
        return GridSpec(int(rows), int(cols))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must look like 5x5: {text!r}") from exc


def _parse_ratios(text: str) -> tuple[float, ...]:
    if ":" in text:
        try:
            start, stop, step = (float(x) for x in text.split(":"))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"ratio range must look like 1.0:2.0:0.1: {text!r}"
            ) from exc
        finite = all(math.isfinite(x) for x in (start, stop, step))
        if not finite or step <= 0 or stop < start:
            raise argparse.ArgumentTypeError(f"bad ratio range: {text!r}")
        count = int((stop - start) / step + 1e-9) + 1
        # Ratios are rounded to 10 decimals; a finer step repeats them.
        if count > 1 and (step < 1e-10 or round(start + step, 10) == round(start, 10)):
            raise argparse.ArgumentTypeError(f"step below the 1e-10 rounding: {text!r}")
        if count > MAX_RATIOS:
            raise argparse.ArgumentTypeError(
                f"ratio range has {count} ratios, more than {MAX_RATIOS}: {text!r}"
            )
        return tuple(round(start + k * step, 10) for k in range(count))
    return tuple(float(x) for x in text.split(","))


def _parse_vehicle_counts(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _parse_tau_max(text: str) -> int | float:
    if text.lower() in ("inf", "none"):
        return INF
    return int(text)


@functools.cache  # built on the first main call, then shared
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsp", description="Vehicle scheduling toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="create one random grid instance")
    gen.add_argument("--grid", type=_parse_grid, default=_DEFAULTS["grid"])
    gen.add_argument("--vehicles", type=int, required=True)
    gen.add_argument("--ratio", type=float, required=True,
                     help="soft deadline as a multiple of the free trip time")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--separation", type=int, default=_DEFAULTS["separation"])
    gen.add_argument("--tau-min", type=int, default=_DEFAULTS["tau_min_link"])
    gen.add_argument("--tau-max", type=_parse_tau_max, default=_DEFAULTS["tau_max_link"])
    gen.add_argument("--hard-factor", type=float, default=None)
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler=_cmd_generate)

    sched = sub.add_parser("schedule", help="run a dispatch heuristic")
    sched.add_argument("--instance", required=True)
    sched.add_argument("--mode", choices=[*_MODES, "best"], required=True)
    sched.add_argument("--negative-slack", choices=["prose", "pseudocode"],
                       default="prose")
    sched.add_argument("--out", required=True)
    sched.set_defaults(handler=_cmd_schedule)

    solve = sub.add_parser("solve", help="solve exactly by branch and bound")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--exact", action="store_true", required=True)
    solve.add_argument("--time-limit", type=float, default=None)
    solve.add_argument("--horizon", type=int, default=None,
                       help="optional upper bound on every stamp")
    solve.add_argument("--out", required=True)
    solve.set_defaults(handler=_cmd_solve)

    export = sub.add_parser("export-mip", help="write the model as an LP file")
    export.add_argument("--instance", required=True)
    export.add_argument("--horizon", type=int, default=None)
    export.add_argument("--out", required=True)
    export.set_defaults(handler=_cmd_export_mip)

    reduce = sub.add_parser("reduce-jsp", help="convert a unit job shop")
    reduce.add_argument("--jsp", required=True)
    reduce.add_argument("--out", required=True)
    reduce.set_defaults(handler=_cmd_reduce_jsp)

    check = sub.add_parser("validate", help="check a schedule against an instance")
    check.add_argument("--instance", required=True)
    check.add_argument("--schedule", required=True)
    check.set_defaults(handler=_cmd_validate)

    bench = sub.add_parser("bench", help="run a deadline-ratio sweep")
    bench.add_argument("--grid", type=_parse_grid, default=_DEFAULTS["grid"])
    bench.add_argument("--vehicles", type=_parse_vehicle_counts, required=True)
    bench.add_argument("--instances", type=int, default=_DEFAULTS["n_instances"])
    bench.add_argument("--ratios", type=_parse_ratios, default=DEFAULT_RATIOS)
    bench.add_argument("--algorithms", default="baseline,heuristic")
    bench.add_argument("--seed", type=int, default=42)
    bench.add_argument("--separation", type=int, default=_DEFAULTS["separation"])
    bench.add_argument("--tau-min", type=int, default=_DEFAULTS["tau_min_link"])
    bench.add_argument("--hard-factor", type=float,
                       default=_DEFAULTS["hard_deadline_factor"])
    bench.add_argument("--exact-cap", type=int, default=25)
    bench.add_argument("--exact-time-limit", type=float, default=3600.0)
    bench.add_argument("--negative-slack", choices=["prose", "pseudocode"],
                       default="prose")
    bench.add_argument("--out-dir", required=True)
    bench.set_defaults(handler=_cmd_bench)
    return parser


def _config(**fields) -> ExperimentConfig:
    """ExperimentConfig from command-line values, rejected as a VspError."""
    try:
        return ExperimentConfig(**fields)
    except ValueError as exc:
        raise VspError(str(exc)) from exc


def _cmd_generate(args: argparse.Namespace) -> int:
    # Without --hard-factor the default factor is raised to cover the ratio;
    # an explicit factor below the ratio is a configuration error.
    hard_factor = args.hard_factor
    if hard_factor is None:
        hard_factor = max(_DEFAULTS["hard_deadline_factor"], args.ratio)
    config = _config(
        n_vehicles=args.vehicles,
        grid=args.grid,
        separation=args.separation,
        tau_min_link=args.tau_min,
        tau_max_link=args.tau_max,
        hard_deadline_factor=hard_factor,
        soft_deadline_ratios=(args.ratio,),
        n_instances=1,
        seed=args.seed,
    )
    instance = generate_grid_instance(config, args.ratio, args.seed)
    write_instance(instance, args.out)
    print(f"wrote {args.out}: {instance.n_vehicles} vehicles, "
          f"{instance.total_stamps} stamps")
    return EXIT_OK


def _cmd_schedule(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    if args.mode == "best":
        result = deadline_and_proximity(instance, args.negative_slack)
    else:
        result = run_dispatch(instance, _MODES[args.mode], args.negative_slack)
    for status in VehicleStatus:
        if count := result.statuses.count(status):
            print(f"{status.value}: {count}")
    if not result.complete:
        print("no complete schedule; nothing written", file=sys.stderr)
        return EXIT_SLOT_WINDOW
    schedule = result.schedule()
    write_schedule(schedule, args.out)
    kind = instance.objective
    label = "tardy" if kind is ObjectiveKind.TARDY_COUNT else kind.value
    print(f"mode={result.mode.value} "
          f"{label}={evaluate(instance, schedule):g} -> {args.out}")
    if result.hard_violations:
        return EXIT_HARD_DEADLINE
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    result = solve_exact(instance, time_limit=args.time_limit, horizon=args.horizon)
    bound = "" if result.lower_bound is None else f" bound={result.lower_bound:g}"
    print(f"status={result.status.value} nodes={result.node_count}{bound}")
    if result.schedule is not None:
        write_schedule(result.schedule, args.out)
        print(f"objective={result.objective:g} -> {args.out}")
    elif result.witness is not None:
        for constraint in result.witness:
            print(f"  cycle: {constraint.label} (>= {constraint.bound})",
                  file=sys.stderr)
    return {
        SolveStatus.OPTIMAL: EXIT_OK,
        SolveStatus.FEASIBLE_INCUMBENT: EXIT_BUDGET_INCUMBENT,
        SolveStatus.INFEASIBLE: EXIT_INFEASIBLE,
        SolveStatus.BUDGET_EXHAUSTED: EXIT_BUDGET_EMPTY,
    }[result.status]


def _cmd_export_mip(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    text = export_mip(instance, horizon=args.horizon)
    Path(args.out).write_text(text)
    print(f"wrote {args.out} ({len(text.splitlines())} lines)")
    return EXIT_OK


def _cmd_reduce_jsp(args: argparse.Namespace) -> int:
    jsp = read_jsp(args.jsp)
    instance = reduce_jsp_to_vsp(jsp)
    write_instance(instance, args.out)
    print(f"wrote {args.out}: {instance.n_vehicles} vehicles on "
          f"{instance.graph.vertex_count} vertices")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    schedule = read_schedule(args.schedule)
    report = validate_schedule(instance, schedule)
    if report:
        print("schedule is feasible")
        return EXIT_OK
    for violation in report.violations:
        print(str(violation))
    return EXIT_ERROR


def _cmd_bench(args: argparse.Namespace) -> int:
    check_time_limit(args.exact_time_limit)
    if len(set(args.vehicles)) != len(args.vehicles):
        raise VspError(f"--vehicles repeats a count: {args.vehicles}")
    algorithms = tuple(args.algorithms.split(","))
    if len(set(algorithms)) != len(algorithms):
        raise VspError(f"--algorithms repeats an algorithm: {args.algorithms}")
    records = []
    for n in args.vehicles:
        config = _config(
            n_vehicles=n,
            grid=args.grid,
            separation=args.separation,
            tau_min_link=args.tau_min,
            hard_deadline_factor=args.hard_factor,
            soft_deadline_ratios=args.ratios,
            n_instances=args.instances,
            seed=args.seed,
        )
        records += run_sweep(
            config,
            algorithms,
            exact_time_limit=args.exact_time_limit,
            exact_cap=args.exact_cap,
            negative_slack=args.negative_slack,
        ).records
    tardy_path, runtime_path = emit_csv(
        SweepResult(args.instances, records), args.out_dir
    )
    # The bench options in their declared order; tuples are written as lists.
    manifest = dict(
        vars(args),
        grid=f"{args.grid.rows}x{args.grid.cols}",
        algorithms=algorithms,
        exact_time_limit=None if args.exact_time_limit == INF else args.exact_time_limit,
    )
    for key in ("command", "out_dir", "handler"):
        del manifest[key]
    manifest_path = Path(args.out_dir) / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=1, allow_nan=False) + "\n")
    print(f"wrote {tardy_path}, {runtime_path}, {manifest_path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (VspError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
