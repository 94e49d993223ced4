"""Deadline-ratio sweeps over random grid instances.

For every instance seed the harness builds the walks once and dispatches
proximity once, since proximity reads no soft deadline; per soft-deadline
ratio it runs the requested algorithms (a baseline cell reuses the proximity
run, and best-of-three ranks it against those of the ratio's deadline runs
that can still beat it), validates each emitted schedule (the shared
proximity one once) against the seed's base instance, since validation
reads no soft deadline, and records tardy counts and wall-clock scheduling
time, the shared proximity run's included.  Means are aggregated
per (vehicle count, ratio, algorithm) cell; runtimes are first maxed over the
ratios of one instance and then averaged across instances.
"""

from __future__ import annotations

import csv
import math
import random
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .core import (
    ConfigurationError,
    ConstraintKind,
    Instance,
    ObjectiveKind,
    VspError,
    evaluate,
    validate_schedule,
)
from .exact import solve_exact
from .heuristics import Mode, best_of, run_dispatch
from .instances import ExperimentConfig, generate_grid_instance, soft_deadlines_at

ALGORITHMS = ("baseline", "heuristic", "exact")

# Hard-deadline breaches by the dispatch heuristics are reported in run
# statuses, not repaired, so they are data rather than validator failures.
_DISPATCH_OK = frozenset({ConstraintKind.HARD_DEADLINE})


@dataclass(frozen=True)
class RunRecord:
    n_vehicles: int
    instance_index: int
    instance_seed: int
    ratio: float
    algorithm: str
    tardy_count: int | None
    runtime_s: float
    status: str


@dataclass
class SweepResult:
    """Raw per-run records, of one or more vehicle counts with n_instances
    instance seeds each, plus the aggregations the CSV files report."""

    n_instances: int
    records: list[RunRecord]

    def mean_tardy(self) -> dict[tuple[int, float, str], tuple[float, float]]:
        """(n, ratio, algorithm) -> (mean tardy fraction, standard error)."""
        grouped: dict[tuple[int, float, str], list[float]] = {}
        for rec in self.records:
            if rec.tardy_count is not None:
                grouped.setdefault(
                    (rec.n_vehicles, rec.ratio, rec.algorithm), []
                ).append(rec.tardy_count / rec.n_vehicles)
        out: dict[tuple[int, float, str], tuple[float, float]] = {}
        for key, fractions in grouped.items():
            if key[2] != "exact" and len(fractions) != self.n_instances:
                raise VspError(
                    f"cell {key} has {len(fractions)} values, "
                    f"expected {self.n_instances}"
                )
            mean = sum(fractions) / len(fractions)
            err = (
                statistics.stdev(fractions) / math.sqrt(len(fractions))
                if len(fractions) > 1
                else 0.0
            )
            out[key] = (mean, err)
        return out

    def mean_worst_runtime(self) -> dict[tuple[int, str], float]:
        """(n, algorithm) -> mean over instances of the worst per-ratio time."""
        worst: dict[tuple[int, str, int], float] = {}
        for rec in self.records:
            key = (rec.n_vehicles, rec.algorithm, rec.instance_index)
            worst[key] = max(worst.get(key, 0.0), rec.runtime_s)
        grouped: dict[tuple[int, str], list[float]] = {}
        for (n, algorithm, _), value in worst.items():
            grouped.setdefault((n, algorithm), []).append(value)
        return {key: sum(vals) / len(vals) for key, vals in grouped.items()}


def _check(instance: Instance, schedule, algorithm: str,
           allowed: frozenset[ConstraintKind]) -> None:
    report = validate_schedule(instance, schedule)
    if not report.passes(ignore=allowed):
        bad = [str(v) for v in report.violations if v.kind not in allowed]
        raise VspError(
            f"{algorithm} produced an invalid schedule: " + "; ".join(bad)
        )


def run_sweep(
    config: ExperimentConfig,
    algorithms: tuple[str, ...] = ("baseline", "heuristic"),
    exact_time_limit: float | None = None,
    exact_cap: int = 25,
    negative_slack: str = "prose",
) -> SweepResult:
    """Run the configured sweep for one vehicle count.

    One proximity run per instance seed is the baseline at every ratio.
    Best-of-three gets it from best_of's dispatch function for
    Mode.PROXIMITY, and dispatches the deadline modes at the ratio; its
    runtime is that of the proximity run plus best_of's.  Every emitted
    dispatch schedule is validated, the proximity one only when a seed
    first emits it; a violation is a bug and aborts the sweep.  Validation
    reads no soft deadline, so it runs against the seed's base instance,
    whose per-vertex visit index is then built once per seed.  The exact
    solver only runs when the vehicle count is within exact_cap and always
    needs a time limit; runs that hit the limit are recorded under their
    solver status so they can be excluded from optimality claims.
    """
    unknown = set(algorithms) - set(ALGORITHMS)
    if unknown:
        raise ConfigurationError(f"unknown algorithms: {sorted(unknown)}")
    if "exact" in algorithms and exact_time_limit is None:
        raise ConfigurationError("the exact solver requires a time limit")

    seed_rng = random.Random(config.seed)
    instance_seeds = [seed_rng.randrange(2**32) for _ in range(config.n_instances)]
    records: list[RunRecord] = []
    n = config.n_vehicles
    ratios = config.soft_deadline_ratios
    for index, instance_seed in enumerate(instance_seeds):
        base = generate_grid_instance(config, ratios[0], instance_seed)
        if {"baseline", "heuristic"} & set(algorithms):
            start = time.perf_counter()
            proximity = run_dispatch(base, Mode.PROXIMITY, negative_slack)
            proximity_s = time.perf_counter() - start
            proximity_checked = False
        for ratio in ratios:
            instance = replace(base, soft_deadlines=soft_deadlines_at(base.walks, ratio))

            def record(*outcome) -> None:  # algorithm, tardy count, runtime, status
                records.append(RunRecord(n, index, instance_seed, ratio, *outcome))

            for name in ("baseline", "heuristic"):
                if name not in algorithms:
                    continue
                result, elapsed = proximity, proximity_s
                if name == "heuristic":
                    start = time.perf_counter()
                    result = best_of(instance, lambda m: (
                        proximity if m is Mode.PROXIMITY
                        else run_dispatch(instance, m, negative_slack)
                    ))
                    elapsed += time.perf_counter() - start
                schedule = result.schedule()
                if result is not proximity or not proximity_checked:
                    _check(base, schedule, name, _DISPATCH_OK)
                    proximity_checked |= result is proximity
                record(
                    name,
                    int(evaluate(instance, schedule, ObjectiveKind.TARDY_COUNT)),
                    elapsed,
                    "completed" if result.hard_violations == 0
                    else f"hard_violations={result.hard_violations}",
                )
            if "exact" in algorithms and n <= exact_cap:
                start = time.perf_counter()
                result = solve_exact(instance, time_limit=exact_time_limit)
                elapsed = time.perf_counter() - start
                tardy = None
                if result.schedule is not None:
                    _check(instance, result.schedule, "exact", frozenset())
                    tardy = int(result.objective)
                record("exact", tardy, elapsed, result.status.value)
    return SweepResult(config.n_instances, records)


def emit_csv(result: SweepResult, out_dir: str | Path) -> tuple[Path, Path]:
    """Write tardy.csv and runtime.csv under out_dir and return their paths.
    Both aggregates are computed first, so a failing one writes nothing."""
    means = result.mean_tardy()
    runtimes = result.mean_worst_runtime()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tardy_path = out / "tardy.csv"
    runtime_path = out / "runtime.csv"

    order = {name: k for k, name in enumerate(ALGORITHMS)}
    with tardy_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n", "ratio", "algorithm", "mean_tardy_fraction", "stderr"])
        for (n, ratio, algorithm) in sorted(
            means, key=lambda key: (key[0], key[1], order[key[2]])
        ):
            mean, err = means[(n, ratio, algorithm)]
            # Three decimals, unless they would not read back as the ratio.
            cell = f"{ratio:.3f}" if round(ratio, 3) == ratio else repr(ratio)
            writer.writerow([n, cell, algorithm, f"{mean:.6f}", f"{err:.6f}"])
    with runtime_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n", "algorithm", "mean_worst_runtime_s"])
        for (n, algorithm) in sorted(
            runtimes, key=lambda key: (key[0], order[key[1]])
        ):
            writer.writerow([n, algorithm, f"{runtimes[(n, algorithm)]:.6f}"])
    return tardy_path, runtime_path
