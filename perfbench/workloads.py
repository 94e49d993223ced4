"""The three benchmark workloads: inputs from the workload seed, the timed op,
and the untimed check of each op's outputs.

city   one large instance per op through the CLI (generate -> schedule
       --mode best -> validate), so the quadratic separation table dominates.
sweep  one ``vsp bench`` call per op (one 100-vehicle instance, 11 ratios x
       {baseline, heuristic}, emit_csv): the same layers as city used on
       many small instances, with the walks regenerated for every ratio.
exact  one small ratio-1.0 instance per op: solve_exact with a time limit,
       best-of-three, and the LP round trip.  Branch-and-bound does almost
       all of the work; generation and dispatch almost none.

``run(key, slowdown)`` is the op and is the only part timed; ``slowdown`` is
the last reference job's time over its nominal time.  ``check`` runs after it and
raises ``CheckFailed`` when an output is wrong.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
import re
from pathlib import Path


class CheckFailed(Exception):
    """An op produced a wrong output."""


def _cli(main, argv: list[str]) -> tuple[int, str]:
    """Call vsp.cli.main in-process and capture its exit code and output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors exit with code 2
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class _Workload:
    """Ops keyed by an input key; ``period`` is the size of a full pass over a
    fixed input set (0 when every op gets fresh input)."""

    period = 0

    def __init__(self, vsp, seed: int, tmp: Path, smoke: bool) -> None:
        self.vsp = vsp
        self.rng = random.Random(seed)

    def keys(self):
        while True:
            yield self.rng.randrange(2**31)


class City(_Workload):
    GRID, VEHICLES, RATIO = "10x10", 600, "1.5"
    SMOKE_GRID, SMOKE_VEHICLES = "5x5", 40

    def __init__(self, vsp, seed, tmp, smoke):
        super().__init__(vsp, seed, tmp, smoke)
        self.grid = self.SMOKE_GRID if smoke else self.GRID
        self.vehicles = self.SMOKE_VEHICLES if smoke else self.VEHICLES
        self.instance = str(tmp / "city-instance.json")
        self.schedule = str(tmp / "city-schedule.json")

    def run(self, key, slowdown):
        main = self.vsp.cli.main
        generate = _cli(main, [
            "generate", "--grid", self.grid, "--vehicles", str(self.vehicles),
            "--ratio", self.RATIO, "--seed", str(key), "--out", self.instance,
        ])
        schedule = _cli(main, [
            "schedule", "--instance", self.instance, "--mode", "best",
            "--out", self.schedule,
        ])
        validate = _cli(main, [
            "validate", "--instance", self.instance, "--schedule", self.schedule,
        ])
        return generate, schedule, validate

    def check(self, key, outcome, tracer):
        (gen_code, gen_out), (sched_code, sched_out), (val_code, val_out) = outcome
        try:
            _expect(gen_code == 0, f"generate exited {gen_code}: {gen_out.strip()}")
            # 4 means the best-of-three schedule breaks a hard deadline, which
            # dispatch reports rather than repairs; anything else is an error.
            _expect(sched_code in (0, 4),
                    f"schedule exited {sched_code}: {sched_out.strip()}")
            expected = 0 if sched_code == 0 else 1
            _expect(val_code == expected,
                    f"validate exited {val_code}, expected {expected}")
            violations = [ln for ln in val_out.splitlines() if ln.startswith("[")]
            _expect(all(ln.startswith("[hard_deadline]") for ln in violations),
                    f"emitted schedule breaks more than hard deadlines: {violations[:3]}")
            _expect((sched_code == 4) == bool(violations),
                    "validate disagrees with schedule about hard deadlines")
            match = re.search(r"tardy=(\d+)", sched_out)
            _expect(match is not None, "schedule printed no tardy count")
            tardy = int(match.group(1))
            _expect(0 <= tardy <= self.vehicles, f"tardy count {tardy} out of range")
            digest = _sha(Path(self.schedule).read_bytes())
        finally:
            for path in (self.instance, self.schedule):
                Path(path).unlink(missing_ok=True)
        return {
            "exit_codes": [gen_code, sched_code, val_code],
            "tardy_fraction": tardy / self.vehicles,
            "digest": digest,
        }


class Sweep(_Workload):
    VEHICLES, SMOKE_VEHICLES = 100, 20
    RATIOS = 11

    def __init__(self, vsp, seed, tmp, smoke):
        super().__init__(vsp, seed, tmp, smoke)
        self.vehicles = self.SMOKE_VEHICLES if smoke else self.VEHICLES
        self.out_dir = tmp / "sweep"

    def run(self, key, slowdown):
        return _cli(self.vsp.cli.main, [
            "bench", "--grid", "5x5", "--vehicles", str(self.vehicles),
            "--instances", "1", "--seed", str(key), "--out-dir", str(self.out_dir),
        ])

    def check(self, key, outcome, tracer):
        code, out = outcome
        tardy_path = self.out_dir / "tardy.csv"
        try:
            # run_sweep validates every emitted schedule and makes the command
            # fail on any violation other than a hard deadline.
            _expect(code == 0, f"bench exited {code}: {out.strip()}")
            data = tardy_path.read_bytes()
            rows = list(csv.DictReader(io.StringIO(data.decode())))
        finally:
            for name in ("tardy.csv", "runtime.csv", "manifest.json"):
                (self.out_dir / name).unlink(missing_ok=True)
        _expect(len(rows) == 2 * self.RATIOS,
                f"tardy.csv has {len(rows)} rows, expected {2 * self.RATIOS}")
        by_ratio: dict[str, dict[str, float]] = {}
        for row in rows:
            value = float(row["mean_tardy_fraction"])
            _expect(0.0 <= value <= 1.0, f"tardy fraction {value} out of range")
            by_ratio.setdefault(row["ratio"], {})[row["algorithm"]] = value
        baseline = [by_ratio[r]["baseline"] for r in sorted(by_ratio, key=float)]
        _expect(baseline == sorted(baseline, reverse=True),
                "baseline tardy fraction rises with the ratio")
        for ratio, cell in by_ratio.items():
            _expect(cell["heuristic"] <= cell["baseline"],
                    f"best-of-three is worse than the baseline at ratio {ratio}")
        fractions = [float(row["mean_tardy_fraction"]) for row in rows]
        return {
            "exit_codes": [code],
            "tardy_fraction": sum(fractions) / len(fractions),
            "digest": _sha(data),
        }


class Exact(_Workload):
    # Solve times on this corpus span three orders of magnitude, so a set
    # drawn afresh per seed would make each run's median a property of the
    # draw.  The set is fixed; the seed only orders it.
    SIZES, SEEDS = (10, 12), range(30)
    SMOKE_SIZES, SMOKE_SEEDS = (6, 8), range(3)
    # In reference-scaled seconds: the wall limit is stretched by the
    # machine's momentary slowdown, so a stopped search does about the same
    # work, and reports about the same scaled time, however loaded the
    # machine is.
    TIME_LIMIT = 0.25
    # Whether a search ends before the time limit depends on the clock, and
    # so do the node counts of a stopped one.  Searches this small finish in
    # a fraction of the limit however the machine is loaded, so only they
    # enter the determinism digest.
    DIGEST_NODES = 10_000

    def __init__(self, vsp, seed, tmp, smoke):
        super().__init__(vsp, seed, tmp, smoke)
        sizes, seeds = (
            (self.SMOKE_SIZES, self.SMOKE_SEEDS) if smoke else (self.SIZES, self.SEEDS)
        )
        self.corpus = [(n, s) for n in sizes for s in seeds]
        self.rng.shuffle(self.corpus)
        self.period = len(self.corpus)
        self.configs = {
            n: vsp.ExperimentConfig(n_vehicles=n, soft_deadline_ratios=(1.0,))
            for n in sizes
        }

    def keys(self):
        while True:
            yield from self.corpus

    def run(self, key, slowdown):
        vsp = self.vsp
        n, seed = key
        instance = vsp.generate_grid_instance(self.configs[n], 1.0, seed)
        solved = vsp.solve_exact(instance, time_limit=self.TIME_LIMIT * slowdown)
        best = vsp.deadline_and_proximity(instance)
        model = vsp.parse_lp(vsp.export_mip(instance))
        return instance, solved, best, model

    def check(self, key, outcome, tracer):
        vsp = self.vsp
        instance, solved, best, model = outcome
        n = instance.n_vehicles
        status = solved.status.value
        _expect(solved.schedule is not None, f"solve_exact returned {status}")
        report = vsp.validate_schedule(instance, solved.schedule)
        _expect(not report.violations,
                f"exact schedule has violations: {[str(v) for v in report.violations[:3]]}")
        _expect(vsp.evaluate(instance, solved.schedule) == solved.objective,
                "exact objective differs from its schedule's tardy count")
        hard = frozenset({vsp.ConstraintKind.HARD_DEADLINE})
        best_schedule = best.schedule()
        _expect(vsp.validate_schedule(instance, best_schedule).passes(ignore=hard),
                "best-of-three schedule breaks more than hard deadlines")
        best_obj = vsp.evaluate(instance, best_schedule)
        proved = status == "optimal"
        if proved and best.hard_violations == 0:
            _expect(solved.objective <= best_obj,
                    f"optimum {solved.objective} exceeds best-of-three {best_obj}")
        reference = vsp.build_mip_model(instance)
        _expect(len(model.rows) == len(reference.rows),
                f"LP round trip has {len(model.rows)} rows, model {len(reference.rows)}")
        for parsed, built in zip(model.rows, reference.rows):
            _expect(parsed == built, f"LP round trip changed row {built.name}")
        _expect(model == reference, "LP round trip changed objective, bounds or binaries")
        if tracer is not None and proved:
            dcs = vsp.DifferenceConstraintSystem(instance)
            root = vsp.minimal_times(dcs)
            root_tardy = vsp.evaluate(instance, dcs.to_schedule(root.times))
            tracer.add_gap("exact.root_gap", solved.objective - root_tardy)
            tracer.add_gap("exact.heuristic_gap", best_obj - solved.objective)
        return {
            "status": status,
            "objective": solved.objective,
            "nodes": solved.node_count,
            "tardy_fraction": solved.objective / n,
            "digest": _sha(f"{key}:{solved.objective}:{solved.node_count}".encode())
            if proved and solved.node_count <= self.DIGEST_NODES else None,
        }


WORKLOADS = {"city": City, "sweep": Sweep, "exact": Exact}
