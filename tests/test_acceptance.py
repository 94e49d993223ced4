"""End-to-end acceptance checks.

Each test covers one exit criterion at its stated tolerance and prints one
pass line; run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time
from dataclasses import replace

import pytest

from vsp import (
    ConstraintKind,
    ExperimentConfig,
    GridSpec,
    Mode,
    build_mip_model,
    conflict_pairs,
    deadline_and_proximity,
    evaluate,
    export_mip,
    generate_grid_instance,
    minimal_times,
    parse_lp,
    run_dispatch,
    run_sweep,
    solve_exact,
    validate_schedule,
    write_lp,
)
from vsp.exact import DifferenceConstraintSystem, SolveStatus
from vsp.heuristics import VehicleStatus
from oracles import (
    base_triples,
    brute_force_tardy,
    check_triples,
    exact_makespan,
    ordering_triples,
    random_feasible_times,
    random_small_instance,
    scipy_milp_solve,
    unit_jsp_min_slots,
)

DISPATCH_OK = frozenset({ConstraintKind.HARD_DEADLINE})
PAPER_VEHICLE_COUNTS = (25, 50, 75, 100)


def _pass(name: str) -> None:
    print(f"[acceptance] {name}: PASS", flush=True)


def paper_config(n: int, n_instances: int = 20, seed: int = 42) -> ExperimentConfig:
    # 5x5 grid, gap 5, link minimum 50 with open upper side, requests at 0,
    # hard deadlines at 2.2x the free trip time, ratio sweep 1.0..2.0.
    return ExperimentConfig(n_vehicles=n, n_instances=n_instances, seed=seed)


@pytest.fixture(scope="module")
def oracle_batch():
    """200 exhaustively checkable instances with solver and dispatch runs."""
    rng = random.Random(777)
    batch = []
    started = time.perf_counter()
    for _ in range(200):
        instance = random_small_instance(rng, max_pairs=12)
        expected = brute_force_tardy(instance)
        exact = solve_exact(instance)
        baseline = run_dispatch(instance, Mode.PROXIMITY)
        best = deadline_and_proximity(instance)
        batch.append({
            "instance": instance,
            "expected": expected,
            "exact": exact,
            "baseline": baseline,
            "best": best,
        })
    elapsed = time.perf_counter() - started
    return {"items": batch, "elapsed": elapsed}


@pytest.fixture(scope="module")
def paper_sweeps():
    return {
        n: run_sweep(paper_config(n), ("baseline", "heuristic"))
        for n in PAPER_VEHICLE_COUNTS
    }


def test_constraint_soundness_randomized():
    # >= 1000 random grid instances up to 100 vehicles; every emitted
    # schedule must satisfy the travel windows, separation gaps, request
    # times and continuity exactly.  Zero violations tolerated.
    rng = random.Random(1234)
    exact_checked = 0
    for _ in range(1000):
        n = rng.randint(2, 100)
        ratio = round(1.0 + rng.random(), 3)
        config = ExperimentConfig(
            n_vehicles=n, soft_deadline_ratios=(ratio,), n_instances=1, seed=0
        )
        instance = generate_grid_instance(config, ratio, rng.getrandbits(32))
        baseline = run_dispatch(instance, Mode.PROXIMITY)
        assert validate_schedule(instance, baseline.schedule()).passes(DISPATCH_OK)
        best = deadline_and_proximity(instance)
        assert validate_schedule(instance, best.schedule()).passes(DISPATCH_OK)
        if n <= 6 and exact_checked < 60:
            result = solve_exact(instance, time_limit=5.0)
            if result.schedule is not None:
                exact_checked += 1
                assert validate_schedule(instance, result.schedule).passes()
    assert exact_checked >= 20
    _pass("constraint soundness on 1000 random instances")


def test_exact_matches_enumeration_oracle(oracle_batch):
    # Exhaustive enumeration over all crossing orders is the ground truth;
    # the solver must agree exactly, within a five-minute budget.
    for item in oracle_batch["items"]:
        expected = item["expected"]
        result = item["exact"]
        if expected is None:
            assert result.status is SolveStatus.INFEASIBLE
        else:
            assert result.status is SolveStatus.OPTIMAL
            assert result.objective == expected
            assert validate_schedule(item["instance"], result.schedule).passes()
    assert len(oracle_batch["items"]) >= 200
    assert oracle_batch["elapsed"] <= 300.0
    _pass(
        f"exact solver equals enumeration on {len(oracle_batch['items'])} "
        f"instances in {oracle_batch['elapsed']:.1f}s"
    )


def test_tardy_sandwich_exact_heuristic_baseline(oracle_batch):
    # Wherever the exact solver completed, its optimum bounds the best-of-
    # three result, which bounds the plain proximity result.  Instances
    # where a dispatch run broke a hard deadline are not comparable points
    # because that schedule is outside the solver's feasible set.
    compared = 0
    for item in oracle_batch["items"]:
        exact = item["exact"]
        if exact.status is not SolveStatus.OPTIMAL:
            continue
        runs = (item["baseline"], item["best"])
        if any(s is not VehicleStatus.COMPLETED for r in runs for s in r.statuses):
            continue
        instance = item["instance"]
        best_value = evaluate(instance, item["best"].schedule())
        baseline_value = evaluate(instance, item["baseline"].schedule())
        assert exact.objective <= best_value <= baseline_value
        compared += 1
    assert compared >= 150
    _pass(f"tardy sandwich exact <= best-of-three <= proximity on {compared} instances")


def test_mean_tardy_curves_qualitative(paper_sweeps):
    # Benchmark configuration: per vehicle count, the baseline curve is
    # nonincreasing in the deadline ratio and the best-of-three curve never
    # sits above it.
    for n, sweep in paper_sweeps.items():
        means = sweep.mean_tardy()
        ratios = sorted({key[1] for key in means})
        assert len(ratios) == 11
        baseline_curve = [means[(n, r, "baseline")][0] for r in ratios]
        heuristic_curve = [means[(n, r, "heuristic")][0] for r in ratios]
        for a, b in zip(baseline_curve, baseline_curve[1:]):
            assert b <= a + 1e-12
        for h, b in zip(heuristic_curve, baseline_curve):
            assert h <= b + 1e-12
        assert all(0.0 <= v <= 1.0 for v in baseline_curve + heuristic_curve)
    _pass("mean tardy curves: baseline nonincreasing, heuristic never above")


def test_heuristic_runtime_budget_and_scaling(paper_sweeps):
    # The best-of-three dispatch stays within 5 seconds per 100-vehicle
    # instance and its runtime growth across 25..100 vehicles fits a
    # log-log slope of at most 3.5 (cubic plus measurement headroom).
    for record in paper_sweeps[100].records:
        if record.algorithm == "heuristic":
            assert record.runtime_s <= 5.0
    points = []
    for n in PAPER_VEHICLE_COUNTS:
        runtime = paper_sweeps[n].mean_worst_runtime()[(n, "heuristic")]
        points.append((math.log(n), math.log(runtime)))
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / sum(
        (x - mean_x) ** 2 for x, _ in points
    )
    assert slope <= 3.5

    # Qualitative speed comparison against an external MIP solver, on
    # 25-vehicle instances both finish.
    compared = 0
    for seed in (404, 405):
        config = ExperimentConfig(
            n_vehicles=25, soft_deadline_ratios=(1.1,), n_instances=1, seed=0
        )
        instance = generate_grid_instance(config, 1.1, seed)
        outcome = scipy_milp_solve(parse_lp(export_mip(instance)), time_limit=60)
        if outcome is None or not outcome[0]:
            continue
        started = time.perf_counter()
        deadline_and_proximity(instance)
        heuristic_time = time.perf_counter() - started
        started = time.perf_counter()
        scipy_milp_solve(parse_lp(export_mip(instance)), time_limit=60)
        solver_time = time.perf_counter() - started
        assert heuristic_time < solver_time
        compared += 1
    _pass(
        f"runtime: slope {slope:.2f} <= 3.5, all 100-vehicle runs <= 5s, "
        f"faster than the external solver on {compared} comparisons"
    )


def test_jobshop_reduction_makespan():
    # Random 3-machine unit job shops (waiting allowed, all released at 0):
    # the converted instance's optimal makespan must equal the job shop
    # optimum found by breadth-first search, comparing last start times.
    from vsp import JspInstance, reduce_jsp_to_vsp

    rng = random.Random(99)
    for _ in range(50):
        jobs = []
        for _ in range(rng.randint(2, 4)):
            length = rng.randint(1, 4)
            sequence = [rng.randrange(3)]
            while len(sequence) < length:
                machine = rng.randrange(3)
                if machine != sequence[-1]:
                    sequence.append(machine)
            jobs.append(tuple(sequence))
        jsp = JspInstance(
            machine_count=3,
            jobs=tuple(jobs),
            release_times=(0,) * len(jobs),
            deadlines=(math.inf,) * len(jobs),
            no_wait=False,
        )
        reduced = reduce_jsp_to_vsp(jsp)
        assert exact_makespan(reduced) == unit_jsp_min_slots(jsp.jobs) - 1
    _pass("job shop reduction: 50 random instances match the search oracle")


def test_lp_export_fidelity_and_external_agreement():
    # Parsing every emitted LP file must rebuild the model row for row; an
    # available external MIP solver must reproduce the exact optimum.
    agreements = 0
    external_available = scipy_milp_solve(
        parse_lp(export_mip(generate_grid_instance(
            ExperimentConfig(n_vehicles=2, soft_deadline_ratios=(1.0,),
                             n_instances=1, seed=0), 1.0, 1,
        )))
    ) is not None
    for seed in range(10):
        config = ExperimentConfig(
            n_vehicles=3 + seed % 4,
            grid=GridSpec(4, 4),
            soft_deadline_ratios=(1.02,),
            n_instances=1,
            seed=0,
        )
        instance = generate_grid_instance(config, 1.02, 5000 + seed)
        model = build_mip_model(instance)
        assert parse_lp(write_lp(model)) == model
        if external_available:
            solved, objective, _ = scipy_milp_solve(model, time_limit=120)
            if solved:
                native = solve_exact(instance)
                assert native.status is SolveStatus.OPTIMAL
                assert round(objective) == native.objective
                agreements += 1
    if external_available:
        assert agreements == 10
    _pass(f"LP export fidelity on 10 instances; external agreement on {agreements}")


def test_minimal_times_dominance_and_deadline_monotonicity():
    # 100 random decided systems, 1000 random feasible assignments each:
    # the minimal solution never exceeds any of them componentwise.  And
    # relaxing every soft deadline by half never increases the optimum.
    rng = random.Random(2718)
    import vsp

    systems = 0
    while systems < 100:
        raw = random_small_instance(rng, max_pairs=8)
        instance = replace(raw, hard_deadlines=(vsp.INF,) * raw.n_vehicles)
        bits = tuple(rng.random() < 0.5 for _ in conflict_pairs(instance))
        orders = ordering_triples(instance, bits)
        cons = base_triples(instance)[0] + orders
        n_vars = 1 + instance.total_stamps
        dcs = DifferenceConstraintSystem(instance)
        for c in orders:
            dcs.push(c)
        solution = minimal_times(dcs)
        if not solution.feasible:
            continue
        systems += 1
        for _ in range(1000):
            point = random_feasible_times(n_vars, cons, rng)
            assert check_triples(point, cons)
            assert all(a <= b for a, b in zip(solution.times, point))

    for _ in range(25):
        instance = random_small_instance(rng, max_pairs=10)
        tight = solve_exact(instance)
        relaxed = solve_exact(replace(
            instance,
            soft_deadlines=tuple(3 * d // 2 for d in instance.soft_deadlines),
        ))
        assert tight.status is SolveStatus.OPTIMAL
        assert relaxed.objective <= tight.objective
    _pass("minimal-solution dominance (100 x 1000) and deadline monotonicity")
