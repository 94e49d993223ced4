import itertools
import random
import sys
from dataclasses import replace

import pytest

from vsp import (
    INF,
    ConfigurationError,
    DifferenceConstraintSystem,
    ExperimentConfig,
    ObjectiveKind,
    conflict_pairs,
    evaluate,
    generate_grid_instance,
    minimal_times,
    solve_exact,
    validate_schedule,
)
from vsp.exact import SolveStatus
from oracles import (
    base_triples,
    brute_force_tardy,
    chain_instance,
    check_triples,
    merge_instance,
    naive_minimal_times,
    ordering_triples,
    random_feasible_times,
    random_small_instance,
    tardy_of_times,
)


def decided_system(instance, bits):
    dcs = DifferenceConstraintSystem(instance)
    for pair, j1_first in zip(conflict_pairs(instance), bits):
        dcs.add_order(pair, j1_first)
    return dcs


def assert_positive_cycle(witness):
    """The witness chains head to tail, closes on itself and sums above 0."""
    assert witness
    for a, b in zip(witness, witness[1:]):
        assert a.x == b.y
    assert witness[-1].x == witness[0].y
    assert sum(c.bound for c in witness) > 0


# --- minimal times ----------------------------------------------------------

def test_chain_minimal_times():
    sol = minimal_times(DifferenceConstraintSystem(chain_instance()))
    assert sol.feasible
    assert sol.times == (0, 0, 50, 100)


def test_decided_merge_minimal_times():
    inst = merge_instance()
    sol = minimal_times(decided_system(inst, (True,)))
    assert sol.feasible
    assert sol.times[1:] == (0, 50, 0, 55)


def test_minimal_times_match_grid_enumeration():
    # Enumerate the 5-tick grid up to 100 and keep feasible points of the
    # decided merge system; the library's answer must be the componentwise
    # floor of all of them and itself feasible.
    inst = merge_instance()
    cons = base_triples(inst)[0] + ordering_triples(inst, (True,))
    feasible_points = [
        (0,) + point
        for point in itertools.product(range(0, 101, 5), repeat=4)
        if check_triples([0, *point], cons)
    ]
    assert feasible_points
    sol = minimal_times(decided_system(inst, (True,)))
    assert check_triples(list(sol.times), cons)
    for point in feasible_points:
        assert all(a <= b for a, b in zip(sol.times, point))
    best = min(feasible_points)
    assert sol.times == best  # the grid contains the minimal point itself


def test_infeasible_witness_cycle():
    inst = merge_instance(d_soft=(INF, INF), d_hard=(INF, 52))
    sol = minimal_times(decided_system(inst, (True,)))
    assert not sol.feasible
    assert_positive_cycle(sol.witness)
    labels = {c.label for c in sol.witness}
    assert any("hard_deadline" in label for label in labels)
    assert any("separation" in label for label in labels)


def test_minimal_solution_below_random_feasible_points():
    rng = random.Random(6)
    for _ in range(30):
        # Lower bounds only: random point sampling inflates bounds, which
        # must stay feasible, so strip the hard deadlines.
        raw = random_small_instance(rng, max_pairs=8)
        inst = replace(raw, hard_deadlines=(INF,) * raw.n_vehicles)
        pairs = conflict_pairs(inst)
        bits = tuple(rng.random() < 0.5 for _ in pairs)
        cons = base_triples(inst)[0] + ordering_triples(inst, bits)
        n_vars = 1 + inst.total_stamps
        reference = naive_minimal_times(n_vars, cons)
        sol = minimal_times(decided_system(inst, bits))
        if reference is None:
            # Conflicting orientations; both routes must agree it is a cycle.
            assert not sol.feasible
            assert_positive_cycle(sol.witness)
            continue
        assert sol.feasible
        assert list(sol.times) == reference
        for _ in range(20):
            point = random_feasible_times(n_vars, cons, rng)
            assert check_triples(point, cons)
            assert all(a <= b for a, b in zip(sol.times, point))


# --- exact search -----------------------------------------------------------

def test_single_vehicle_trivially_optimal():
    result = solve_exact(chain_instance(d_soft=200))
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == 0
    assert result.node_count == 1
    assert result.schedule.times == ((0, 50, 100),)


def test_two_vehicle_one_must_be_tardy():
    result = solve_exact(merge_instance(d_soft=(50, 50)))
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == 1


def test_weighted_order_flips_choice():
    inst = merge_instance(
        d_soft=(50, 50),
        weights=(3, 1),
        objective=ObjectiveKind.WEIGHTED_TARDY_COUNT,
    )
    result = solve_exact(inst)
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == 1
    assert result.schedule.times == ((0, 50), (0, 55))


def test_rejects_other_objectives():
    with pytest.raises(ConfigurationError):
        solve_exact(merge_instance(objective=ObjectiveKind.MAKESPAN))


def test_infeasible_instance_returns_witness():
    result = solve_exact(chain_instance(d_hard=90))
    assert result.status is SolveStatus.INFEASIBLE
    assert result.witness is not None
    assert sum(c.bound for c in result.witness) > 0


def test_horizon_can_force_infeasibility():
    result = solve_exact(merge_instance(), horizon=52)
    assert result.status is SolveStatus.INFEASIBLE


def test_budget_zero_reports_exhaustion():
    inst = merge_instance(d_soft=(50, 50))
    result = solve_exact(inst, time_limit=0.0)
    assert result.status is SolveStatus.BUDGET_EXHAUSTED
    assert result.schedule is None


def test_matches_enumeration_on_random_instances():
    rng = random.Random(31)
    for _ in range(40):
        inst = random_small_instance(rng, max_pairs=10)
        expected = brute_force_tardy(inst)
        result = solve_exact(inst)
        assert expected is not None
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == expected
        report = validate_schedule(inst, result.schedule)
        assert report.passes()
        assert evaluate(inst, result.schedule) == expected


def test_bound_valid_at_every_partial_decision():
    rng = random.Random(8)
    checked = 0
    while checked < 12:
        inst = random_small_instance(rng, max_pairs=6)
        pairs = conflict_pairs(inst)
        if not pairs:
            continue
        checked += 1
        for trial in range(6):
            fixed = {
                k: rng.random() < 0.5
                for k in range(len(pairs))
                if rng.random() < 0.5
            }
            # Bound at the partial node: tardiness of the minimal times of
            # the partially decided system.
            dcs = DifferenceConstraintSystem(inst)
            for k, value in fixed.items():
                dcs.add_order(pairs[k], value)
            sol = minimal_times(dcs)
            best_leaf = brute_force_tardy(inst, fixed=fixed)
            if not sol.feasible:
                assert best_leaf is None
                assert_positive_cycle(sol.witness)
                continue
            bound = tardy_of_times(inst, list(sol.times))
            if best_leaf is not None:
                assert bound <= best_leaf


def test_search_leaves_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError("the search changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    inst = merge_instance(d_soft=(50, 50))
    assert conflict_pairs(inst)
    result = solve_exact(inst)
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == 1


# (vehicles, seed) -> (optimum, nodes) on 5x5 grids at ratio 1.0.  These
# change only when the search order changes on purpose.
PINNED_SEARCHES = {
    (8, 0): (3, 85),
    (8, 1): (2, 62),
    (8, 5): (1, 36),
    (8, 6): (3, 63),
    (10, 5): (2, 96),
    (10, 25): (3, 103),
}


@pytest.mark.parametrize("n, seed", sorted(PINNED_SEARCHES))
def test_pinned_optimum_and_node_count(n, seed):
    config = ExperimentConfig(n_vehicles=n, soft_deadline_ratios=(1.0,))
    inst = generate_grid_instance(config, 1.0, seed)
    result = solve_exact(inst)
    assert result.status is SolveStatus.OPTIMAL
    assert (result.objective, result.node_count) == PINNED_SEARCHES[n, seed]
    assert validate_schedule(inst, result.schedule).passes()
    assert evaluate(inst, result.schedule) == result.objective


def test_optimum_monotone_in_soft_deadlines():
    rng = random.Random(13)
    for _ in range(15):
        inst = random_small_instance(rng, max_pairs=8)
        tight = solve_exact(inst).objective
        relaxed_inst = replace(
            inst,
            soft_deadlines=tuple(3 * d // 2 for d in inst.soft_deadlines),
        )
        relaxed = solve_exact(relaxed_inst).objective
        assert relaxed <= tight
