import itertools
import random
import sys
import time
from dataclasses import replace

import pytest

from vsp import (
    INF,
    ConfigurationError,
    DifferenceConstraintSystem,
    ExperimentConfig,
    Graph,
    Instance,
    ObjectiveKind,
    Walk,
    conflict_pairs,
    deadline_and_proximity,
    evaluate,
    generate_grid_instance,
    minimal_times,
    solve_exact,
    validate_schedule,
)
import vsp.exact
from vsp.exact import SolveStatus, _min_cover, node_bound, scaled_tardy_weights
from oracles import (
    base_triples,
    blocked_instance,
    brute_force_tardy,
    chain_instance,
    check_triples,
    clashing_rows,
    merge_instance,
    naive_minimal_times,
    ordering_triples,
    pair_order,
    pair_rows,
    random_feasible_times,
    random_small_instance,
    tardy_of_times,
)


def decided_system(instance, bits):
    dcs = DifferenceConstraintSystem(instance)
    for c in ordering_triples(instance, bits):
        dcs.push(c)
    return dcs


def solve(instance, **options):
    """solve_exact, checking that the bound never passes the objective and
    meets it once the objective is proved optimal."""
    result = solve_exact(instance, **options)
    if result.status is SolveStatus.OPTIMAL:
        assert result.lower_bound == result.objective
    elif result.objective is not None:
        assert result.lower_bound <= result.objective
    return result


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


def test_overtaking_witness_names_link_maximum_and_both_separations():
    # Vehicle 1 leaves vertex 0 first but must reach vertex 1 behind vehicle
    # 0, within 55 ticks: 50 + 5 - 55 + 5 > 0, a cycle without the origin.
    inst = Instance(
        graph=Graph(2, frozenset({(0, 1)})),
        walks=(Walk((0, 1), (50,), (INF,)), Walk((0, 1), (50,), (55,))),
        request_times=(0, 0),
        soft_deadlines=(INF, INF),
        hard_deadlines=(INF, INF),
        separation=5,
    )
    sol = minimal_times(decided_system(inst, (False, True)))
    assert not sol.feasible
    assert_positive_cycle(sol.witness)
    assert [(c.label, c.bound) for c in sol.witness] == [
        ("min_time v0 link0", 50),
        ("separation v0@1 before v1@1", 5),
        ("max_time v1 link0", -55),
        ("separation v1@0 before v0@0", 5),
    ]


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
            # Conflicting orientations; both routes must agree it is a cycle,
            # and the cycle is made of the referee's own constraints.
            assert not sol.feasible
            assert_positive_cycle(sol.witness)
            assert all((c.x, c.y, c.bound) in cons for c in sol.witness)
            continue
        assert sol.feasible
        assert list(sol.times) == reference
        for _ in range(20):
            point = random_feasible_times(n_vars, cons, rng)
            assert check_triples(point, cons)
            assert all(a <= b for a, b in zip(sol.times, point))


# --- exact search -----------------------------------------------------------

def test_single_vehicle_trivially_optimal():
    result = solve(chain_instance(d_soft=200))
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == 0
    assert result.node_count == 1
    assert result.schedule.times == ((0, 50, 100),)


def test_two_vehicle_one_must_be_tardy():
    result = solve(merge_instance(d_soft=(50, 50)))
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == 1


def test_tardy_count_ignores_weights():
    # Weighing the two vehicles would claim 2 here: the lighter one is tardy.
    inst = merge_instance(d_soft=(50, 50), weights=(2, 3))
    result = solve(inst)
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == evaluate(inst, result.schedule)
    assert result.objective == result.lower_bound == 1


def test_weighted_order_flips_choice():
    inst = merge_instance(
        d_soft=(50, 50),
        weights=(3, 1),
        objective=ObjectiveKind.WEIGHTED_TARDY_COUNT,
    )
    result = solve(inst)
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == 1
    assert result.schedule.times == ((0, 50), (0, 55))


def test_root_cover_weighs_vehicles_by_weight():
    # Best-of-three breaks vehicle 1's hard deadline, so no warm start caps
    # the root bound: it is the lighter of the two incompatible vehicles.
    inst = merge_instance(
        d_soft=(50, 50),
        d_hard=(200, 52),
        weights=(0.25, 0.5),
        objective=ObjectiveKind.WEIGHTED_TARDY_COUNT,
    )
    result = solve(inst)
    assert result.objective == result.lower_bound == 0.25
    assert result.schedule.times == ((0, 55), (0, 50))


def test_rejects_other_objectives():
    with pytest.raises(ConfigurationError):
        solve(merge_instance(objective=ObjectiveKind.MAKESPAN))


def test_infeasible_instance_returns_witness():
    result = solve(chain_instance(d_hard=90))
    assert result.status is SolveStatus.INFEASIBLE
    assert result.witness is not None
    assert sum(c.bound for c in result.witness) > 0


def test_horizon_can_force_infeasibility():
    result = solve(merge_instance(), horizon=52)
    assert result.status is SolveStatus.INFEASIBLE
    # inf sets no horizon; any other horizon that is not an integer tick is
    # refused, neither truncated nor converted.
    inst = merge_instance(d_soft=(50, 50), d_hard=(200, 200))
    assert solve(inst, horizon=INF) == solve(inst)
    for horizon in (52.9, True, "60", float("nan"), -INF):
        with pytest.raises(ConfigurationError, match="horizon must be an integer tick"):
            solve_exact(inst, horizon=horizon)


@pytest.mark.parametrize("horizon, last", [
    # A horizon below the hard deadline is the one edge to the origin.
    (90, ("horizon v0", -90)),
    # At or above the hard deadline, the hard deadline binds and is named.
    (95, ("hard_deadline v0", -95)),
    (120, ("hard_deadline v0", -95)),
])
def test_witness_names_the_tighter_of_hard_deadline_and_horizon(horizon, last):
    # The walk needs 100 ticks; both 90 and 95 cut it short.
    result = solve(chain_instance(d_hard=95), horizon=horizon)
    assert result.status is SolveStatus.INFEASIBLE
    assert [(c.label, c.bound) for c in result.witness] == [
        ("request v0", 0),
        ("min_time v0 link0", 50),
        ("min_time v0 link1", 50),
        last,
    ]


def test_budget_zero_reports_exhaustion():
    # Best-of-three sends vehicle 0 first, which breaks vehicle 1's hard
    # deadline, so there is no warm start; the optimum is 1 with vehicle 1
    # first.
    inst = merge_instance(d_soft=(50, 50), d_hard=(200, 52))
    result = solve(inst, time_limit=0.0)
    assert result.status is SolveStatus.BUDGET_EXHAUSTED
    assert result.schedule is None
    assert result.lower_bound == 1
    assert solve(inst).objective == 1


def test_budget_zero_keeps_warm_start():
    # The zero-budget root bound, 5, stays below the warm start's 6.
    config = ExperimentConfig(n_vehicles=12, soft_deadline_ratios=(1.0,))
    inst = generate_grid_instance(config, 1.0, 3)
    result = solve(inst, time_limit=0.0)
    assert result.status is SolveStatus.FEASIBLE_INCUMBENT
    assert (result.node_count, result.objective, result.lower_bound) == (1, 6, 5)
    assert evaluate(inst, result.schedule) == 6
    assert validate_schedule(inst, result.schedule).passes()
    # Where the root bound meets the warm start, running out of time still
    # proves it.
    inst = merge_instance(d_soft=(50, 50), d_hard=(200, 200))
    result = solve(inst, time_limit=0.0)
    assert result.status is SolveStatus.OPTIMAL
    assert result.node_count == 1
    assert result.schedule.times == ((0, 50), (0, 55))
    assert result.objective == result.lower_bound == 1


def test_every_mode_failing_leaves_no_warm_start():
    # Dispatch leaves vehicle 1 without a slot in every mode, so the search
    # starts cold: at the root it has no incumbent, and it needs one branch
    # to send vehicle 1 five ticks after vehicle 0.
    inst = blocked_instance()
    assert not deadline_and_proximity(inst).complete
    cold = solve(inst, time_limit=0.0)
    assert (cold.status, cold.schedule) == (SolveStatus.BUDGET_EXHAUSTED, None)
    result = solve(inst)
    assert (
        result.status, result.objective, result.node_count, result.lower_bound
    ) == (SolveStatus.OPTIMAL, 0, 3, 0)
    assert result.schedule.times == ((0, 50), (5, 55))


def test_root_without_clash_is_a_leaf(monkeypatch):
    # Vehicle 1 reaches C ten ticks after vehicle 0, twice the gap, so the
    # root's least stamps keep every gap; vehicle 0 is late at 50.
    inst = replace(merge_instance(d_soft=(40, 210)), request_times=(0, 10))
    assert conflict_pairs(inst)

    def outcome():
        r = solve(inst)
        return r.status, r.objective, r.node_count, r.lower_bound, r.schedule.times

    expected = (SolveStatus.OPTIMAL, 1, 1, 1, ((0, 50), (10, 60)))
    assert outcome() == expected
    # Without a warm start nothing prunes the root: it is recorded as a leaf.
    monkeypatch.setattr(vsp.exact, "_warm_start", lambda *args: None)
    assert outcome() == expected


def test_root_is_bounded_once(monkeypatch):
    # (8, 0) closes at the root: the warm start already meets the root bound.
    config = ExperimentConfig(n_vehicles=8, soft_deadline_ratios=(1.0,))
    inst = generate_grid_instance(config, 1.0, 0)
    root = minimal_times(DifferenceConstraintSystem(inst)).times
    limits = []

    def counting_node_bound(*args):
        bound = node_bound(*args)

        def counted(dist, limit, clashing):
            if limit is not None and tuple(dist) == root:
                limits.append(limit)
            return bound(dist, limit, clashing)

        return counted

    monkeypatch.setattr(vsp.exact, "node_bound", counting_node_bound)
    result = solve(inst)
    assert (result.objective, result.node_count) == (3, 1)
    assert limits == [3]


@pytest.mark.parametrize("n, seed, objective, nodes", [
    # Summed in floats, the weights of 15-7 and 20-9 put the root bound one
    # ulp below the optimum, so no leaf can meet it and the search runs on
    # (219 and 855 nodes).
    pytest.param(15, 7, 5.420070259584697, 79, id="15-7"),
    pytest.param(20, 10, 12.783912634027221, 371, id="20-10"),
    pytest.param(20, 9, 12.982252421412953, 393, id="20-9"),
])
def test_weighted_tardy_sums_are_exact(n, seed, objective, nodes):
    # Bounds and incumbents add float weights scaled to exact ints, so the
    # root bound meets the optimum; the objective is divided back once.
    config = ExperimentConfig(n_vehicles=n, soft_deadline_ratios=(1.0,))
    rng = random.Random(seed * 31 + n)
    inst = replace(
        generate_grid_instance(config, 1.0, seed),
        objective=ObjectiveKind.WEIGHTED_TARDY_COUNT,
        weights=tuple(rng.random() * 3 for _ in range(n)),
    )
    result = solve(inst)
    assert result.status is SolveStatus.OPTIMAL
    assert result.lower_bound == result.objective == evaluate(inst, result.schedule)
    assert (result.objective, result.node_count) == (objective, nodes)
    assert validate_schedule(inst, result.schedule).passes()


def test_scaled_tardy_weights():
    inst = merge_instance(d_soft=(50, 50))
    # Float weights share the largest power-of-two denominator.
    for weights, scaled, scale in (
        ((0.25, 3.0), [1, 12], 4),
        ((0.75, 0.5), [3, 2], 4),
        ((2.0, 1.0), [2, 1], 1),
        ((0.1, 1.0), [3602879701896397, 36028797018963968], 36028797018963968),
    ):
        weighted = replace(inst, objective=ObjectiveKind.WEIGHTED_TARDY_COUNT,
                           weights=weights)
        assert scaled_tardy_weights(weighted) == (scaled, scale)
        assert [w / scale for w in scaled] == list(weights)
    # Int weights and tardy_count stay as they are, with no denominator.
    assert scaled_tardy_weights(
        replace(inst, objective=ObjectiveKind.WEIGHTED_TARDY_COUNT, weights=(2, 3))
    ) == ([2, 3], None)
    assert scaled_tardy_weights(replace(inst, weights=(0.5, 3.0))) == ([1, 1], None)
    # Integral float weights still give a float objective.
    weighted = replace(inst, objective=ObjectiveKind.WEIGHTED_TARDY_COUNT,
                       weights=(2.0, 1.0))
    result = solve(weighted)
    assert result.objective == 1.0 and isinstance(result.objective, float)


# Seconds a solve may run past its time limit: the warm start and the
# limit checks of the search and the cover.
TIME_LIMIT_SLACK = 1.0


def test_time_limit_stops_the_root_cover():
    # The root cover of this instance runs for seconds without a deadline.
    config = ExperimentConfig(n_vehicles=80, soft_deadline_ratios=(1.0,))
    inst = generate_grid_instance(config, 1.0, 1)
    start = time.monotonic()
    result = solve(inst, time_limit=0.2)
    assert time.monotonic() - start < 0.2 + TIME_LIMIT_SLACK
    assert result.status is SolveStatus.FEASIBLE_INCUMBENT
    assert result.node_count == 1
    assert result.lower_bound <= result.objective


def test_min_cover_past_its_deadline_is_the_edge_packing():
    # A unit triangle: the first edge pays 1 and leaves nothing for the
    # other two, while any cover takes two vertices.
    triangle = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
    assert _min_cover(triangle, [1, 1, 1], INF) == 2
    assert _min_cover(triangle, [1, 1, 1], INF, time.monotonic() + 60) == 2
    assert _min_cover(triangle, [1, 1, 1], INF, time.monotonic() - 1) == 1
    assert _min_cover(triangle, [1, 1, 1], 0.5, time.monotonic() - 1) == 0.5


def test_time_limit_must_be_a_nonnegative_number():
    inst = merge_instance(d_soft=(50, 50), d_hard=(200, 52))
    # 10**400 is a real number of seconds, but no float holds it.
    for bad in (float("nan"), -1.0, 10**400):
        with pytest.raises(ConfigurationError, match="time limit"):
            solve(inst, time_limit=bad)
    assert solve(inst, time_limit=float("inf")).status is SolveStatus.OPTIMAL


def test_time_limit_refuses_a_bool_and_a_string():
    """True would read as a limit of 1 s, and False as one of 0 s."""
    inst = merge_instance(d_soft=(50, 50), d_hard=(200, 52))
    for bad in (True, False, "30"):
        with pytest.raises(ConfigurationError, match=f"^time limit .* {bad!r}$"):
            solve(inst, time_limit=bad)


def weighted(
    inst, rng, choices=(1, 2, 3, 4, 5), objective=ObjectiveKind.WEIGHTED_TARDY_COUNT
):
    """inst with weights drawn from choices, under objective; tardy_count
    must ignore them."""
    return replace(
        inst,
        objective=objective,
        weights=tuple(rng.choice(choices) for _ in range(inst.n_vehicles)),
    )


def test_matches_enumeration_on_random_instances():
    rng, wrng, crng = random.Random(31), random.Random(1031), random.Random(2031)
    cases = [random_small_instance(rng, max_pairs=10) for _ in range(40)]
    cases += [
        weighted(random_small_instance(wrng, max_pairs=10), wrng) for _ in range(40)
    ]
    # Weights under tardy_count: counted as 1 per tardy vehicle.
    cases += [
        weighted(
            random_small_instance(crng, max_pairs=10), crng,
            objective=ObjectiveKind.TARDY_COUNT,
        )
        for _ in range(20)
    ]
    for inst in cases:
        expected = brute_force_tardy(inst)
        result = solve(inst)
        assert expected is not None
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == expected
        report = validate_schedule(inst, result.schedule)
        assert report.passes()
        assert evaluate(inst, result.schedule) == expected


def test_bound_valid_at_every_partial_decision():
    rng = random.Random(8)
    wrng = random.Random(9)
    checked = covered = 0
    while checked < 24:
        inst = random_small_instance(rng, max_pairs=6)
        if checked % 4 == 1:
            # Weights below 1 too (exact in binary), so a cover that
            # counted vehicles instead of weights would overshoot.
            inst = weighted(inst, wrng, (0.25, 0.5, 1, 3, 5))
        elif checked % 4 == 3:
            # Weights above 1 under tardy_count, so a cover that weighed
            # vehicles there would overshoot.
            inst = weighted(inst, wrng, (2, 3, 5), ObjectiveKind.TARDY_COUNT)
        pairs = list(conflict_pairs(inst).items())
        if not pairs:
            continue
        checked += 1
        for trial in range(6):
            fixed = {
                k: rng.random() < 0.5
                for k in range(len(pairs))
                if rng.random() < 0.5
            }
            # The partial node: minimal times of the partially decided system.
            dcs = DifferenceConstraintSystem(inst)
            for k, value in fixed.items():
                dcs.push(pair_order(inst, k, value))
            sol = minimal_times(dcs)
            best_leaf = brute_force_tardy(inst, fixed=fixed)
            if not sol.feasible:
                assert best_leaf is None
                assert_positive_cycle(sol.witness)
                continue
            # The bound counts in units of 1 / the weights' denominator;
            # these weights are dyadic, so the scaled oracle values are exact.
            unit = scaled_tardy_weights(inst)[1] or 1
            tardy = tardy_of_times(inst, list(sol.times)) * unit
            bound = node_bound(dcs)
            clashing = clashing_rows(pair_rows(inst), sol.times)
            # Without a limit the bound is the oracle's tardy weight alone.
            assert bound(sol.times, None, clashing) == tardy
            lower = bound(sol.times, INF, clashing)
            covered += lower > tardy
            if best_leaf is not None:
                assert lower <= best_leaf * unit
    assert covered


def test_min_cover_matches_subset_enumeration():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 7)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        ]
        weights = [rng.randint(1, 5) for _ in range(n)]
        adjacency = {}
        for u, v in edges:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        least = min(
            sum(weights[v] for v in subset)
            for size in range(n + 1)
            for subset in itertools.combinations(range(n), size)
            if all(u in subset or v in subset for u, v in edges)
        )
        for limit in (INF, least + 1, least, least - 1, 0):
            assert _min_cover(adjacency, weights, limit) == min(least, limit)


def test_search_leaves_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError("the search changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    inst = merge_instance(d_soft=(50, 50))
    assert conflict_pairs(inst)
    result = solve(inst)
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == 1


# (vehicles, seed) -> (optimum, nodes) on 5x5 grids at ratio 1.0.  These
# change only when the search order or its bounds change on purpose.  Most
# close at the root; (12, 10) and the n=20 searches branch, since their warm
# starts are worse than the root bound.
PINNED_SEARCHES = {
    (8, 0): (3, 1),
    (8, 1): (2, 1),
    (8, 5): (1, 1),
    (8, 6): (3, 1),
    (10, 5): (2, 1),
    (10, 25): (3, 1),
    (12, 10): (5, 21),
    (15, 3): (8, 1),
    (20, 2): (10, 63),
    (20, 9): (10, 99),
    (20, 10): (11, 93),
}


@pytest.mark.parametrize("n, seed", sorted(PINNED_SEARCHES))
def test_pinned_optimum_and_node_count(n, seed):
    config = ExperimentConfig(n_vehicles=n, soft_deadline_ratios=(1.0,))
    inst = generate_grid_instance(config, 1.0, seed)
    result = solve(inst)
    assert result.status is SolveStatus.OPTIMAL
    assert (result.objective, result.node_count) == PINNED_SEARCHES[n, seed]
    assert result.lower_bound == result.objective
    assert validate_schedule(inst, result.schedule).passes()
    assert evaluate(inst, result.schedule) == result.objective


# (vehicles, seed) -> (status, optimum, nodes, lower bound) on 5x5 grids at
# ratio 1.0 with hard deadlines at 1.05 times the free trip time.  Best-of-three
# breaks a hard deadline on each, so the search runs without an incumbent
# until its first leaf.  The lower bound is the optimum once proved, else
# the root bound (6 on (12, 3); 5 on (12, 14), proved at 6).
PINNED_COLD_SEARCHES = {
    (12, 3): (SolveStatus.INFEASIBLE, None, 30, 6),
    (12, 7): (SolveStatus.OPTIMAL, 5, 38, 5),
    (12, 14): (SolveStatus.OPTIMAL, 6, 11, 6),
}


@pytest.mark.parametrize("n, seed", sorted(PINNED_COLD_SEARCHES))
def test_pinned_search_without_warm_start(n, seed):
    config = ExperimentConfig(
        n_vehicles=n, soft_deadline_ratios=(1.0,), hard_deadline_factor=1.05
    )
    inst = generate_grid_instance(config, 1.0, seed)
    assert deadline_and_proximity(inst).hard_violations
    result = solve(inst)
    assert (
        result.status, result.objective, result.node_count, result.lower_bound
    ) == PINNED_COLD_SEARCHES[n, seed]
    if result.schedule is not None:
        assert validate_schedule(inst, result.schedule).passes()
        assert evaluate(inst, result.schedule) == result.objective


def test_optimum_monotone_in_soft_deadlines():
    rng = random.Random(13)
    for _ in range(15):
        inst = random_small_instance(rng, max_pairs=8)
        tight = solve(inst).objective
        relaxed_inst = replace(
            inst,
            soft_deadlines=tuple(3 * d // 2 for d in inst.soft_deadlines),
        )
        relaxed = solve(relaxed_inst).objective
        assert relaxed <= tight
