import random
import tracemalloc
from dataclasses import replace

import pytest

from vsp import (
    INF,
    ConfigurationError,
    ConflictPair,
    ConstraintKind,
    ExperimentConfig,
    Graph,
    GridSpec,
    Instance,
    JspInstance,
    Mode,
    ObjectiveKind,
    Schedule,
    ShapeError,
    Walk,
    conflict_pairs,
    evaluate,
    generate_grid_instance,
    min_free_trip_time,
    reduce_jsp_to_vsp,
    run_dispatch,
    tardy_flags,
    tardy_weights,
    validate_schedule,
)
from oracles import (
    brute_force_separation_violations,
    chain_instance,
    merge_instance,
    naive_chain_violations,
)


# --- model invariants ----------------------------------------------------

def test_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, frozenset({(0, 0), (0, 1)}))


def test_graph_rejects_disconnected():
    with pytest.raises(ValueError, match="connected"):
        Graph(4, frozenset({(0, 1), (2, 3)}))


def test_graph_rejects_untouched_vertices_in_memory_of_its_edges():
    # Two edges cannot connect 200,000 vertices; the check must say so
    # without a table over every vertex.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="connected"):
            Graph(200_000, frozenset({(0, 1), (1, 0)}))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_graph_rejects_unknown_vertex():
    with pytest.raises(ValueError, match="unknown vertex"):
        Graph(2, frozenset({(0, 5)}))


@pytest.mark.parametrize("count", [0, -1])
def test_graph_rejects_no_vertex(count):
    with pytest.raises(ValueError) as exc:
        Graph(count, frozenset())
    assert str(exc.value) == "vertex_count must be a positive integer"


def test_single_vertex_graph_and_walk():
    g = Graph(1, frozenset())
    inst = Instance(
        graph=g,
        walks=(Walk((0,), (), ()),),
        request_times=(0,),
        soft_deadlines=(INF,),
        hard_deadlines=(INF,),
    )
    assert min_free_trip_time(inst, 0) == 0


def test_walk_link_length_mismatch():
    with pytest.raises(ValueError, match="link times"):
        Walk((0, 1, 2), (50,), (INF, INF))
    with pytest.raises(ValueError) as exc:
        Walk((), (), ())
    assert str(exc.value) == "a walk must visit at least one vertex"


def test_walk_min_exceeds_max():
    with pytest.raises(ValueError, match="exceeds max"):
        Walk((0, 1), (50,), (40,))


def test_walk_checks_every_link_window():
    """A bad window on the last link of a walk is caught and named, and a
    tick may be an int subclass but not a bool or a non-infinite float."""
    class Tick(int):
        pass

    assert Walk((0, 1, 2), (Tick(50), Tick(0)), (INF, Tick(7))).min_times[1] == 0
    for mins, maxs, message in (
        ((50, -1), (INF, INF), "min time on link 1 must be a nonnegative integer"),
        ((50, True), (INF, INF), "min time on link 1 must be a nonnegative integer"),
        ((50, 0.0), (INF, INF), "min time on link 1 must be a nonnegative integer"),
        ((50, 50), (INF, 60.5), "max time on link 1 must be an integer or +inf"),
        ((50, 50), (INF, 60.0), "max time on link 1 must be an integer or +inf"),
        ((50, 50), (INF, -INF), "max time on link 1 must be an integer or +inf"),
        ((50, 50), (INF, float("nan")), "max time on link 1 must be an integer or +inf"),
        ((50, 50), (INF, False), "max time on link 1 must be an integer or +inf"),
        ((50, 50), (INF, 49), "link 1: min time 50 exceeds max time 49"),
    ):
        with pytest.raises(ValueError) as exc:
            Walk((0, 1, 2), mins, maxs)
        assert str(exc.value) == message


def test_walk_must_follow_edges():
    g = Graph(3, frozenset({(0, 1), (1, 2)}))
    with pytest.raises(ValueError, match="not a graph edge"):
        Instance(
            graph=g,
            walks=(Walk((0, 2), (50,), (INF,)),),
            request_times=(0,),
            soft_deadlines=(INF,),
            hard_deadlines=(INF,),
        )


def test_separation_needs_shared_vertex():
    with pytest.raises(ValueError, match="different vertices"):
        merge_instance().__class__(
            graph=Graph(3, frozenset({(0, 2), (1, 2)})),
            walks=(Walk((0, 2), (50,), (INF,)), Walk((1, 2), (50,), (INF,))),
            request_times=(0, 0),
            soft_deadlines=(INF, INF),
            hard_deadlines=(INF, INF),
            separations={(0, 0, 1, 0): 5},  # vertices 0 and 1 differ
        )


def test_separation_rejects_same_vehicle():
    inst = chain_instance()
    with pytest.raises(ValueError, match="itself"):
        Instance(
            graph=inst.graph,
            walks=inst.walks,
            request_times=inst.request_times,
            soft_deadlines=inst.soft_deadlines,
            hard_deadlines=inst.hard_deadlines,
            separations={(0, 0, 0, 1): 5},
        )


def test_separations_mirrored_automatically():
    inst = merge_instance()
    assert inst.separations[(0, 1, 1, 1)] == 5
    assert inst.gap(1, 1, 0, 1) == 5
    assert conflict_pairs(inst) == (ConflictPair(0, 1, 1, 1, 5),)


def three_through_c(separation=0, separations=None):
    """Vehicles 0, 1 and 2 all pass vertex C=2 at step 1."""
    return Instance(
        graph=Graph(4, frozenset({(0, 2), (1, 2), (3, 2)})),
        walks=tuple(Walk((u, 2), (50,), (INF,)) for u in (0, 1, 3)),
        request_times=(0, 0, 0),
        soft_deadlines=(INF,) * 3,
        hard_deadlines=(INF,) * 3,
        separations=separations or {},
        separation=separation,
    )


def test_uniform_gap_with_sparse_overrides():
    inst = three_through_c(5, {(2, 1, 0, 1): 9, (1, 1, 2, 1): 0})
    assert inst.separations == {(0, 1, 2, 1): 9, (1, 1, 2, 1): 0}
    assert inst.gap(0, 1, 1, 1) == inst.gap(1, 1, 0, 1) == 5
    assert inst.gap(0, 1, 2, 1) == inst.gap(2, 1, 0, 1) == 9
    assert inst.gap(2, 1, 1, 1) == 0
    assert inst.gap(0, 0, 1, 0) == 0  # different vertices
    assert inst.gap(0, 1, 0, 1) == 0  # same vehicle
    assert conflict_pairs(inst) == (  # the zero-gap override is dropped
        ConflictPair(0, 1, 1, 1, 5), ConflictPair(0, 1, 2, 1, 9),
    )
    only_overrides = three_through_c(0, {(2, 1, 0, 1): 9})
    assert conflict_pairs(only_overrides) == (ConflictPair(0, 1, 2, 1, 9),)
    assert only_overrides.gap(0, 1, 1, 1) == 0


def test_override_given_both_ways_must_agree():
    assert three_through_c(5, {(0, 1, 1, 1): 7, (1, 1, 0, 1): 7}).separations == {
        (0, 1, 1, 1): 7
    }
    with pytest.raises(ValueError, match="different values"):
        three_through_c(5, {(0, 1, 1, 1): 7, (1, 1, 0, 1): 6})
    with pytest.raises(ValueError, match="separation must be"):
        three_through_c(-1)
    for separations, message in (
        ({(0, 1, 1, 2): 7}, "separation (0, 1, 1, 2) references an unknown step"),
        ({(0, 1, 3, 1): 7}, "separation (0, 1, 3, 1) references an unknown step"),
        ({(0, 1, 1, 1): -1}, "separation (0, 1, 1, 1) must be a nonnegative integer"),
        ({(0, 1, 1, 1): 7.0}, "separation (0, 1, 1, 1) must be a nonnegative integer"),
    ):
        with pytest.raises(ValueError) as exc:
            three_through_c(5, separations)
        assert str(exc.value) == message


def test_visits_are_built_on_first_read():
    # Vehicle 0 revisits vertex 0; entries run by vehicle, then by step.
    inst = Instance(
        graph=Graph(3, frozenset({(0, 1), (1, 0), (1, 2)})),
        walks=tuple(Walk(v, (5, 5), (INF, INF)) for v in ((0, 1, 0), (0, 1, 2))),
        request_times=(0, 0),
        soft_deadlines=(INF, INF),
        hard_deadlines=(INF, INF),
    )
    copy = replace(inst, separation=3)
    assert "visits" not in vars(inst) and "visits" not in vars(copy)
    expected = [(0, [(0, 0), (0, 2), (1, 0)]), (1, [(0, 1), (1, 1)]), (2, [(1, 2)])]
    assert list(inst.visits.items()) == expected
    assert inst.visits is inst.visits
    assert "visits" not in vars(copy)
    assert list(copy.visits.items()) == expected
    assert copy == replace(inst, separation=3)  # the index takes no part in ==


def test_deadline_chain_enforced():
    with pytest.raises(ValueError, match="request <= soft <= hard"):
        chain_instance(d_soft=50, d_hard=40)
    with pytest.raises(ValueError, match="request time exceeds"):
        Instance(
            graph=Graph(2, frozenset({(0, 1)})),
            walks=(Walk((0, 1), (50,), (INF,)),),
            request_times=(100,),
            soft_deadlines=(INF,),
            hard_deadlines=(60,),
        )
    # The last vehicle's values are checked and named like the first's.
    merge = merge_instance(d_soft=(200, 200), d_hard=(300, 300))
    for fields, message in (
        ({"request_times": (0, True)}, "request time of vehicle 1 must be an integer"),
        ({"request_times": (0, 0.0)}, "request time of vehicle 1 must be an integer"),
        ({"soft_deadlines": (200, 200.5)},
         "deadlines of vehicle 1 must be integers or +inf"),
        ({"hard_deadlines": (300, float("nan"))},
         "deadlines of vehicle 1 must be integers or +inf"),
        ({"hard_deadlines": (300, -INF)},
         "deadlines of vehicle 1 must be integers or +inf"),
        ({"request_times": (0, 301)}, "vehicle 1: request time exceeds hard deadline"),
        ({"soft_deadlines": (200, 301)},
         "vehicle 1: need request <= soft <= hard deadline, got 0, 301, 300"),
        ({"request_times": (0, 250)},
         "vehicle 1: need request <= soft <= hard deadline, got 250, 200, 300"),
        ({"walks": ()}, "an instance needs at least one vehicle"),
        ({"request_times": (0,)}, "request_times has length 1, expected 2"),
        ({"soft_deadlines": (200, 200, 200)}, "soft_deadlines has length 3, expected 2"),
        ({"hard_deadlines": (300,)}, "hard_deadlines has length 1, expected 2"),
        ({"weights": (1.0,)}, "weights has length 1, expected 2"),
    ):
        with pytest.raises(ValueError) as exc:
            replace(merge, **fields)
        assert str(exc.value) == message


def test_no_soft_deadline_with_finite_hard_is_fine():
    inst = chain_instance(d_soft=INF, d_hard=500)
    assert inst.soft_deadlines == (INF,)


def test_weighted_objective_requires_weights():
    with pytest.raises(ConfigurationError):
        merge_instance(objective=ObjectiveKind.WEIGHTED_TARDY_COUNT)
    # Asked for by name, on an instance that carries no weights.
    inst, kind = merge_instance(), ObjectiveKind.WEIGHTED_TARDY_COUNT
    message = "objective weighted_tardy_count requires vehicle weights"
    with pytest.raises(ConfigurationError) as exc:
        tardy_weights(inst, kind)
    assert str(exc.value) == message
    with pytest.raises(ConfigurationError) as exc:
        evaluate(inst, Schedule(((0, 50), (0, 55))), kind)
    assert str(exc.value) == message


def test_stamps_must_be_integers():
    with pytest.raises(ValueError, match="integer tick"):
        Schedule(((0, 50.5),))


# --- validation ------------------------------------------------------------

def test_tight_chaining_is_clean():
    inst = chain_instance()
    report = validate_schedule(inst, Schedule(((0, 50, 100),)))
    assert report and not report.violations


def test_short_link_flagged():
    inst = chain_instance()
    report = validate_schedule(inst, Schedule(((0, 40, 100),)))
    kinds = [v.kind for v in report.violations]
    assert kinds == [ConstraintKind.TRAVEL_TIME]
    assert report.violations[0].indices == (0,)


def test_separation_reported_once_per_pair():
    inst = merge_instance()
    report = validate_schedule(inst, Schedule(((0, 50), (3, 53))))
    seps = report.by_kind(ConstraintKind.SEPARATION)
    assert len(seps) == 1
    assert abs(50 - 53) == 3 < 5
    assert seps[0].vehicles == (0, 1)


def separation_cases(count=100, seed=11):
    """Seeded instances with stamps packed close together: grids and job
    shops that revisit a machine, separations 0, 1, 5 and 20, overrides
    wider and narrower than the rule (0 included), and some with max_gap 0."""
    rng = random.Random(seed)
    for k in range(count):
        if k % 4 == 3:
            machines = rng.randint(2, 4)
            jobs = []
            for _ in range(rng.randint(2, 6)):
                job = [rng.randrange(machines)]
                for _ in range(rng.randint(1, 6)):
                    step = rng.randrange(machines - 1)
                    job.append(step if step < job[-1] else step + 1)
                jobs.append(tuple(job))
            inst = reduce_jsp_to_vsp(JspInstance(
                machines, tuple(jobs), (0,) * len(jobs), (INF,) * len(jobs), False
            ))
        else:
            cfg = ExperimentConfig(
                n_vehicles=rng.randint(2, 14), grid=GridSpec(rng.randint(2, 4), 3)
            )
            inst = generate_grid_instance(cfg, 1.2, rng.getrandbits(32))
        pairs = [
            (j1, i1, j2, i2)
            for j1, w1 in enumerate(inst.walks)
            for j2 in range(j1 + 1, inst.n_vehicles)
            for i1, v in enumerate(w1.vertices)
            for i2, u in enumerate(inst.walks[j2].vertices)
            if u == v
        ]
        gaps = (0,) if k % 10 == 0 else (0, 1, 4, 5, 6, 19, 20, 21, 35)
        overrides = {
            key: rng.choice(gaps)
            for key in rng.sample(pairs, min(len(pairs), rng.randint(0, 12)))
        }
        separation = 0 if k % 10 == 0 else rng.choice((0, 1, 5, 20))
        inst = replace(inst, separation=separation, separations=overrides)
        spread = rng.choice((3, 10, 40))
        times = tuple(
            tuple(rng.randrange(spread) for _ in walk.vertices) for walk in inst.walks
        )
        yield inst, Schedule(times)


def test_separation_matches_brute_force_pair_walk():
    """The windowed check finds exactly the violations of the full pair walk,
    in the same order, whatever the separation rule."""
    checked = max_gap_zero = 0
    for inst, schedule in separation_cases():
        found = validate_schedule(inst, schedule).by_kind(ConstraintKind.SEPARATION)
        assert found == brute_force_separation_violations(inst, schedule)
        checked += len(found)
        max_gap_zero += inst.max_gap == 0
    assert checked > 1000 and max_gap_zero >= 10


def nudged_schedules(inst, times, rng):
    """(what, schedule) pairs: a dispatched schedule as it is, with one stamp
    moved less than its gap from another vehicle's at the same vertex, and
    with one link pushed one tick out of its window."""
    yield "clean", Schedule(times)
    clashing = [
        (j1, i1, j2, i2, s)
        for steps in inst.visits.values()
        for a, (j1, i1) in enumerate(steps)
        for j2, i2 in steps[a + 1:]
        if (s := inst.gap(j1, i1, j2, i2)) > 0
    ]
    if clashing:
        j1, i1, j2, i2, s = rng.choice(clashing)
        rows = [list(row) for row in times]
        rows[j1][i1] = rows[j2][i2] + rng.randint(1 - s, s - 1)
        yield "clash", Schedule(rows)
    links = [(j, i) for j, w in enumerate(inst.walks) for i in range(len(w) - 1)]
    if links:
        j, i = rng.choice(links)
        walk = inst.walks[j]
        rows = [list(row) for row in times]
        late = walk.max_times[i] != INF and rng.random() < 0.5
        travel = walk.max_times[i] + 1 if late else walk.min_times[i] - 1
        rows[j][i + 1] = rows[j][i] + travel
        yield "window", Schedule(rows)


def test_bulk_checks_match_oracles_on_dispatched_schedules(monkeypatch):
    """Dispatched schedules clear the per-walk and per-vertex bulk passes;
    one stamp nudged into a clash or out of a link window sends them to the
    item-by-item check.  Either way the report is exactly the naive per-link
    chain check followed by the full pair walk, on grids and revisiting job
    shops, with overrides (0 included) and with max_gap 0."""
    gap_calls = []
    real_gap = Instance.gap

    def counted_gap(self, *key):
        gap_calls.append(key)
        return real_gap(self, *key)

    monkeypatch.setattr(Instance, "gap", counted_gap)
    rng = random.Random(17)
    seen = {"clean": 0, "clash": 0, "window": 0}
    bulk_only = max_gap_zero = 0
    for inst, _ in separation_cases(count=80, seed=19):
        max_gap_zero += inst.max_gap == 0
        narrow = min(inst.separations.values(), default=inst.separation) < inst.separation
        revisits = any(len(set(w.vertices)) < len(w) for w in inst.walks)
        for mode in Mode:
            result = run_dispatch(inst, mode)
            if not result.complete:
                continue
            for what, schedule in nudged_schedules(inst, result.times, rng):
                gap_calls.clear()
                report = validate_schedule(inst, schedule)
                decided_in_bulk = not gap_calls
                assert list(report.violations) == (
                    naive_chain_violations(inst, schedule)
                    + brute_force_separation_violations(inst, schedule)
                ), what
                kinds = {v.kind for v in report.violations}
                if what == "clean":
                    assert kinds <= {ConstraintKind.HARD_DEADLINE}
                    bulk_only += decided_in_bulk
                    # Only an override narrower than the uniform gap, or a
                    # vehicle's own revisit, lets neighbours sit closer than
                    # that gap without a clash.
                    assert decided_in_bulk or narrow or revisits
                elif what == "clash":
                    assert ConstraintKind.SEPARATION in kinds
                else:
                    assert ConstraintKind.TRAVEL_TIME in kinds
                seen[what] += 1
    assert min(seen.values()) >= 100 and max_gap_zero >= 8
    # A clean schedule the bulk passes leave has stamps closer than the
    # uniform gap, and takes the item-by-item scan without a violation.
    assert (bulk_only, seen["clean"]) == (184, 240)


def test_exact_boundary_separation_ok():
    inst = merge_instance()
    report = validate_schedule(inst, Schedule(((0, 50), (5, 55))))
    assert report.passes()


def test_request_continuity_hard_deadline_kinds():
    inst = chain_instance(d_hard=90)
    inst = Instance(
        graph=inst.graph,
        walks=inst.walks,
        request_times=(10,),
        soft_deadlines=(INF,),
        hard_deadlines=(90,),
    )
    report = validate_schedule(inst, Schedule(((0, 60, 55),)))
    kinds = {v.kind for v in report.violations}
    assert ConstraintKind.REQUEST_TIME in kinds
    assert ConstraintKind.CONTINUITY in kinds
    assert ConstraintKind.HARD_DEADLINE not in kinds
    report2 = validate_schedule(inst, Schedule(((10, 60, 110),)))
    assert {v.kind for v in report2.violations} == {ConstraintKind.HARD_DEADLINE}


def test_shape_mismatch_raises():
    inst = chain_instance()
    with pytest.raises(ShapeError):
        validate_schedule(inst, Schedule(((0, 50),)))
    with pytest.raises(ShapeError):
        validate_schedule(inst, Schedule(((0, 50, 100), (0,))))


def test_validation_is_exact_no_tolerance():
    inst = chain_instance()
    assert validate_schedule(inst, Schedule(((0, 49, 100),))).violations
    assert validate_schedule(inst, Schedule(((0, 50, 100),))).passes()


# --- objectives ------------------------------------------------------------

def test_on_time_at_deadline_not_tardy():
    inst = chain_instance(d_soft=100)
    sched = Schedule(((0, 50, 100),))
    assert evaluate(inst, sched, ObjectiveKind.TARDY_COUNT) == 0
    assert evaluate(inst, sched, ObjectiveKind.MAX_LATENESS) == 0
    assert evaluate(inst, sched, ObjectiveKind.TOTAL_TARDINESS) == 0


def test_late_by_ten():
    inst = chain_instance(d_soft=90)
    sched = Schedule(((0, 50, 100),))
    assert evaluate(inst, sched, ObjectiveKind.TARDY_COUNT) == 1
    assert evaluate(inst, sched, ObjectiveKind.TOTAL_TARDINESS) == 10
    assert evaluate(inst, sched, ObjectiveKind.MAX_LATENESS) == 10


def test_weighted_tardy_enumeration():
    # Completions 55 and 50 against a shared deadline of 50: enumerating the
    # indicator per vehicle gives exactly one tardy vehicle, weight 3.
    inst = merge_instance(d_soft=(50, 50), weights=(3, 1))
    sched = Schedule(((0, 55), (0, 50)))
    expected = sum(
        1 for j in range(2) if sched.completion(j) > inst.soft_deadlines[j]
    )
    assert expected == 1
    assert evaluate(inst, sched, ObjectiveKind.TARDY_COUNT) == expected
    assert evaluate(inst, sched, ObjectiveKind.WEIGHTED_TARDY_COUNT) == 3


def test_weighted_tardy_sum_is_correctly_rounded():
    # Added left to right in floats, 0.1 + 0.2 + 0.3 is 0.6000000000000001.
    inst = replace(
        three_through_c(), soft_deadlines=(40,) * 3, weights=(0.1, 0.2, 0.3)
    )
    sched = Schedule(((0, 50),) * 3)
    assert evaluate(inst, sched, ObjectiveKind.WEIGHTED_TARDY_COUNT) == 0.6
    assert evaluate(inst, sched, ObjectiveKind.TARDY_COUNT) == 3


def test_completion_and_makespan_kinds():
    inst = merge_instance(d_soft=(50, 50), weights=(2, 1))
    sched = Schedule(((0, 55), (0, 50)))
    assert evaluate(inst, sched, ObjectiveKind.MAKESPAN) == 55
    assert evaluate(inst, sched, ObjectiveKind.TOTAL_COMPLETION) == 105
    assert evaluate(inst, sched, ObjectiveKind.TOTAL_WEIGHTED_COMPLETION) == 160


def test_min_free_trip_time():
    assert min_free_trip_time(chain_instance(), 0) == 100
    path5 = chain_instance(n_links=4)
    assert min_free_trip_time(path5, 0) == 200
    with pytest.raises(ValueError):
        min_free_trip_time(path5, 3)


def test_tardy_count_matches_per_vehicle_flags():
    rng = random.Random(4)
    inst = merge_instance(d_soft=(60, 60))
    for _ in range(50):
        sched = Schedule(tuple(
            (0, rng.randint(50, 80)) for _ in range(2)
        ))
        flags = tardy_flags(inst, sched)
        assert evaluate(inst, sched, ObjectiveKind.TARDY_COUNT) == sum(flags)
        max_late = evaluate(inst, sched, ObjectiveKind.MAX_LATENESS)
        if max_late >= 0:
            total = evaluate(inst, sched, ObjectiveKind.TOTAL_TARDINESS)
            assert total >= max_late


def test_objectives_invariant_under_vehicle_relabeling():
    inst = merge_instance(d_soft=(50, 90), weights=(3, 1))
    sched = Schedule(((0, 55), (5, 60)))
    permuted = Instance(
        graph=inst.graph,
        walks=(inst.walks[1], inst.walks[0]),
        request_times=(0, 0),
        soft_deadlines=(90, 50),
        hard_deadlines=(INF, INF),
        separations={(0, 1, 1, 1): 5},
        objective=inst.objective,
        weights=(1, 3),
    )
    permuted_sched = Schedule((sched.times[1], sched.times[0]))
    for kind in ObjectiveKind:
        assert evaluate(inst, sched, kind) == evaluate(permuted, permuted_sched, kind)
