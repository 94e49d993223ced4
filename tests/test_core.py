import random
import tracemalloc
from dataclasses import replace
from functools import cached_property

import pytest

from vsp import (
    INF,
    ConfigurationError,
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
from vsp.core import walks_from_rows
from oracles import (
    Tick,
    brute_force_separation_violations,
    chain_instance,
    merge_instance,
    naive_chain_violations,
    shared_vertex_pairs,
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


def test_vertex_ids_must_be_ticks():
    """True and 1.0 equal vertex 1 but no file can hold them as a vertex or
    a step: a walk, the bulk walk builder, a graph and an instance's
    separation overrides each reject them by name.  Every walk vertex is
    a graph vertex, a one-vertex walk's too."""
    for bad in (True, 1.0):
        message = f"vertex at step 0 must be an integer tick, got {bad!r}"
        with pytest.raises(ValueError) as exc:
            Walk((bad, 2), (50,), (INF,))
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            walks_from_rows([(0, 1), (bad, 2)], [(50,), (50,)], [(INF,), (INF,)])
        assert str(exc.value) == f"walk 1: {message}"
        with pytest.raises(ValueError) as exc:
            Graph(3, frozenset({(bad, 2), (0, 1)}))
        assert str(exc.value) == f"edge ({bad},2) endpoints must be integer ticks"
        for key in ((0, bad, 1, 1), (0, 1, bad, 1), (0, 1, 1, bad)):
            with pytest.raises(ValueError) as exc:
                replace(merge_instance(), separations={key: 5})
            assert str(exc.value) == f"separation {key} indices must be integer ticks"
    for vertex in (2, -1):
        with pytest.raises(ValueError) as exc:
            Instance(Graph(2, frozenset({(0, 1)})),
                     (Walk((0, 1), (50,), (INF,)), Walk((vertex,), (), ())),
                     (0, 0), (INF, INF), (INF, INF))
        assert str(exc.value) == f"walk 1 starts at {vertex}, not a graph vertex"
    # An int subclass other than bool is still a tick.
    assert Walk((Tick(1), 2), (50,), (INF,)).vertices == (1, 2)
    assert Graph(3, frozenset({(Tick(1), 2), (0, 1)})).edges == {(1, 2), (0, 1)}
    assert replace(merge_instance(), separations={(0, Tick(1), 1, 1): 5}).separations


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
    assert list(conflict_pairs(inst).items()) == [((0, 1, 1, 1), 5)]


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
    assert list(conflict_pairs(inst).items()) == [  # the zero-gap override is dropped
        ((0, 1, 1, 1), 5), ((0, 1, 2, 1), 9),
    ]
    only_overrides = three_through_c(0, {(2, 1, 0, 1): 9})
    assert list(conflict_pairs(only_overrides).items()) == [((0, 1, 2, 1), 9)]
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


def test_conflict_pairs_are_built_once_per_instance():
    """The table is kept on the instance like visits: one read-only object
    per instance, no part of ==, repr or a replaced copy, which builds its
    own.  A job shop that revisits machine 0 puts no same-vehicle pair in it."""
    grid = generate_grid_instance(ExperimentConfig(n_vehicles=12), 1.0, 4)
    revisiting = reduce_jsp_to_vsp(
        JspInstance(2, ((0, 1, 0), (1, 0)), (0, 0), (INF, INF), False)
    )
    for inst in (grid, revisiting):
        assert "_conflict_pairs" not in vars(inst)
        pairs = conflict_pairs(inst)
        assert conflict_pairs(inst) is pairs
        with pytest.raises(TypeError):
            pairs[next(iter(pairs))] = 0
        assert list(pairs) == sorted(shared_vertex_pairs(inst))
        assert all(s == inst.separation for s in pairs.values())
        copy = replace(inst, separation=7)
        assert "_conflict_pairs" not in vars(copy)
        assert conflict_pairs(copy) is not pairs
        assert set(conflict_pairs(copy).values()) == {7}
        fresh = replace(inst)
        assert fresh == inst and repr(fresh) == repr(inst)
        assert "_conflict_pairs" not in vars(fresh)
        # The table reads each gap inline; it holds what Instance.gap gives, in
        # the same order, overrides in either orientation and zero gaps included.
        keys = sorted(shared_vertex_pairs(inst))
        overrides = {key: (0, 2, 9)[k % 3] for k, key in enumerate(keys[::4])}
        overrides = {(k[2], k[3], k[0], k[1]) if n % 2 else k: s
                     for n, (k, s) in enumerate(overrides.items())}
        for separation in (0, 5):
            overridden = replace(inst, separation=separation, separations=overrides)
            expected = [
                (key, s) for key in keys if (s := overridden.gap(*key)) > 0
            ]
            assert list(conflict_pairs(overridden).items()) == expected
            assert any(s == 0 for s in overridden.separations.values())
            assert len(expected) < len(keys)
    assert list(conflict_pairs(revisiting)) == [(0, 0, 1, 1), (0, 1, 1, 0), (0, 2, 1, 1)]


def test_remaining_minima_by_hand():
    """Vehicle 0 revisits vertex 1 over a zero-length link; vehicle 1 has
    no soft deadline, which the table does not read; a one-vertex walk has
    nothing left to travel."""
    inst = Instance(
        graph=Graph(3, frozenset({(0, 1), (1, 2), (2, 1)})),
        walks=(Walk((0, 1, 2, 1), (30, 0, 20), (INF,) * 3), Walk((2, 1), (10,), (INF,)),
               Walk((2,), (), ())),
        request_times=(0, 0, 0),
        soft_deadlines=(100, INF, 0),
        hard_deadlines=(500, 500, 0),
    )
    # The minimum times of the links after each step: the free trip time first.
    assert inst.remaining_minima == ((30 + 0 + 20, 0 + 20, 20, 0), (10, 0), (0,))
    assert inst.with_soft_deadlines((50, 10, INF)).remaining_minima is inst.remaining_minima


def test_every_table_kept_on_an_instance_reads_no_soft_deadline():
    """with_soft_deadlines hands every table its base has built to the
    derived instance, which is sound while none of them reads a soft
    deadline: a new table must be checked for that and listed here."""
    kept = {name for name, attr in vars(Instance).items()
            if isinstance(attr, cached_property)}
    assert kept == {"visits", "remaining_minima", "_walk_lengths", "_conflict_pairs"}
    inst = generate_grid_instance(ExperimentConfig(n_vehicles=12), 1.0, 4)
    tables = {name: getattr(inst, name) for name in kept}
    derived = inst.with_soft_deadlines((INF,) * inst.n_vehicles)
    assert all(vars(derived)[name] is table for name, table in tables.items())
    assert vars(inst.with_soft_deadlines(inst.soft_deadlines)).keys() == vars(inst).keys()


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
                    # Only an override narrower than the uniform gap lets
                    # distinct vehicles sit closer than that gap without a
                    # clash; a vehicle's own close revisits are decided in
                    # bulk.
                    assert decided_in_bulk or narrow
                elif what == "clash":
                    assert ConstraintKind.SEPARATION in kinds
                else:
                    assert ConstraintKind.TRAVEL_TIME in kinds
                seen[what] += 1
    assert min(seen.values()) >= 100 and max_gap_zero >= 8
    # A clean schedule the bulk passes leave has distinct vehicles closer
    # than the uniform gap, and takes the item-by-item scan without a
    # violation.
    assert (bulk_only, seen["clean"]) == (187, 240)


def test_close_revisit_of_one_vehicle_is_decided_in_bulk(monkeypatch):
    """Vehicle 0 leaves vertex 0 and is back 4 ticks later, inside the gap
    of 5; vehicle 1 reaches vertex 0 16 ticks after that.  Only distinct
    vehicles need the gap, so the clean schedule never calls Instance.gap,
    and vehicle 1 3 ticks after the revisit still clashes."""
    gap_calls = []
    real_gap = Instance.gap

    def counted_gap(self, *key):
        gap_calls.append(key)
        return real_gap(self, *key)

    monkeypatch.setattr(Instance, "gap", counted_gap)
    inst = Instance(
        graph=Graph(2, frozenset({(0, 1), (1, 0)})),
        walks=(Walk((0, 1, 0), (1, 1), (INF, INF)), Walk((1, 0), (1,), (INF,))),
        request_times=(0, 0),
        soft_deadlines=(INF, INF),
        hard_deadlines=(INF, INF),
        separation=5,
    )
    report = validate_schedule(inst, Schedule(((0, 1, 4), (10, 20))))
    assert report.passes() and gap_calls == []
    report = validate_schedule(inst, Schedule(((0, 1, 4), (6, 7))))
    assert [(v.kind, v.vehicles, v.indices) for v in report.violations] == [
        (ConstraintKind.SEPARATION, (0, 1), (2, 1))
    ]


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
