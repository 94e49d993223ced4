import dataclasses
import hashlib
import random
from functools import cached_property
from pathlib import Path

import pytest

import vsp.heuristics
from vsp import (
    INF,
    ConstraintKind,
    ExperimentConfig,
    Graph,
    GridSpec,
    Instance,
    JspInstance,
    Mode,
    ObjectiveKind,
    SlotWindowError,
    VehicleStatus,
    Walk,
    deadline_and_proximity,
    evaluate,
    generate_grid_instance,
    lazy_dispatch,
    reduce_jsp_to_vsp,
    replay_dispatch,
    run_dispatch,
    sorting_key,
    validate_schedule,
)
from oracles import (
    blocked_instance,
    chain_instance,
    earliest_feasible_slot,
    eager_best,
    merge_instance,
    reference_dispatch,
    shared_vertex_pairs,
)

DISPATCH_OK = frozenset({ConstraintKind.HARD_DEADLINE})


def slack_state_instance():
    # One vehicle mid-walk: sitting on its second vertex at stamp 100, two
    # vertices still ahead over links of 75 each, soft deadline 300.
    graph = Graph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
    return Instance(
        graph=graph,
        walks=(Walk((0, 1, 2, 3), (10, 75, 75), (INF, INF, INF)),),
        request_times=(0,),
        soft_deadlines=(300,),
        hard_deadlines=(INF,),
    )


# --- sorting keys -----------------------------------------------------------

def test_proximity_key_copies_next_link_time():
    key = sorting_key(chain_instance(), Mode.PROXIMITY)
    assert key(0, 1, 0) == (50, 0, 0.0, 0, 1)


def test_abs_key_is_clamped_slack():
    key = sorting_key(slack_state_instance(), Mode.ABS_DEADLINE_PROXIMITY)
    # remaining minimum travel 75 + 75 = 150, so slack = 300 - 250 = 50
    assert key(0, 2, 100) == (75, 0, 50.0, 0, 2)


def test_rel_key_divides_by_remaining_vertices():
    key = sorting_key(slack_state_instance(), Mode.REL_DEADLINE_PROXIMITY)
    assert key(0, 2, 100) == (75, 0, 25.0, 0, 2)  # 50 slack over 2 remaining vertices


def test_negative_slack_prose_demotes_pseudocode_clamps():
    inst = slack_state_instance()
    prose = sorting_key(inst, Mode.ABS_DEADLINE_PROXIMITY, "prose")
    literal = sorting_key(inst, Mode.ABS_DEADLINE_PROXIMITY, "pseudocode")
    late = (0, 2, 260)  # slack = 300 - 410 < 0
    assert prose(*late) == (75, 1, 0.0, 0, 2)
    assert literal(*late) == (75, 0, 0.0, 0, 2)
    healthy = prose(0, 2, 100)
    assert healthy < prose(*late)
    assert literal(*late) < healthy


def test_unknown_negative_slack_policy():
    inst = chain_instance()
    with pytest.raises(ValueError):
        sorting_key(inst, Mode.PROXIMITY, "maybe")
    # A proximity replay reads no key, yet still rejects the policy.
    with pytest.raises(ValueError):
        replay_dispatch(run_dispatch(inst, Mode.PROXIMITY), inst, Mode.PROXIMITY, "maybe")


# --- slot search ------------------------------------------------------------

def test_slot_unconstrained():
    assert earliest_feasible_slot(7, 50, INF, []) == 50


def test_slot_bumped_past_gap():
    assert earliest_feasible_slot(7, 50, INF, [(50, 5)]) == 55


def test_slot_scans_overlapping_intervals():
    assert earliest_feasible_slot(7, 50, INF, [(48, 5), (55, 5)]) == 60


def test_slot_boundary_is_feasible():
    # |50 - 55| equals the gap exactly, so 50 itself is allowed.
    assert earliest_feasible_slot(7, 50, INF, [(55, 5)]) == 50


def test_slot_window_exhausted():
    with pytest.raises(SlotWindowError):
        earliest_feasible_slot(7, 50, 54, [(50, 5)])


def test_slot_matches_linear_scan_oracle():
    rng = random.Random(11)
    for _ in range(300):
        blockers = [
            (rng.randint(0, 80), rng.randint(0, 12)) for _ in range(rng.randint(0, 6))
        ]
        lower = rng.randint(0, 60)
        expected = next(
            t for t in range(lower, 400)
            if all(abs(t - stamp) >= s for stamp, s in blockers)
        )
        assert earliest_feasible_slot(0, lower, INF, blockers) == expected


def test_own_revisit_inside_the_gap_blocks_nothing():
    # Vehicle 0 comes back to vertex 0 two ticks after leaving it, well
    # inside the uniform gap of 5.  Its own stamp 0 lies in the scanned
    # window but blocks nothing, so it is back at 2, not 5.
    inst = Instance(
        graph=Graph(2, frozenset({(0, 1), (1, 0)})),
        walks=(Walk((0, 1, 0), (1, 1), (INF, INF)), Walk((1, 0), (7,), (INF,))),
        request_times=(0, 10),
        soft_deadlines=(INF, INF),
        hard_deadlines=(INF, INF),
        separation=5,
    )
    for mode in Mode:
        result = run_dispatch(inst, mode)
        assert result.times == ((0, 1, 2), (10, 17))
        assert result == reference_dispatch(inst, mode)


def test_slot_scan_jumps_past_wide_gap_after_narrow_one():
    # Vehicle 2 asks for vertex 0 at 8, where stamp 8 needs a gap of 1 and
    # stamp 10 a gap of 5.  In stamp order the scan first jumps to 9, inside
    # stamp 10's interval (5, 15), and then to 15.
    inst = Instance(
        graph=Graph(1, frozenset()),
        walks=(Walk((0,), (), ()),) * 3,
        request_times=(8, 10, 8),
        soft_deadlines=(INF,) * 3,
        hard_deadlines=(INF,) * 3,
        separations={(0, 0, 1, 0): 1, (0, 0, 2, 0): 1, (1, 0, 2, 0): 5},
        separation=5,
    )
    blockers = [(8, 1), (10, 5)]
    expected = next(
        t for t in range(8, 100) if all(abs(t - stamp) >= s for stamp, s in blockers)
    )
    assert expected == 15
    for mode in Mode:
        result = run_dispatch(inst, mode)
        assert result.times == ((8,), (10,), (expected,))
        assert result == reference_dispatch(inst, mode)


# --- dispatch runs ----------------------------------------------------------

def test_single_vehicle_no_contention():
    result = run_dispatch(chain_instance(), Mode.PROXIMITY)
    assert result.times == ((0, 50, 100),)
    assert result.statuses == (VehicleStatus.COMPLETED,)


def test_two_vehicle_merge_id_tiebreak():
    result = run_dispatch(merge_instance(), Mode.PROXIMITY)
    assert result.times == ((0, 50), (0, 55))


def test_two_vehicle_merge_abs_lets_tight_deadline_go_first():
    result = run_dispatch(
        merge_instance(d_soft=(200, 60)), Mode.ABS_DEADLINE_PROXIMITY
    )
    assert result.times == ((0, 55), (0, 50))


def test_shared_start_vertex_staggered():
    graph = Graph(2, frozenset({(0, 1)}))
    inst = Instance(
        graph=graph,
        walks=(Walk((0, 1), (50,), (INF,)), Walk((0, 1), (50,), (INF,))),
        request_times=(0, 0),
        soft_deadlines=(INF, INF),
        hard_deadlines=(INF, INF),
        separations={(0, 0, 1, 0): 5, (0, 1, 1, 1): 5},
    )
    result = run_dispatch(inst, Mode.PROXIMITY)
    assert result.times == ((0, 50), (5, 55))


def test_first_stamps_follow_one_global_key_order():
    # Both vehicles start at vertex 0 with equal keys, so vehicle 0 takes its
    # first stamp first, at its request time 3; vehicle 1, requested at 0,
    # then waits until 8 instead of going at 0 and moving vehicle 0 to 5.
    graph = Graph(2, frozenset({(0, 1)}))
    inst = Instance(
        graph=graph,
        walks=(Walk((0, 1), (50,), (INF,)), Walk((0, 1), (50,), (INF,))),
        request_times=(3, 0),
        soft_deadlines=(INF, INF),
        hard_deadlines=(INF, INF),
        separation=5,
    )
    for mode in Mode:
        assert run_dispatch(inst, mode).times == ((3, 53), (8, 58))


def test_hard_deadline_reported_not_repaired():
    inst = merge_instance(d_soft=(54, 54), d_hard=(54, 54))
    result = run_dispatch(inst, Mode.PROXIMITY)
    assert result.times == ((0, 50), (0, 55))
    assert result.statuses[1] is VehicleStatus.HARD_DEADLINE_VIOLATED
    assert result.hard_violations == 1


def test_slot_window_failure_flags_vehicle_and_continues():
    graph = Graph(4, frozenset({(0, 2), (1, 2), (2, 3), (3, 2)}))
    inst = Instance(
        graph=graph,
        walks=(
            Walk((0, 2), (50,), (50,)),
            Walk((1, 2), (50,), (50,)),   # same fixed arrival, no room at 2
            Walk((3, 2), (30,), (INF,)),
        ),
        request_times=(0, 0, 0),
        soft_deadlines=(INF, INF, INF),
        hard_deadlines=(INF, INF, INF),
        separations={
            (0, 1, 1, 1): 5, (0, 1, 2, 1): 5, (1, 1, 2, 1): 5,
        },
    )
    result = run_dispatch(inst, Mode.PROXIMITY)
    assert result.statuses[0] is VehicleStatus.COMPLETED
    assert result.statuses[1] is VehicleStatus.SLOT_WINDOW_FAILED
    assert result.statuses[2] is VehicleStatus.COMPLETED
    assert not result.complete
    for _ in range(2):
        with pytest.raises(SlotWindowError):
            result.schedule()
    assert len(result.times[1]) == 1  # first stamp only


def test_outcome_counts_equal_a_recount_of_statuses():
    """complete, slot_failures and hard_violations agree with a recount of
    statuses on grids with finite link maxima and tight hard deadlines,
    where runs leave vehicles without a slot and break hard deadlines."""
    rng = random.Random(29)
    incomplete = late = 0
    for _ in range(30):
        cfg = ExperimentConfig(
            n_vehicles=rng.randint(5, 60),
            grid=GridSpec(rng.randint(2, 5), rng.randint(2, 5)),
            tau_max_link=rng.choice((50, 55, 60)),
            soft_deadline_ratios=(1.0,),
            hard_deadline_factor=rng.choice((1.0, 1.05, 1.2)),
        )
        inst = generate_grid_instance(cfg, 1.0, rng.getrandbits(32))
        for mode in Mode:
            result = run_dispatch(inst, mode)
            failed = [s is VehicleStatus.SLOT_WINDOW_FAILED for s in result.statuses]
            broke = [s is VehicleStatus.HARD_DEADLINE_VIOLATED for s in result.statuses]
            assert result.complete is (not any(failed))
            assert result.slot_failures == sum(failed)
            assert result.hard_violations == sum(broke)
            incomplete += not result.complete
            late += any(broke)
    assert incomplete and late


def test_zero_length_links_reenter_current_stamp():
    # A zero minimum keeps the new stamp equal to the popped one; the loop
    # must requeue and finish instead of dropping the vehicle.
    graph = Graph(3, frozenset({(0, 1), (1, 2)}))
    inst = Instance(
        graph=graph,
        walks=(Walk((0, 1, 2), (0, 0), (INF, INF)),),
        request_times=(0,),
        soft_deadlines=(INF,),
        hard_deadlines=(INF,),
    )
    result = run_dispatch(inst, Mode.PROXIMITY)
    assert result.times == ((0, 0, 0),)
    assert result.statuses == (VehicleStatus.COMPLETED,)


def test_slot_window_covers_overrides_wider_than_separation():
    # B asks for vertex 2 at 120; A's stamp 100 lies below 120 - separation
    # but inside the override gap of 40, so B must wait until 140.
    graph = Graph(3, frozenset({(0, 1), (1, 2)}))
    inst = Instance(
        graph=graph,
        walks=(Walk((2,), (), ()), Walk((1, 2), (50,), (INF,))),
        request_times=(100, 70),
        soft_deadlines=(INF, INF),
        hard_deadlines=(INF, INF),
        separations={(0, 0, 1, 1): 40},
        separation=5,
    )
    assert inst.max_gap == 40
    for mode in Mode:
        assert run_dispatch(inst, mode).times == ((100,), (70, 140))


def test_windowed_dispatch_matches_whole_list_scan(monkeypatch):
    rng = random.Random(23)
    cases = []
    for _ in range(40):
        cfg = ExperimentConfig(
            n_vehicles=rng.randint(2, 30),
            grid=GridSpec(rng.randint(2, 4), 4),
            tau_max_link=rng.choice((INF, 50, 60, 80)),
        )
        inst = generate_grid_instance(cfg, 1.2, rng.getrandbits(32))
        pairs = [
            (j1, i1, j2, i2)
            for steps in inst.visits.values()
            for a, (j1, i1) in enumerate(steps)
            for j2, i2 in steps[a + 1:]
            if j1 != j2
        ]
        overrides = {
            key: rng.randint(0, 60)
            for key in rng.sample(pairs, min(len(pairs), rng.randint(1, 12)))
        }
        cases.append(dataclasses.replace(
            inst, separation=rng.choice((0, 5, 20)), separations=overrides
        ))
    windowed = [[run_dispatch(inst, mode) for mode in Mode] for inst in cases]
    monkeypatch.setattr(Instance, "max_gap", 10**9)
    for inst, results in zip(cases, windowed):
        assert results == [run_dispatch(inst, mode) for mode in Mode]
        for result in results:
            if result.complete:
                report = validate_schedule(inst, result.schedule())
                assert report.passes(ignore=DISPATCH_OK)


def test_dispatch_deterministic():
    cfg = ExperimentConfig(n_vehicles=30, seed=5)
    inst = generate_grid_instance(cfg, 1.1, 77)
    for mode in Mode:
        a = run_dispatch(inst, mode)
        b = run_dispatch(inst, mode)
        assert a == b


def test_random_instances_satisfy_constraints():
    rng = random.Random(2)
    for _ in range(25):
        cfg = ExperimentConfig(n_vehicles=rng.randint(2, 40), seed=0)
        inst = generate_grid_instance(cfg, rng.choice((1.0, 1.3, 1.7)), rng.getrandbits(32))
        for mode in Mode:
            result = run_dispatch(inst, mode)
            report = validate_schedule(inst, result.schedule())
            assert report.passes(ignore=DISPATCH_OK)


def test_stamps_are_multiples_of_gcd():
    # Link times of 50 and gaps of 5 only ever combine to multiples of 5.
    cfg = ExperimentConfig(n_vehicles=40, seed=9)
    inst = generate_grid_instance(cfg, 1.2, 31)
    for mode in Mode:
        result = run_dispatch(inst, mode)
        assert all(t % 5 == 0 for row in result.times for t in row)


def test_proximity_ignores_deadlines():
    cfg = ExperimentConfig(n_vehicles=25, seed=3)
    base = generate_grid_instance(cfg, 1.0, 13)
    fractions = []
    previous_times = None
    for ratio in (1.0, 1.2, 1.5, 2.0):
        inst = generate_grid_instance(cfg, ratio, 13)
        result = run_dispatch(inst, Mode.PROXIMITY)
        if previous_times is not None:
            assert result.times == previous_times
        previous_times = result.times
        fractions.append(
            evaluate(inst, result.schedule(), ObjectiveKind.TARDY_COUNT)
        )
    assert fractions == sorted(fractions, reverse=True)
    assert base.graph == inst.graph


# --- best of three ----------------------------------------------------------

def test_wrapper_trivial_on_single_vehicle():
    result = deadline_and_proximity(chain_instance())
    assert result.times == ((0, 50, 100),)


def test_wrapper_prefers_mode_that_avoids_tardiness():
    # Proximity sends vehicle 0 through first, making vehicle 1 (deadline 50)
    # finish at 55 and go tardy; the deadline modes reverse the order.
    inst = merge_instance(d_soft=(200, 50))
    proximity = run_dispatch(inst, Mode.PROXIMITY)
    assert evaluate(inst, proximity.schedule()) == 1
    best = deadline_and_proximity(inst)
    assert best.mode is Mode.ABS_DEADLINE_PROXIMITY
    assert evaluate(inst, best.schedule()) == 0
    # The winner hands out the Schedule its ranking built, not a new one.
    assert best.schedule() is best.schedule()


def test_wrapper_tie_falls_back_to_mode_order():
    # With a loose deadline every mode is tardy-free; proximity wins the tie.
    inst = merge_instance(d_soft=(200, 60))
    best = deadline_and_proximity(inst)
    assert evaluate(inst, best.schedule()) == 0
    assert best.mode is Mode.PROXIMITY


def test_wrapper_never_worse_than_proximity():
    rng = random.Random(21)
    for _ in range(20):
        cfg = ExperimentConfig(n_vehicles=rng.randint(3, 30), seed=0)
        inst = generate_grid_instance(
            cfg, rng.choice((0.95, 1.0, 1.1, 1.4)), rng.getrandbits(32)
        )
        best = deadline_and_proximity(inst)
        baseline = run_dispatch(inst, Mode.PROXIMITY)
        assert evaluate(inst, best.schedule()) <= evaluate(inst, baseline.schedule())


def test_wrapper_returns_first_ranked_run_when_every_mode_fails():
    # All three modes fail vehicle 1 alike, so mode order picks proximity.
    inst = blocked_instance()
    best = deadline_and_proximity(inst)
    assert best == run_dispatch(inst, Mode.PROXIMITY)
    assert not best.complete
    for _ in range(2):
        with pytest.raises(SlotWindowError):
            best.schedule()


@pytest.fixture
def dispatch_calls(monkeypatch):
    """The modes deadline_and_proximity starts a run in, in call order."""
    calls = []

    def counted(instance, mode, *args):
        calls.append(mode)
        return lazy_dispatch(instance, mode, *args)

    monkeypatch.setattr(vsp.heuristics, "lazy_dispatch", counted)
    return calls


@pytest.fixture
def replay_calls(monkeypatch):
    """The modes deadline_and_proximity takes from a replay, in call order."""
    calls = []

    def counted(run, instance, mode, *args):
        res = replay_dispatch(run, instance, mode, *args)
        if res is not None:
            calls.append(mode)
        return res

    monkeypatch.setattr(vsp.heuristics, "replay_dispatch", counted)
    return calls


@pytest.mark.parametrize("objective", [
    ObjectiveKind.TARDY_COUNT,
    ObjectiveKind.WEIGHTED_TARDY_COUNT,
    ObjectiveKind.TOTAL_TARDINESS,
])
def test_wrapper_stops_once_no_later_mode_can_win(dispatch_calls, objective):
    # Proximity makes vehicle 1 tardy; abs is complete, on time and breaks
    # no hard deadline, so rel, which comes after it in Mode, is not run.
    inst = merge_instance(d_soft=(200, 50), weights=(2, 3), objective=objective)
    best = deadline_and_proximity(inst)
    assert dispatch_calls == [Mode.PROXIMITY, Mode.ABS_DEADLINE_PROXIMITY]
    assert best.mode is Mode.ABS_DEADLINE_PROXIMITY
    assert evaluate(inst, best.schedule()) == 0
    assert best == eager_best(inst, [run_dispatch(inst, m) for m in Mode])


def test_wrapper_stops_after_proximity_when_it_cannot_be_beaten(dispatch_calls):
    inst = merge_instance(d_soft=(200, 60))
    best = deadline_and_proximity(inst)
    assert dispatch_calls == [Mode.PROXIMITY]
    assert best == run_dispatch(inst, Mode.PROXIMITY)


@pytest.mark.parametrize("inst", [
    merge_instance(d_soft=(40, 40)),  # every mode leaves both vehicles tardy
    blocked_instance(),  # every mode fails a vehicle
], ids=["tardy", "incomplete"])
def test_wrapper_draws_every_mode_when_no_run_reaches_zero(dispatch_calls, inst):
    best = deadline_and_proximity(inst)
    assert dispatch_calls == list(Mode)
    assert best == eager_best(inst, [run_dispatch(inst, m) for m in Mode])


@pytest.mark.parametrize("objective", [
    ObjectiveKind.MAX_LATENESS,
    ObjectiveKind.MAKESPAN,
])
def test_wrapper_never_stops_early_when_the_objective_can_go_below_zero(
        dispatch_calls, replay_calls, objective):
    # Proximity finishes vehicle 1 exactly at its deadline (max lateness 0),
    # but abs finishes both early, at max lateness -5, and wins.  Every mode
    # is drawn and run: rel sorts as abs did, but only proximity's run,
    # whose orders rel breaks, is tried for it.
    inst = merge_instance(d_soft=(200, 55), objective=objective)
    best = deadline_and_proximity(inst)
    assert dispatch_calls == list(Mode)
    assert replay_calls == []
    assert best == eager_best(inst, [run_dispatch(inst, m) for m in Mode])
    if objective is ObjectiveKind.MAX_LATENESS:
        assert evaluate(inst, run_dispatch(inst, Mode.PROXIMITY).schedule()) == 0
        assert best.mode is Mode.ABS_DEADLINE_PROXIMITY


def test_best_of_draws_modes_in_order_until_no_later_one_can_win(dispatch_calls):
    # Proximity makes vehicle 1 tardy and abs does not, so rel is not drawn.
    inst = merge_instance(d_soft=(200, 50))
    best = deadline_and_proximity(inst)
    assert dispatch_calls == [Mode.PROXIMITY, Mode.ABS_DEADLINE_PROXIMITY]
    assert best == run_dispatch(inst, Mode.ABS_DEADLINE_PROXIMITY)
    # Proximity is already on time, so no deadline mode is drawn.
    dispatch_calls.clear()
    inst = merge_instance(d_soft=(200, 60))
    best = deadline_and_proximity(inst)
    assert dispatch_calls == [Mode.PROXIMITY]
    assert best == run_dispatch(inst, Mode.PROXIMITY)


def test_paused_proximity_run_is_started_but_never_finished(monkeypatch):
    # Proximity stamps vehicle 1 at C past its latest on-time stamp, so its
    # run signals; abs then ends at (0, 0, 0) and the paused run is dropped.
    started, finished = [], []

    def tracked(instance, mode, *args):
        started.append(mode)
        for step in lazy_dispatch(instance, mode, *args):
            if step is not None:
                finished.append(mode)
            yield step

    monkeypatch.setattr(vsp.heuristics, "lazy_dispatch", tracked)
    inst = merge_instance(d_soft=(200, 50))
    best = deadline_and_proximity(inst)
    assert started == [Mode.PROXIMITY, Mode.ABS_DEADLINE_PROXIMITY]
    assert finished == [Mode.ABS_DEADLINE_PROXIMITY]
    assert best == run_dispatch(inst, Mode.ABS_DEADLINE_PROXIMITY)
    assert list(lazy_dispatch(inst, Mode.PROXIMITY)) == [
        None, run_dispatch(inst, Mode.PROXIMITY)
    ]


def test_wrapper_drains_only_proximity_where_the_deadline_modes_keep_its_orders(
        monkeypatch, replay_calls):
    """At ratio 1.0 every mode signals and is paused.  Proximity, finished
    first, sorts every group as abs and rel would, so the paused abs and
    rel runs are replayed from it instead of drained."""
    started, drained = [], []

    def tracked(instance, mode, *args):
        started.append(mode)
        for step in lazy_dispatch(instance, mode, *args):
            if step is not None:
                drained.append(mode)
            yield step

    monkeypatch.setattr(vsp.heuristics, "lazy_dispatch", tracked)
    inst = generate_grid_instance(ExperimentConfig(n_vehicles=10), 1.0, 3)
    best = deadline_and_proximity(inst)
    assert started == list(Mode)
    assert drained == [Mode.PROXIMITY]
    assert replay_calls == [Mode.ABS_DEADLINE_PROXIMITY, Mode.REL_DEADLINE_PROXIMITY]
    assert best == eager_best(inst, [run_dispatch(inst, mode) for mode in Mode])


def test_run_signals_when_its_first_stamp_is_already_late():
    # One vehicle over two links of 50 ends at 100.  For a deadline of 99
    # its first stamp, at its request time, is already late, and no later
    # stamp waits, so only the check of first stamps can see it.
    for d_soft, signals in ((100, []), (99, [None])):
        inst = chain_instance(d_soft=d_soft)
        *head, result = lazy_dispatch(inst, Mode.PROXIMITY)
        assert head == signals
        assert result == run_dispatch(inst, Mode.PROXIMITY)


def test_remaining_minima_are_built_once_per_instance(monkeypatch):
    """Every run of an instance, its deadline keys and its signal checks
    share one table, and so does every instance derived from it with new
    soft deadlines; a replaced instance builds its own, equal to it."""
    built = []
    build = Instance.__dict__["remaining_minima"].func

    def counted(instance):
        built.append(instance.soft_deadlines)
        return build(instance)

    table = cached_property(counted)
    table.__set_name__(Instance, "remaining_minima")
    monkeypatch.setattr(Instance, "remaining_minima", table)
    inst = merge_instance(d_soft=(40, 40))  # no mode reaches 0: all finished
    deadline_and_proximity(inst)
    for mode in Mode:
        run_dispatch(inst, mode, "pseudocode")
    assert built == [(40, 40)]
    moved = inst.with_soft_deadlines((200, 50))
    deadline_and_proximity(moved)
    assert moved.remaining_minima is inst.remaining_minima == ((50, 0), (50, 0))
    assert built == [(40, 40)]
    replaced = dataclasses.replace(inst, soft_deadlines=(200, 50))
    assert replaced.remaining_minima == inst.remaining_minima
    assert built == [(40, 40), (200, 50)]


def test_replay_needs_the_same_dispatch_inputs():
    """A run replays under its own instance in every mode, also where a
    zero-minimum link lets a walk stamp two steps at one tick: the recorded
    keys name each step, so no stamp has to.  An instance that differs in
    walks, request times, hard deadlines, uniform separation or overrides
    does not replay."""
    looped = Instance(
        graph=Graph(2, frozenset({(0, 1), (1, 0)})),
        walks=(Walk((0, 1, 0), (0, 0), (INF, INF)), Walk((1, 0), (50,), (INF,))),
        request_times=(0, 0),
        soft_deadlines=(100, 100),
        hard_deadlines=(INF, INF),
        separation=5,
    )
    for mode in Mode:
        run = run_dispatch(looped, mode)
        assert replay_dispatch(run, looped, mode) == run
    inst = merge_instance(d_soft=(200, 50))
    for mode in (Mode.PROXIMITY, Mode.ABS_DEADLINE_PROXIMITY):
        run = run_dispatch(inst, mode)
        assert replay_dispatch(run, inst, mode) == run
        for changed in (
            dataclasses.replace(inst, walks=(Walk((0, 2), (51,), (INF,)), inst.walks[1])),
            dataclasses.replace(inst, request_times=(1, 0)),
            dataclasses.replace(inst, hard_deadlines=(500, INF)),
            dataclasses.replace(inst, separation=1),
            dataclasses.replace(inst, separations={(0, 1, 1, 1): 6}),
        ):
            assert replay_dispatch(run, changed, mode) is None


# --- pinned outputs -----------------------------------------------------------

PINNED_DIGESTS = "data/dispatch_digests.txt"


def pinned_dispatch_cases():
    """(label, instance) for every pinned case: plain grids, grids with pair
    overrides, grids with staggered requests, and job-shop reductions."""
    yield from plain_grid_cases()
    yield from override_grid_cases()
    yield from staggered_grid_cases()
    yield from jobshop_cases()


def plain_grid_cases():
    """40 seeded grids: finite and open link windows, ratios from 1.0 (where
    deadline modes demote vehicles) to 1.7."""
    rng = random.Random(5)
    for index in range(40):
        cfg = ExperimentConfig(
            n_vehicles=rng.randint(2, 80),
            grid=GridSpec(rng.randint(2, 5), rng.randint(2, 5)),
            tau_max_link=rng.choice((INF, 50, 60, 80)),
        )
        ratio = rng.choice((1.0, 1.0, 1.2, 1.5, 1.7))
        inst = generate_grid_instance(cfg, ratio, rng.getrandbits(32))
        label = (
            f"{index:02d} {cfg.grid.rows}x{cfg.grid.cols} n={cfg.n_vehicles} "
            f"tmax={cfg.tau_max_link} r={ratio}"
        )
        yield label, inst


def random_grid(rng):
    cfg = ExperimentConfig(
        n_vehicles=rng.randint(2, 40),
        grid=GridSpec(rng.randint(2, 4), rng.randint(2, 4)),
        tau_max_link=rng.choice((INF, 50, 60, 80)),
    )
    ratio = rng.choice((1.0, 1.2, 1.5))
    return cfg, ratio, generate_grid_instance(cfg, ratio, rng.getrandbits(32))


def override_grid_cases():
    """20 seeded grids with random pair overrides (gaps 0-60) on a uniform
    separation of 0, 5 or 20."""
    rng = random.Random(6)
    for index in range(20):
        cfg, ratio, inst = random_grid(rng)
        pairs = shared_vertex_pairs(inst)
        overrides = {
            key: rng.randint(0, 60)
            for key in rng.sample(pairs, min(len(pairs), rng.randint(1, 12)))
        }
        separation = rng.choice((0, 5, 20))
        label = (
            f"o{index:02d} {cfg.grid.rows}x{cfg.grid.cols} n={cfg.n_vehicles} "
            f"tmax={cfg.tau_max_link} r={ratio} s={separation}"
        )
        yield label, dataclasses.replace(
            inst, separation=separation, separations=overrides
        )


def staggered_grid_cases():
    """20 seeded grids whose vehicles are requested at staggered times, with
    both deadlines shifted by each vehicle's request."""
    rng = random.Random(7)
    for index in range(20):
        cfg, ratio, inst = random_grid(rng)
        requests = [rng.randint(0, 120) for _ in range(inst.n_vehicles)]
        label = (
            f"s{index:02d} {cfg.grid.rows}x{cfg.grid.cols} n={cfg.n_vehicles} "
            f"tmax={cfg.tau_max_link} r={ratio}"
        )
        yield label, dataclasses.replace(
            inst,
            request_times=tuple(requests),
            soft_deadlines=tuple(
                d + r for d, r in zip(inst.soft_deadlines, requests)
            ),
            hard_deadlines=tuple(
                d + r for d, r in zip(inst.hard_deadlines, requests)
            ),
        )


def jobshop_cases():
    """20 seeded unit job shops with release times, reduced to instances;
    theta (no wait) alternates, so half the cases have one-tick windows."""
    rng = random.Random(8)
    for index in range(20):
        machines = rng.randint(2, 5)
        jobs = []
        for _ in range(rng.randint(2, 8)):
            job = [rng.randrange(machines)]
            for _ in range(rng.randint(0, 4)):
                job.append(rng.choice([m for m in range(machines) if m != job[-1]]))
            jobs.append(tuple(job))
        releases = [rng.randint(0, 5) for _ in jobs]
        deadlines = [
            r + len(job) - 1 + rng.randint(0, 4) for r, job in zip(releases, jobs)
        ]
        theta = index % 2 == 0
        hard = rng.random() < 0.5
        label = f"j{index:02d} m={machines} jobs={len(jobs)} theta={theta} hard={hard}"
        yield label, reduce_jsp_to_vsp(JspInstance(
            machine_count=machines,
            jobs=tuple(jobs),
            release_times=tuple(releases),
            deadlines=tuple(deadlines),
            no_wait=theta,
            hard_deadlines=hard,
        ))


def dispatch_digest(result):
    payload = repr((result.times, [s.value for s in result.statuses]))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def dispatch_digests():
    """Case label -> digest of times and statuses, every mode and policy."""
    return {
        f"{label} {mode.value} {policy}":
            dispatch_digest(run_dispatch(inst, mode, policy))
        for label, inst in pinned_dispatch_cases()
        for mode in Mode
        for policy in ("prose", "pseudocode")
    }


def test_dispatch_matches_reference_on_override_and_jobshop_cases(monkeypatch):
    """run_dispatch reads each gap inline, with no Instance.gap call, while
    reference_dispatch still asks Instance.gap for every stamp at the
    vertex.  The two agree in every mode and policy on the pinned override
    and job-shop cases (revisits included) and on grids with max_gap 0."""
    cases = [inst for _, inst in override_grid_cases()]
    cases += [inst for _, inst in jobshop_cases()]
    rng = random.Random(9)
    for _ in range(5):
        _, _, inst = random_grid(rng)
        cases.append(dataclasses.replace(inst, separation=0, separations={}))
    assert any(inst.max_gap == 0 for inst in cases)
    calls = []
    real_gap = Instance.gap

    def counted_gap(self, *key):
        calls.append(key)
        return real_gap(self, *key)

    monkeypatch.setattr(Instance, "gap", counted_gap)
    for inst in cases:
        for mode in Mode:
            for policy in ("prose", "pseudocode"):
                result = run_dispatch(inst, mode, policy)
                assert not calls
                assert result == reference_dispatch(inst, mode, policy)
                calls.clear()


def test_pinned_dispatch_outputs():
    path = Path(__file__).parent / PINNED_DIGESTS
    pinned = dict(
        line.rsplit(" ", 1) for line in path.read_text().splitlines()
    )
    actual = dispatch_digests()
    assert actual.keys() == pinned.keys()
    differing = [case for case in pinned if actual[case] != pinned[case]]
    assert not differing, f"dispatch output changed for: {differing}"
