import dataclasses
import hashlib
import random
from pathlib import Path

import pytest

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
    earliest_feasible_slot,
    evaluate,
    generate_grid_instance,
    reduce_jsp_to_vsp,
    run_dispatch,
    sorting_key,
    validate_schedule,
)
from oracles import (
    blocked_instance,
    chain_instance,
    merge_instance,
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
    assert key(0, 1, 0) == (50, 0, 0.0, 0)


def test_abs_key_is_clamped_slack():
    key = sorting_key(slack_state_instance(), Mode.ABS_DEADLINE_PROXIMITY)
    # remaining minimum travel 75 + 75 = 150, so slack = 300 - 250 = 50
    assert key(0, 2, 100) == (75, 0, 50.0, 0)


def test_rel_key_divides_by_remaining_vertices():
    key = sorting_key(slack_state_instance(), Mode.REL_DEADLINE_PROXIMITY)
    assert key(0, 2, 100) == (75, 0, 25.0, 0)  # 50 slack over 2 remaining vertices


def test_negative_slack_prose_demotes_pseudocode_clamps():
    inst = slack_state_instance()
    prose = sorting_key(inst, Mode.ABS_DEADLINE_PROXIMITY, "prose")
    literal = sorting_key(inst, Mode.ABS_DEADLINE_PROXIMITY, "pseudocode")
    late = (0, 2, 260)  # slack = 300 - 410 < 0
    assert prose(*late) == (75, 1, 0.0, 0)
    assert literal(*late) == (75, 0, 0.0, 0)
    healthy = prose(0, 2, 100)
    assert healthy < prose(*late)
    assert literal(*late) < healthy


def test_unknown_negative_slack_policy():
    with pytest.raises(ValueError):
        sorting_key(chain_instance(), Mode.PROXIMITY, "maybe")


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


def test_pinned_dispatch_outputs():
    path = Path(__file__).parent / PINNED_DIGESTS
    pinned = dict(
        line.rsplit(" ", 1) for line in path.read_text().splitlines()
    )
    actual = dispatch_digests()
    assert actual.keys() == pinned.keys()
    differing = [case for case in pinned if actual[case] != pinned[case]]
    assert not differing, f"dispatch output changed for: {differing}"
