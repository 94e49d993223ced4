"""Property tests over small random instances, with a fixed example set."""

import json
import operator
import random
import re
import tempfile
from dataclasses import replace
from itertools import accumulate, chain
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from vsp import (  # noqa: E402
    INF,
    ConstraintKind,
    DifferenceConstraintSystem,
    DispatchResult,
    ExperimentConfig,
    FormatError,
    GridSpec,
    JspInstance,
    MipModel,
    MipRow,
    Mode,
    ObjectiveKind,
    Schedule,
    VehicleStatus,
    VspError,
    Walk,
    build_mip_model,
    conflict_pairs,
    deadline_and_proximity,
    evaluate,
    export_mip,
    generate_grid_instance,
    lazy_dispatch,
    minimal_times,
    parse_lp,
    read_instance,
    read_jsp,
    read_schedule,
    reduce_jsp_to_vsp,
    replay_dispatch,
    run_dispatch,
    solve_exact,
    validate_schedule,
    write_instance,
    write_lp,
    write_schedule,
)
from vsp.core import walks_from_rows  # noqa: E402
from vsp.exact import SolveStatus, _warm_start, node_bound  # noqa: E402
from vsp.heuristics import _replay_or_resume as replay_or_resume  # noqa: E402
from vsp.instances import instance_to_dict  # noqa: E402
from oracles import (  # noqa: E402
    BAD_TICKS,
    Tick,
    base_triples,
    brute_force_separation_violations,
    brute_force_tardy,
    clashing_rows,
    eager_best,
    merge_instance,
    naive_minimal_times,
    ordering_triples,
    pair_order,
    pair_rows,
    random_small_instance,
    reference_dispatch,
    reference_parse_lp,
    shared_vertex_pairs,
)

TARDY_OBJECTIVES = (ObjectiveKind.TARDY_COUNT, ObjectiveKind.WEIGHTED_TARDY_COUNT)
RANKED_OBJECTIVES = (
    ObjectiveKind.TARDY_COUNT,
    ObjectiveKind.TOTAL_TARDINESS,
    ObjectiveKind.MAX_LATENESS,
    ObjectiveKind.MAKESPAN,
)


@st.composite
def weighted_small_instances(draw):
    """A small grid instance under either tardy objective, always carrying
    weights, some below 1 and some above."""
    seed = draw(st.integers(0, 2**32 - 1))
    inst = random_small_instance(random.Random(seed), max_pairs=8)
    weights = draw(st.lists(
        st.sampled_from((0.25, 0.5, 1, 2, 3, 5)),
        min_size=inst.n_vehicles, max_size=inst.n_vehicles,
    ))
    objective = draw(st.sampled_from(TARDY_OBJECTIVES))
    return replace(inst, objective=objective, weights=tuple(weights))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(weighted_small_instances())
def test_exact_objective_is_evaluated_optimum_within_best_of_three(inst):
    result = solve_exact(inst)
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == evaluate(inst, result.schedule)
    assert result.objective == brute_force_tardy(inst)
    best = deadline_and_proximity(inst)
    if not best.hard_violations:
        assert result.objective <= evaluate(inst, best.schedule())


@st.composite
def dispatch_instances(draw):
    """A small grid with finite or open link windows, random pair overrides
    on a random uniform separation, and staggered requests that shift both
    deadlines; hard deadlines range from tight to loose."""
    ratio = draw(st.sampled_from((1.0, 1.1, 1.3)))
    config = ExperimentConfig(
        n_vehicles=draw(st.integers(2, 8)),
        grid=GridSpec(draw(st.integers(2, 4)), draw(st.integers(2, 4))),
        tau_max_link=draw(st.sampled_from((INF, 50, 55, 70))),
        hard_deadline_factor=draw(st.sampled_from((ratio, 1.5, 2.2))),
        soft_deadline_ratios=(ratio,),
        n_instances=1,
    )
    inst = generate_grid_instance(config, ratio, draw(st.integers(0, 2**32 - 1)))
    pairs = shared_vertex_pairs(inst)
    overrides = {}
    if pairs:
        overrides = draw(st.dictionaries(
            st.sampled_from(pairs), st.integers(0, 60), max_size=6
        ))
    requests = draw(st.lists(
        st.integers(0, 100), min_size=inst.n_vehicles, max_size=inst.n_vehicles
    ))
    return replace(
        inst,
        separation=draw(st.sampled_from((0, 5, 20))),
        separations=overrides,
        request_times=tuple(requests),
        soft_deadlines=tuple(d + r for d, r in zip(inst.soft_deadlines, requests)),
        hard_deadlines=tuple(d + r for d, r in zip(inst.hard_deadlines, requests)),
    )


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(dispatch_instances())
def test_exact_optimum_with_overrides_link_maxima_and_tight_hard_deadlines(inst):
    # The leaf rule reads every pair's own gap and stops wherever the least
    # stamps keep them all, so the referee sees overrides, finite link
    # maxima and hard deadlines that can leave no schedule at all.
    assume(len(conflict_pairs(inst)) <= 8)
    result = solve_exact(inst)
    expected = brute_force_tardy(inst)
    if expected is None:
        assert result.status is SolveStatus.INFEASIBLE
        return
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == expected == evaluate(inst, result.schedule)
    assert validate_schedule(inst, result.schedule).passes()
    best = deadline_and_proximity(inst)
    if best.complete and not best.hard_violations:
        assert result.objective <= evaluate(inst, best.schedule())


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(dispatch_instances())
def test_complete_dispatch_validates_and_flags_exactly_its_hard_deadlines(inst):
    for mode in Mode:
        for policy in ("prose", "pseudocode"):
            result = run_dispatch(inst, mode, policy)
            if not result.complete:
                continue
            report = validate_schedule(inst, result.schedule())
            assert report.passes(ignore=frozenset({ConstraintKind.HARD_DEADLINE}))
            late = {
                v.vehicles[0] for v in report.violations
                if v.kind is ConstraintKind.HARD_DEADLINE
            }
            flagged = {
                j for j, status in enumerate(result.statuses)
                if status is VehicleStatus.HARD_DEADLINE_VIOLATED
            }
            assert flagged == late


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(dispatch_instances())
def test_best_of_three_returns_its_first_ranked_run(inst):
    for policy in ("prose", "pseudocode"):
        runs = [run_dispatch(inst, mode, policy) for mode in Mode]
        # Dispatch reads no objective, so the same runs are ranked under
        # objectives that stop at zero and under ones that go below it.
        for objective in RANKED_OBJECTIVES:
            scored = replace(inst, objective=objective)

            def rank(k):
                statuses = runs[k].statuses
                failed = statuses.count(VehicleStatus.SLOT_WINDOW_FAILED)
                value = INF if failed else evaluate(scored, Schedule(runs[k].times))
                late = statuses.count(VehicleStatus.HARD_DEADLINE_VIOLATED)
                return (failed, value, late, k)

            best = runs[min(range(3), key=rank)]
            assert deadline_and_proximity(scored, policy) == best


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(dispatch_instances())
def test_lazy_runs_signal_soundly_and_rank_as_eager_ones(inst):
    """A run signals at most once, and only when it then ends short of
    rank (0, 0, 0): a slot failure, a tardy vehicle or a hard violation.
    deadline_and_proximity, which pauses lazy runs at their signal, returns
    what ranking every finished run does."""
    for policy in ("prose", "pseudocode"):
        runs = []
        for mode in Mode:
            *signals, run = lazy_dispatch(inst, mode, policy)
            assert signals in ([], [None])
            assert run == run_dispatch(inst, mode, policy)
            if signals:
                assert not (run.complete and not run.hard_violations and evaluate(
                    inst, run.schedule(), ObjectiveKind.TARDY_COUNT) == 0)
            runs.append(run)
        for objective in RANKED_OBJECTIVES:
            scored = replace(inst, objective=objective)
            best = eager_best(scored, runs)
            assert deadline_and_proximity(scored, policy) == best


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    st.integers(2, 30), st.integers(2, 5), st.integers(2, 5),
    st.sampled_from((1.0, 1.1, 1.2, 1.3, 1.4, 1.5)), st.integers(0, 2**32 - 1),
)
def test_best_of_three_with_replayed_modes_ranks_as_eager_runs(n, rows, cols, ratio, seed):
    """deadline_and_proximity, which replays a mode from a finished run
    where the run's sorts still hold, returns what ranking all three runs,
    each dispatched to its end, does."""
    config = ExperimentConfig(n_vehicles=n, grid=GridSpec(rows, cols))
    inst = generate_grid_instance(config, ratio, seed)
    for policy in ("prose", "pseudocode"):
        runs = [run_dispatch(inst, mode, policy) for mode in Mode]
        for objective in RANKED_OBJECTIVES:
            scored = replace(inst, objective=objective)
            assert deadline_and_proximity(scored, policy) == eager_best(scored, runs)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(dispatch_instances(), st.data())
def test_proximity_dispatch_ignores_soft_deadlines(inst, data):
    """The invariant that lets one proximity run serve every ratio of a
    sweep: its result does not depend on the soft deadlines."""
    other = tuple(
        data.draw(st.one_of(st.just(INF), st.integers(r, h)))
        for r, h in zip(inst.request_times, inst.hard_deadlines)
    )
    moved = replace(inst, soft_deadlines=other)
    for policy in ("prose", "pseudocode"):
        assert run_dispatch(moved, Mode.PROXIMITY, policy) == run_dispatch(
            inst, Mode.PROXIMITY, policy
        )


def check_replays(targets, zeroed, broke):
    """Every finished run of each mode and policy under each target, with
    the targets' walks and with zeroed walks, replayed under every case,
    gives None or exactly run_dispatch there; under its own case it always
    replays, and a proximity run replayed in proximity always does too.
    broke collects the mode of each replay that holds the initial order and
    breaks at a later group."""
    for walks in (targets[0].walks, zeroed):
        cases = [
            ((target, mode, policy), run_dispatch(target, mode, policy))
            for target in [replace(t, walks=walks) for t in targets]
            for mode in Mode for policy in ("prose", "pseudocode")
        ]
        for source, run in cases:
            assert replay_dispatch(run, *source) == run
            for target, expected in cases:
                replayed = replay_dispatch(run, *target)
                if source[1] is target[1] is Mode.PROXIMITY:
                    assert replayed == expected
                else:
                    assert replayed is None or replayed == expected
                if replayed is None and replay_or_resume(run, *target) is not None:
                    broke.append(target[1])


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(dispatch_instances(), st.data())
def drawn_replay_cases(broke, inst, data):
    """check_replays on drawn link minima and two drawn soft-deadline
    vectors, some deadlines open.  Link minima vary, so that a key read at
    the wrong step changes the order.  Some of them are zeroed too, where a
    walk can stamp two steps at one tick: a popped stamp then names no
    single step, but a recorded key does."""
    inst = replace(inst, walks=tuple(
        Walk(w.vertices, tuple(
            data.draw(st.integers(1, min(hi, 60))) for hi in w.max_times
        ), w.max_times)
        for w in inst.walks
    ))
    targets = [
        replace(inst, soft_deadlines=tuple(
            data.draw(st.one_of(st.just(INF), st.integers(r, h)))
            for r, h in zip(inst.request_times, inst.hard_deadlines)
        ))
        for _ in range(2)
    ]
    zeroed = tuple(
        Walk(w.vertices, tuple(
            0 if data.draw(st.booleans()) else m for m in w.min_times
        ), w.max_times)
        for w in inst.walks
    )
    check_replays(targets, zeroed, broke)


def test_replay_is_none_or_the_dispatch_it_stands_for():
    """A finished run, replayed under another soft-deadline vector, mode or
    negative-slack policy, gives None or exactly run_dispatch there.  The
    drawn cases almost never sort a group, so two fixed crowded grids (equal
    link minima, every request at zero) are checked too, under two nearby
    ratios of the free trip times as a sweep sets them; there some replays
    hold the initial order and break at a later group."""
    broke = []
    drawn_replay_cases(broke)
    rng = random.Random(38)
    for n, rows, cols, seed in ((30, 3, 3, 3), (10, 2, 3, 4)):
        config = ExperimentConfig(n_vehicles=n, grid=GridSpec(rows, cols), n_instances=1)
        inst = generate_grid_instance(config, 1.0, seed)
        targets = [
            inst.with_soft_deadlines(tuple(
                min(h, r + round(ratio * sum(w.min_times)))
                for r, h, w in zip(inst.request_times, inst.hard_deadlines, inst.walks)
            ))
            for ratio in (1.3, 1.5)
        ]
        zeroed = tuple(
            Walk(w.vertices, tuple(0 if rng.random() < 0.5 else m for m in w.min_times),
                 w.max_times)
            for w in inst.walks
        )
        check_replays(targets, zeroed, broke)
    assert {Mode.ABS_DEADLINE_PROXIMITY, Mode.REL_DEADLINE_PROXIMITY} <= set(broke)


@st.composite
def crowded_instances(draw):
    """Many vehicles requested at zero on a small grid, as in a sweep, so
    that most popped stamps sort a group, with finite or open link windows
    and random pair overrides on a random uniform separation."""
    config = ExperimentConfig(
        n_vehicles=draw(st.integers(8, 30)),
        grid=GridSpec(draw(st.integers(2, 4)), draw(st.integers(2, 4))),
        tau_max_link=draw(st.sampled_from((INF, 50, 55, 70))),
        n_instances=1,
    )
    inst = generate_grid_instance(config, 1.0, draw(st.integers(0, 2**32 - 1)))
    pairs = shared_vertex_pairs(inst)
    overrides = {}
    if pairs:
        overrides = draw(st.dictionaries(
            st.sampled_from(pairs), st.integers(0, 60), max_size=6
        ))
    return replace(
        inst, separation=draw(st.sampled_from((0, 5, 20))), separations=overrides
    )


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.one_of(crowded_instances(), dispatch_instances(),
                 st.deferred(lambda: jobshop_instances())), st.data())
def resume_cases(resumed, inst, data):
    """Every finished run of each mode and policy, under two soft-deadline
    vectors at nearby ratios of the free trip times, as a sweep sets them,
    or open for some vehicles, with the walks as drawn and with some link minima zeroed, is resumed on
    every case where its replay breaks after the initial order.  resumed
    collects the modes of the runs resumed."""
    zeroed = tuple(
        Walk(w.vertices, tuple(
            0 if data.draw(st.booleans()) else m for m in w.min_times
        ), w.max_times)
        for w in inst.walks
    )
    ratio = data.draw(st.sampled_from((1.0, 1.1, 1.3, 1.6, 2.0)))
    ratios = (ratio, ratio + data.draw(st.sampled_from((0.05, 0.1, 0.2))))
    # Some vehicles may have no soft deadline, so that a run can run late
    # before its first broken sort and never after it.
    open_ = data.draw(st.lists(st.booleans(), min_size=inst.n_vehicles,
                               max_size=inst.n_vehicles))
    for walks in (inst.walks, zeroed):
        trips = [sum(w.min_times) for w in walks]
        targets = [
            replace(inst, walks=walks, soft_deadlines=tuple(
                INF if no_soft else min(h, r + round(ratio * trip))
                for r, h, trip, no_soft in zip(
                    inst.request_times, inst.hard_deadlines, trips, open_
                )
            ))
            for ratio in ratios
        ]
        cases = [
            ((target, mode, policy), list(lazy_dispatch(target, mode, policy)))
            for target in targets
            for mode in Mode for policy in ("prose", "pseudocode")
        ]
        for _, (*_, run) in cases:
            for target, (*signals, expected) in cases:
                res = replay_or_resume(run, *target)
                if res is None or isinstance(res, DispatchResult):
                    continue
                *resumed_signals, res = res
                assert (res.times, res.statuses) == (expected.times, expected.statuses)
                assert resumed_signals == signals
                # What a later replay reads of the record, the vehicle and
                # step each key names, is the fresh run's, up to the order of
                # the groups sorted at one popped stamp.
                assert res.sorts[:2] == expected.sorts[:2]
                assert named(res.sorts) == named(expected.sorts)
                resumed.append(target[1])


def named(sorts):
    return sorted((t, [key[3:] for key in keys]) for t, keys in sorts[2])


def test_resumed_run_is_the_dispatch_it_stands_for():
    """A run resumed from the stamps a finished run of any mode recorded
    before its first broken sort ends with run_dispatch's times and
    statuses, and signals exactly when the fresh run does.  The drawn
    cases resume both deadline modes many times, so the check is not
    vacuous."""
    resumed = []
    resume_cases(resumed)
    assert len(resumed) >= 20
    assert {Mode.ABS_DEADLINE_PROXIMITY, Mode.REL_DEADLINE_PROXIMITY} <= set(resumed)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(dispatch_instances(), st.data())
def test_windowed_separation_check_matches_brute_force(inst, data):
    """validate_schedule compares each stamp only with the later ones less
    than max_gap away, yet reports exactly the separation violations of the
    full pair walk, in the same order, on stamps drawn at random.  Stamps
    lie one tick either side of small multiples of each gap, so pairs land
    just inside, on and just past every gap, max_gap's too."""
    gaps = {inst.separation, *inst.separations.values()}
    ticks = sorted({max(0, k * g + d)
                    for g in gaps for k in range(3) for d in (-1, 0, 1)})
    schedule = Schedule(tuple(
        tuple(data.draw(st.lists(
            st.sampled_from(ticks), min_size=len(walk), max_size=len(walk)
        )))
        for walk in inst.walks
    ))
    report = validate_schedule(inst, schedule)
    found = [v for v in report.violations if v.kind is ConstraintKind.SEPARATION]
    assert found == brute_force_separation_violations(inst, schedule)


@st.composite
def jobshop_instances(draw):
    """A reduced unit job shop whose jobs may revisit a machine, with or
    without waiting, and random pair overrides on its unit gaps."""
    machines = draw(st.integers(2, 4))
    jobs = []
    for _ in range(draw(st.integers(2, 6))):
        job = [draw(st.integers(0, machines - 1))]
        for _ in range(draw(st.integers(0, 5))):
            job.append(draw(st.sampled_from(
                [m for m in range(machines) if m != job[-1]]
            )))
        jobs.append(tuple(job))
    releases = draw(st.lists(
        st.integers(0, 6), min_size=len(jobs), max_size=len(jobs)
    ))
    inst = reduce_jsp_to_vsp(JspInstance(
        machine_count=machines,
        jobs=tuple(jobs),
        release_times=tuple(releases),
        deadlines=tuple(r + len(job) + 2 for r, job in zip(releases, jobs)),
        no_wait=draw(st.booleans()),
    ))
    pairs = shared_vertex_pairs(inst)
    overrides = {}
    if pairs:
        overrides = draw(st.dictionaries(
            st.sampled_from(pairs), st.integers(0, 60), max_size=6
        ))
    return replace(inst, separations=overrides)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(st.one_of(dispatch_instances(), jobshop_instances()), st.data())
def test_with_soft_deadlines_is_replace_sharing_the_walk_tables(inst, data):
    """Deriving an instance with new soft deadlines gives what replacing
    them gives, dispatches as it in every mode and keeps the base's walk
    tables, on overrides, revisits, open deadlines and zero link minima
    alike; a bad vector raises the constructor's own error."""
    inst = replace(inst, walks=tuple(
        Walk(w.vertices, tuple(
            0 if data.draw(st.booleans()) else m for m in w.min_times
        ), w.max_times)
        for w in inst.walks
    ))
    tables = (inst.visits, inst.remaining_minima, inst._walk_lengths,
              conflict_pairs(inst))
    soft = tuple(
        data.draw(st.one_of(st.just(INF), st.integers(r, r + 300 if h == INF else h)))
        for r, h in zip(inst.request_times, inst.hard_deadlines)
    )
    derived = inst.with_soft_deadlines(list(soft))
    replaced = replace(inst, soft_deadlines=soft)
    assert derived == replaced and repr(derived) == repr(replaced)
    shared = (derived.visits, derived.remaining_minima, derived._walk_lengths,
              conflict_pairs(derived))
    assert all(map(operator.is_, shared, tables))
    assert shared == (replaced.visits, replaced.remaining_minima,
                      replaced._walk_lengths, conflict_pairs(replaced))
    for mode in Mode:
        for policy in ("prose", "pseudocode"):
            run = run_dispatch(derived, mode, policy)
            assert run == run_dispatch(replaced, mode, policy)
            assert run.sorts[1:] == run_dispatch(replaced, mode, policy).sorts[1:]
    assert deadline_and_proximity(derived) == deadline_and_proximity(replaced)

    j = data.draw(st.integers(0, inst.n_vehicles - 1))
    bad = [soft[:-1], soft + soft[:1], soft[:j] + (True,) + soft[j + 1:],
           soft[:j] + (float(inst.request_times[j]),) + soft[j + 1:]]
    if inst.hard_deadlines[j] != INF:
        bad.append(soft[:j] + (inst.hard_deadlines[j] + 1,) + soft[j + 1:])
    for vector in bad:
        with pytest.raises(ValueError) as expected:
            replace(inst, soft_deadlines=vector)
        with pytest.raises(ValueError) as got:
            inst.with_soft_deadlines(vector)
        assert str(got.value) == str(expected.value)


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(st.one_of(dispatch_instances(), jobshop_instances()))
def test_dispatch_matches_whole_vertex_reference(inst):
    """The windowed in-place slot scan gives the slots of a search that
    sorts the intervals of every stamp at the vertex, and records the sorts
    that search makes: == leaves sorts out, but replay_dispatch reads them."""
    for mode in Mode:
        for policy in ("prose", "pseudocode"):
            run = run_dispatch(inst, mode, policy)
            reference = reference_dispatch(inst, mode, policy)
            assert run == reference
            assert run.sorts[1:] == reference.sorts[1:]


def crossing_orders(inst, flat):
    """The order triple of each conflict pair that the stamps flat, by
    variable id, show."""
    return ordering_triples(inst, tuple(flat[a] < flat[b] for a, b, *_ in pair_rows(inst)))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.one_of(dispatch_instances(), crowded_instances(), jobshop_instances()),
       st.data())
def least_stamp_cases(checked, inst, data):
    """Every complete run of each mode and policy that breaks no hard
    deadline, on the walks as drawn and with some link minima zeroed, has
    the least stamps of the system under its own crossing orders.  The warm
    start of the exact search is best-of-three's stamps under a drawn
    horizon, or None exactly where those orders leave the system, horizon
    included, with no solution.  checked collects each run checked."""
    zeroed = tuple(
        Walk(w.vertices, tuple(
            0 if data.draw(st.booleans()) else m for m in w.min_times
        ), w.max_times)
        for w in inst.walks
    )
    for target in (inst, replace(inst, walks=zeroed)):
        base, n_vars = base_triples(target)
        for mode in Mode:
            for policy in ("prose", "pseudocode"):
                run = run_dispatch(target, mode, policy)
                if run.complete and not run.hard_violations:
                    flat = [0, *chain.from_iterable(run.times)]
                    least = naive_minimal_times(n_vars, base + crossing_orders(target, flat))
                    assert least == flat
                    checked.append(run)
        best = deadline_and_proximity(target)
        end = max(row[-1] for row in best.times)
        horizon = data.draw(st.sampled_from((None, end - 1, end, end + 5)))
        expected = None
        if best.complete:
            flat = [0, *chain.from_iterable(best.times)]
            cons = base + crossing_orders(target, flat)
            if horizon is not None:
                last = accumulate(map(len, target.walks))
                cons += [(0, var, -horizon) for var in last]
            expected = naive_minimal_times(n_vars, cons)
        warm = _warm_start(DifferenceConstraintSystem(target, horizon=horizon))
        assert warm == (None if expected is None else tuple(expected))


def test_dispatch_stamps_are_least_under_their_crossing_orders():
    """The invariant that lets the exact search take best-of-three's
    stamps as its first incumbent with no relaxation.  The drawn cases
    check many runs, zeroed and not, so the property is not vacuous."""
    checked = []
    least_stamp_cases(checked)
    assert len(checked) >= 500


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(st.one_of(dispatch_instances(), jobshop_instances()), st.data())
def test_lazy_run_signals_exactly_when_it_fails_or_runs_late(inst, data):
    """A lazy run yields None at most once, before its result, and does so
    exactly when the drained run has a slot failure or a stamp later than
    its latest on-time value, the soft deadline minus the minimum travel
    time left, summed here afresh.  The loop checks a stamp against it only
    where it lands past its lower bound or is a vehicle's first, so
    some soft deadlines are redrawn as tight as the request time, which
    makes a first stamp late where it lands at its lower bound."""
    inst = replace(inst, soft_deadlines=tuple(
        data.draw(st.sampled_from((s, r) if s == INF else (s, r, (r + s) // 2)))
        for r, s in zip(inst.request_times, inst.soft_deadlines)
    ))
    latest = [
        [d - sum(walk.min_times[i:]) for i in range(len(walk))]
        for walk, d in zip(inst.walks, inst.soft_deadlines)
    ]
    for mode in Mode:
        for policy in ("prose", "pseudocode"):
            *signals, run = lazy_dispatch(inst, mode, policy)
            assert signals in ([], [None])
            assert run == run_dispatch(inst, mode, policy)
            late = any(
                stamp > bound
                for row, bounds in zip(run.times, latest)
                for stamp, bound in zip(row, bounds)
            )
            assert bool(signals) == (run.slot_failures > 0 or late)


# Job 0 revisits machine 0; deadlines tight enough that someone is late.
REVISITING_SHOP = replace(
    reduce_jsp_to_vsp(JspInstance(
        machine_count=2,
        jobs=((0, 1, 0), (1, 0), (0,)),
        release_times=(0, 0, 0),
        deadlines=(3, 2, 1),
        no_wait=False,
    )),
    objective=ObjectiveKind.TARDY_COUNT,
)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.one_of(dispatch_instances(), jobshop_instances()), st.integers(0, 2**32 - 1))
@example(REVISITING_SHOP, 0)
@example(REVISITING_SHOP, 1)
def test_bound_from_clashing_pairs_is_every_pair_bound_below_the_optimum(inst, seed):
    """Only a pair that clashes at a node's least stamps can be a cover edge,
    so the bound that the search feeds with the clashing pairs equals the
    bound over every pair, and neither passes the best leaf below the node.
    Checked at random partial decisions, one soft deadline sometimes open."""
    rng = random.Random(seed)
    inst = replace(inst, objective=ObjectiveKind.TARDY_COUNT)
    if rng.random() < 0.5:
        soft = list(inst.soft_deadlines)
        soft[rng.randrange(inst.n_vehicles)] = INF
        inst = replace(inst, soft_deadlines=tuple(soft))
    pairs = list(conflict_pairs(inst).items())
    assume(0 < len(pairs) <= 8)
    every = pair_rows(inst)
    for _ in range(3):
        fixed = {k: rng.random() < 0.5 for k in range(len(pairs)) if rng.random() < 0.5}
        dcs = DifferenceConstraintSystem(inst)
        for k, j1_first in fixed.items():
            dcs.push(pair_order(inst, k, j1_first))
        sol = minimal_times(dcs)
        best_leaf = brute_force_tardy(inst, fixed=fixed)
        if not sol.feasible:
            assert best_leaf is None
            continue
        bound = node_bound(dcs)
        lower = bound(sol.times, INF, clashing_rows(every, sol.times))
        assert lower == bound(sol.times, INF, every)
        if best_leaf is not None:
            assert lower <= best_leaf


# Values no walk may hold as a link time, and the faults that are not a value.
BAD_LINK_VALUES = (*BAD_TICKS, -1, 60.0, float("-inf"))
ROW_FAULTS = ("min > max", "length mismatch", "empty walk")


@st.composite
def walk_rows(draw):
    """Parallel vertex, min and max rows of one to six walks, with int and
    +inf maxima, and at most one change placed in any walk: an int subclass
    as a min or a max, which is no fault, or a fault: a bad value there, a
    min above its max, a link time too many or too few, or a walk without
    vertices."""
    vertex_rows, min_rows, max_rows = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        links = draw(st.integers(0, 4))
        lows = draw(st.lists(st.integers(0, 60), min_size=links, max_size=links))
        vertex_rows.append(draw(st.lists(st.integers(0, 9), min_size=links + 1,
                                         max_size=links + 1)))
        min_rows.append(lows)
        max_rows.append([INF if draw(st.booleans()) else lo + draw(st.integers(0, 60))
                         for lo in lows])
    fault = draw(st.sampled_from((None, "int subclass", *BAD_LINK_VALUES, *ROW_FAULTS)))
    j = draw(st.integers(0, len(vertex_rows) - 1))
    rows = draw(st.sampled_from((min_rows, max_rows)))
    if fault == "length mismatch":
        if rows[j] and draw(st.booleans()):
            rows[j].pop()
        else:
            rows[j].append(5)
    elif fault == "empty walk":
        vertex_rows[j], min_rows[j], max_rows[j] = [], [], []
    elif fault is not None and min_rows[j]:
        i = draw(st.integers(0, len(min_rows[j]) - 1))
        if fault == "min > max":
            max_rows[j][i] = min_rows[j][i] - 1
        elif fault == "int subclass":
            rows[j][i] = Tick(min_rows[j][i])
        else:
            rows[j][i] = fault
    return vertex_rows, min_rows, max_rows


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(walk_rows())
def test_bulk_walks_equal_walks_built_one_by_one(rows):
    expected = []
    try:
        for walk_rows in zip(*rows):
            expected.append(Walk(*walk_rows))
    except Exception as exc:  # the bulk builder must fail the same way
        with pytest.raises(type(exc)) as raised:
            walks_from_rows(*rows)
        assert str(raised.value) == f"walk {len(expected)}: {exc}"
        return
    expected = tuple(expected)
    built = walks_from_rows(*rows)
    assert built == expected and hash(built) == hash(expected)
    assert all(type(walk) is Walk for walk in built)


@st.composite
def file_instances(draw, objectives=tuple(ObjectiveKind)):
    """A dispatch_instances instance with some soft deadlines left open and
    integral or fractional weights, dropped at random when the objective
    does not need them."""
    inst = draw(dispatch_instances())
    objective = draw(st.sampled_from(objectives))
    weights = draw(st.lists(
        st.one_of(st.integers(1, 9), st.floats(0.001, 1000)),
        min_size=inst.n_vehicles, max_size=inst.n_vehicles,
    ))
    if not objective.weighted and draw(st.booleans()):
        weights = None
    soft = tuple(INF if draw(st.booleans()) else d for d in inst.soft_deadlines)
    return replace(inst, soft_deadlines=soft, weights=weights, objective=objective)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(file_instances())
def test_instance_file_round_trip(inst):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        write_instance(inst, path)
        text = path.read_text()
        assert text.endswith("\n") and "\n" not in text[:-1]
        assert read_instance(path) == inst


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.lists(
    st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=6),
    max_size=6,
))
def test_schedule_file_round_trip(rows):
    schedule = Schedule(tuple(tuple(row) for row in rows))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sched.json"
        write_schedule(schedule, path)
        text = path.read_text()
        assert text.endswith("\n") and "\n" not in text[:-1]
        assert read_schedule(path) == schedule


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(file_instances(TARDY_OBJECTIVES))
def test_lp_export_parses_back_to_its_model(inst):
    assert parse_lp(export_mip(inst)) == build_mip_model(inst)


DATA = Path(__file__).parent / "data"
# LP texts to mutate: the two golden files, a weighted objective, and a
# hand-built model with fractional numbers and an open upper bound.
LP_TEXTS = (
    (DATA / "golden_merge.lp").read_text(),
    (DATA / "golden_grid3.lp").read_text(),
    export_mip(merge_instance(
        d_soft=(50, 50), d_hard=(200, 200),
        weights=(3, 0.5), objective=ObjectiveKind.WEIGHTED_TARDY_COUNT,
    )),
    write_lp(MipModel(
        {"x": 2.5, "y": 1.0},
        (MipRow("r_0", {"x": 1.0, "y": -0.5}, ">=", 1.5),
         MipRow("r_1", {"y": 3.0}, "=", -2)),
        {"x": (0, INF), "y": (-1.25, 4)},
        ("y",),
    )),
)
LP_INSERTS = (
    "+", "-", "0", "1", "7", "-3", "2.5", ".5", "1e3", "1e400", "<=", ">=", "=",
    "x", "t_0_0", "b_0_1_1_1", "l_0", "3x", "bad!", "r:", "End", "Bounds",
)


@st.composite
def mutated_lp_texts(draw):
    """One LP text with one mutation on one line: a token dropped,
    duplicated, swapped with another token of the line, or inserted (a
    sign, number, sense or name), or the line's tokens joined by tabs or
    runs of spaces.  Only one line changes, and parse_lp makes its checks
    the reference lacks after those it shares on a line, so a text both
    reject fails at the same line in both."""
    lines = [line.split() for line in draw(st.sampled_from(LP_TEXTS)).splitlines()]
    seps = [" "] * len(lines)
    at = draw(st.integers(0, len(lines) - 1))
    tokens = lines[at]
    k = draw(st.integers(0, len(tokens)))
    op = draw(st.sampled_from(("drop", "duplicate", "swap", "insert", "space")))
    if op == "insert":
        tokens.insert(k, draw(st.sampled_from(LP_INSERTS)))
    elif op == "space":
        seps[at] = draw(st.sampled_from(("\t", "   ", " \t ")))
    elif k < len(tokens):
        if op == "drop":
            del tokens[k]
        elif op == "duplicate":
            tokens.insert(k, tokens[k])
        else:
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[k], tokens[j] = tokens[j], tokens[k]
    return "".join(
        sep + sep.join(line) + "\n" for sep, line in zip(seps, lines)
    )


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(mutated_lp_texts())
def test_parse_lp_agrees_with_the_reference_parser(text):
    # parse_lp fails only with VspError; a model it returns is the
    # reference's model, and a text the reference rejects with VspError it
    # rejects with the same message.  It also rejects what the reference
    # lets through (bad or repeated names, numbers beyond a float) or lets
    # escape as OverflowError.
    try:
        model = parse_lp(text)
    except VspError as exc:
        try:
            reference_parse_lp(text)
        except VspError as ref:
            assert str(exc) == str(ref)
        except OverflowError:
            assert "out of range" in str(exc)
    else:
        assert reference_parse_lp(text) == model


def tick_paths(value, path=()):
    """Paths to the int and null leaves of a decoded file: every tick, or
    +inf written as null.  A file's weights are numbers, not ticks."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key != "weights":
                yield from tick_paths(item, path + (key,))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from tick_paths(item, path + (k,))
    elif value is None or (isinstance(value, int) and not isinstance(value, bool)):
        yield path


@st.composite
def jsp_dicts(draw):
    machines = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    jobs = draw(st.lists(
        st.lists(st.integers(0, machines - 1), min_size=1, max_size=3),
        min_size=n, max_size=n,
    ))
    release = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    return {
        "machines": machines,
        "jobs": jobs,
        "r": release,
        "delta": [draw(st.one_of(st.none(), st.integers(r, r + 9))) for r in release],
        "theta": draw(st.booleans()),
    }


@st.composite
def malformed_files(draw):
    """(reader, valid dict, broken copies): each copy breaks one field of the
    valid file.  Every required key is dropped in turn, each bad tick goes
    to a drawn tick, and in a schedule a drawn row is replaced by each of
    several values that are not a flat list of ticks."""
    kind = draw(st.sampled_from(("instance", "schedule", "jsp")))
    if kind == "instance":
        reader = read_instance
        valid = instance_to_dict(draw(file_instances()))
        required = [("vertices",), ("edges",), ("walks",), ("rho",), ("d_hard",)]
        required += [("walks", 0, key) for key in ("vertices", "tau_min", "tau_max")]
    elif kind == "schedule":
        reader = read_schedule
        valid = {"times": draw(st.lists(
            st.lists(st.integers(0, 500), min_size=1, max_size=4),
            min_size=1, max_size=4,
        ))}
        required = [("times",)]
    else:
        reader = read_jsp
        valid = draw(jsp_dicts())
        required = [(key,) for key in ("machines", "jobs", "r", "delta", "theta")]

    def broken(path, value=None):  # no value: drop the key
        copy = json.loads(json.dumps(valid))
        target = copy
        for key in path[:-1]:
            target = target[key]
        if value is None:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        return copy

    copies = [broken(path) for path in required]
    ticks = list(tick_paths(valid))
    copies += [broken(draw(st.sampled_from(ticks)), bad) for bad in BAD_TICKS]
    if kind == "schedule":
        row = draw(st.integers(0, len(valid["times"]) - 1))
        cells = valid["times"][row]
        copies += [
            broken(("times", row), bad)
            for bad in (cells[0], str(cells), {"t": cells}, cells[:-1] + [cells[-1:]])
        ]
    return reader, valid, copies


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(malformed_files())
def test_malformed_files_are_rejected(case):
    reader, valid, copies = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.json"
        path.write_text(json.dumps(valid))
        reader(path)  # the unbroken file reads
        for copy in copies:
            path.write_text(json.dumps(copy))
            with pytest.raises(FormatError, match=re.escape(str(path))):
                reader(path)
