"""Property tests over small random instances, with a fixed example set."""

import random
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from vsp import (  # noqa: E402
    INF,
    ConstraintKind,
    ExperimentConfig,
    GridSpec,
    Mode,
    ObjectiveKind,
    Schedule,
    VehicleStatus,
    build_mip_model,
    deadline_and_proximity,
    evaluate,
    export_mip,
    generate_grid_instance,
    parse_lp,
    read_instance,
    read_schedule,
    run_dispatch,
    solve_exact,
    validate_schedule,
    write_instance,
    write_schedule,
)
from vsp.exact import SolveStatus  # noqa: E402
from oracles import (  # noqa: E402
    brute_force_tardy,
    random_small_instance,
    shared_vertex_pairs,
)

TARDY_OBJECTIVES = (ObjectiveKind.TARDY_COUNT, ObjectiveKind.WEIGHTED_TARDY_COUNT)


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
            late = {v.vehicles[0] for v in report.by_kind(ConstraintKind.HARD_DEADLINE)}
            flagged = {
                j for j, status in enumerate(result.statuses)
                if status is VehicleStatus.HARD_DEADLINE_VIOLATED
            }
            assert flagged == late


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
        assert read_schedule(path) == schedule


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(file_instances(TARDY_OBJECTIVES))
def test_lp_export_parses_back_to_its_model(inst):
    assert parse_lp(export_mip(inst)) == build_mip_model(inst)
