import re
from pathlib import Path

import pytest

from vsp import (
    INF,
    ConfigurationError,
    ExperimentConfig,
    Graph,
    GridSpec,
    HorizonError,
    Instance,
    MipModel,
    MipRow,
    ObjectiveKind,
    VspError,
    Walk,
    build_mip_model,
    evaluate,
    export_mip,
    generate_grid_instance,
    parse_lp,
    schedule_from_lp_solution,
    solve_exact,
    validate_schedule,
    write_lp,
)
from oracles import chain_instance, merge_instance, scipy_milp_solve

DATA = Path(__file__).parent / "data"


def long_and_short_instance():
    # Nine-vertex chain walked end to end plus a short companion, with the
    # hard deadlines set to 2.2 * vertex count * 50.
    graph = Graph(9, frozenset((i, i + 1) for i in range(8)))
    walk_a = Walk(tuple(range(9)), (50,) * 8, (INF,) * 8)
    walk_b = Walk((0, 1), (50,), (INF,))
    return Instance(
        graph=graph,
        walks=(walk_a, walk_b),
        request_times=(0, 0),
        soft_deadlines=(990, 220),
        hard_deadlines=(990, 220),
        separations={(0, 0, 1, 0): 5, (0, 1, 1, 1): 5},
    )


# --- big-M -------------------------------------------------------------------

def pair_constants(model):
    """Each pair's big-M by tag, read from both rows that carry it: the
    negated b_ coefficient of sep_p_hi and the rhs of sep_n_hi."""
    rows = {row.name: row for row in model.rows}
    constants = {}
    for name, row in rows.items():
        if name.startswith("sep_p_hi_"):
            tag = name.removeprefix("sep_p_hi_")
            constants[tag] = -row.coeffs[f"b_{tag}"]
            assert rows[f"sep_n_hi_{tag}"].rhs == constants[tag]
    return constants


def vehicle_constants(model):
    """Each vehicle's big-M: the rhs of its late_cap row."""
    return {
        int(row.name.removeprefix("late_cap_")): row.rhs
        for row in model.rows if row.name.startswith("late_cap_")
    }


def stamp_horizon(model):
    """The largest upper bound on any stamp."""
    return max(hi for name, (_, hi) in model.bounds.items() if name.startswith("t_"))


def three_way_instance():
    # Three vehicles reach vertex 3 over one link each, requested at 0, 10
    # and 20, with a uniform gap of 5 widened to 9 between vehicles 1 and 2;
    # vehicle 1 has no soft deadline.
    return Instance(
        graph=Graph(4, frozenset({(0, 3), (1, 3), (2, 3)})),
        walks=tuple(Walk((v, 3), (50,), (INF,)) for v in range(3)),
        request_times=(0, 10, 20),
        soft_deadlines=(60, INF, 120),
        hard_deadlines=(300, 300, 300),
        separation=5,
        separations={(1, 1, 2, 1): 9},
    )


def test_pair_constant_from_longest_walk():
    model = build_mip_model(long_and_short_instance())
    assert stamp_horizon(model) == 990
    assert set(pair_constants(model).values()) == {995}


def test_vehicle_constant_single_vehicle():
    model = build_mip_model(chain_instance(d_soft=100, d_hard=100))
    assert vehicle_constants(model) == {0: 100}


def test_caller_horizon_overrides():
    inst = merge_instance(d_soft=(50, 50), d_hard=(200, 200))
    model = build_mip_model(inst, horizon=1000)
    # The stamps stay inside the hard deadlines; without them they reach
    # the caller's horizon.
    assert stamp_horizon(model) == 200
    assert stamp_horizon(build_mip_model(merge_instance(), horizon=1000)) == 1000
    assert set(pair_constants(model).values()) == {1005}
    assert vehicle_constants(model) == {0: 1000, 1: 1000}
    # Different request times and a gap wider than the uniform one: a pair's
    # M is h - min(rho) + 9, a vehicle's max(h, d) - rho.
    for horizon, pairs, vehicles in (
        (1000, {"0_1_1_1": 1009, "0_1_2_1": 1009, "1_1_2_1": 999}, {0: 1000, 2: 980}),
        (100, {"0_1_1_1": 109, "0_1_2_1": 109, "1_1_2_1": 99}, {0: 100, 2: 100}),
    ):
        model = build_mip_model(three_way_instance(), horizon=horizon)
        assert stamp_horizon(model) == min(horizon, 300)
        assert pair_constants(model) == pairs
        assert vehicle_constants(model) == vehicles
    with pytest.raises(HorizonError) as exc:
        build_mip_model(inst, horizon=-1)
    assert str(exc.value) == "horizon -1 precedes a request time"
    # A horizon that is not an integer tick is refused, neither truncated
    # nor left to overflow.
    for horizon in (52.9, True, "60", float("nan"), INF):
        with pytest.raises(HorizonError, match="horizon must be an integer tick"):
            export_mip(inst, horizon=horizon)


def test_horizon_underivable_without_hard_deadlines():
    with pytest.raises(HorizonError, match="horizon"):
        build_mip_model(merge_instance())
    with pytest.raises(HorizonError):
        export_mip(merge_instance())
    # An explicit horizon unblocks the export.
    assert "Minimize" in export_mip(merge_instance(), horizon=500)


def test_vehicles_without_soft_deadline_have_no_lateness_block():
    inst = merge_instance(d_soft=(50, INF), d_hard=(200, 200))
    model = build_mip_model(inst)
    assert list(model.objective) == ["l_0"]
    assert not any(row.name.endswith("_1") and row.name.startswith("late")
                   for row in model.rows)


# --- model structure ---------------------------------------------------------

def test_single_vehicle_model_has_no_binaries_b():
    model = build_mip_model(chain_instance(d_soft=100, d_hard=100))
    assert model.binaries == ("l_0",)
    assert sum(1 for row in model.rows if row.name.startswith("sep")) == 0
    assert sum(1 for row in model.rows if row.name.startswith("late")) == 4


def test_merge_model_row_census():
    inst = merge_instance(d_soft=(50, 50), d_hard=(200, 200))
    model = build_mip_model(inst)
    names = [row.name for row in model.rows]
    assert sum(n.startswith("tmin") for n in names) == 2
    assert sum(n.startswith("tmax") for n in names) == 0
    assert sum(n.startswith("sep_eq") for n in names) == 1
    assert sum(n.startswith("sep_p") for n in names) == 2
    assert sum(n.startswith("sep_n") for n in names) == 2
    assert sum(n.startswith("late") for n in names) == 8
    assert sum(1 for b in model.binaries if b.startswith("b_")) == 1
    assert model.bounds["t_0_0"] == (0, 200)
    # Re-parsing the emitted text reproduces the census.
    parsed = parse_lp(write_lp(model))
    assert parsed == model


def test_finite_max_times_produce_rows():
    graph = Graph(2, frozenset({(0, 1)}))
    inst = Instance(
        graph=graph,
        walks=(Walk((0, 1), (50,), (120,)),),
        request_times=(0,),
        soft_deadlines=(100,),
        hard_deadlines=(300,),
    )
    model = build_mip_model(inst)
    assert any(row.name == "tmax_0_0" and row.sense == "<=" and row.rhs == 120
               for row in model.rows)


def test_objective_must_be_tardy_count():
    with pytest.raises(ConfigurationError):
        build_mip_model(chain_instance(d_soft=100, d_hard=100).__class__(
            graph=chain_instance().graph,
            walks=chain_instance().walks,
            request_times=(0,),
            soft_deadlines=(100,),
            hard_deadlines=(100,),
            objective=ObjectiveKind.MAKESPAN,
        ))


def test_weighted_objective_coefficients():
    inst = merge_instance(
        d_soft=(50, 50), d_hard=(200, 200),
        weights=(3, 1), objective=ObjectiveKind.WEIGHTED_TARDY_COUNT,
    )
    model = build_mip_model(inst)
    assert model.objective == {"l_0": 3, "l_1": 1}
    # tardy_count counts vehicles, whatever weights the instance carries.
    counted = build_mip_model(
        merge_instance(d_soft=(50, 50), d_hard=(200, 200), weights=(3, 1))
    )
    assert counted.objective == {"l_0": 1.0, "l_1": 1.0}


# --- file round trips ---------------------------------------------------------

def test_parse_back_reproduces_model_on_seeded_instances():
    for seed in range(10):
        cfg = ExperimentConfig(
            n_vehicles=3 + seed % 3,
            grid=GridSpec(4, 4),
            soft_deadline_ratios=(1.1,),
            seed=0,
        )
        inst = generate_grid_instance(cfg, 1.1, 9000 + seed)
        model = build_mip_model(inst)
        assert parse_lp(write_lp(model)) == model


def golden_instances():
    """Each checked-in LP file with the instance it was exported from."""
    cfg = ExperimentConfig(
        n_vehicles=3, grid=GridSpec(3, 3), soft_deadline_ratios=(1.1,), seed=0
    )
    return {
        "golden_merge.lp": merge_instance(d_soft=(50, 50), d_hard=(200, 200)),
        "golden_grid3.lp": generate_grid_instance(cfg, 1.1, 2024),
    }


def test_golden_files_are_stable():
    for name, inst in golden_instances().items():
        assert export_mip(inst) == (DATA / name).read_text(), name


def test_golden_files_parse_to_their_models():
    for name, inst in golden_instances().items():
        assert parse_lp((DATA / name).read_text()) == build_mip_model(inst), name


def test_parser_rejects_garbage():
    with pytest.raises(VspError):
        parse_lp("Subject To\n no sense here\nEnd\n")
    with pytest.raises(VspError):
        parse_lp("nonsense before sections\n")
    # Each term is "[sign] [coef] name", with a sign before every term but
    # the first, and nothing dangles.
    for text in (
        "Subject To\n r1: 3 4 x + - y 7 >= 1\nEnd\n",
        "Subject To\n r3: 5 >= 1\nEnd\n",
        "Minimize\n obj: l_0 3\nEnd\n",
        "Minimize\n x y >= 2\nEnd\n",
        "Subject To\n r: x y >= 2\nEnd\n",
        "Subject To\n r: x + >= 2\nEnd\n",
    ):
        with pytest.raises(VspError):
            parse_lp(text)
    # Row names, bounded variables and binaries follow the name rule of
    # terms, none of them repeats, and a number must fit in a float; each
    # error quotes the offending line.
    for text, line in (
        ("Subject To\n : x >= 1\nEnd\n", ": x >= 1"),
        ("Subject To\n bad name!: x >= 1\nEnd\n", "bad name!: x >= 1"),
        ("Bounds\n 0 <= 3x\nEnd\n", "0 <= 3x"),
        ("Bounds\n 0 <= 3x <= 5\nEnd\n", "0 <= 3x <= 5"),
        ("Binaries\n + 7 <=\nEnd\n", "+ 7 <="),
        ("Bounds\n 0 <= x <= 5\n 1 <= x\nEnd\n", "1 <= x"),
        ("Subject To\n r: x >= 1\n r: y >= 2\nEnd\n", "r: y >= 2"),
        ("Binaries\n x y\n x\nEnd\n", "x"),
        ("Binaries\n x x\nEnd\n", "x x"),
        ("Subject To\n r: x >= 1e400\nEnd\n", "r: x >= 1e400"),
        ("Subject To\n r: -1e400 x >= 1\nEnd\n", "r: -1e400 x >= 1"),
        ("Minimize\n obj: 1e400 x\nEnd\n", "obj: 1e400 x"),
        ("Bounds\n 0 <= x <= 1e999\nEnd\n", "0 <= x <= 1e999"),
        ("Bounds\n 1e999 <= x\nEnd\n", "1e999 <= x"),
        # The objective label follows the row-name rule, the objective is
        # one line, and no section header repeats.
        ("Minimize\n bad name!: x\nEnd\n", "bad name!: x"),
        ("Minimize\n : x\nEnd\n", ": x"),
        ("Minimize\n obj: x\n obj: 2 y + 3 x\nEnd\n", "obj: 2 y + 3 x"),
        ("Minimize\n x\n y\nEnd\n", "y"),
        ("Minimize\n obj: x\nMinimize\n obj2: y\nEnd\n", "Minimize"),
        ("Minimize\n obj: x\nSubject To\n r: x >= 1\nsubject to\nEnd\n", "subject to"),
        ("Subject To\n r: x >= 1\nBounds\nEnd\nEnd\n", "End"),
    ):
        with pytest.raises(VspError, match=re.escape(repr(line))):
            parse_lp(text)


def test_write_lp_rejects_non_finite_numbers():
    nan = float("nan")

    def model(objective=None, row=None, bound=(0, INF)):
        return MipModel(
            objective or {"x": 1.0},
            (row or MipRow("cap_7", {"x": 1.0}, "<=", 4),),
            {"x": bound},
            (),
        )

    # An open upper bound is the one legal infinity.
    assert " 0 <= x\n" in write_lp(model())
    for bad, name in (
        (model(objective={"x": INF}), "objective"),
        (model(objective={"x": nan}), "objective"),
        (model(row=MipRow("cap_7", {"x": -INF}, "<=", 4)), "cap_7"),
        (model(row=MipRow("cap_7", {"x": nan}, "<=", 4)), "cap_7"),
        (model(row=MipRow("cap_7", {"x": 1.0}, "<=", INF)), "cap_7"),
        (model(row=MipRow("cap_7", {"x": 1.0}, ">=", -INF)), "cap_7"),
        (model(row=MipRow("cap_7", {"x": 1.0}, "=", nan)), "cap_7"),
        (model(bound=(INF, INF)), "x"),
        (model(bound=(-INF, 5)), "x"),
        (model(bound=(nan, 5)), "x"),
        (model(bound=(0, -INF)), "x"),
        (model(bound=(0, nan)), "x"),
    ):
        with pytest.raises(VspError, match=rf"\b{name}\b"):
            write_lp(bad)


# --- external solver agreement -------------------------------------------------

def test_external_milp_matches_exact_solver():
    outcome = scipy_milp_solve(
        parse_lp(export_mip(merge_instance(d_soft=(50, 50), d_hard=(200, 200))))
    )
    if outcome is None:
        pytest.skip("scipy not available")
    solved, objective, values = outcome
    assert solved
    inst = merge_instance(d_soft=(50, 50), d_hard=(200, 200))
    native = solve_exact(inst)
    assert round(objective) == native.objective == 1
    decoded = schedule_from_lp_solution(inst, values)
    assert validate_schedule(inst, decoded).passes()
    assert evaluate(inst, decoded) == round(objective)
    # Big-M constants must not be tight at the optimum.
    smallest = min(pair_constants(build_mip_model(inst)).values())
    for name, value in values.items():
        if name.startswith(("P_", "N_")):
            assert value < smallest


def test_lp_solution_decodes_only_integer_stamps():
    inst = merge_instance(d_soft=(50, 50), d_hard=(200, 200))
    values = {"t_0_0": 0.0, "t_0_1": 50.0, "t_1_0": 0, "t_1_1": 55.0000004}
    assert schedule_from_lp_solution(inst, values).times == ((0, 50), (0, 55))
    for bad in (None, float("nan"), INF, "50", 50.4, True):
        broken = dict(values)
        if bad is None:
            del broken["t_1_1"]
        else:
            broken["t_1_1"] = bad
        with pytest.raises(VspError, match=r"\bt_1_1\b"):
            schedule_from_lp_solution(inst, broken)


def test_external_milp_matches_exact_on_random_instances():
    for seed in (5, 6, 7):
        cfg = ExperimentConfig(
            n_vehicles=4,
            grid=GridSpec(4, 4),
            soft_deadline_ratios=(1.02,),
            seed=0,
        )
        inst = generate_grid_instance(cfg, 1.02, seed)
        outcome = scipy_milp_solve(parse_lp(export_mip(inst)), time_limit=60)
        if outcome is None:
            pytest.skip("scipy not available")
        solved, objective, values = outcome
        if not solved:
            continue
        native = solve_exact(inst)
        assert round(objective) == native.objective
        decoded = schedule_from_lp_solution(inst, values)
        assert validate_schedule(inst, decoded).passes()
