import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from vsp import (
    INF,
    ExperimentConfig,
    FormatError,
    Graph,
    GridSpec,
    JspInstance,
    ObjectiveKind,
    Schedule,
    VspError,
    build_grid_graph,
    conflict_pairs,
    deadline_and_proximity,
    generate_grid_instance,
    min_free_trip_time,
    read_instance,
    read_jsp,
    read_schedule,
    reduce_jsp_to_vsp,
    write_instance,
    write_schedule,
)
from vsp.instances import (
    grid_walk,
    instance_from_dict,
    instance_to_dict,
    schedule_from_dict,
)
from oracles import BAD_TICKS, Tick, exact_makespan, merge_instance, unit_jsp_min_slots

DATA = Path(__file__).parent / "data"


# --- grids -------------------------------------------------------------------

def test_five_by_five_counts():
    g = build_grid_graph(GridSpec(5, 5))
    assert g.vertex_count == 25
    assert len(g.edges) == 80


def test_degenerate_grid_rejected():
    with pytest.raises(ValueError):
        GridSpec(1, 1)
    with pytest.raises(ValueError):
        GridSpec(0, 5)


def test_config_invariants():
    with pytest.raises(ValueError, match="strictly increasing"):
        ExperimentConfig(n_vehicles=5, soft_deadline_ratios=(1.2, 1.1))
    with pytest.raises(ValueError, match="cover every ratio"):
        ExperimentConfig(
            n_vehicles=5, soft_deadline_ratios=(1.0, 3.0), hard_deadline_factor=2.2
        )
    with pytest.raises(ValueError):
        ExperimentConfig(n_vehicles=0)
    for fields, message in (
        ({"tau_min_link": -1}, "tau_min_link must be a nonnegative integer"),
        ({"tau_min_link": 60, "tau_max_link": 50}, "tau_min_link exceeds tau_max_link"),
        ({"soft_deadline_ratios": ()}, "need at least one soft deadline ratio"),
    ):
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(n_vehicles=5, **fields)
        assert str(exc.value) == message


def all_shortest_sequences(graph, source, dest):
    dist = {source: 0}
    frontier = [source]
    forward = {}
    for u, v in graph.edges:
        forward.setdefault(u, []).append(v)
    while frontier:
        nxt = []
        for u in frontier:
            for v in forward.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    paths = []

    def grow(path):
        last = path[-1]
        if last == dest:
            paths.append(tuple(path))
            return
        for v in forward.get(last, ()):
            if dist.get(v, -1) == dist[last] + 1 and dist[dest] >= dist[v]:
                grow(path + [v])

    grow([source])
    return [p for p in paths if len(p) == dist[dest] + 1]


def test_shortest_walk_is_lexicographically_smallest():
    for spec in (GridSpec(4, 4), GridSpec(3, 5), GridSpec(1, 4), GridSpec(4, 1)):
        g = build_grid_graph(spec)
        for source in range(spec.vertex_count):
            for dest in range(spec.vertex_count):
                if dest != source:
                    paths = all_shortest_sequences(g, source, dest)
                    assert grid_walk(spec, source, dest) == min(paths)
    inst = generate_grid_instance(ExperimentConfig(40, grid=GridSpec(4, 4)), 1.0, 8)
    for walk in inst.walks:
        paths = all_shortest_sequences(inst.graph, walk.vertices[0], walk.vertices[-1])
        assert walk.vertices == min(paths)


# --- generator ---------------------------------------------------------------

def test_generated_instance_shape_and_deadlines():
    cfg = ExperimentConfig(n_vehicles=10, seed=0, soft_deadline_ratios=(1.5,))
    inst = generate_grid_instance(cfg, 1.5, 42)
    assert inst.n_vehicles == 10
    assert inst.request_times == (0,) * 10
    assert inst.objective is ObjectiveKind.TARDY_COUNT
    for j, walk in enumerate(inst.walks):
        free = min_free_trip_time(inst, j)
        assert inst.soft_deadlines[j] == round(1.5 * free)
        assert inst.hard_deadlines[j] == round(2.2 * free)
        # Walks on the grid are genuine shortest paths: vertex count is the
        # Manhattan distance plus one.
        row_a, col_a = divmod(walk.vertices[0], 5)
        row_b, col_b = divmod(walk.vertices[-1], 5)
        assert len(walk) == abs(row_a - row_b) + abs(col_a - col_b) + 1
        assert walk.vertices[0] != walk.vertices[-1]


def test_every_shared_vertex_pair_has_one_gap():
    cfg = ExperimentConfig(n_vehicles=8, seed=0)
    inst = generate_grid_instance(cfg, 1.2, 5)
    expected = {}
    for j1, w1 in enumerate(inst.walks):
        for j2, w2 in enumerate(inst.walks):
            if j1 >= j2:
                continue
            for i1, u in enumerate(w1.vertices):
                for i2, v in enumerate(w2.vertices):
                    if u == v:
                        expected[(j1, i1, j2, i2)] = 5
    assert {(p.j1, p.i1, p.j2, p.i2): p.s for p in conflict_pairs(inst)} == expected


def test_generated_instance_stores_the_rule_not_the_pairs():
    cfg = ExperimentConfig(n_vehicles=8, seed=0)
    inst = generate_grid_instance(cfg, 1.2, 5)
    assert inst.separation == 5
    assert inst.separations == {}
    for j1, w1 in enumerate(inst.walks):
        for j2, w2 in enumerate(inst.walks):
            for i1, u in enumerate(w1.vertices):
                for i2, v in enumerate(w2.vertices):
                    shared = j1 != j2 and u == v
                    assert inst.gap(j1, i1, j2, i2) == (5 if shared else 0)


def test_generation_deterministic_byte_for_byte(tmp_path):
    cfg = ExperimentConfig(n_vehicles=12, seed=0, soft_deadline_ratios=(1.3,))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_instance(generate_grid_instance(cfg, 1.3, 77), a)
    write_instance(generate_grid_instance(cfg, 1.3, 77), b)
    assert a.read_bytes() == b.read_bytes()


def test_finite_link_windows_propagate():
    cfg = ExperimentConfig(
        n_vehicles=3, seed=0, tau_max_link=120, soft_deadline_ratios=(1.0,)
    )
    inst = generate_grid_instance(cfg, 1.0, 8)
    assert all(t == 120 for w in inst.walks for t in w.max_times)


def test_ratio_changes_only_soft_deadlines():
    cfg = ExperimentConfig(n_vehicles=9, seed=0)
    tight = generate_grid_instance(cfg, 1.0, 11)
    loose = generate_grid_instance(cfg, 2.0, 11)
    assert tight.walks == loose.walks
    assert tight.hard_deadlines == loose.hard_deadlines
    assert all(a <= b for a, b in zip(tight.soft_deadlines, loose.soft_deadlines))


# --- job shop reduction --------------------------------------------------------

def test_reduction_waiting_allowed_means_open_windows():
    jsp = JspInstance(
        machine_count=3,
        jobs=((0, 1), (1, 2)),
        release_times=(0, 0),
        deadlines=(INF, INF),
        no_wait=False,
    )
    inst = reduce_jsp_to_vsp(jsp)
    assert inst.graph.vertex_count == 3
    assert len(inst.graph.edges) == 6  # complete digraph
    assert all(t == INF for w in inst.walks for t in w.max_times)
    assert inst.hard_deadlines == (INF, INF)
    assert all(t == 1 for w in inst.walks for t in w.min_times)


def test_reduction_no_wait_closes_windows():
    jsp = JspInstance(
        machine_count=2,
        jobs=((0, 1),),
        release_times=(0,),
        deadlines=(INF,),
        no_wait=True,
    )
    inst = reduce_jsp_to_vsp(jsp)
    assert inst.walks[0].max_times == (1,)


def test_reduction_hard_deadline_flag():
    jsp = JspInstance(
        machine_count=2,
        jobs=((0, 1),),
        release_times=(0,),
        deadlines=(9,),
        no_wait=False,
        hard_deadlines=True,
    )
    inst = reduce_jsp_to_vsp(jsp)
    assert inst.soft_deadlines == (9,)
    assert inst.hard_deadlines == (9,)


def test_reduction_rejects_repeated_machine():
    jsp = JspInstance(
        machine_count=2,
        jobs=((0, 0),),
        release_times=(0,),
        deadlines=(INF,),
        no_wait=False,
    )
    with pytest.raises(VspError, match="twice in a row"):
        reduce_jsp_to_vsp(jsp)


def test_single_job_makespan_one():
    jsp = JspInstance(
        machine_count=2,
        jobs=((0, 1),),
        release_times=(0,),
        deadlines=(INF,),
        no_wait=False,
    )
    assert exact_makespan(reduce_jsp_to_vsp(jsp)) == 1


def test_two_identical_jobs_makespan_two():
    jsp = JspInstance(
        machine_count=2,
        jobs=((0, 1), (0, 1)),
        release_times=(0, 0),
        deadlines=(INF, INF),
        no_wait=False,
    )
    vsp_makespan = exact_makespan(reduce_jsp_to_vsp(jsp))
    jsp_makespan = unit_jsp_min_slots(jsp.jobs) - 1  # last start time
    assert vsp_makespan == jsp_makespan == 2


def test_machine_separation_is_one_everywhere():
    jsp = JspInstance(
        machine_count=3,
        jobs=((0, 1, 2), (2, 1)),
        release_times=(0, 0),
        deadlines=(INF, INF),
        no_wait=False,
    )
    inst = reduce_jsp_to_vsp(jsp)
    gaps = {(p.j1, p.i1, p.j2, p.i2): p.s for p in conflict_pairs(inst)}
    assert gaps == {(0, 1, 1, 1): 1, (0, 2, 1, 0): 1}
    assert inst.separation == 1 and inst.separations == {}


# --- files --------------------------------------------------------------------

def one_line(path) -> bool:
    """The file is a single line of JSON ending in a newline."""
    text = path.read_text()
    return text.endswith("\n") and "\n" not in text[:-1]


def test_instance_round_trip(tmp_path):
    cfg = ExperimentConfig(n_vehicles=6, seed=0)
    inst = generate_grid_instance(cfg, 1.4, 3)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    assert one_line(path)
    assert read_instance(path) == inst


def test_round_trip_preserves_infinities_and_weights(tmp_path):
    from oracles import merge_instance

    inst = merge_instance(
        d_soft=(50, 50), d_hard=(200, INF), weights=(2.5, 1.0),
        objective=ObjectiveKind.WEIGHTED_TARDY_COUNT,
    )
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    assert one_line(path)
    loaded = read_instance(path)
    assert loaded == inst
    assert loaded.hard_deadlines == (200, INF)


def test_unknown_key_rejected(tmp_path):
    cfg = ExperimentConfig(n_vehicles=2, seed=0)
    data = instance_to_dict(generate_grid_instance(cfg, 1.0, 1))
    data["frobnicate"] = True
    with pytest.raises(FormatError, match="unknown keys"):
        instance_from_dict(data)


def test_missing_d_soft_defaults_to_infinity():
    cfg = ExperimentConfig(n_vehicles=2, seed=0)
    data = instance_to_dict(generate_grid_instance(cfg, 1.0, 1))
    del data["d_soft"]
    inst = instance_from_dict(data)
    assert all(d == INF for d in inst.soft_deadlines)


def test_length_mismatch_diagnostic():
    cfg = ExperimentConfig(n_vehicles=2, seed=0)
    data = instance_to_dict(generate_grid_instance(cfg, 1.0, 1))
    data["walks"][0]["tau_min"].append(50)
    with pytest.raises(FormatError, match="link times"):
        instance_from_dict(data)


def test_separation_at_distinct_vertices_diagnostic():
    cfg = ExperimentConfig(n_vehicles=2, seed=0)
    data = instance_to_dict(generate_grid_instance(cfg, 1.0, 1))
    v0 = data["walks"][0]["vertices"]
    v1 = data["walks"][1]["vertices"]
    i0, i1 = next(
        (i0, i1)
        for i0 in range(len(v0)) for i1 in range(len(v1))
        if v0[i0] != v1[i1]
    )
    data["separations"] = [[0, i0, 1, i1, 5]]
    with pytest.raises(FormatError, match="different vertices"):
        instance_from_dict(data)


def test_fractional_tick_rejected():
    cfg = ExperimentConfig(n_vehicles=2, seed=0)
    data = instance_to_dict(generate_grid_instance(cfg, 1.0, 1))
    data["rho"] = [0.5, 0]
    with pytest.raises(FormatError, match="integer tick"):
        instance_from_dict(data)
    data["rho"] = [0.0, 0]
    assert instance_from_dict(data).request_times[0] == 0
    # Edges, separation indices and the gap rule take the same tick checks,
    # and weights must be numbers: nothing is truncated or coerced.
    merge = instance_to_dict(merge_instance(weights=(2.5, 1.0)))
    assert merge["separations"] == [[0, 1, 1, 1, 5]]
    for key, bad, match in (
        ("edges", [[0.7, 2], [1, 2]], "integer tick"),
        ("edges", [["0", 2], [1, 2]], "integer tick"),
        ("separations", [[0, "1", 1, 1, 5]], "integer tick"),
        ("separations", [[0, 1.5, 1, 1, 5]], "integer tick"),
        ("separation", "5", "integer tick"),
        ("separation", True, "integer tick"),
        ("separation", float("nan"), "integer tick"),
        ("rho", [float("inf"), 0], "integer tick"),
        ("weights", [True, 1.0], "weight must be a number"),
        ("weights", [1.0, "2"], "weight must be a number"),
        ("weights", [1.0, float("inf")], "positive and finite"),
        ("weights", [1.0, float("nan")], "positive and finite"),
        ("separations", [[0, 1, 1, 1]],
         re.escape("separation entry must be [j1,i1,j2,i2,s]: [0, 1, 1, 1]")),
        ("separations", [[0, 1, 1, 1, 5], [0, 1, 1, 1, 6]],
         re.escape("separation (0, 1, 1, 1) listed twice with different gaps")),
    ):
        broken = dict(merge, **{key: bad})
        with pytest.raises(FormatError, match=match):
            instance_from_dict(broken)


def test_ticks_per_unit_only_as_legacy_one():
    data = instance_to_dict(merge_instance())
    assert "ticks_per_unit" not in data
    data["ticks_per_unit"] = 1
    assert instance_from_dict(data) == merge_instance()
    for bad in (10, 0, True, "1"):
        data["ticks_per_unit"] = bad
        with pytest.raises(FormatError):
            instance_from_dict(data)


def test_legacy_full_list_file_reads_as_regenerated(tmp_path):
    """A file written with every same-vertex pair listed and a tick scale
    (the format before the uniform gap rule) gives the same gaps and the
    same dispatch as the instance regenerated from its seed."""
    legacy_path = DATA / "legacy_grid.json"
    raw = json.loads(legacy_path.read_text())
    assert raw["ticks_per_unit"] == 1 and "separation" not in raw
    legacy = read_instance(legacy_path)
    cfg = ExperimentConfig(
        n_vehicles=12, seed=7, soft_deadline_ratios=(1.3,), n_instances=1
    )
    fresh = generate_grid_instance(cfg, 1.3, 7)
    assert legacy.walks == fresh.walks
    assert legacy.soft_deadlines == fresh.soft_deadlines
    assert legacy.hard_deadlines == fresh.hard_deadlines
    assert legacy.separations == {}
    assert legacy.separation == 5
    stamps = [(j, i) for j, w in enumerate(fresh.walks) for i in range(len(w))]
    for a in stamps:
        for b in stamps:
            assert legacy.gap(*a, *b) == fresh.gap(*a, *b)
    assert deadline_and_proximity(legacy) == deadline_and_proximity(fresh)
    path = tmp_path / "again.json"
    write_instance(legacy, path)
    assert read_instance(path) == legacy


def test_partial_legacy_list_keeps_its_overrides():
    """Only a list that gives one gap to every same-vertex pair reads as a
    uniform gap; a list missing a pair or mixing gaps stays as overrides."""
    raw = json.loads((DATA / "legacy_grid.json").read_text())
    first, *others = raw["separations"]
    missing = dict(raw, separations=others)
    mixed = dict(raw, separations=[[*first[:4], 6], *others])
    j1, i1, j2, i2, _ = first
    for data, gap in ((missing, 0), (mixed, 6)):
        inst = instance_from_dict(data)
        assert inst.separation == 0
        assert len(inst.separations) == len(data["separations"])
        assert inst.gap(j1, i1, j2, i2) == gap


def test_schedule_round_trip_and_diagnostics(tmp_path):
    path = tmp_path / "sched.json"
    sched = Schedule(((0, 50, 100), (5, 55)))
    write_schedule(sched, path)
    assert path.read_text() == '{"times": [[0, 50, 100], [5, 55]]}\n'
    assert read_schedule(path) == sched
    # Shape errors name the file, as every other file error does.
    path.write_text(json.dumps({"times": [[0, 1]], "x": 1}))
    with pytest.raises(FormatError) as exc:
        read_schedule(path)
    assert str(exc.value) == f"{path}: schedule has unknown keys: ['x']"
    path.write_text("[1]")
    with pytest.raises(FormatError) as exc:
        read_schedule(path)
    assert str(exc.value) == f"{path}: schedule must be a JSON object"
    path.write_text("{broken")
    with pytest.raises(FormatError, match="not valid JSON"):
        read_schedule(path)


@pytest.fixture(scope="module")
def city_dicts():
    """A decoded 600-vehicle 10x10 instance file and its schedule file."""
    cfg = ExperimentConfig(n_vehicles=600, grid=GridSpec(10, 10))
    inst = generate_grid_instance(cfg, 1.5, 1)
    schedule = deadline_and_proximity(inst).schedule()
    return instance_to_dict(inst), {"times": [list(row) for row in schedule.times]}


def swap_last(seq: tuple, value) -> tuple:
    return (*seq[:-1], value)


def rebuilt(inst, sched, name, value):
    """The core object holding value as the last entry of its named list."""
    walk = inst.walks[-1]
    if name == "edges":
        u, v = max(inst.graph.edges)  # the last edge of the file
        return Graph(inst.graph.vertex_count, inst.graph.edges - {(u, v)} | {(u, value)})
    if name == "vertices":
        walk = replace(walk, vertices=swap_last(walk.vertices, value))
        return replace(inst, walks=swap_last(inst.walks, walk))
    if name in ("min_times", "max_times"):
        return replace(walk, **{name: swap_last(getattr(walk, name), value)})
    if name == "times":
        return Schedule(swap_last(sched.times, swap_last(sched.times[-1], value)))
    return replace(inst, **{name: swap_last(getattr(inst, name), value)})


@pytest.mark.parametrize("where, label, name, rejects_true", [
    # True as the last vertex is vertex 1, which may well close an edge.
    (("walks", 599, "vertices"), "walk 599 vertex", "vertices", None),
    (("walks", 599, "tau_min"), "walk 599 tau_min", "min_times",
     "min time on link {last} must be a nonnegative integer"),
    (("walks", 599, "tau_max"), "walk 599 tau_max", "max_times",
     "max time on link {last} must be an integer or +inf"),
    (("rho",), "rho entry", "request_times",
     "request time of vehicle 599 must be an integer"),
    (("d_soft",), "d_soft entry", "soft_deadlines",
     "deadlines of vehicle 599 must be integers or +inf"),
    (("d_hard",), "d_hard entry", "hard_deadlines",
     "deadlines of vehicle 599 must be integers or +inf"),
    (("times", 599), "stamp", "times", "stamp (599,{last}) must be an integer tick"),
    # True as an endpoint is vertex 1, which the graph takes.
    (("edges", 359), "edge endpoint", "edges", None),
], ids=["vertices", "tau_min", "tau_max", "rho", "d_soft", "d_hard", "schedule_row",
        "edge"])
def test_bulk_checks_name_the_last_offender(city_dicts, where, label, name, rejects_true):
    """A bad value at the end of a long list gets the message of the value
    by value check, from the readers and from the core constructors, which
    still take an int subclass other than bool as a tick."""
    inst_dict, sched_dict = city_dicts
    data, read = (sched_dict, schedule_from_dict) if name == "times" else (
        inst_dict, instance_from_dict)
    values = data
    for key in where:
        values = values[key]
    for bad in BAD_TICKS:
        broken = json.loads(json.dumps(data))
        target = broken
        for key in where:
            target = target[key]
        target[-1] = bad
        with pytest.raises(FormatError) as exc:
            read(broken)
        assert str(exc.value) == f"{label} must be an integer tick, got {bad!r}"

    inst, sched = instance_from_dict(inst_dict), schedule_from_dict(sched_dict)
    rebuilt(inst, sched, name, Tick(10**6 if values[-1] is None else values[-1]))
    if rejects_true is not None:
        with pytest.raises(ValueError) as exc:
            rebuilt(inst, sched, name, True)
        assert str(exc.value) == rejects_true.format(last=len(values) - 1)


@pytest.mark.parametrize("last_edge, message", [
    ([99, 99], "invalid instance: self-loop edge at vertex 99 is not allowed"),
    ([99, 100], "invalid instance: edge (99,100) references an unknown vertex"),
    ([99, 98, 97], "invalid instance: too many values to unpack (expected 2)"),
    ([99, True], "edge endpoint must be an integer tick, got True"),
], ids=["self_loop", "unknown_vertex", "three_ends", "true_endpoint"])
def test_bulk_checks_name_the_last_edge(city_dicts, last_edge, message):
    """A bad last edge in a long list gets the message of the edge by edge
    check, from the reader and, past its type checks, from Graph."""
    data = json.loads(json.dumps(city_dicts[0]))
    data["edges"][-1] = last_edge
    with pytest.raises(FormatError) as exc:
        instance_from_dict(data)
    assert str(exc.value) == message
    if message.startswith("invalid instance: "):
        edges = {tuple(e) for e in city_dicts[0]["edges"][:-1]} | {tuple(last_edge)}
        with pytest.raises(ValueError) as exc:
            Graph(100, edges)
        assert str(exc.value) == message.removeprefix("invalid instance: ")


def test_jsp_file_round_trip(tmp_path):
    path = tmp_path / "jsp.json"
    path.write_text(json.dumps({
        "machines": 3,
        "jobs": [[0, 1], [1, 2, 0]],
        "r": [0, 0],
        "delta": [None, 20],
        "theta": False,
    }))
    jsp = read_jsp(path)
    assert jsp.machine_count == 3
    assert jsp.deadlines == (INF, 20)
    assert not jsp.no_wait
    path.write_text(json.dumps({"machines": 1, "jobs": [[0]]}))
    with pytest.raises(FormatError, match="missing key"):
        read_jsp(path)
    good = {"machines": 2, "jobs": [[0, 1]], "r": [0], "delta": [None],
            "theta": False}
    for key, bad, match in (
        ("jobs", [[0, "1"]], "integer tick"),
        ("jobs", [[0, 1.5]], "integer tick"),
        ("r", [float("inf")], "integer tick"),
        ("theta", "false", "true or false"),
        ("theta", 0, "true or false"),
        ("hard_deadlines", 1, "true or false"),
        ("machines", 0, "machine_count must be positive"),
        ("jobs", [], "need at least one job"),
        ("r", [0, 0], "release_times and deadlines must cover every job"),
        ("jobs", [[]], "job 0 has no operations"),
        ("jobs", [[0, 2]], "job 0 references unknown machine 2"),
        ("delta", [-1], "job 0: release time 0 is after its deadline -1"),
    ):
        path.write_text(json.dumps(dict(good, **{key: bad})))
        with pytest.raises(FormatError, match=match):
            read_jsp(path)
