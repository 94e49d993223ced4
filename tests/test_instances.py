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
    Instance,
    JspInstance,
    ObjectiveKind,
    Schedule,
    VspError,
    Walk,
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
from vsp.core import walks_from_rows
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
    # The graph is memoised on the spec, which must then name one grid.
    for rows, cols in ((5.0, 5), (True, 5), (5, "5")):
        with pytest.raises(ValueError, match="integer ticks"):
            GridSpec(rows, cols)


def test_grid_graph_is_built_once_per_spec():
    graph = build_grid_graph(GridSpec(5, 5))
    assert build_grid_graph(GridSpec(5, 5)) is graph
    assert build_grid_graph(GridSpec(4, 5)) is not graph
    config = ExperimentConfig(n_vehicles=6)
    first, second = (generate_grid_instance(config, 1.0, seed) for seed in (1, 2))
    assert first.walks != second.walks
    assert first.graph is second.graph is graph


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
        ({"n_vehicles": True}, "n_vehicles must be a positive integer"),
        ({"n_vehicles": 2.5}, "n_vehicles must be a positive integer"),
        ({"n_instances": True}, "n_instances must be a positive integer"),
        ({"n_instances": 1.5}, "n_instances must be a positive integer"),
        ({"tau_max_link": 60.5}, "tau_max_link must be an integer tick or inf"),
        ({"tau_max_link": float("nan")}, "tau_max_link must be an integer tick or inf"),
        ({"tau_max_link": True}, "tau_max_link must be an integer tick or inf"),
    ):
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(**{"n_vehicles": 5, **fields})
        assert str(exc.value) == message


NAN = float("nan")


@pytest.mark.parametrize("field, value, message", [
    # A ratio is read as soft_deadline_ratios=(1.0, value) under a factor of 3.
    ("ratio", True, "soft deadline ratios must be finite and nonnegative"),
    ("ratio", 2.5, None),
    ("ratio", NAN, "soft deadline ratios must be finite and nonnegative"),
    ("ratio", "1", "soft deadline ratios must be finite and nonnegative"),
    ("ratio", None, "soft deadline ratios must be finite and nonnegative"),
    ("hard_deadline_factor", True, "hard_deadline_factor must be a real number"),
    ("hard_deadline_factor", 2.5, None),
    ("hard_deadline_factor", NAN,
     "hard deadline factor on the longest free trip must be finite"),
    ("hard_deadline_factor", "1", "hard_deadline_factor must be a real number"),
    ("hard_deadline_factor", None, "hard_deadline_factor must be a real number"),
    ("seed", True, "seed must be an integer"),
    ("seed", 2.5, "seed must be an integer"),
    ("seed", NAN, "seed must be an integer"),
    ("seed", "1", "seed must be an integer"),
    ("seed", None, "seed must be an integer"),
    # Past the float range: exact comparisons, no OverflowError.
    ("ratio", 10**400, "hard deadline factor must cover every ratio"),
    ("hard_deadline_factor", 10**400,
     "hard deadline factor on the longest free trip must be finite"),
    ("seed", 10**400, None),
])
def test_config_takes_real_ratios_and_factor_and_an_int_seed(field, value, message):
    """A bool is no ratio, factor or seed, and a seed of None would seed
    each process's sweep from the clock: each is refused with ValueError,
    and an accepted value is kept as given."""
    fields = (
        {"soft_deadline_ratios": (1.0, value), "hard_deadline_factor": 3.0}
        if field == "ratio" else {field: value}
    )
    if message is None:
        config = ExperimentConfig(n_vehicles=5, **fields)
        for name, given in fields.items():
            assert getattr(config, name) == given
        return
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
    assert dict(conflict_pairs(inst)) == expected


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
    assert dict(conflict_pairs(inst)) == {(0, 1, 1, 1): 1, (0, 2, 1, 0): 1}
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


def test_instance_built_through_the_api_round_trips(tmp_path):
    """Whatever the constructors take, int subclasses as vertices included,
    the files hold and read back as the same instance."""
    inst = Instance(
        graph=Graph(3, frozenset({(0, 1), (Tick(1), 2), (2, 1)})),
        walks=(Walk((0, Tick(1), 2, 1), (30, 0, 20), (INF, 40, INF)),
               Walk((2, 1), (10,), (INF,))),
        request_times=(0, 5),
        soft_deadlines=(100, INF),
        hard_deadlines=(500, INF),
        separations={(1, 1, 0, 3): 9},
        separation=4,
    )
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    assert read_instance(path) == inst


def test_integral_floats_read_walk_by_walk_as_ticks(tmp_path):
    """Integral floats are ticks: a file holding them in walks, edges and
    stamps reads as its all-int twin and writes back as ints."""
    ints = {
        "vertices": 3, "edges": [[0, 1], [1, 2], [2, 1]],
        "walks": [{"vertices": [0, 1, 2], "tau_min": [50, 0], "tau_max": [120, None]},
                  {"vertices": [2, 1], "tau_min": [50], "tau_max": [None]}],
        "rho": [0, 0], "d_soft": [200, None], "d_hard": [300, None], "separation": 5,
    }
    floats = json.loads(json.dumps(ints))
    floats["edges"][0] = [0.0, 1]
    floats["walks"][0] = {
        "vertices": [0.0, 1, 2.0], "tau_min": [50.0, 0.0], "tau_max": [120.0, None],
    }

    def read_then_write(name, data, times):
        """The instance and schedule read from files, and the files they write."""
        paths = tmp_path / f"{name}.json", tmp_path / f"{name}-times.json"
        paths[0].write_text(json.dumps(data))
        paths[1].write_text(json.dumps({"times": times}))
        inst, sched = read_instance(paths[0]), read_schedule(paths[1])
        write_instance(inst, paths[0])
        write_schedule(sched, paths[1])
        return inst, sched, paths[0].read_text() + paths[1].read_text()

    read = read_then_write("floats", floats, [[0, 50.0, 50], [0, 50]])
    assert read == read_then_write("ints", ints, [[0, 50, 50], [0, 50]])
    assert ".0" not in read[2]


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
    with pytest.raises(FormatError, match="request time of vehicle 0 must be an integer"):
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
        ("separations", [[0, True, 1, 1, 5]], "integer tick"),
        ("separations", [[0, 1, 1, 1, True]], "must be a nonnegative integer"),
        ("separation", "5", "separation must be a nonnegative integer"),
        ("separation", True, "separation must be a nonnegative integer"),
        ("separation", float("nan"), "separation must be a nonnegative integer"),
        ("rho", [float("inf"), 0], "request time of vehicle 0 must be an integer"),
        ("d_soft", [float("inf"), 200], re.escape("+inf in d_soft must be written null")),
        ("weights", [True, 1.0], "weight of vehicle 0 must be a number"),
        ("weights", [1.0, "2"], "weight of vehicle 1 must be a number"),
        ("weights", [1.0, float("inf")], "positive and finite"),
        ("weights", [1.0, float("nan")], "positive and finite"),
        ("separations", [[0, 1, 1, 1]],
         re.escape("separation entry must be [j1,i1,j2,i2,s]: [0, 1, 1, 1]")),
        ("separations", [[0, 1, 1, 1, 5], [0, 1, 1, 1, 6]], re.escape(
            "separation listed twice, as [0, 1, 1, 1, 5] and [0, 1, 1, 1, 6]")),
        # True equals 1, so a set or a dict would take these repeats as one.
        ("separations", [[0, 1, 1, 1, 5], [0, True, 1, 1, 5]], re.escape(
            "separation listed twice, as [0, 1, 1, 1, 5] and [0, True, 1, 1, 5]")),
        ("edges", [[0, 2], [1, 2], [True, 2]], re.escape(
            "edge (True,2) endpoints must be integer ticks")),
    ):
        broken = dict(merge, **{key: bad})
        with pytest.raises(FormatError, match=match):
            instance_from_dict(broken)
    # The reader hands weights on as they are: the constructor checks them.
    for weights in ((True, 1.0), (1.0, "2")):
        with pytest.raises(ValueError, match="must be a number"):
            replace(merge_instance(), weights=weights)


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
    """The core object holding value as the last entry of its named list,
    built by the constructor that the reader builds it with."""
    if name == "edges":
        u, v = max(inst.graph.edges)  # the last edge of the file
        return Graph(inst.graph.vertex_count, inst.graph.edges - {(u, v)} | {(u, value)})
    if name in WALK_FIELDS:
        rows = {key: [getattr(walk, key) for walk in inst.walks] for key in WALK_FIELDS}
        rows[name][-1] = swap_last(rows[name][-1], value)
        return walks_from_rows(*rows.values())
    if name == "times":
        return Schedule(swap_last(sched.times, swap_last(sched.times[-1], value)))
    return replace(inst, **{name: swap_last(getattr(inst, name), value)})


WALK_FIELDS = ("vertices", "min_times", "max_times")


@pytest.mark.parametrize("where, name, message", [
    (("walks", 599, "vertices"), "vertices",
     "walk 599: vertex at step {last} must be an integer tick, got {bad!r}"),
    (("walks", 599, "tau_min"), "min_times",
     "walk 599: min time on link {last} must be a nonnegative integer"),
    (("walks", 599, "tau_max"), "max_times",
     "walk 599: max time on link {last} must be an integer or +inf"),
    (("rho",), "request_times", "request time of vehicle 599 must be an integer"),
    (("d_soft",), "soft_deadlines", "deadlines of vehicle 599 must be integers or +inf"),
    (("d_hard",), "hard_deadlines", "deadlines of vehicle 599 must be integers or +inf"),
    (("times", 599), "times", "stamp (599,{last}) must be an integer tick"),
    # The last edge of the file is (99,98).
    (("edges", 359), "edges", "edge (99,{bad!r}) endpoints must be integer ticks"),
], ids=["vertices", "tau_min", "tau_max", "rho", "d_soft", "d_hard", "schedule_row",
        "edge"])
def test_bulk_checks_name_the_last_offender(city_dicts, where, name, message):
    """A bad value at the end of a long list gets the message of the core
    constructor's value by value check, which the reader prefixes; the
    constructors still take an int subclass other than bool as a tick."""
    inst_dict, sched_dict = city_dicts
    data, read, prefix = (sched_dict, schedule_from_dict, "invalid schedule: ") if (
        name == "times") else (inst_dict, instance_from_dict, "invalid instance: ")
    values = data
    for key in where:
        values = values[key]
    inst, sched = instance_from_dict(inst_dict), schedule_from_dict(sched_dict)
    for bad in BAD_TICKS:
        expected = message.format(last=len(values) - 1, bad=bad)
        broken = json.loads(json.dumps(data))
        target = broken
        for key in where:
            target = target[key]
        target[-1] = bad
        with pytest.raises(FormatError) as exc:
            read(broken)
        assert str(exc.value) == prefix + expected
        with pytest.raises(ValueError) as exc:
            rebuilt(inst, sched, name, bad)
        assert str(exc.value) == expected
    rebuilt(inst, sched, name, Tick(10**6 if values[-1] is None else values[-1]))


@pytest.mark.parametrize("last_edge, message", [
    ([99, 99], "self-loop edge at vertex 99 is not allowed"),
    ([99, 100], "edge (99,100) references an unknown vertex"),
    ([99, 98, 97], "too many values to unpack (expected 2)"),
    ([99, True], "edge (99,True) endpoints must be integer ticks"),
], ids=["self_loop", "unknown_vertex", "three_ends", "true_endpoint"])
def test_bulk_checks_name_the_last_edge(city_dicts, last_edge, message):
    """A bad last edge in a long list gets the message of Graph's edge by
    edge check, which the reader prefixes."""
    data = json.loads(json.dumps(city_dicts[0]))
    data["edges"][-1] = last_edge
    with pytest.raises(FormatError) as exc:
        instance_from_dict(data)
    assert str(exc.value) == f"invalid instance: {message}"
    edges = {tuple(e) for e in city_dicts[0]["edges"][:-1]} | {tuple(last_edge)}
    with pytest.raises(ValueError) as exc:
        Graph(100, edges)
    assert str(exc.value) == message


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
        ("jobs", [[0, "1"]], "job 0 machine '1' must be an integer tick"),
        ("jobs", [[0, 1.5]], "job 0 machine 1.5 must be an integer tick"),
        ("jobs", [0], "job 0 must be a JSON list"),
        ("r", [float("inf")], "release time of job 0 must be an integer tick"),
        ("delta", [0.5], re.escape("deadline of job 0 must be an integer tick or +inf")),
        ("delta", [float("inf")], re.escape("+inf in delta must be written null")),
        ("theta", "false", "no_wait must be a bool, got 'false'"),
        ("theta", "no", "no_wait must be a bool, got 'no'"),
        ("theta", 0, "no_wait must be a bool, got 0"),
        ("hard_deadlines", 1, "hard_deadlines must be a bool, got 1"),
        ("machines", 0, "machine_count must be a positive integer"),
        ("machines", 1.5, "machine_count must be a positive integer"),
        ("machines", True, "machine_count must be a positive integer"),
        ("jobs", [], "need at least one job"),
        ("r", [0, 0], "release_times and deadlines must cover every job"),
        ("jobs", [[]], "job 0 has no operations"),
        ("jobs", [[0, 2]], "job 0 references unknown machine 2"),
        ("delta", [-1], "job 0: release time 0 is after its deadline -1"),
    ):
        path.write_text(json.dumps(dict(good, **{key: bad})))
        with pytest.raises(FormatError, match=match):
            read_jsp(path)
    # A file's integral floats read as ticks, but the constructor, which
    # checks every field for the reader, takes only ticks and bools.
    path.write_text(json.dumps(dict(good, machines=2.0)))
    jsp = read_jsp(path)
    assert jsp.machine_count == 2 and type(jsp.machine_count) is int
    for field, bad, match in (
        ("machine_count", 2.0, "machine_count must be a positive integer"),
        ("jobs", ((0, 1.0),), "job 0 machine 1.0 must be an integer tick"),
        ("release_times", (True,), "release time of job 0 must be an integer tick"),
        ("no_wait", "no", "no_wait must be a bool, got 'no'"),
    ):
        with pytest.raises(ValueError, match=match):
            replace(jsp, **{field: bad})
