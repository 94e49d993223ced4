"""Instance construction: random grid experiments, the unit job-shop
conversion, and JSON file round trips.

The grid generator draws random source/destination pairs on a rectangular
two-way grid, routes each vehicle up, then across, then down: the
lexicographically smallest shortest path.  It scales soft and hard deadlines
off the congestion-free trip time.  The job-shop converter maps machines to
the vertices of a complete digraph, unit operations to unit link times, and
machine exclusivity to unit separation gaps.  Files are written as compact
single-line JSON; on read, any JSON whitespace is accepted.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable

from .core import (
    INF,
    Graph,
    Instance,
    ObjectiveKind,
    Schedule,
    VspError,
    Walk,
    is_tick,
    walks_from_rows,
)


class FormatError(VspError):
    """A file does not follow the documented JSON layout."""


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid with two-way 4-neighbour adjacency; vertex
    r * cols + c sits at row r, column c."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("grid dimensions must be positive")
        if self.rows * self.cols < 2:
            raise ValueError("grid must have at least two vertices")

    @property
    def vertex_count(self) -> int:
        return self.rows * self.cols


def build_grid_graph(spec: GridSpec) -> Graph:
    edges: set[tuple[int, int]] = set()
    for r in range(spec.rows):
        for c in range(spec.cols):
            v = r * spec.cols + c
            if c + 1 < spec.cols:
                edges.update(((v, v + 1), (v + 1, v)))
            if r + 1 < spec.rows:
                edges.update(((v, v + spec.cols), (v + spec.cols, v)))
    return Graph(spec.vertex_count, frozenset(edges))


DEFAULT_RATIOS = tuple(round(1.0 + 0.1 * k, 10) for k in range(11))


@dataclass(frozen=True)
class ExperimentConfig:
    """Generator and sweep parameters for the grid benchmark.

    Defaults match the reference setup: a 5x5 two-way grid whose vehicles
    go up, then across, then down (grid_walk), a uniform separation gap of
    5 ticks, link minimum 50 with no maximum, requests at time zero, hard
    deadlines at 2.2 times the free trip time, and soft deadlines swept from
    1.0 to 2.0 times the free trip time over 20 instances.
    """

    n_vehicles: int
    grid: GridSpec = GridSpec(5, 5)
    separation: int = 5
    tau_min_link: int = 50
    tau_max_link: int | float = INF
    hard_deadline_factor: float = 2.2
    soft_deadline_ratios: tuple[float, ...] = DEFAULT_RATIOS
    n_instances: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_vehicles <= 0:
            raise ValueError("n_vehicles must be positive")
        if self.n_instances <= 0:
            raise ValueError("n_instances must be positive")
        if not is_tick(self.separation) or self.separation < 0:
            raise ValueError("separation must be a nonnegative integer")
        if not is_tick(self.tau_min_link) or self.tau_min_link < 0:
            raise ValueError("tau_min_link must be a nonnegative integer")
        if self.tau_min_link > self.tau_max_link:
            raise ValueError("tau_min_link exceeds tau_max_link")
        ratios = tuple(self.soft_deadline_ratios)
        object.__setattr__(self, "soft_deadline_ratios", ratios)
        if not ratios:
            raise ValueError("need at least one soft deadline ratio")
        if not all(math.isfinite(r) and r >= 0 for r in ratios):
            raise ValueError("soft deadline ratios must be finite and nonnegative")
        if not math.isfinite(self.hard_deadline_factor):
            raise ValueError("hard deadline factor must be finite")
        if any(b <= a for a, b in zip(ratios, ratios[1:])):
            raise ValueError("soft deadline ratios must be strictly increasing")
        if self.hard_deadline_factor < max(ratios):
            raise ValueError("hard deadline factor must cover every ratio")


def grid_walk(spec: GridSpec, source: int, dest: int) -> tuple[int, ...]:
    """Lexicographically smallest shortest vertex sequence from source to
    dest: up, then across, then down.  Closer neighbours order by id as up
    (-cols) < left (-1) < right (+1) < down (+cols), so the greedy
    smallest-successor walk takes every up step first and every down step
    last."""
    cols = spec.cols
    r, c = divmod(source, cols)
    dr, dc = divmod(dest, cols)
    top = min(r, dr)
    step = 1 if dc >= c else -1
    return (
        tuple(range(source, top * cols + c, -cols))
        + tuple(range(top * cols + c, top * cols + dc, step))
        + tuple(range(top * cols + dc, dest + 1, cols))
    )


def soft_deadlines_at(walks: Iterable[Walk], ratio: float) -> tuple[int, ...]:
    """Deadlines at ratio times each walk's free trip time, to the tick."""
    return tuple(round(ratio * sum(walk.min_times)) for walk in walks)


def generate_grid_instance(
    config: ExperimentConfig, ratio: float, seed: int
) -> Instance:
    """One random instance: n source/destination pairs drawn uniformly
    (source differs from destination; repeats across vehicles allowed),
    walks that go up, then across, then down (grid_walk: the
    lexicographically smallest shortest path), request times zero, the
    uniform separation gap at every shared vertex, and deadlines scaled off
    the free trip time.

    The walks depend only on the seed, so sweeping the ratio varies the
    soft deadlines (soft_deadlines_at) over fixed trips.  Deadlines are
    rounded to the nearest tick.
    """
    graph = build_grid_graph(config.grid)
    rng = random.Random(seed)
    n_vertices = graph.vertex_count
    rows = []
    for _ in range(config.n_vehicles):
        source = rng.randrange(n_vertices)
        dest = rng.randrange(n_vertices - 1)
        if dest >= source:
            dest += 1
        rows.append(grid_walk(config.grid, source, dest))
    lows = [(config.tau_min_link,) * (len(vertices) - 1) for vertices in rows]
    highs = [(config.tau_max_link,) * (len(vertices) - 1) for vertices in rows]
    walks = walks_from_rows(rows, lows, highs)
    return Instance(
        graph=graph,
        walks=walks,
        request_times=(0,) * config.n_vehicles,
        soft_deadlines=soft_deadlines_at(walks, ratio),
        hard_deadlines=soft_deadlines_at(walks, config.hard_deadline_factor),
        objective=ObjectiveKind.TARDY_COUNT,
        separation=config.separation,
    )


@dataclass(frozen=True)
class JspInstance:
    """Unit-time job shop: each job is a machine sequence, operations take
    one time unit, a machine handles one operation at a time.

    deadlines entries may be +inf; hard_deadlines says whether they must be
    met (else they are penalty targets only).
    """

    machine_count: int
    jobs: tuple[tuple[int, ...], ...]
    release_times: tuple[int, ...]
    deadlines: tuple[int | float, ...]
    no_wait: bool
    objective: ObjectiveKind = ObjectiveKind.MAKESPAN
    hard_deadlines: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", tuple(tuple(job) for job in self.jobs))
        object.__setattr__(self, "release_times", tuple(self.release_times))
        object.__setattr__(self, "deadlines", tuple(self.deadlines))
        if self.machine_count <= 0:
            raise ValueError("machine_count must be positive")
        if not self.jobs:
            raise ValueError("need at least one job")
        n = len(self.jobs)
        if len(self.release_times) != n or len(self.deadlines) != n:
            raise ValueError("release_times and deadlines must cover every job")
        for j, job in enumerate(self.jobs):
            if not job:
                raise ValueError(f"job {j} has no operations")
            for m in job:
                if not (0 <= m < self.machine_count):
                    raise ValueError(f"job {j} references unknown machine {m}")
            if self.release_times[j] > self.deadlines[j]:
                raise ValueError(
                    f"job {j}: release time {self.release_times[j]} is after "
                    f"its deadline {self.deadlines[j]}"
                )


def reduce_jsp_to_vsp(jsp: JspInstance) -> Instance:
    """Encode a unit job shop as a vehicle scheduling instance.

    Machines become the vertices of a complete digraph and each job's
    machine sequence becomes a walk.  Link times are exactly one tick, with
    the upper side open unless the no-wait flag is set.  Machine
    exclusivity maps to a unit separation gap at every shared vertex, and a
    schedule's stamps are the operation start times.  Jobs visiting the
    same machine twice in a row cannot be encoded (that would need a self
    loop) and are rejected.
    """
    for j, job in enumerate(jsp.jobs):
        for a, b in zip(job, job[1:]):
            if a == b:
                raise VspError(
                    f"job {j} uses machine {a} twice in a row; "
                    "a walk cannot repeat a vertex without leaving it"
                )
    k = jsp.machine_count
    edges = frozenset(
        (u, v) for u in range(k) for v in range(k) if u != v
    )
    graph = Graph(k, edges)
    lows = [(1,) * (len(job) - 1) for job in jsp.jobs]
    highs = [(1 if jsp.no_wait else INF,) * (len(job) - 1) for job in jsp.jobs]
    walks = walks_from_rows(jsp.jobs, lows, highs)
    return Instance(
        graph=graph,
        walks=walks,
        request_times=jsp.release_times,
        soft_deadlines=jsp.deadlines,
        hard_deadlines=jsp.deadlines if jsp.hard_deadlines else (INF,) * len(walks),
        objective=jsp.objective,
        separation=1,
    )


# --- JSON files ---------------------------------------------------------

_INSTANCE_KEYS = {
    "vertices", "edges", "walks", "rho", "d_soft", "d_hard",
    "separation", "separations", "objective", "weights", "ticks_per_unit",
}
_WALK_ROWS = ("vertices", "tau_min", "tau_max")
_WALK_KEYS = set(_WALK_ROWS)
_NULL_AS_INF, _OR_NULL = {None: INF}, {int, type(None)}
_JSP_KEYS = {"machines", "jobs", "r", "delta", "theta", "hard_deadlines", "objective"}
_INSTANCE_REQUIRED = ("vertices", "edges", "walks", "rho", "d_hard")
_JSP_REQUIRED = ("machines", "jobs", "r", "delta", "theta")


def _require_keys(data: dict, allowed: set, required: tuple, what: str) -> None:
    if not isinstance(data, dict):
        raise FormatError(f"{what} must be a JSON object")
    unknown = set(data) - allowed
    if unknown:
        raise FormatError(f"{what} has unknown keys: {sorted(unknown)}")
    for key in required:
        if key not in data:
            raise FormatError(f"{what} is missing key {key!r}")


def _tick_from_json(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{what} must be an integer tick, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():  # also false for NaN and +-Infinity
            raise FormatError(f"{what} must be an integer tick, got {value!r}")
        value = int(value)
    return value


# Bulk _tick_from_json: a list of plain ints (or nulls, for +inf) passes one
# C-speed type check; anything else goes value by value, with the same messages.
def _ticks_from_json(values, what: str) -> tuple[int, ...]:
    if type(values) is list and set(map(type, values)) <= {int}:
        return tuple(values)
    return tuple(_tick_from_json(x, what) for x in values)


def _ticks_or_inf_from_json(values, what: str) -> tuple[int | float, ...]:
    if type(values) is list and set(map(type, values)) <= _OR_NULL:
        return tuple(map(_NULL_AS_INF.get, values, values))
    return tuple(INF if x is None else _tick_from_json(x, what) for x in values)


# One flat pass: True when rows is a list of lists of values typed in types.
def _rows_of(rows, types: set) -> bool:
    return (type(rows) is list and set(map(type, rows)) <= {list}
            and set(map(type, chain.from_iterable(rows))) <= types)


def _walks_from_json(walks) -> tuple[Walk, ...]:
    """One flat pass takes walks made of exactly the three walk keys, whose
    lists hold plain ints (and nulls, read as +inf, in tau_max).  Any other
    input is read walk by walk, which names the first offender."""
    if (type(walks) is list and set(map(type, walks)) <= {dict}
            and set(map(len, walks)) <= {3}
            and set(chain.from_iterable(walks)) <= _WALK_KEYS):
        vertices, mins, maxs = (list(map(itemgetter(key), walks)) for key in _WALK_ROWS)
        if (_rows_of(vertices, {int}) and _rows_of(mins, {int})
                and _rows_of(maxs, _OR_NULL)):
            maxs = [tuple(map(_NULL_AS_INF.get, row, row)) for row in maxs]
            return walks_from_rows(vertices, mins, maxs)
    built = []
    for idx, wd in enumerate(walks):
        _require_keys(wd, _WALK_KEYS, (), f"walk {idx}")
        built.append(Walk(
            _ticks_from_json(wd["vertices"], f"walk {idx} vertex"),
            _ticks_from_json(wd["tau_min"], f"walk {idx} tau_min"),
            _ticks_or_inf_from_json(wd["tau_max"], f"walk {idx} tau_max"),
        ))
    return tuple(built)


def _bool_from_json(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise FormatError(f"{what} must be true or false, got {value!r}")
    return value


def _weight_from_json(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{what} must be a number, got {value!r}")
    return value


def _ticks_or_inf_to_json(values: tuple[int | float, ...]) -> list:
    return list(map({INF: None}.get, values, values))


def instance_to_dict(instance: Instance) -> dict:
    return {
        "vertices": instance.graph.vertex_count,
        "edges": sorted(list(e) for e in instance.graph.edges),
        "walks": [
            {
                "vertices": list(w.vertices),
                "tau_min": list(w.min_times),
                "tau_max": _ticks_or_inf_to_json(w.max_times),
            }
            for w in instance.walks
        ],
        "rho": list(instance.request_times),
        "d_soft": _ticks_or_inf_to_json(instance.soft_deadlines),
        "d_hard": _ticks_or_inf_to_json(instance.hard_deadlines),
        "separation": instance.separation,
        "separations": sorted(
            [j1, i1, j2, i2, s]
            for (j1, i1, j2, i2), s in instance.separations.items()
        ),
        "objective": instance.objective.value,
        "weights": None if instance.weights is None else list(instance.weights),
    }


def instance_from_dict(data: dict) -> Instance:
    _require_keys(data, _INSTANCE_KEYS, _INSTANCE_REQUIRED, "instance")
    try:
        vertex_count, edges = _tick_from_json(data["vertices"], "vertices"), data["edges"]
        if _rows_of(edges, {int}) and set(map(len, edges)) <= {2}:
            ends = chain.from_iterable(edges)
            edges = zip(ends, ends)
        else:
            edges = (_ticks_from_json([u, v], "edge endpoint") for u, v in edges)
        graph = Graph(vertex_count, frozenset(edges))
        walks = _walks_from_json(data["walks"])
        rho = _ticks_from_json(data["rho"], "rho entry")
        if "d_soft" in data and data["d_soft"] is not None:
            soft = _ticks_or_inf_from_json(data["d_soft"], "d_soft entry")
        else:
            soft = (INF,) * len(walks)
        hard = _ticks_or_inf_from_json(data["d_hard"], "d_hard entry")
        separations: dict[tuple[int, int, int, int], int] = {}
        for entry in data.get("separations", []):
            if not isinstance(entry, list) or len(entry) != 5:
                raise FormatError(f"separation entry must be [j1,i1,j2,i2,s]: {entry!r}")
            j1, i1, j2, i2 = _ticks_from_json(entry[:4], "separation index")
            s = _tick_from_json(entry[4], "separation gap")
            key = (j1, i1, j2, i2)
            if separations.get(key, s) != s:
                raise FormatError(f"separation {key} listed twice with different gaps")
            separations[key] = s
        objective = ObjectiveKind(data.get("objective", "tardy_count"))
        weights = data.get("weights")
        if weights is not None:
            weights = tuple(_weight_from_json(w, "weight") for w in weights)
        # A key of older files: ticks are the only time unit, so only 1 fits.
        if _tick_from_json(data.get("ticks_per_unit", 1), "ticks_per_unit") != 1:
            raise FormatError("ticks_per_unit other than 1 is not supported")
        instance = Instance(
            graph=graph,
            walks=walks,
            request_times=rho,
            soft_deadlines=soft,
            hard_deadlines=hard,
            separations=separations,
            objective=objective,
            weights=weights,
            separation=_tick_from_json(data.get("separation", 0), "separation"),
        )
        if "separation" not in data:
            instance = _uniform_if_full_list(instance)
        return instance
    except (ValueError, TypeError, KeyError) as exc:
        raise FormatError(f"invalid instance: {exc}") from exc


def _uniform_if_full_list(instance: Instance) -> Instance:
    """Read a list giving one gap to every same-vertex pair of distinct
    vehicles, the format before the uniform gap rule, as that gap.  The
    constructor rejects other keys and duplicates, so counts decide."""
    gaps = set(instance.separations.values())
    pairs = 0
    for steps in instance.visits.values():  # all pairs minus same-vehicle ones
        per_vehicle = Counter(j for j, _ in steps)
        pairs += (len(steps) ** 2 - sum(c * c for c in per_vehicle.values())) // 2
    if len(gaps) != 1 or pairs != len(instance.separations):
        return instance
    return replace(instance, separations={}, separation=gaps.pop())


def write_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance)) + "\n")


def _read_json(path: str | Path, parse):
    """parse() of the decoded file; every error names the path."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise FormatError(f"{path}: cannot read ({exc})") from exc
    except (ValueError, RecursionError) as exc:  # also too deep, or too long a number
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return parse(data)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def read_instance(path: str | Path) -> Instance:
    return _read_json(path, instance_from_dict)


def write_schedule(schedule: Schedule, path: str | Path) -> None:
    payload = {"times": [list(row) for row in schedule.times]}
    Path(path).write_text(json.dumps(payload) + "\n")


def schedule_from_dict(data: dict) -> Schedule:
    _require_keys(data, {"times"}, ("times",), "schedule")
    try:
        times = data["times"]
        if not _rows_of(times, {int}):
            times = [_ticks_from_json(row, "stamp") for row in times]
        return Schedule(times)
    except (ValueError, TypeError) as exc:
        raise FormatError(f"invalid schedule: {exc}") from exc


def read_schedule(path: str | Path) -> Schedule:
    return _read_json(path, schedule_from_dict)


def jsp_from_dict(data: dict) -> JspInstance:
    _require_keys(data, _JSP_KEYS, _JSP_REQUIRED, "job shop instance")
    try:
        return JspInstance(
            machine_count=_tick_from_json(data["machines"], "machines"),
            jobs=tuple(_ticks_from_json(job, "job machine") for job in data["jobs"]),
            release_times=_ticks_from_json(data["r"], "r entry"),
            deadlines=_ticks_or_inf_from_json(data["delta"], "delta entry"),
            no_wait=_bool_from_json(data["theta"], "theta"),
            objective=ObjectiveKind(data.get("objective", "makespan")),
            hard_deadlines=_bool_from_json(
                data.get("hard_deadlines", False), "hard_deadlines"
            ),
        )
    except (ValueError, TypeError) as exc:
        raise FormatError(f"invalid job shop instance: {exc}") from exc


def read_jsp(path: str | Path) -> JspInstance:
    return _read_json(path, jsp_from_dict)
