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

import functools
import json
import math
import random
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import itemgetter, mul
from pathlib import Path
from typing import Iterable

from .core import (
    INF,
    ConfigurationError,
    Graph,
    Instance,
    ObjectiveKind,
    Schedule,
    VspError,
    is_real,
    is_tick,
    is_tick_or_inf,
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
        # Ticks only: build_grid_graph is keyed on the spec, and 5.0 == 5.
        if not (is_tick(self.rows) and is_tick(self.cols)):
            raise ValueError("grid dimensions must be integer ticks")
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("grid dimensions must be positive")
        if self.rows * self.cols < 2:
            raise ValueError("grid must have at least two vertices")

    @property
    def vertex_count(self) -> int:
        return self.rows * self.cols


@functools.lru_cache(maxsize=16)  # bounded: a process may walk many grids
def build_grid_graph(spec: GridSpec) -> Graph:
    """The graph of spec, built and checked once per spec while it is among
    the 16 last used; Graph is frozen, so every instance generated on one
    grid shares it."""
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


def _is_ratio(ratio: object) -> bool:
    """Whether ratio is a real number, finite and nonnegative."""
    return is_real(ratio) and 0 <= ratio < INF  # NaN compares False


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
        if not is_tick(self.n_vehicles) or self.n_vehicles <= 0:
            raise ValueError("n_vehicles must be a positive integer")
        if not is_tick(self.n_instances) or self.n_instances <= 0:
            raise ValueError("n_instances must be a positive integer")
        if not is_tick(self.seed):  # random.Random(None) would seed from the clock
            raise ValueError("seed must be an integer")
        if not is_tick(self.separation) or self.separation < 0:
            raise ValueError("separation must be a nonnegative integer")
        if not is_tick(self.tau_min_link) or self.tau_min_link < 0:
            raise ValueError("tau_min_link must be a nonnegative integer")
        if not is_tick_or_inf(self.tau_max_link):
            raise ValueError("tau_max_link must be an integer tick or inf")
        if self.tau_min_link > self.tau_max_link:
            raise ValueError("tau_min_link exceeds tau_max_link")
        ratios = tuple(self.soft_deadline_ratios)
        object.__setattr__(self, "soft_deadline_ratios", ratios)
        if not ratios:
            raise ValueError("need at least one soft deadline ratio")
        if not all(map(_is_ratio, ratios)):
            raise ValueError("soft deadline ratios must be finite and nonnegative")
        if not is_real(self.hard_deadline_factor):
            raise ValueError("hard_deadline_factor must be a real number")
        # The factor covers every ratio, so its deadline on the longest free
        # trip of the grid bounds every deadline the config scales.
        trip = (self.grid.rows + self.grid.cols - 2) * self.tau_min_link
        try:
            finite = math.isfinite(self.hard_deadline_factor * trip)
        except OverflowError:  # a trip past the float range
            finite = False
        if not finite:
            raise ValueError("hard deadline factor on the longest free trip must be finite")
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


def deadlines_at(trip_times: Iterable[int], ratio: float) -> tuple[int, ...]:
    """Deadlines at ratio times each free trip time, to the tick."""
    return tuple(map(round, map(mul, repeat(ratio), trip_times)))


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
    soft deadlines (deadlines_at the free trip times) over fixed trips.
    Deadlines are rounded to the nearest tick.
    """
    if not _is_ratio(ratio):
        raise ValueError(f"ratio must be finite and nonnegative, got {ratio!r}")
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
    trips = [sum(walk.min_times) for walk in walks]
    return Instance(
        graph=graph,
        walks=walks,
        request_times=(0,) * config.n_vehicles,
        soft_deadlines=deadlines_at(trips, ratio),
        hard_deadlines=deadlines_at(trips, config.hard_deadline_factor),
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
        if not is_tick(self.machine_count) or self.machine_count <= 0:
            raise ValueError("machine_count must be a positive integer")
        for name in ("no_wait", "hard_deadlines"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if not self.jobs:
            raise ValueError("need at least one job")
        n = len(self.jobs)
        if len(self.release_times) != n or len(self.deadlines) != n:
            raise ValueError("release_times and deadlines must cover every job")
        for j, job in enumerate(self.jobs):
            if not job:
                raise ValueError(f"job {j} has no operations")
            for m in job:
                if not is_tick(m):
                    raise ValueError(f"job {j} machine {m!r} must be an integer tick")
                if not (0 <= m < self.machine_count):
                    raise ValueError(f"job {j} references unknown machine {m}")
            if not is_tick(self.release_times[j]):
                raise ValueError(f"release time of job {j} must be an integer tick")
            if not is_tick_or_inf(self.deadlines[j]):
                raise ValueError(f"deadline of job {j} must be an integer tick or +inf")
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
#
# A reader checks a file's shape (each object's keys, a list wherever a list
# belongs) and decodes it: null is +inf in tau_max, d_soft, d_hard and delta,
# and an integral float is its int (50.0 is 50).  The core constructors then
# check every value, and name the offender.

_INSTANCE_REQUIRED = ("vertices", "edges", "walks", "rho", "d_hard")
_INSTANCE_KEYS = {*_INSTANCE_REQUIRED, "d_soft", "separation", "separations",
                  "objective", "weights", "ticks_per_unit"}
_WALK_ROWS = ("vertices", "tau_min", "tau_max")
_WALK_KEYS = set(_WALK_ROWS)
_JSP_REQUIRED = ("machines", "jobs", "r", "delta", "theta")
_JSP_KEYS = {*_JSP_REQUIRED, "hard_deadlines", "objective"}


def _require_keys(data: dict, allowed: set, required: tuple, what: str) -> None:
    if not isinstance(data, dict):
        raise FormatError(f"{what} must be a JSON object")
    if unknown := set(data) - allowed:
        raise FormatError(f"{what} has unknown keys: {sorted(unknown)}")
    for key in required:
        if key not in data:
            raise FormatError(f"{what} is missing key {key!r}")


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise FormatError(f"{what} must be a JSON list")
    return value


def _tick(value):
    """An integral float as its int; any other value as it is."""
    return int(value) if type(value) is float and value.is_integer() else value


def _rows(rows: list, what: str, nulls: bool = False) -> list:
    """rows, lists of ticks, decoded as _tick does and, where nulls, null as
    +inf.  There a float +inf is refused: files write it as null."""
    if not all(map(isinstance, rows, repeat(list))):
        k = next(k for k, row in enumerate(rows) if not isinstance(row, list))
        raise FormatError(f"{what} {k} must be a JSON list")
    types = set(map(type, chain.from_iterable(rows)))
    if float not in types and not (nulls and type(None) in types):
        return rows
    values = list(chain.from_iterable(rows))
    if float in types:
        if nulls and INF in values:
            raise FormatError(f"+inf in {what} must be written null")
        values = list(map(_tick, values))
    if nulls:
        values = [INF if x is None else x for x in values]
    ends = list(accumulate(map(len, rows)))
    return list(map(values.__getitem__, map(slice, [0, *ends], ends)))


def _ticks(values, what: str, nulls: bool = False) -> list:
    return _rows([_list(values, what)], what, nulls)[0]


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
        edges = _rows(_list(data["edges"], "edges"), "edge")
        graph = Graph(_tick(data["vertices"]), edges)
        walks = _list(data["walks"], "walks")
        if not (set(map(type, walks)) <= {dict} and set(map(len, walks)) <= {3}
                and set(chain.from_iterable(walks)) <= _WALK_KEYS):
            for idx, wd in enumerate(walks):  # name the first offender
                _require_keys(wd, _WALK_KEYS, _WALK_ROWS, f"walk {idx}")
        walks = walks_from_rows(*(
            _rows(list(map(itemgetter(key), walks)), f"{key} of walk", key == "tau_max")
            for key in _WALK_ROWS
        ))
        soft, weights = data.get("d_soft"), data.get("weights")
        # A repeat must match its first listing by repr: 1 == True, so one
        # dict key would stand for both.
        listed: dict[tuple, list] = {}
        for entry in _list(data.get("separations", []), "separations"):
            if not isinstance(entry, list) or len(entry) != 5 or any(
                    isinstance(x, (list, dict)) for x in entry):
                raise FormatError(f"separation entry must be [j1,i1,j2,i2,s]: {entry!r}")
            entry = list(map(_tick, entry))
            first = listed.setdefault(tuple(entry[:4]), entry)
            if first is not entry and repr(first) != repr(entry):
                raise FormatError(f"separation listed twice, as {first} and {entry}")
        # A key of older files: ticks are the only time unit, so only 1 fits.
        scale = _tick(data.get("ticks_per_unit", 1))
        if not is_tick(scale) or scale != 1:
            raise FormatError("ticks_per_unit other than 1 is not supported")
        return Instance(
            graph=graph,
            walks=walks,
            request_times=_ticks(data["rho"], "rho"),
            soft_deadlines=(
                (INF,) * len(walks) if soft is None else _ticks(soft, "d_soft", nulls=True)
            ),
            hard_deadlines=_ticks(data["d_hard"], "d_hard", nulls=True),
            separations={key: entry[4] for key, entry in listed.items()},
            objective=ObjectiveKind(data.get("objective", "tardy_count")),
            weights=None if weights is None else _list(weights, "weights"),
            separation=_tick(data.get("separation", 0)),
        )
    except (ValueError, TypeError, KeyError) as exc:
        raise FormatError(f"invalid instance: {exc}") from exc


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
    except (FormatError, ConfigurationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def read_instance(path: str | Path) -> Instance:
    return _read_json(path, instance_from_dict)


def write_schedule(schedule: Schedule, path: str | Path) -> None:
    payload = {"times": [list(row) for row in schedule.times]}
    Path(path).write_text(json.dumps(payload) + "\n")


def schedule_from_dict(data: dict) -> Schedule:
    _require_keys(data, {"times"}, ("times",), "schedule")
    try:
        return Schedule(_rows(_list(data["times"], "times"), "stamp row"))
    except (ValueError, TypeError) as exc:
        raise FormatError(f"invalid schedule: {exc}") from exc


def read_schedule(path: str | Path) -> Schedule:
    return _read_json(path, schedule_from_dict)


def jsp_from_dict(data: dict) -> JspInstance:
    _require_keys(data, _JSP_KEYS, _JSP_REQUIRED, "job shop instance")
    try:
        return JspInstance(
            machine_count=_tick(data["machines"]),
            jobs=_rows(_list(data["jobs"], "jobs"), "job"),
            release_times=_ticks(data["r"], "r"),
            deadlines=_ticks(data["delta"], "delta", nulls=True),
            no_wait=data["theta"],
            objective=ObjectiveKind(data.get("objective", "makespan")),
            hard_deadlines=data.get("hard_deadlines", False),
        )
    except (ValueError, TypeError) as exc:
        raise FormatError(f"invalid job shop instance: {exc}") from exc


def read_jsp(path: str | Path) -> JspInstance:
    return _read_json(path, jsp_from_dict)
