"""Instance construction: random grid experiments, the unit job-shop
conversion, and JSON file round trips.

The grid generator draws random source/destination pairs on a rectangular
grid, routes each vehicle along the lexicographically smallest shortest
path, and scales soft and hard deadlines off the congestion-free trip time.
The job-shop converter maps machines to the vertices of a complete digraph,
unit operations to unit link times, and machine exclusivity to unit
separation gaps.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, replace
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
)


class FormatError(VspError):
    """A file does not follow the documented JSON layout."""


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid with 4-neighbour adjacency."""

    rows: int
    cols: int
    bidirectional: bool = True

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
                edges.add((v, v + 1))
                if spec.bidirectional:
                    edges.add((v + 1, v))
            if r + 1 < spec.rows:
                edges.add((v, v + spec.cols))
                if spec.bidirectional:
                    edges.add((v + spec.cols, v))
    return Graph(spec.vertex_count, frozenset(edges))


DEFAULT_RATIOS = tuple(round(1.0 + 0.1 * k, 10) for k in range(11))


@dataclass(frozen=True)
class ExperimentConfig:
    """Generator and sweep parameters for the grid benchmark.

    Defaults match the reference setup: a 5x5 bidirectional grid, a uniform
    separation gap of 5 ticks, link minimum 50 with no maximum, requests at
    time zero, hard deadlines at 2.2 times the free trip time, and soft
    deadlines swept from 1.0 to 2.0 times the free trip time over 20
    instances.
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


def _next_hop_tables(
    graph: Graph, dests: Iterable[int]
) -> dict[int, dict[int, int]]:
    """For each destination, the smallest successor on a shortest path to it
    from every vertex that can reach it: a reverse BFS gives the distances,
    then one pass over the edges keeps the smallest successor at distance -1."""
    reverse: dict[int, list[int]] = {}
    for u, v in graph.edges:
        reverse.setdefault(v, []).append(u)
    tables = {}
    for dest in dests:
        dist = {dest: 0}
        frontier = [dest]
        while frontier:
            nxt = []
            for v in frontier:
                for u in reverse.get(v, ()):
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        hops: dict[int, int] = {}
        for u, v in graph.edges:
            if u in dist and dist.get(v) == dist[u] - 1:
                hops[u] = min(v, hops.get(u, v))
        tables[dest] = hops
    return tables


def _follow(hops: dict[int, int], source: int, dest: int) -> tuple[int, ...]:
    """The walk from source to dest along a next-hop table."""
    path = [source]
    while path[-1] != dest:
        if path[-1] not in hops:
            raise VspError(f"no directed path from {source} to {dest}")
        path.append(hops[path[-1]])
    return tuple(path)


def shortest_walk_vertices(graph: Graph, source: int, dest: int) -> tuple[int, ...]:
    """Lexicographically smallest shortest vertex sequence from source to
    dest: the greedy smallest-successor walk on dest's next-hop table."""
    return _follow(_next_hop_tables(graph, (dest,))[dest], source, dest)


def soft_deadlines_at(walks: Iterable[Walk], ratio: float) -> tuple[int, ...]:
    """Soft deadlines at ratio times each walk's free trip time, to the tick."""
    return tuple(round(ratio * sum(walk.min_times)) for walk in walks)


def generate_grid_instance(
    config: ExperimentConfig, ratio: float, seed: int
) -> Instance:
    """One random instance: n source/destination pairs drawn uniformly
    (source differs from destination; repeats across vehicles allowed),
    shortest-path walks, request times zero, the uniform separation gap at
    every shared vertex, and deadlines scaled off the free trip time.

    The walks depend only on the seed, so sweeping the ratio varies the
    soft deadlines (soft_deadlines_at) over fixed trips.  Deadlines are
    rounded to the nearest tick.
    """
    graph = build_grid_graph(config.grid)
    rng = random.Random(seed)
    n_vertices = graph.vertex_count
    pairs = []
    for _ in range(config.n_vehicles):
        source = rng.randrange(n_vertices)
        dest = rng.randrange(n_vertices - 1)
        if dest >= source:
            dest += 1
        pairs.append((source, dest))
    tables = _next_hop_tables(graph, {dest for _, dest in pairs})
    walks = []
    for source, dest in pairs:
        vertices = _follow(tables[dest], source, dest)
        links = len(vertices) - 1
        walks.append(Walk(
            vertices,
            (config.tau_min_link,) * links,
            (config.tau_max_link,) * links,
        ))
    return Instance(
        graph=graph,
        walks=tuple(walks),
        request_times=(0,) * config.n_vehicles,
        soft_deadlines=soft_deadlines_at(walks, ratio),
        hard_deadlines=tuple(
            round(config.hard_deadline_factor * sum(w.min_times)) for w in walks
        ),
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
    walks = []
    for job in jsp.jobs:
        links = len(job) - 1
        upper = (1,) * links if jsp.no_wait else (INF,) * links
        walks.append(Walk(tuple(job), (1,) * links, upper))
    return Instance(
        graph=graph,
        walks=tuple(walks),
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
_WALK_KEYS = {"vertices", "tau_min", "tau_max"}
_JSP_KEYS = {"machines", "jobs", "r", "delta", "theta", "hard_deadlines", "objective"}


def _require_keys(data: dict, allowed: set[str], what: str) -> None:
    if not isinstance(data, dict):
        raise FormatError(f"{what} must be a JSON object")
    unknown = set(data) - allowed
    if unknown:
        raise FormatError(f"{what} has unknown keys: {sorted(unknown)}")


def _tick_from_json(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{what} must be an integer tick, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():  # also false for NaN and +-Infinity
            raise FormatError(f"{what} must be an integer tick, got {value!r}")
        value = int(value)
    return value


def _bool_from_json(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise FormatError(f"{what} must be true or false, got {value!r}")
    return value


def _weight_from_json(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{what} must be a number, got {value!r}")
    return value


def _tick_or_inf_from_json(value, what: str) -> int | float:
    if value is None:
        return INF
    return _tick_from_json(value, what)


def _tick_or_inf_to_json(value: int | float):
    return None if value == INF else value


def instance_to_dict(instance: Instance) -> dict:
    return {
        "vertices": instance.graph.vertex_count,
        "edges": sorted(list(e) for e in instance.graph.edges),
        "walks": [
            {
                "vertices": list(w.vertices),
                "tau_min": list(w.min_times),
                "tau_max": [_tick_or_inf_to_json(x) for x in w.max_times],
            }
            for w in instance.walks
        ],
        "rho": list(instance.request_times),
        "d_soft": [_tick_or_inf_to_json(d) for d in instance.soft_deadlines],
        "d_hard": [_tick_or_inf_to_json(d) for d in instance.hard_deadlines],
        "separation": instance.separation,
        "separations": sorted(
            [j1, i1, j2, i2, s]
            for (j1, i1, j2, i2), s in instance.separations.items()
        ),
        "objective": instance.objective.value,
        "weights": None if instance.weights is None else list(instance.weights),
    }


def instance_from_dict(data: dict) -> Instance:
    _require_keys(data, _INSTANCE_KEYS, "instance")
    for key in ("vertices", "edges", "walks", "rho", "d_hard"):
        if key not in data:
            raise FormatError(f"instance is missing key {key!r}")
    try:
        graph = Graph(
            _tick_from_json(data["vertices"], "vertices"),
            frozenset(
                tuple(_tick_from_json(x, "edge endpoint") for x in (u, v))
                for u, v in data["edges"]
            ),
        )
        walks = []
        for idx, wd in enumerate(data["walks"]):
            _require_keys(wd, _WALK_KEYS, f"walk {idx}")
            walks.append(Walk(
                tuple(_tick_from_json(v, f"walk {idx} vertex") for v in wd["vertices"]),
                tuple(
                    _tick_from_json(x, f"walk {idx} tau_min") for x in wd["tau_min"]
                ),
                tuple(
                    _tick_or_inf_from_json(x, f"walk {idx} tau_max")
                    for x in wd["tau_max"]
                ),
            ))
        n = len(walks)
        rho = tuple(_tick_from_json(x, "rho entry") for x in data["rho"])
        if "d_soft" in data and data["d_soft"] is not None:
            soft = tuple(
                _tick_or_inf_from_json(x, "d_soft entry") for x in data["d_soft"]
            )
        else:
            soft = (INF,) * n
        hard = tuple(_tick_or_inf_from_json(x, "d_hard entry") for x in data["d_hard"])
        separations: dict[tuple[int, int, int, int], int] = {}
        for entry in data.get("separations", []):
            if not isinstance(entry, list) or len(entry) != 5:
                raise FormatError(f"separation entry must be [j1,i1,j2,i2,s]: {entry!r}")
            j1, i1, j2, i2 = (
                _tick_from_json(x, "separation index") for x in entry[:4]
            )
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
            walks=tuple(walks),
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
    except FormatError:
        raise
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
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=1) + "\n")


def _load_json(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise FormatError(f"{path}: cannot read ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc


def read_instance(path: str | Path) -> Instance:
    data = _load_json(path)
    try:
        return instance_from_dict(data)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_schedule(schedule: Schedule, path: str | Path) -> None:
    payload = {"times": [list(row) for row in schedule.times]}
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def read_schedule(path: str | Path) -> Schedule:
    data = _load_json(path)
    try:
        _require_keys(data, {"times"}, "schedule")
        if "times" not in data:
            raise FormatError("schedule is missing key 'times'")
        return Schedule(tuple(
            tuple(_tick_from_json(t, "stamp") for t in row) for row in data["times"]
        ))
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{path}: invalid schedule: {exc}") from exc


def jsp_from_dict(data: dict) -> JspInstance:
    _require_keys(data, _JSP_KEYS, "job shop instance")
    for key in ("machines", "jobs", "r", "delta", "theta"):
        if key not in data:
            raise FormatError(f"job shop instance is missing key {key!r}")
    try:
        return JspInstance(
            machine_count=_tick_from_json(data["machines"], "machines"),
            jobs=tuple(
                tuple(_tick_from_json(m, "job machine") for m in job)
                for job in data["jobs"]
            ),
            release_times=tuple(_tick_from_json(x, "r entry") for x in data["r"]),
            deadlines=tuple(
                _tick_or_inf_from_json(x, "delta entry") for x in data["delta"]
            ),
            no_wait=_bool_from_json(data["theta"], "theta"),
            objective=ObjectiveKind(data.get("objective", "makespan")),
            hard_deadlines=_bool_from_json(
                data.get("hard_deadlines", False), "hard_deadlines"
            ),
        )
    except FormatError:
        raise
    except (ValueError, TypeError) as exc:
        raise FormatError(f"invalid job shop instance: {exc}") from exc


def read_jsp(path: str | Path) -> JspInstance:
    data = _load_json(path)
    try:
        return jsp_from_dict(data)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
