"""Core model for the vehicle scheduling problem.

An instance fixes a directed traffic graph, one walk per vehicle, per-link
travel-time windows, request times, soft and hard deadlines, and pairwise
separation gaps at shared vertices.  A schedule assigns one arrival time
stamp per vehicle per walk vertex.  All times are integer ticks so that
validation and the event-driven schedulers can compare stamps exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter, gt, itemgetter, le, sub

INF = math.inf

# (vehicle, step, vehicle, step) -> required separation
SeparationKey = tuple[int, int, int, int]


class VspError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(VspError):
    """Schedule or instance components do not structurally agree."""


class ConfigurationError(VspError):
    """An operation was requested with an incompatible instance setup."""


def is_tick(value: object) -> bool:
    """True for plain integers (bool excluded)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_tick_or_inf(value: object) -> bool:
    return is_tick(value) or (isinstance(value, float) and value == INF)


# One C-speed pass each: True when every value is a plain int (or a float
# equal to +inf).  On False the caller's value by value loop decides, which
# also takes int subclasses and names the first offender.
def _all_ints(seq) -> bool:
    return set(map(type, seq)) <= {int}


def _all_ints_or_inf(seq: tuple) -> bool:
    types = list(map(type, seq))
    floats = types.count(float)
    return types.count(int) + floats == len(seq) and seq.count(INF) == floats


class ObjectiveKind(Enum):
    MAKESPAN = "makespan"
    TOTAL_COMPLETION = "total_completion"
    TOTAL_WEIGHTED_COMPLETION = "total_weighted_completion"
    MAX_LATENESS = "max_lateness"
    TOTAL_TARDINESS = "total_tardiness"
    TARDY_COUNT = "tardy_count"
    WEIGHTED_TARDY_COUNT = "weighted_tardy_count"

    @property
    def weighted(self) -> bool:
        return self in (
            ObjectiveKind.TOTAL_WEIGHTED_COMPLETION,
            ObjectiveKind.WEIGHTED_TARDY_COUNT,
        )


@dataclass(frozen=True)
class Graph:
    """Directed traffic network; must be weakly connected, no self loops."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if not is_tick(self.vertex_count) or self.vertex_count <= 0:
            raise ValueError("vertex_count must be a positive integer")
        object.__setattr__(self, "edges", frozenset(map(tuple, self.edges)))
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u},{v}) references an unknown vertex")
            if u == v:
                raise ValueError(f"self-loop edge at vertex {u} is not allowed")
        if not self._weakly_connected():
            raise ValueError("graph must be weakly connected")

    def _weakly_connected(self) -> bool:
        if self.vertex_count == 1:
            return True
        # Only edge endpoints get a neighbour list, so memory follows the
        # edge count; a vertex no edge touches leaves the graph disconnected.
        neighbours: dict[int, list[int]] = {}
        for u, v in self.edges:
            neighbours.setdefault(u, []).append(v)
            neighbours.setdefault(v, []).append(u)
        if len(neighbours) < self.vertex_count:
            return False
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in neighbours[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.vertex_count


@dataclass(frozen=True, slots=True)
class Walk:
    """Vertex sequence of one vehicle plus per-link travel-time windows.

    min_times[i] and max_times[i] bound the time spent on the link from
    vertices[i] to vertices[i+1]; max entries may be +inf.
    """

    vertices: tuple[int, ...]
    min_times: tuple[int, ...]
    max_times: tuple[int | float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "min_times", tuple(self.min_times))
        object.__setattr__(self, "max_times", tuple(self.max_times))
        if len(self.vertices) < 1:
            raise ValueError("a walk must visit at least one vertex")
        links = len(self.vertices) - 1
        if len(self.min_times) != links or len(self.max_times) != links:
            raise ValueError(
                f"walk with {len(self.vertices)} vertices needs {links} link times, "
                f"got {len(self.min_times)} min / {len(self.max_times)} max"
            )
        for i, (lo, hi) in enumerate(zip(self.min_times, self.max_times)):
            if not is_tick(lo) or lo < 0:
                raise ValueError(f"min time on link {i} must be a nonnegative integer")
            if not is_tick_or_inf(hi):
                raise ValueError(f"max time on link {i} must be an integer or +inf")
            if lo > hi:
                raise ValueError(f"link {i}: min time {lo} exceeds max time {hi}")

    def __len__(self) -> int:
        return len(self.vertices)


def walks_from_rows(vertex_rows, min_rows, max_rows) -> tuple[Walk, ...]:
    """The walks of parallel rows of vertices, min and max link times.

    One C-speed pass over all rows makes Walk's checks, so the walks are made
    without them: each walk has a vertex and one min and one max time per
    link, every min is a plain int >= 0, every max a plain int or +inf, and
    no min exceeds its max.  Else Walk builds each, naming the first fault.
    """
    vertex_rows = list(map(tuple, vertex_rows))
    min_rows, max_rows = list(map(tuple, min_rows)), list(map(tuple, max_rows))
    links = [len(vertices) - 1 for vertices in vertex_rows]
    mins = tuple(chain.from_iterable(min_rows))
    maxs = tuple(chain.from_iterable(max_rows))
    if not (min(links, default=0) >= 0
            and list(map(len, min_rows)) == links == list(map(len, max_rows))
            and _all_ints(mins) and min(mins, default=0) >= 0
            and _all_ints_or_inf(maxs) and all(map(le, mins, maxs))):
        return tuple(map(Walk, vertex_rows, min_rows, max_rows))
    walks = tuple(map(object.__new__, repeat(Walk, len(vertex_rows))))
    # Walk is frozen: set each field as its __init__ does, for all walks at once.
    fields = {"vertices": vertex_rows, "min_times": min_rows, "max_times": max_rows}
    for name, rows in fields.items():
        list(map(object.__setattr__, walks, repeat(name), rows))
    return walks


@dataclass(frozen=True)
class Instance:
    """One scheduling problem: graph, walks, time windows, deadlines,
    separation gaps, and the objective to minimise.

    Any two stamps of distinct vehicles at the same vertex must lie at
    least separation ticks apart.  separations holds explicit pair gaps that
    override that rule; the constructor accepts each entry in either
    orientation and stores it once, lower vehicle id first.  An entry may
    only pair distinct vehicles at steps that visit the same vertex.  The
    keys are normalised, lower vehicle id first, so a reader may look a gap
    up by key; gap() stays the reference for what a pair requires.
    """

    graph: Graph
    walks: tuple[Walk, ...]
    request_times: tuple[int, ...]
    soft_deadlines: tuple[int | float, ...]
    hard_deadlines: tuple[int | float, ...]
    separations: dict[SeparationKey, int] = field(default_factory=dict)
    objective: ObjectiveKind = ObjectiveKind.TARDY_COUNT
    weights: tuple[float, ...] | None = None
    separation: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "walks", tuple(self.walks))
        object.__setattr__(self, "request_times", tuple(self.request_times))
        object.__setattr__(self, "soft_deadlines", tuple(self.soft_deadlines))
        object.__setattr__(self, "hard_deadlines", tuple(self.hard_deadlines))
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(self.weights))

        n = len(self.walks)
        if n == 0:
            raise ValueError("an instance needs at least one vehicle")
        for name, seq in (
            ("request_times", self.request_times),
            ("soft_deadlines", self.soft_deadlines),
            ("hard_deadlines", self.hard_deadlines),
        ):
            if len(seq) != n:
                raise ValueError(f"{name} has length {len(seq)}, expected {n}")
        edges, rows = self.graph.edges, list(map(_VERTICES, self.walks))
        if not edges.issuperset(chain.from_iterable(map(zip, rows, map(_TAIL, rows)))):
            for j, walk in enumerate(self.walks):  # name the first offender
                for i, (u, v) in enumerate(zip(walk.vertices, walk.vertices[1:])):
                    if (u, v) not in edges:
                        raise ValueError(
                            f"walk {j} uses ({u},{v}) at link {i}, not a graph edge"
                        )
        rho, soft, hard = self.request_times, self.soft_deadlines, self.hard_deadlines
        # soft == +inf means "no soft deadline" and is allowed alongside a
        # finite hard deadline; a finite soft deadline must fit the chain.
        if not (_all_ints(rho) and _all_ints_or_inf(soft) and _all_ints_or_inf(hard)
                and all(map(le, rho, hard)) and all(map(le, rho, soft))
                and all(s <= h or s == INF for s, h in zip(soft, hard))):
            for j, (r, s, h) in enumerate(zip(rho, soft, hard)):
                if not is_tick(r):
                    raise ValueError(f"request time of vehicle {j} must be an integer")
                if not is_tick_or_inf(s) or not is_tick_or_inf(h):
                    raise ValueError(f"deadlines of vehicle {j} must be integers or +inf")
                if r > h:
                    raise ValueError(f"vehicle {j}: request time exceeds hard deadline")
                if s != INF and not (r <= s <= h):
                    raise ValueError(
                        f"vehicle {j}: need request <= soft <= hard deadline, got "
                        f"{r}, {s}, {h}"
                    )
        if self.weights is not None:
            if len(self.weights) != n:
                raise ValueError(f"weights has length {len(self.weights)}, expected {n}")
            for j, w in enumerate(self.weights):
                if not (0 < w < INF):
                    raise ValueError(f"weight of vehicle {j} must be positive and finite")
        if self.objective.weighted and self.weights is None:
            raise ConfigurationError(
                f"objective {self.objective.value} requires vehicle weights"
            )
        if not is_tick(self.separation) or self.separation < 0:
            raise ValueError("separation must be a nonnegative integer")
        object.__setattr__(self, "separations", self._normalised_separations())

    def _normalised_separations(self) -> dict[SeparationKey, int]:
        table: dict[SeparationKey, int] = {}
        for key, s in self.separations.items():
            j1, i1, j2, i2 = key
            if j1 == j2:
                raise ValueError(f"separation {key} pairs a vehicle with itself")
            for j, i in ((j1, i1), (j2, i2)):
                if not (0 <= j < len(self.walks)) or not (0 <= i < len(self.walks[j])):
                    raise ValueError(f"separation {key} references an unknown step")
            if self.walks[j1].vertices[i1] != self.walks[j2].vertices[i2]:
                raise ValueError(
                    f"separation {key} pairs steps at different vertices"
                )
            if not is_tick(s) or s < 0:
                raise ValueError(f"separation {key} must be a nonnegative integer")
            key = (j1, i1, j2, i2) if j1 < j2 else (j2, i2, j1, i1)
            if table.setdefault(key, s) != s:
                raise ValueError(f"separation {key} given twice with different values")
        return table

    @cached_property
    def visits(self) -> dict[int, list[tuple[int, int]]]:
        """vertex -> (vehicle, step) visits in vehicle, then step, order."""
        visits: dict[int, list[tuple[int, int]]] = {}
        for j, walk in enumerate(self.walks):
            for i, vertex in enumerate(walk.vertices):
                visits.setdefault(vertex, []).append((j, i))
        return visits

    @property
    def n_vehicles(self) -> int:
        return len(self.walks)

    @property
    def total_stamps(self) -> int:
        return sum(len(w) for w in self.walks)

    @property
    def max_gap(self) -> int:
        """Widest gap any stamp pair can require: the uniform separation or
        the largest override, whichever is greater."""
        return max(self.separation, max(self.separations.values(), default=0))

    def gap(self, j1: int, i1: int, j2: int, i2: int) -> int:
        """Required separation between stamp i1 of vehicle j1 and stamp i2 of
        vehicle j2, in either order; 0 unless the two are distinct vehicles
        at the same vertex."""
        if j1 == j2 or self.walks[j1].vertices[i1] != self.walks[j2].vertices[i2]:
            return 0
        key = (j1, i1, j2, i2) if j1 < j2 else (j2, i2, j1, i1)
        return self.separations.get(key, self.separation)


_LAST = itemgetter(-1)
_TAIL = itemgetter(slice(1, None))
_VERTICES = attrgetter("vertices")


@dataclass(frozen=True)
class Schedule:
    """Per-vehicle arrival stamps, one per walk vertex, in integer ticks."""

    times: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", tuple(map(tuple, self.times)))
        if not _all_ints(chain.from_iterable(self.times)):
            for j, row in enumerate(self.times):  # name the first offender
                for i, t in enumerate(row):
                    if not is_tick(t):
                        raise ValueError(f"stamp ({j},{i}) must be an integer tick")

    def completion(self, j: int) -> int:
        return self.times[j][-1]

    def completions(self) -> tuple[int, ...]:
        return tuple(map(_LAST, self.times))


class ConstraintKind(Enum):
    REQUEST_TIME = "request_time"
    CONTINUITY = "continuity"
    HARD_DEADLINE = "hard_deadline"
    TRAVEL_TIME = "travel_time"
    SEPARATION = "separation"


@dataclass(frozen=True)
class Violation:
    kind: ConstraintKind
    vehicles: tuple[int, ...]
    indices: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        return f"[{self.kind.value}] {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    def __bool__(self) -> bool:
        return not self.violations

    def passes(self, ignore: frozenset[ConstraintKind] = frozenset()) -> bool:
        return all(v.kind in ignore for v in self.violations)

    def by_kind(self, kind: ConstraintKind) -> list[Violation]:
        return [v for v in self.violations if v.kind == kind]



def check_shape(instance: Instance, schedule: Schedule) -> None:
    """Raise ShapeError unless the schedule matches the instance's walks.

    All row lengths are compared in one pass; only a mismatch walks the
    vehicles one by one, to name the first.
    """
    if len(schedule.times) != instance.n_vehicles:
        raise ShapeError(
            f"schedule covers {len(schedule.times)} vehicles, "
            f"instance has {instance.n_vehicles}"
        )
    lengths = list(map(len, map(_VERTICES, instance.walks)))
    if list(map(len, schedule.times)) == lengths:
        return
    for j, walk in enumerate(instance.walks):
        if len(schedule.times[j]) != len(walk):
            raise ShapeError(
                f"vehicle {j}: {len(schedule.times[j])} stamps for "
                f"{len(walk)} walk vertices"
            )


def validate_schedule(instance: Instance, schedule: Schedule) -> ValidationReport:
    """Check every constraint and report each violation individually.

    Constraint classes: request time, continuity and hard deadline (the
    per-vehicle chain), per-link travel-time windows, and pairwise
    separation at shared vertices (vertex by vertex in order of first
    visit, each pair once).  Comparisons are exact; there is no tolerance.

    The common case, a valid schedule, costs a few C-speed passes: per
    walk, the request time, the link windows over the stamp differences
    (a difference at or above its nonnegative minimum is never a
    continuity break) and the hard deadline; per vertex, the sorted stamps,
    which cannot clash when no neighbours are closer than the uniform gap
    and no override wider than it is broken.  Only a walk or a vertex that
    fails its pass is checked item by item, which words every violation.
    """
    check_shape(instance, schedule)
    found: list[Violation] = []
    times = schedule.times
    request_times, hard_deadlines = instance.request_times, instance.hard_deadlines
    for j, (walk, row) in enumerate(zip(instance.walks, times)):
        links = list(map(sub, row[1:], row))
        if (row[0] >= request_times[j] and row[-1] <= hard_deadlines[j]
                and all(map(le, walk.min_times, links))
                and all(map(le, links, walk.max_times))):
            continue
        if row[0] < request_times[j]:
            found.append(Violation(
                ConstraintKind.REQUEST_TIME, (j,), (0,),
                f"vehicle {j} starts at {row[0]} before request time "
                f"{request_times[j]}",
            ))
        for i in range(len(walk) - 1):
            if row[i + 1] < row[i]:
                found.append(Violation(
                    ConstraintKind.CONTINUITY, (j,), (i, i + 1),
                    f"vehicle {j}: stamp {row[i + 1]} at step {i + 1} precedes "
                    f"stamp {row[i]} at step {i}",
                ))
            gap = row[i + 1] - row[i]
            lo, hi = walk.min_times[i], walk.max_times[i]
            if gap < lo or gap > hi:
                found.append(Violation(
                    ConstraintKind.TRAVEL_TIME, (j,), (i,),
                    f"vehicle {j} link {i}: travel time {gap} outside [{lo},{hi}]",
                ))
        if row[-1] > hard_deadlines[j]:
            found.append(Violation(
                ConstraintKind.HARD_DEADLINE, (j,), (len(walk) - 1,),
                f"vehicle {j} completes at {row[-1]} after hard deadline "
                f"{hard_deadlines[j]}",
            ))
    uniform, window, walks = instance.separation, instance.max_gap, instance.walks
    broken = {  # vertices of a wider override's pair that is too close
        walks[j1].vertices[i1] for (j1, i1, j2, i2), s in instance.separations.items()
        if s > uniform and abs(times[j1][i1] - times[j2][i2]) < s
    }
    for vertex, steps in instance.visits.items():
        ordered = sorted([times[j][i] for j, i in steps])
        if (vertex not in broken
                and min(map(sub, ordered[1:], ordered), default=uniform) >= uniform):
            continue
        stamps = sorted((times[j][i], j, i) for j, i in steps)
        clashes = []
        for a, (t1, j1, i1) in enumerate(stamps):
            # only the later stamps less than max_gap away can break a gap
            for t2, j2, i2 in stamps[a + 1:bisect_left(stamps, (t1 + window,))]:
                if t2 - t1 < (s := instance.gap(j1, i1, j2, i2)):
                    pair = (j1, i1, j2, i2) if j1 < j2 else (j2, i2, j1, i1)
                    clashes.append((pair, t2 - t1, s))
        for (j1, i1, j2, i2), gap, s in sorted(clashes):
            found.append(Violation(
                ConstraintKind.SEPARATION, (j1, j2), (i1, i2),
                f"vehicles {j1} (step {i1}) and {j2} (step {i2}) are {gap} apart "
                f"at vertex {vertex}, need {s}",
            ))
    return ValidationReport(tuple(found))


def min_free_trip_time(instance: Instance, j: int) -> int:
    """Completion-minus-start duration of vehicle j ignoring all others."""
    if not (0 <= j < instance.n_vehicles):
        raise ValueError(f"unknown vehicle id {j}")
    return sum(instance.walks[j].min_times)


def tardy_flags(instance: Instance, schedule: Schedule) -> tuple[bool, ...]:
    """Per-vehicle tardiness indicators; exactly on-time is not tardy."""
    check_shape(instance, schedule)
    return tuple(
        schedule.completion(j) > instance.soft_deadlines[j]
        for j in range(instance.n_vehicles)
    )


def tardy_weights(
    instance: Instance, kind: ObjectiveKind | None = None
) -> tuple[float, ...]:
    """What each vehicle costs when tardy under a tardy-count objective
    (the instance's own by default): 1 under tardy_count, even when the
    instance carries weights, and its weight under weighted_tardy_count."""
    if kind is None:
        kind = instance.objective
    if kind is ObjectiveKind.TARDY_COUNT:
        return (1,) * instance.n_vehicles
    if kind is not ObjectiveKind.WEIGHTED_TARDY_COUNT:
        raise ConfigurationError(f"objective {kind.value} does not count tardy vehicles")
    if instance.weights is None:
        raise ConfigurationError(f"objective {kind.value} requires vehicle weights")
    return instance.weights


def evaluate(
    instance: Instance,
    schedule: Schedule,
    kind: ObjectiveKind | None = None,
) -> float:
    """Value of an objective on a structurally valid schedule.

    Completion is the last stamp of each vehicle; lateness is completion
    minus the soft deadline, tardiness its positive part, and a vehicle is
    tardy only on strict exceedance.
    """
    check_shape(instance, schedule)
    if kind is None:
        kind = instance.objective
    if kind.weighted and instance.weights is None:
        raise ConfigurationError(f"objective {kind.value} requires vehicle weights")

    completions = schedule.completions()
    if kind is ObjectiveKind.MAKESPAN:
        return max(completions)
    if kind is ObjectiveKind.TOTAL_COMPLETION:
        return sum(completions)
    if kind is ObjectiveKind.TOTAL_WEIGHTED_COMPLETION:
        return sum(w * c for w, c in zip(instance.weights, completions))
    if kind is ObjectiveKind.TARDY_COUNT:
        return sum(map(gt, completions, instance.soft_deadlines))
    lateness = list(map(sub, completions, instance.soft_deadlines))
    if kind is ObjectiveKind.MAX_LATENESS:
        return max(lateness)
    if kind is ObjectiveKind.TOTAL_TARDINESS:
        return sum(max(0, late) for late in lateness)
    # fsum rounds the exact sum of float weights once, as the exact search does.
    tardy = [w for w, late in zip(tardy_weights(instance, kind), lateness) if late > 0]
    return math.fsum(tardy) if kind.weighted else sum(tardy)
