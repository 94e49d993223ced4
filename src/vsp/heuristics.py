"""Event-driven dispatch schedulers.

One subroutine assigns stamps by repeatedly popping the earliest pending
stamp, grouping the vehicles that sit at it by their next vertex, and giving
out the earliest separation-feasible slot at that vertex in priority order.
Three priority modes share the loop; a wrapper runs all three and keeps the
best schedule.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .core import (
    INF,
    Instance,
    Schedule,
    VspError,
    evaluate,
)


class Mode(Enum):
    PROXIMITY = "proximity"
    ABS_DEADLINE_PROXIMITY = "abs"
    REL_DEADLINE_PROXIMITY = "rel"


class VehicleStatus(Enum):
    COMPLETED = "completed"
    HARD_DEADLINE_VIOLATED = "hard_deadline_violated"
    SLOT_WINDOW_FAILED = "slot_window_failed"


class SlotWindowError(VspError):
    """No separation-feasible stamp exists inside the travel-time window."""


class DispatchError(VspError):
    """No dispatch mode produced a structurally complete schedule."""


@dataclass(frozen=True)
class VehicleState:
    """Position of a vehicle at a dispatch decision point.

    next_index is the walk position about to receive a stamp (equals the
    number of stamps already assigned); ref_time is the stamp at the current
    vertex, or the request time before the first assignment.
    """

    vehicle: int
    next_index: int
    ref_time: int


@dataclass(frozen=True)
class SortKey:
    """Dispatch priority: time distance to the contested vertex, then an
    optional slack score, then the vehicle id.

    Vehicles flagged as demoted (negative slack under the prose policy) sort
    after every non-demoted vehicle with the same first component and fall
    back to id order among themselves.
    """

    first: int
    second: float | None
    vehicle: int
    demoted: bool = False

    def order(self) -> tuple[int, int, float, int]:
        return (
            self.first,
            1 if self.demoted else 0,
            0.0 if self.second is None else self.second,
            self.vehicle,
        )


def sorting_key(
    instance: Instance,
    state: VehicleState,
    mode: Mode,
    negative_slack: str = "prose",
) -> SortKey:
    """Priority key of one vehicle for one intersection decision.

    first is the minimum travel time of the link leading to the contested
    vertex (zero before a vehicle's first stamp, when it has no approach
    link).  The deadline modes add the remaining delay slack: soft deadline
    minus the earliest possible completion from here, clamped at zero, and
    divided by the number of vertices still to visit in the relative mode.
    With negative_slack="prose" vehicles whose slack is already negative are
    demoted instead of clamped; "pseudocode" keeps the plain clamp, which
    ranks them alongside zero-slack vehicles.
    """
    if negative_slack not in ("prose", "pseudocode"):
        raise ValueError(f"unknown negative-slack policy {negative_slack!r}")
    j, k = state.vehicle, state.next_index
    walk = instance.walks[j]
    first = 0 if k == 0 else walk.min_times[k - 1]
    if mode is Mode.PROXIMITY:
        return SortKey(first, None, j)

    remaining_min = sum(walk.min_times[max(0, k - 1):])
    slack = instance.soft_deadlines[j] - (state.ref_time + remaining_min)
    remaining_nodes = len(walk) - k
    if negative_slack == "prose" and slack < 0:
        return SortKey(first, 0.0, j, demoted=True)
    if mode is Mode.ABS_DEADLINE_PROXIMITY:
        return SortKey(first, max(0.0, float(slack)), j)
    return SortKey(first, max(0.0, slack / remaining_nodes), j)


def earliest_feasible_slot(
    node: int,
    lower_bound: int,
    window_upper: int | float,
    blockers: Iterable[tuple[int, int]],
) -> int:
    """Smallest t >= lower_bound with |t - t_k| >= s_k for every assigned
    stamp t_k at the vertex, subject to t <= window_upper.

    blockers holds (stamp, separation) pairs for the requesting vehicle.
    A stamp blocks the open interval (t_k - s_k, t_k + s_k); scanning the
    intervals in start order and jumping to each upper end yields the
    earliest feasible point.
    """
    t = lower_bound
    for start, end in sorted(
        (stamp - s, stamp + s) for stamp, s in blockers if s > 0
    ):
        if start < t < end:
            t = end
    if t > window_upper:
        raise SlotWindowError(
            f"no feasible stamp at vertex {node} in [{lower_bound},{window_upper}]"
        )
    return t


class EventQueue:
    """Bookkeeping for the dispatch loop.

    Keeps the ordered sequence of distinct pending stamps, the vehicles
    waiting at each stamp, the (stamp, next vertex) groups, and per-vertex
    sorted lists of already assigned stamps.  Stamp insertion is O(log q)
    amortised; the group and waiting lookups are plain dict access.
    """

    def __init__(self) -> None:
        self._heap: list[int] = []
        self._queued: set[int] = set()
        self.waiting: dict[int, list[int]] = {}
        self.groups: dict[tuple[int, int], list[int]] = {}
        self.assigned: dict[int, list[tuple[int, int, int]]] = {}

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push_vehicle(self, stamp: int, vehicle: int, next_node: int) -> None:
        if stamp not in self._queued:
            self._queued.add(stamp)
            heapq.heappush(self._heap, stamp)
        self.waiting.setdefault(stamp, []).append(vehicle)
        self.groups.setdefault((stamp, next_node), []).append(vehicle)

    def pop_stamp(self) -> int:
        stamp = heapq.heappop(self._heap)
        self._queued.discard(stamp)
        return stamp

    def take_waiting(self, stamp: int) -> list[int]:
        return self.waiting.pop(stamp, [])

    def take_group(self, stamp: int, node: int) -> list[int] | None:
        return self.groups.pop((stamp, node), None)

    def record_assignment(self, node: int, stamp: int, vehicle: int, step: int) -> None:
        insort(self.assigned.setdefault(node, []), (stamp, vehicle, step))

    def assigned_at(self, node: int) -> list[tuple[int, int, int]]:
        return self.assigned.get(node, [])


@dataclass(frozen=True)
class DispatchResult:
    """Stamps and per-vehicle outcome of one dispatch run.

    Vehicles that failed to find a slot inside a finite travel-time window
    keep only the stamps assigned before the failure; everyone else has a
    stamp per walk vertex.  Hard-deadline breaches are reported here, never
    repaired.
    """

    mode: Mode
    times: tuple[tuple[int, ...], ...]
    statuses: tuple[VehicleStatus, ...]

    @property
    def complete(self) -> bool:
        return all(s is not VehicleStatus.SLOT_WINDOW_FAILED for s in self.statuses)

    @property
    def slot_failures(self) -> int:
        return sum(s is VehicleStatus.SLOT_WINDOW_FAILED for s in self.statuses)

    @property
    def hard_violations(self) -> int:
        return sum(s is VehicleStatus.HARD_DEADLINE_VIOLATED for s in self.statuses)

    def schedule(self) -> Schedule:
        if not self.complete:
            raise SlotWindowError(
                f"{self.slot_failures} vehicle(s) have no complete stamp sequence"
            )
        return Schedule(self.times)


def run_dispatch(
    instance: Instance,
    mode: Mode,
    negative_slack: str = "prose",
) -> DispatchResult:
    """Run the event loop in one priority mode.

    First every vehicle, in key order, gets the earliest feasible stamp at
    its first vertex at or after its request time.  Then stamps are popped
    in increasing order; the vehicles sitting at a popped stamp are grouped
    by next vertex, each group is sorted by key, and members receive the
    earliest feasible slot no earlier than the link minimum and no later
    than the link maximum after the popped stamp.  A vehicle with no slot in
    that window is flagged and abandoned; the rest keep going.
    """
    n = instance.n_vehicles
    times: list[list[int]] = [[] for _ in range(n)]
    next_index = [0] * n
    failed = [False] * n
    eq = EventQueue()

    def current_key(j: int) -> tuple[int, int, float, int]:
        ref = times[j][-1] if next_index[j] else instance.request_times[j]
        state = VehicleState(j, next_index[j], ref)
        return sorting_key(instance, state, mode, negative_slack).order()

    def blockers_for(j: int, step: int, node: int) -> list[tuple[int, int]]:
        gap = instance.gap
        return [
            (stamp, s)
            for stamp, other, other_step in eq.assigned_at(node)
            if (s := gap(j, step, other, other_step)) > 0
        ]

    def assign(j: int, stamp: int) -> None:
        step = next_index[j]
        walk = instance.walks[j]
        times[j].append(stamp)
        next_index[j] += 1
        eq.record_assignment(walk.vertices[step], stamp, j, step)
        if next_index[j] < len(walk):
            eq.push_vehicle(stamp, j, walk.vertices[next_index[j]])

    for j in sorted(range(n), key=current_key):
        node = instance.walks[j].vertices[0]
        stamp = earliest_feasible_slot(
            node, instance.request_times[j], INF, blockers_for(j, 0, node)
        )
        assign(j, stamp)

    while eq:
        t = eq.pop_stamp()
        # Group the waiting vehicles by next vertex before assigning anything,
        # so positions stay those they were queued with.
        ordered_groups: list[tuple[int, list[int]]] = []
        for j in eq.take_waiting(t):
            node = instance.walks[j].vertices[next_index[j]]
            group = eq.take_group(t, node)
            if group is not None:
                ordered_groups.append((node, group))
        for node, group in ordered_groups:
            group.sort(key=current_key)
            for v in group:
                walk = instance.walks[v]
                step = next_index[v]
                lower = t + walk.min_times[step - 1]
                upper = t + walk.max_times[step - 1]
                try:
                    stamp = earliest_feasible_slot(
                        node, lower, upper, blockers_for(v, step, node)
                    )
                except SlotWindowError:
                    failed[v] = True
                    continue
                assign(v, stamp)

    statuses = []
    for j in range(n):
        if failed[j]:
            statuses.append(VehicleStatus.SLOT_WINDOW_FAILED)
        elif times[j][-1] > instance.hard_deadlines[j]:
            statuses.append(VehicleStatus.HARD_DEADLINE_VIOLATED)
        else:
            statuses.append(VehicleStatus.COMPLETED)
    return DispatchResult(
        mode, tuple(tuple(row) for row in times), tuple(statuses)
    )


MODE_ORDER: Sequence[Mode] = (
    Mode.PROXIMITY,
    Mode.ABS_DEADLINE_PROXIMITY,
    Mode.REL_DEADLINE_PROXIMITY,
)


def deadline_and_proximity(
    instance: Instance,
    negative_slack: str = "prose",
) -> DispatchResult:
    """Run all three modes and return the best result.

    Results are ranked by slot-window failures, then the instance objective,
    then hard-deadline violations, with remaining ties broken by mode order
    (proximity, absolute, relative), which makes the choice deterministic
    and keeps the winner never worse than the plain proximity run on the
    configured objective.
    """
    candidates = [run_dispatch(instance, m, negative_slack) for m in MODE_ORDER]
    if all(not c.complete for c in candidates):
        raise DispatchError("all dispatch modes left incomplete schedules")

    def rank(item: tuple[int, DispatchResult]) -> tuple:
        idx, res = item
        value = evaluate(instance, res.schedule()) if res.complete else INF
        return (res.slot_failures, value, res.hard_violations, idx)

    _, best = min(enumerate(candidates), key=rank)
    return best
