"""Event-driven dispatch schedulers.

One subroutine assigns stamps by repeatedly popping the earliest pending
stamp, grouping the vehicles that sit at it by their next vertex, and giving
out the earliest separation-feasible slot at that vertex in priority order.
Three priority modes share the loop; a wrapper runs all three and keeps the
best schedule.

A priority is the plain tuple (first, demoted, slack, vehicle), compared
lexicographically: the minimum travel time of the approach link, 1 for a
vehicle demoted for negative slack (else 0), the mode's deadline slack
(0.0 under proximity), and the vehicle id.  sorting_key builds the key
function once per run, with each walk's remaining minimum travel times
precomputed.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from typing import Callable, Iterable

from .core import (
    INF,
    Instance,
    Schedule,
    VspError,
    evaluate,
)


class Mode(Enum):
    # Definition order is the best-of-three tie-break order.
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


def sorting_key(
    instance: Instance,
    mode: Mode,
    negative_slack: str = "prose",
) -> Callable[[int, int, int], tuple[int, int, float, int]]:
    """Priority key of the vehicles of one instance in one mode.

    The returned key(vehicle, next_index, ref_time) gives the tuple
    (first, demoted, slack, vehicle); next_index is the walk position about
    to receive a stamp and ref_time the stamp at the current vertex, or the
    request time before the first assignment.  first is the minimum travel
    time of the link leading to the contested vertex (zero before the first
    stamp).  The deadline modes add the remaining delay slack: soft deadline
    minus the earliest possible completion from here, clamped at zero, and
    divided by the number of vertices still to visit in the relative mode.
    With negative_slack="prose" vehicles whose slack is already negative are
    demoted (demoted 1, slack 0.0) instead of clamped; "pseudocode" keeps
    the plain clamp, which ranks them alongside zero-slack vehicles.
    """
    if negative_slack not in ("prose", "pseudocode"):
        raise ValueError(f"unknown negative-slack policy {negative_slack!r}")
    walks = instance.walks
    if mode is Mode.PROXIMITY:
        def proximity_key(j: int, k: int, ref: int) -> tuple[int, int, float, int]:
            return (walks[j].min_times[k - 1] if k else 0, 0, 0.0, j)
        return proximity_key

    demote = negative_slack == "prose"
    relative = mode is Mode.REL_DEADLINE_PROXIMITY
    deadlines = instance.soft_deadlines
    # remaining[j][i]: minimum travel time over links i, i+1, ... of walk j.
    remaining = [
        list(accumulate(reversed(w.min_times), initial=0))[::-1] for w in walks
    ]

    def deadline_key(j: int, k: int, ref: int) -> tuple[int, int, float, int]:
        walk = walks[j]
        first = walk.min_times[k - 1] if k else 0
        slack = deadlines[j] - (ref + remaining[j][max(0, k - 1)])
        if demote and slack < 0:
            return (first, 1, 0.0, j)
        score = slack / (len(walk) - k) if relative else float(slack)
        return (first, 0, max(0.0, score), j)
    return deadline_key


def earliest_feasible_slot(
    node: int,
    lower_bound: int,
    window_upper: int | float,
    blockers: Iterable[tuple[int, int]],
) -> int:
    """Smallest t >= lower_bound with |t - t_k| >= s_k for every assigned
    stamp t_k at the vertex, subject to t <= window_upper.

    blockers holds (stamp, separation) pairs for the requesting vehicle;
    pairs with a zero separation block nothing and are skipped.
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

    Keeps a heap of the distinct pending stamps, the vehicles waiting at
    each of them (its keys are the queued stamps), and per-vertex sorted
    lists of already assigned stamps.  Stamp insertion is O(log q); a popped
    stamp's vehicles are taken with take_waiting before anything is pushed.
    """

    def __init__(self) -> None:
        self._heap: list[int] = []
        self.waiting: dict[int, list[int]] = {}
        self.assigned: dict[int, list[tuple[int, int, int]]] = {}

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push_vehicle(self, stamp: int, vehicle: int) -> None:
        if stamp not in self.waiting:
            heapq.heappush(self._heap, stamp)
            self.waiting[stamp] = []
        self.waiting[stamp].append(vehicle)

    def pop_stamp(self) -> int:
        return heapq.heappop(self._heap)

    def take_waiting(self, stamp: int) -> list[int]:
        return self.waiting.pop(stamp, [])

    def record_assignment(self, node: int, stamp: int, vehicle: int, step: int) -> None:
        insort(self.assigned.setdefault(node, []), (stamp, vehicle, step))

    def assigned_after(self, node: int, floor: int) -> list[tuple[int, int, int]]:
        """Assigned (stamp, vehicle, step) entries at node with stamp > floor."""
        entries = self.assigned.get(node, [])
        return entries[bisect_left(entries, (floor + 1,)):]


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
    # Built by the first schedule() call and handed out from then on.
    _schedule: Schedule | None = field(
        default=None, init=False, repr=False, compare=False
    )

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
        if self._schedule is None:
            if not self.complete:
                raise SlotWindowError(
                    f"{self.slot_failures} vehicle(s) have no complete stamp sequence"
                )
            object.__setattr__(self, "_schedule", Schedule(self.times))
        return self._schedule


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
    key = sorting_key(instance, mode, negative_slack)

    def current_key(j: int) -> tuple[int, int, float, int]:
        k = next_index[j]
        return key(j, k, times[j][-1] if k else instance.request_times[j])

    # A stamp at or below lower - max_gap blocks only ticks below lower, so
    # the slot search may skip it; every later stamp can still chain-block.
    max_gap = instance.max_gap

    def blockers_for(
        j: int, step: int, node: int, lower: int
    ) -> list[tuple[int, int]]:
        gap = instance.gap
        return [
            (stamp, gap(j, step, other, other_step))
            for stamp, other, other_step in eq.assigned_after(node, lower - max_gap)
        ]

    def assign(j: int, stamp: int) -> None:
        step = next_index[j]
        walk = instance.walks[j]
        times[j].append(stamp)
        next_index[j] += 1
        eq.record_assignment(walk.vertices[step], stamp, j, step)
        if next_index[j] < len(walk):
            eq.push_vehicle(stamp, j)

    for j in sorted(range(n), key=current_key):
        node = instance.walks[j].vertices[0]
        lower = instance.request_times[j]
        stamp = earliest_feasible_slot(
            node, lower, INF, blockers_for(j, 0, node, lower)
        )
        assign(j, stamp)

    while eq:
        t = eq.pop_stamp()
        # Group the waiting vehicles by next vertex, in first-seen order,
        # before assigning anything, so positions stay those they were
        # queued with.
        groups: dict[int, list[int]] = {}
        for j in eq.take_waiting(t):
            node = instance.walks[j].vertices[next_index[j]]
            groups.setdefault(node, []).append(j)
        for node, group in groups.items():
            group.sort(key=current_key)
            for v in group:
                walk = instance.walks[v]
                step = next_index[v]
                lower = t + walk.min_times[step - 1]
                upper = t + walk.max_times[step - 1]
                try:
                    stamp = earliest_feasible_slot(
                        node, lower, upper, blockers_for(v, step, node, lower)
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
    candidates = [run_dispatch(instance, m, negative_slack) for m in Mode]
    if all(not c.complete for c in candidates):
        raise DispatchError("all dispatch modes left incomplete schedules")

    def rank(item: tuple[int, DispatchResult]) -> tuple:
        idx, res = item
        value = evaluate(instance, res.schedule()) if res.complete else INF
        return (res.slot_failures, value, res.hard_violations, idx)

    _, best = min(enumerate(candidates), key=rank)
    return best
