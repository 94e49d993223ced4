"""Event-driven dispatch schedulers.

One subroutine assigns stamps by repeatedly popping the earliest pending
stamp, grouping the vehicles that sit at it by their next vertex, and giving
out the earliest separation-feasible slot at that vertex in priority order.
The slot search is one scan of the vertex's assigned stamps in stamp order,
from the first stamp that can still block the lower bound to the first one
too late to block the slot found so far, reading each gap inline from the
instance's separation rule rather than through Instance.gap.  Three
priority modes share the loop; best_of draws one run per mode from a
dispatch function, in Mode order, and keeps the best.  It stops early once
the leader is complete, free of hard violations and at 0 under an
objective that cannot go below 0, since no later mode can then outrank it.

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
from typing import Callable

from .core import (
    INF,
    Instance,
    ObjectiveKind,
    Schedule,
    VspError,
    evaluate,
)


class Mode(Enum):
    # Definition order is the best-of-three tie-break order.
    PROXIMITY = "proximity"
    ABS_DEADLINE_PROXIMITY = "abs"
    REL_DEADLINE_PROXIMITY = "rel"


# Objectives no schedule can take below zero: under these a complete run at
# 0 with no hard violation ranks first among all runs of later modes.
_NON_NEGATIVE = frozenset((
    ObjectiveKind.TARDY_COUNT,
    ObjectiveKind.WEIGHTED_TARDY_COUNT,
    ObjectiveKind.TOTAL_TARDINESS,
))


class VehicleStatus(Enum):
    COMPLETED = "completed"
    HARD_DEADLINE_VIOLATED = "hard_deadline_violated"
    SLOT_WINDOW_FAILED = "slot_window_failed"


class SlotWindowError(VspError):
    """No separation-feasible stamp exists inside the travel-time window."""


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
    lengths = [len(w.vertices) for w in walks]
    # remaining[j][i]: minimum travel time over links i, i+1, ... of walk j.
    remaining = [
        list(accumulate(reversed(w.min_times), initial=0))[::-1] for w in walks
    ]

    def deadline_key(j: int, k: int, ref: int) -> tuple[int, int, float, int]:
        first = walks[j].min_times[k - 1] if k else 0
        slack = deadlines[j] - (ref + remaining[j][max(0, k - 1)])
        if demote and slack < 0:
            return (first, 1, 0.0, j)
        score = slack / (lengths[j] - k) if relative else float(slack)
        return (first, 0, max(0.0, score), j)
    return deadline_key


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
    # The Schedule of a complete run; None when a vehicle failed.
    _schedule: Schedule | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_schedule", Schedule(self.times) if self.complete else None
        )

    @property
    def complete(self) -> bool:
        return VehicleStatus.SLOT_WINDOW_FAILED not in self.statuses

    @property
    def slot_failures(self) -> int:
        return self.statuses.count(VehicleStatus.SLOT_WINDOW_FAILED)

    @property
    def hard_violations(self) -> int:
        return self.statuses.count(VehicleStatus.HARD_DEADLINE_VIOLATED)

    def schedule(self) -> Schedule:
        if self._schedule is None:
            raise SlotWindowError(
                f"{self.slot_failures} vehicle(s) have no complete stamp sequence"
            )
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

    The loop's state is each vehicle's stamps (their count is the walk
    position to stamp next), a heap of the distinct pending stamps, the
    vehicles waiting at each of them, and per-vertex sorted lists of
    (stamp, vehicle, step) entries already assigned.  A slot search gets
    the step and the vertex's list from its caller, bisects the list at
    lower - max_gap and scans it in place, stopping at the first stamp at
    or past slot + max_gap; the slot then goes in by a sorted insert.  The
    scan reads each gap as Instance.gap defines it, without calling it:
    every entry in the list is at the same vertex, so the gap is 0 for the
    vehicle itself, else its override, else the uniform separation.
    """
    n = instance.n_vehicles
    vertices = [w.vertices for w in instance.walks]
    min_times = [w.min_times for w in instance.walks]
    max_times = [w.max_times for w in instance.walks]
    lengths = list(map(len, vertices))
    request_times = instance.request_times
    overrides = instance.separations
    separation = instance.separation
    max_gap = instance.max_gap
    key = sorting_key(instance, mode, negative_slack)
    times: list[list[int]] = [[] for _ in range(n)]
    statuses = [VehicleStatus.COMPLETED] * n
    heap: list[int] = []
    waiting: dict[int, list[int]] = {}
    assigned: dict[int, list[tuple[int, int, int]]] = {}

    def current_key(j: int) -> tuple[int, int, float, int]:
        k = len(times[j])
        return key(j, k, times[j][-1] if k else request_times[j])

    def place(
        j: int,
        step: int,
        entries: list[tuple[int, int, int]],
        lower: int,
        upper: int | float,
    ) -> None:
        # The slot is the least tick >= lower outside every interval
        # (stamp - s, stamp + s).  Jumping slot to the end of each interval
        # that holds it, in stamp order, finds it, overrides or not: no jump
        # passes that tick, and none lands in an interval k already scanned,
        # since with slot <= a_k - g_k a later a_m >= a_k holds slot only if
        # g_m > g_k + (a_m - a_k), and then lands at a_m + g_m > a_k + g_k.
        # From the first stamp - max_gap >= slot on, no interval holds slot;
        # the bisect skips the stamps whose intervals end at or below lower.
        slot = lower
        for k in range(bisect_left(entries, (lower - max_gap + 1,)), len(entries)):
            stamp, other, other_step = entries[k]
            if stamp - max_gap >= slot:
                break
            if other == j:
                continue
            s = separation if not overrides else overrides.get(
                (j, step, other, other_step) if j < other
                else (other, other_step, j, step),
                separation,
            )
            if stamp - s < slot < stamp + s:
                slot = stamp + s
        if slot > upper:
            statuses[j] = VehicleStatus.SLOT_WINDOW_FAILED
            return
        times[j].append(slot)
        insort(entries, (slot, j, step))
        if step + 1 < lengths[j]:
            if slot not in waiting:
                heapq.heappush(heap, slot)
                waiting[slot] = []
            waiting[slot].append(j)

    for j in sorted(range(n), key=current_key):
        place(j, 0, assigned.setdefault(vertices[j][0], []), request_times[j], INF)

    while heap:
        t = heapq.heappop(heap)
        # Group the waiting vehicles by next vertex, in first-seen order,
        # before placing anything, so positions stay those they were
        # queued with.
        groups: dict[int, list[int]] = {}
        for j in waiting.pop(t):
            groups.setdefault(vertices[j][len(times[j])], []).append(j)
        for vertex, group in groups.items():
            entries = assigned.setdefault(vertex, [])
            if len(group) > 1:
                group.sort(key=current_key)
            for j in group:
                step = len(times[j])
                place(
                    j, step, entries,
                    t + min_times[j][step - 1],
                    t + max_times[j][step - 1],
                )

    for j, (row, hard) in enumerate(zip(times, instance.hard_deadlines)):
        if statuses[j] is VehicleStatus.COMPLETED and row[-1] > hard:
            statuses[j] = VehicleStatus.HARD_DEADLINE_VIOLATED
    return DispatchResult(mode, tuple(map(tuple, times)), tuple(statuses))


def best_of(
    instance: Instance, dispatch: Callable[[Mode], DispatchResult]
) -> DispatchResult:
    """Return the run that ranks first: fewest slot-window failures, then the
    instance objective (infinite for an incomplete run), then hard-deadline
    violations, then the position of its mode in Mode.

    The runs are drawn as dispatch(mode), one at a time in Mode order.
    Drawing stops once the leader ranks (0, 0, 0) under an objective that
    never goes below zero: every mode not drawn yet comes after the
    leader's, so no later run can outrank it.
    """
    floored = instance.objective in _NON_NEGATIVE
    best = best_rank = None
    for position, mode in enumerate(Mode):
        res = dispatch(mode)
        value = evaluate(instance, res.schedule()) if res.complete else INF
        rank = (res.slot_failures, value, res.hard_violations, position)
        if best is None or rank < best_rank:
            best, best_rank = res, rank
        if floored and best_rank[:3] == (0, 0, 0):
            break
    return best


def deadline_and_proximity(
    instance: Instance,
    negative_slack: str = "prose",
) -> DispatchResult:
    """Dispatch in each mode, as best_of draws them, and return the run it
    ranks first; a mode that cannot beat the leader is not run.

    The mode-order tie-break keeps the winner never worse than the plain
    proximity run on the configured objective.  When every mode leaves a
    vehicle without a stamp the first-ranked run is still returned; callers
    check complete.
    """
    return best_of(instance, lambda mode: run_dispatch(instance, mode, negative_slack))
