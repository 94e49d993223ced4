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
        return all(s is not VehicleStatus.SLOT_WINDOW_FAILED for s in self.statuses)

    @property
    def slot_failures(self) -> int:
        return sum(s is VehicleStatus.SLOT_WINDOW_FAILED for s in self.statuses)

    @property
    def hard_violations(self) -> int:
        return sum(s is VehicleStatus.HARD_DEADLINE_VIOLATED for s in self.statuses)

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
    (stamp, vehicle, step) entries already assigned.
    """
    n = instance.n_vehicles
    walks = instance.walks
    gap = instance.gap
    # A stamp at or below lower - max_gap blocks only ticks below lower, so
    # the slot search may skip it; every later stamp can still chain-block.
    max_gap = instance.max_gap
    key = sorting_key(instance, mode, negative_slack)
    times: list[list[int]] = [[] for _ in range(n)]
    statuses = [VehicleStatus.COMPLETED] * n
    heap: list[int] = []
    waiting: dict[int, list[int]] = {}
    assigned: dict[int, list[tuple[int, int, int]]] = {}

    def current_key(j: int) -> tuple[int, int, float, int]:
        k = len(times[j])
        return key(j, k, times[j][-1] if k else instance.request_times[j])

    def place(j: int, lower: int, upper: int | float) -> None:
        step = len(times[j])
        node = walks[j].vertices[step]
        entries = assigned.setdefault(node, [])
        blockers = [
            (stamp, gap(j, step, other, other_step))
            for stamp, other, other_step
            in entries[bisect_left(entries, (lower - max_gap + 1,)):]
        ]
        try:
            stamp = earliest_feasible_slot(node, lower, upper, blockers)
        except SlotWindowError:
            statuses[j] = VehicleStatus.SLOT_WINDOW_FAILED
            return
        times[j].append(stamp)
        insort(entries, (stamp, j, step))
        if step + 1 < len(walks[j]):
            if stamp not in waiting:
                heapq.heappush(heap, stamp)
                waiting[stamp] = []
            waiting[stamp].append(j)

    for j in sorted(range(n), key=current_key):
        place(j, instance.request_times[j], INF)

    while heap:
        t = heapq.heappop(heap)
        # Group the waiting vehicles by next vertex, in first-seen order,
        # before placing anything, so positions stay those they were
        # queued with.
        groups: dict[int, list[int]] = {}
        for j in waiting.pop(t):
            groups.setdefault(walks[j].vertices[len(times[j])], []).append(j)
        for group in groups.values():
            group.sort(key=current_key)
            for j in group:
                step = len(times[j])
                place(
                    j,
                    t + walks[j].min_times[step - 1],
                    t + walks[j].max_times[step - 1],
                )

    for j, (row, hard) in enumerate(zip(times, instance.hard_deadlines)):
        if statuses[j] is VehicleStatus.COMPLETED and row[-1] > hard:
            statuses[j] = VehicleStatus.HARD_DEADLINE_VIOLATED
    return DispatchResult(
        mode, tuple(tuple(row) for row in times), tuple(statuses)
    )


def best_of(instance: Instance, runs: list[DispatchResult]) -> DispatchResult:
    """Return the run that ranks first: fewest slot-window failures, then the
    instance objective (infinite for an incomplete run), then hard-deadline
    violations, then the position of its mode in Mode, so the order in which
    runs are listed never changes the choice.
    """
    if not runs:
        raise ValueError("best_of needs at least one dispatch run")
    order = list(Mode)

    def rank(res: DispatchResult) -> tuple:
        value = evaluate(instance, res.schedule()) if res.complete else INF
        return (res.slot_failures, value, res.hard_violations, order.index(res.mode))

    return min(runs, key=rank)


def deadline_and_proximity(
    instance: Instance,
    negative_slack: str = "prose",
) -> DispatchResult:
    """Run all three modes and return the run best_of ranks first.

    The mode-order tie-break keeps the winner never worse than the plain
    proximity run on the configured objective.  When every mode leaves a
    vehicle without a stamp the first-ranked run is still returned; callers
    check complete.
    """
    return best_of(instance, [run_dispatch(instance, m, negative_slack) for m in Mode])
