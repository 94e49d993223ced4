"""Event-driven dispatch schedulers.

One flat loop, the generator lazy_dispatch, assigns stamps by repeatedly
popping the earliest pending stamp, grouping the vehicles that sit at it by
their next vertex, and giving out the earliest separation-feasible slot at
that vertex in priority order; the first stamps go through the same loop.
Its one slot search is an append where no assigned stamp at the vertex can
block the lower bound, else one scan of the vertex's assigned stamps in
stamp order, from the first stamp that can still block the lower bound to
the first one too late to block the slot found so far, reading each gap
inline from the instance's separation rule rather than through
Instance.gap.  The loop signals the first time its run can no longer end
complete, on time and free of hard violations; run_dispatch drains it.  A
finished run records the keys its sorts made, and replay_dispatch reuses
it for another mode or other soft deadlines when every recorded order
still holds under the new keys.  Three priority modes share the loop;
deadline_and_proximity runs them in Mode order, replays where it can,
pauses each started run at its signal, and keeps the best.

A priority is the plain tuple (first, demoted, slack, vehicle, step),
compared lexicographically: the minimum travel time of the approach link,
1 for a vehicle demoted for negative slack (else 0), the mode's deadline
slack (0.0 under proximity), the vehicle id, and the walk position about to
be stamped.  sorting_key builds the key function once per run.  Its slack
and the run's signal checks add the minimum travel time left after a step,
from Instance.remaining_minima, a table no soft deadline changes.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice, repeat
from operator import gt, itemgetter, lt
from typing import Callable, Iterator

from .core import INF, Instance, ObjectiveKind, Schedule, VspError, evaluate


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


# A dispatched vehicle's status by whether it ends past its hard deadline.
_STATUSES = (VehicleStatus.COMPLETED, VehicleStatus.HARD_DEADLINE_VIOLATED)
_LAST, _VEHICLE, _STEP = itemgetter(-1), itemgetter(3), itemgetter(4)


def sorting_key(
    instance: Instance,
    mode: Mode,
    negative_slack: str = "prose",
) -> Callable[[int, int, int], tuple[int, int, float, int, int]]:
    """Priority key of the vehicles of one instance in one mode.

    The returned key(vehicle, next_index, ref_time) gives the tuple
    (first, demoted, slack, vehicle, next_index); next_index is the walk
    position about to receive a stamp and ref_time the stamp at the current
    vertex, or the request time before the first assignment.  first is the
    minimum travel time of the link leading to the contested vertex (zero
    before the first stamp).  The deadline modes add the remaining delay
    slack: soft deadline minus the earliest possible completion from here,
    clamped at zero, and divided by the number of vertices still to visit in
    the relative mode.  next_index never decides an order, since vehicle ids
    differ within a sort; it lets a recorded key name its stamp.
    With negative_slack="prose" vehicles whose slack is already negative are
    demoted (demoted 1, slack 0.0) instead of clamped; "pseudocode" keeps
    the plain clamp, which ranks them alongside zero-slack vehicles.
    """
    if negative_slack not in ("prose", "pseudocode"):
        raise ValueError(f"unknown negative-slack policy {negative_slack!r}")
    walks = instance.walks
    if mode is Mode.PROXIMITY:
        def proximity_key(j: int, k: int, ref: int) -> tuple[int, int, float, int, int]:
            return (walks[j].min_times[k - 1] if k else 0, 0, 0.0, j, k)
        return proximity_key

    demote = negative_slack == "prose"
    relative = mode is Mode.REL_DEADLINE_PROXIMITY
    lengths = instance._walk_lengths
    rest, soft = instance.remaining_minima, instance.soft_deadlines

    def deadline_key(j: int, k: int, ref: int) -> tuple[int, int, float, int, int]:
        first = walks[j].min_times[k - 1] if k else 0
        slack = soft[j] - rest[j][k - 1 if k else 0] - ref
        if demote and slack < 0:
            return (first, 1, 0.0, j, k)
        score = slack / (lengths[j] - k) if relative else float(slack)
        return (first, 0, score if score > 0.0 else 0.0, j, k)
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
    # What replay_dispatch reads: (instance, initial order, [(popped stamp,
    # sorted keys of the group), ...]) of the run that placed these stamps.
    sorts: tuple | None = field(default=None, repr=False, compare=False)
    # The Schedule of a complete run; None when a vehicle failed.
    _schedule: Schedule | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        schedule = None
        if self.complete:
            # Dispatch computes every stamp from checked ints, so the
            # Schedule is set up as its __init__ would, without the checks.
            schedule = object.__new__(Schedule)
            object.__setattr__(schedule, "times", self.times)
        object.__setattr__(self, "_schedule", schedule)

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


def lazy_dispatch(
    instance: Instance,
    mode: Mode,
    negative_slack: str = "prose",
) -> Iterator[DispatchResult | None]:
    """Run the event loop in one priority mode, as a generator.

    First every vehicle, in key order, gets the earliest feasible stamp at
    its first vertex at or after its request time.  Then stamps are popped
    in increasing order; the vehicles sitting at a popped stamp are grouped
    by next vertex, each group is sorted by key, and members receive the
    earliest feasible slot no earlier than the link minimum and no later
    than the link maximum after the popped stamp.  A vehicle with no slot in
    that window is flagged and abandoned; the rest keep going.

    The generator yields None once, the first time the run can no longer
    end complete, on time and free of hard violations: a vehicle fails its
    slot window or a stamp plus the minimum travel time left after it
    passes the soft deadline.  A stamp after
    the first can do either only when it lands past the link minimum, so
    only such stamps are checked.  A run that never signals can still fall
    short, by a hard deadline where the soft one is open.  Last it yields
    the DispatchResult, whose sorts record the instance, the initial order
    and, for each group of more than one vehicle, the popped stamp and the
    group's sorted keys, each of which names its vehicle and step, for
    replay_dispatch.

    The loop's state is each vehicle's stamps (their count is the walk
    position to stamp next), a heap of the distinct pending stamps, the
    vehicles waiting at each of them, and per-vertex sorted lists of
    (stamp, vehicle, step) entries already assigned.  One flat loop places
    every stamp, the first ones included, as a batch: the initial order,
    then the vehicles of each popped stamp, group after group.  Where the
    vertex's last entry is at or below lower - max_gap nothing can block
    lower, so the slot is lower and its entry is appended.  Else the slot
    search bisects the list at lower - max_gap and scans it in place,
    stopping at the first stamp at or past slot + max_gap, and the slot
    goes in by a sorted insert.  The scan reads each gap as Instance.gap
    defines it, without calling it: every entry in the list is at the same
    vertex, so the gap is 0 for the vehicle itself, else its override, else
    the uniform separation.
    """
    n = instance.n_vehicles
    vertices = [w.vertices for w in instance.walks]
    min_times = [w.min_times for w in instance.walks]
    max_times = [w.max_times for w in instance.walks]
    lengths = instance._walk_lengths
    request_times = instance.request_times
    rest, soft = instance.remaining_minima, instance.soft_deadlines
    overrides = instance.separations
    separation = instance.separation
    max_gap = instance.max_gap
    key = sorting_key(instance, mode, negative_slack)
    times: list[list[int]] = [[] for _ in range(n)]
    failed: list[int] = []
    heap: list[int] = []
    waiting: dict[int, list[int]] = {}
    assigned: list[list[tuple[int, int, int]]] = [
        [] for _ in range(instance.graph.vertex_count)
    ]
    sorted_groups: list[tuple[int, list[tuple]]] = []
    signalled = False
    # Keys differ in the vehicle id, so sorting the keys sorts the vehicles.
    order = list(map(_VEHICLE, sorted(map(key, range(n), repeat(0), request_times))))
    batch, t = order, 0  # t, the popped stamp, is read from the second batch on
    while True:
        for j in batch:
            row = times[j]
            step = len(row)
            lower = t + min_times[j][step - 1] if step else request_times[j]
            entries = assigned[vertices[j][step]]
            slot = lower
            if entries and entries[-1][0] > lower - max_gap:
                # The slot is the least tick >= lower outside every interval
                # (stamp - s, stamp + s).  Jumping slot to the end of each
                # interval that holds it, in stamp order, finds it, overrides
                # or not: no jump passes that tick, and none lands in an
                # interval k already scanned, since with slot <= a_k - g_k a
                # later a_m >= a_k holds slot only if g_m > g_k + (a_m - a_k),
                # and then lands at a_m + g_m > a_k + g_k.  From the first
                # stamp - max_gap >= slot on, no interval holds slot; the
                # bisect skips the stamps whose intervals end at or below lower.
                start = bisect_left(entries, (lower - max_gap + 1,))
                for stamp, other, other_step in islice(entries, start, None):
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
                # A first stamp has no upper bound; a later one, the link's.
                if step and slot > t + max_times[j][step - 1]:
                    failed.append(j)
                    if not signalled:
                        signalled = True
                        yield None
                    continue
                insort(entries, (slot, j, step))
            else:
                entries.append((slot, j, step))
            row.append(slot)
            if step + 1 < lengths[j]:
                if slot in waiting:
                    waiting[slot].append(j)
                else:
                    heapq.heappush(heap, slot)
                    waiting[slot] = [j]
            if (not signalled and (slot > lower or not step)
                    and slot + rest[j][step] > soft[j]):
                signalled = True
                yield None
        if not heap:
            break
        t = heapq.heappop(heap)
        # The waiting vehicles are grouped by next vertex, in first-seen
        # order, before anything is placed, so positions stay those they
        # were queued with; each group's keys take t as reference time.
        batch = waiting.pop(t)
        if len(batch) > 1:
            groups: dict[int, list[int]] = {}
            for j in batch:
                groups.setdefault(vertices[j][len(times[j])], []).append(j)
            batch = []
            for group in groups.values():
                if len(group) > 1:
                    steps = map(len, map(times.__getitem__, group))
                    keys = sorted(map(key, group, steps, repeat(t)))
                    sorted_groups.append((t, keys))
                    group = map(_VEHICLE, keys)
                batch += group

    late = map(gt, map(_LAST, times), instance.hard_deadlines)
    statuses = list(map(_STATUSES.__getitem__, late))
    for j in failed:
        statuses[j] = VehicleStatus.SLOT_WINDOW_FAILED
    yield DispatchResult(
        mode, tuple(map(tuple, times)), tuple(statuses),
        (instance, order, sorted_groups),
    )


def run_dispatch(
    instance: Instance,
    mode: Mode,
    negative_slack: str = "prose",
) -> DispatchResult:
    """Run the event loop in one priority mode to its end; see lazy_dispatch."""
    *_, result = lazy_dispatch(instance, mode, negative_slack)
    return result


def replay_dispatch(
    run: DispatchResult,
    instance: Instance,
    mode: Mode,
    negative_slack: str = "prose",
) -> DispatchResult | None:
    """What run_dispatch(instance, mode, negative_slack) returns, taken from
    a finished run of any mode and soft deadlines without placing a stamp,
    or None when the run cannot show it.

    A run reads soft deadlines only through its sort keys; its signal reads
    them too but never steers it.  Keys differ in the vehicle id, so a sort
    has no ties, and a new run makes every choice the recorded one made when
    each order the recorded run sorted (its initial order, and each group
    of more than one vehicle at a popped stamp) is strictly increasing under
    the new keys.  So the run is replayed when that holds and its instance
    has the same walks, request times, hard deadlines, uniform separation
    and overrides as instance.  A proximity run asked for proximity is then
    returned as it is, since proximity keys read no soft deadline.  Else
    each group's new keys are built from the vehicle and step its recorded
    keys name, at the popped stamp.
    """
    if run.sorts is None:
        return None
    recorded, order, groups = run.sorts
    if not (instance.walks == recorded.walks
            and instance.request_times == recorded.request_times
            and instance.hard_deadlines == recorded.hard_deadlines
            and instance.separation == recorded.separation
            and instance.separations == recorded.separations):
        return None
    key = sorting_key(instance, mode, negative_slack)
    if mode is run.mode is Mode.PROXIMITY:
        return run  # proximity keys read no soft deadline
    request_times = instance.request_times
    keys = [key(j, 0, request_times[j]) for j in order]
    if not all(map(lt, keys, keys[1:])):
        return None
    for t, group in groups:  # a group is its recorded keys, sorted
        keys = list(map(key, map(_VEHICLE, group), map(_STEP, group), repeat(t)))
        if not all(map(lt, keys, keys[1:])):
            return None
    return DispatchResult(mode, run.times, run.statuses, run.sorts)


def deadline_and_proximity(
    instance: Instance,
    negative_slack: str = "prose",
    finished: dict[Mode, DispatchResult] | None = None,
) -> DispatchResult:
    """Return the run of the three modes that ranks first: fewest slot-window
    failures, then the instance objective (infinite for an incomplete run),
    then hard-deadline violations, then the position of its mode in Mode.

    The modes go in Mode order.  Each first tries replay_dispatch on one
    earlier run: the mode's own in finished, else the proximity run.  A
    replay that holds stands for the run, which is then neither started nor
    finished.  Else the mode's lazy_dispatch run is started and paused at
    its signal.  Under an objective that never goes below zero the first
    run to end at rank (0, 0, 0) is returned at once: every later mode comes
    after it, and a paused run cannot reach that rank.  Otherwise the paused
    runs are finished in Mode order, a run that had no earlier run to try
    first trying one now, and every run is ranked.

    finished holds each mode's last finished run, which this call updates;
    it starts empty unless given, and vsp bench passes one per instance
    seed.  The mode-order tie-break keeps the winner never worse than the
    plain proximity run on the configured objective.  When every mode leaves
    a vehicle without a stamp the first-ranked run is still returned;
    callers check complete.
    """
    finished = {} if finished is None else finished
    floored = instance.objective in _NON_NEGATIVE
    ranked: list[tuple[tuple, DispatchResult]] = []
    paused: list[tuple[int, Mode, Iterator[DispatchResult | None], bool]] = []

    def replayed(mode: Mode) -> DispatchResult | None:
        earlier = finished.get(mode) or finished.get(Mode.PROXIMITY)
        return earlier and replay_dispatch(earlier, instance, mode, negative_slack)

    def enter(position: int, res: DispatchResult) -> bool:
        """Rank res; whether no other run can outrank it."""
        value = evaluate(instance, res.schedule()) if res.complete else INF
        rank = (res.slot_failures, value, res.hard_violations, position)
        ranked.append((rank, res))
        return floored and rank[:3] == (0, 0, 0)

    for position, mode in enumerate(Mode):
        # A run tried before the start would fail again, so it is not retried.
        retry = mode not in finished and Mode.PROXIMITY not in finished
        res = replayed(mode)
        if res is None:
            run = lazy_dispatch(instance, mode, negative_slack)
            res = next(run)  # the result, or None at the run's signal
            if res is None:
                paused.append((position, mode, run, retry))
                continue
            finished[mode] = res
        if enter(position, res):
            return res
    for position, mode, run, retry in paused:
        res = replayed(mode) if retry else None
        if res is None:
            *_, res = run
            finished[mode] = res
        enter(position, res)
    return min(ranked)[1]  # ranks differ in position, so no two runs compare
