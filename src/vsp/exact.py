"""Exact minimisation of the (weighted) tardy-vehicle count.

Every pair of stamps tied by a positive separation gap must cross in one of
two orders.  Fixing some orders leaves a pure difference system whose
componentwise-minimal stamps are longest paths from an origin; once no pair
clashes at them they are a schedule, and the best one below, because
tardiness flags only ever grow with time.  So a branch-and-bound over the
orders of clashing pairs yields the exact optimum.  The search starts from
the crossing orders of the best-of-three dispatch schedule, and adds to each
node's tardy weight a vertex cover over the vehicles that cannot both be on
time.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import tee
from typing import Callable, Mapping, Sequence

from .core import INF, ConfigurationError, Instance, Schedule, SeparationKey, VspError
from .core import conflict_pairs, is_real, is_tick_or_inf, tardy_weights
from .heuristics import deadline_and_proximity

NEG_INF = float("-inf")


@dataclass(frozen=True)
class Constraint:
    """t[x] - t[y] >= bound, over system variable ids."""

    x: int
    y: int
    bound: int
    label: str


class DifferenceConstraintSystem:
    """Lower/upper stamp bounds as a single difference system.

    Variable 0 is an origin fixed at zero; variable ids for stamps follow in
    walk order.  The base constraints encode request times, hard deadlines,
    and per-link travel windows; the crossing order of a conflict pair is
    pushed on top as an order_constraint and popped when undone.
    out_edges[y] lists the constraints that start at variable y, the
    adjacency the longest-path relaxation walks.  An integer-tick horizon
    bounds every vehicle's last stamp; None or inf sets no bound, and any
    other horizon raises ConfigurationError.
    """

    def __init__(self, instance: Instance, horizon: int | float | None = None):
        if horizon is not None and not is_tick_or_inf(horizon):
            raise ConfigurationError(f"horizon must be an integer tick, got {horizon!r}")
        self.instance = instance
        self._offsets: list[int] = []
        next_id = 1
        for walk in instance.walks:
            self._offsets.append(next_id)
            next_id += len(walk)
        self.n_vars = next_id
        self.out_edges: list[list[Constraint]] = [[] for _ in range(self.n_vars)]
        for j, walk in enumerate(instance.walks):
            first = self.var(j, 0)
            last = self.var(j, len(walk) - 1)
            self.add(first, 0, instance.request_times[j], f"request v{j}")
            if instance.hard_deadlines[j] != INF:
                self.add(0, last, -instance.hard_deadlines[j], f"hard_deadline v{j}")
            for i in range(len(walk) - 1):
                u, v = self.var(j, i), self.var(j, i + 1)
                self.add(v, u, walk.min_times[i], f"min_time v{j} link{i}")
                if walk.max_times[i] != INF:
                    self.add(u, v, -walk.max_times[i], f"max_time v{j} link{i}")
            if horizon is not None and horizon != INF:
                self.add(0, last, -horizon, f"horizon v{j}")

    def var(self, j: int, i: int) -> int:
        return self._offsets[j] + i

    def add(self, x: int, y: int, bound: int, label: str) -> None:
        self.push(Constraint(x, y, int(bound), label))

    def push(self, c: Constraint) -> None:
        self.out_edges[c.y].append(c)

    def pop(self, c: Constraint) -> None:
        """Remove c, the last constraint pushed from c.y."""
        self.out_edges[c.y].pop()

    def order_constraint(self, key: SeparationKey, s: int, j1_first: bool) -> Constraint:
        """s ticks from one stamp of the pair key = (j1, i1, j2, i2) to the
        other; vehicle j1's stamp is the earlier one when j1_first."""
        j1, i1, j2, i2 = key
        (ja, ia), (jb, ib) = ((j1, i1), (j2, i2)) if j1_first else ((j2, i2), (j1, i1))
        label = f"separation v{ja}@{ia} before v{jb}@{ib}"
        return Constraint(self.var(jb, ib), self.var(ja, ia), s, label)

    def to_schedule(self, times: tuple[int, ...]) -> Schedule:
        walks = self.instance.walks
        return Schedule([times[off:off + len(w)] for off, w in zip(self._offsets, walks)])


@dataclass(frozen=True)
class DcsSolution:
    feasible: bool
    times: tuple[int, ...] | None
    witness: tuple[Constraint, ...] | None


def _relax(
    out_edges: list[list[Constraint]],
    dist: list[float],
    pred: list[Constraint | None],
    start: int,
) -> int | None:
    """Raise dist in place to the least solution above it, from start on.

    dist[start] has just been raised, and every constraint that does not
    leave start already holds.  Variables wait in a FIFO queue, at most once
    at a time; pred[v] records the constraint that last raised v.  Returns
    None at the fixpoint, or the variable at which a positive cycle showed:
    the origin (which starts at 0) once it rises, or any variable queued
    more than n_vars times.  Started from the origin, that variable's predecessor
    chain runs into the cycle.
    """
    n = len(dist)
    queued = [False] * n
    queued[start] = True
    pushes = [0] * n
    queue = deque([start])
    while queue:
        u = queue.popleft()
        queued[u] = False
        du = dist[u]
        for c in out_edges[u]:
            v = c.x
            if dist[v] < du + c.bound:
                dist[v] = du + c.bound
                pred[v] = c
                if v == 0:
                    return 0
                if not queued[v]:
                    pushes[v] += 1
                    if pushes[v] > n:
                        return v
                    queued[v] = True
                    queue.append(v)
    return None


def minimal_times(dcs: DifferenceConstraintSystem) -> DcsSolution:
    """Componentwise-minimal solution of the system, or a positive cycle.

    Longest paths from the origin; the system is infeasible exactly when a
    positive-total cycle of constraints exists, and that cycle is returned
    as a certificate.
    """
    n = dcs.n_vars
    dist: list[float] = [NEG_INF] * n
    dist[0] = 0
    pred: list[Constraint | None] = [None] * n
    on_cycle = _relax(dcs.out_edges, dist, pred, 0)
    if on_cycle is None:
        if NEG_INF in dist:
            raise VspError("system has a variable unreachable from the origin")
        return DcsSolution(True, tuple(int(d) for d in dist), None)
    # Walk predecessors until a vertex repeats; the repeat closes the cycle.
    seen: dict[int, int] = {}
    chain: list[Constraint] = []
    u = on_cycle
    while u not in seen:
        seen[u] = len(chain)
        c = pred[u]
        if c is None:
            raise VspError("predecessor chain broke while extracting a cycle")
        chain.append(c)
        u = c.y
    return DcsSolution(False, None, tuple(reversed(chain[seen[u]:])))


def _min_cover(
    adjacency: dict[int, set[int]],
    weights: Sequence[float],
    limit: float,
    deadline: float | None = None,
) -> float:
    """min(least weight of a vertex cover of the graph, limit), or a lower
    bound on it once time.monotonic() passes deadline.

    adjacency maps each vertex with an edge to its neighbours.  Branches on
    the vertex of highest degree (lowest id on ties): either it joins the
    cover, or all of its neighbours do.  A branch stops once its weight
    reaches the limit, so the work follows the limit, not the graph size.
    It also stops once an edge packing reaches the limit: when each edge in
    turn pays what both its ends have left, the total paid is at most the
    weight of any cover (LP duality).  Past the deadline a branch returns
    that packing value instead of branching.
    """
    if limit <= 0:
        return limit
    if not adjacency:
        return 0
    left = {v: weights[v] for v in adjacency}
    paid = 0
    for v, nbrs in adjacency.items():
        for x in nbrs:
            if x > v and (y := min(left[v], left[x])) > 0:
                left[v] -= y
                left[x] -= y
                paid += y
    if paid >= limit:
        return limit
    if deadline is not None and time.monotonic() > deadline:
        return paid
    u = max(adjacency, key=lambda v: (len(adjacency[v]), -v))

    def without(removed: set[int]) -> dict[int, set[int]]:
        return {
            v: rest
            for v, nbrs in adjacency.items()
            if v not in removed and (rest := nbrs - removed)
        }

    taken = weights[u] + _min_cover(
        without({u}), weights, limit - weights[u], deadline
    )
    nbrs = adjacency[u]
    joined = sum(weights[v] for v in nbrs)
    spared = joined + _min_cover(
        without(nbrs | {u}), weights, min(limit, taken) - joined, deadline
    )
    return min(taken, spared)


def scaled_tardy_weights(instance: Instance) -> tuple[list[int], int | None]:
    """tardy_weights as ints over one power-of-two denominator, so that sums
    of them are exact.

    Each float weight equals n / d with d a power of two
    (float.as_integer_ratio); with D the largest such d, the weight becomes
    n * (D // d).  Returns the scaled weights and D, or None in place of D
    when every weight is an int, which is then kept as it is.
    """
    weights = tardy_weights(instance)
    if not any(isinstance(w, float) for w in weights):
        return list(weights), None
    ratios = [w.as_integer_ratio() for w in weights]
    scale = max(d for _, d in ratios)
    return [n * (scale // d) for n, d in ratios], scale


def node_bound(
    dcs: DifferenceConstraintSystem, deadline: float | None = None
) -> Callable[[Sequence[float], float | None, Sequence], float]:
    """The lower bound of the search, over the stamp variables of dcs.

    A node's tardy weight is what its least stamps dist already cost, each
    vehicle weighing its tardy_weights entry.  A stamp's latest on-time
    value is its vehicle's soft deadline (INF when open) minus the minimum
    travel time left after it.  Two vehicles are incompatible at a node when
    neither is tardy at dist and some pair fits in neither order: in both,
    the earlier stamp plus the gap passes the later one's latest on-time
    value.  At most one of the two can end on time below the node, so the
    least weight of a vertex cover of the incompatibility graph adds to the
    tardy weight.  Only a pair that clashes at dist can fit in neither order:
    if dist[b] >= dist[a] + s and b's vehicle is on time, then dist[a] + s <=
    dist[b] <= latest[b], since dist keeps every minimum link time.

    Returns bound(dist, limit, clashing): the tardy weight of dist plus that
    cover weight, capped at limit, the graph read from the rows (stamp
    variable, stamp variable, gap, vehicle, vehicle, pair) of the pairs that
    clash at dist, which it reads only when the tardy weight is below the
    limit.  With limit None it is the tardy weight alone, and no graph is
    built.  Past deadline (a time.monotonic() value) the cover falls back
    to its edge packing, still a lower bound.  Weights are those of
    scaled_tardy_weights, so every sum is an exact int; with float weights,
    bound and limit are in units of 1 / its denominator.
    """
    instance = dcs.instance
    weights, _ = scaled_tardy_weights(instance)
    deadlines = instance.soft_deadlines
    # Latest on-time values by variable id: the origin's, never read, first.
    rest = instance.remaining_minima
    latest = [INF, *(d - t for d, row in zip(deadlines, rest) for t in row)]
    last = [dcs.var(j, len(walk) - 1) for j, walk in enumerate(instance.walks)]

    def bound(dist: Sequence[float], limit: float | None, clashing: Sequence) -> float:
        value = sum(w for var, d, w in zip(last, deadlines, weights) if dist[var] > d)
        if limit is None:
            return value
        if value >= limit:
            return limit
        adjacency: dict[int, set[int]] = {}
        for a, b, s, j1, j2, _ in clashing:
            if (
                dist[a] + s > latest[b]
                and dist[b] + s > latest[a]
                and dist[last[j1]] <= deadlines[j1]
                and dist[last[j2]] <= deadlines[j2]
            ):
                adjacency.setdefault(j1, set()).add(j2)
                adjacency.setdefault(j2, set()).add(j1)
        cover = _min_cover(adjacency, weights, limit - value, deadline)
        return limit if cover >= limit - value else value + cover

    return bound


def _warm_start(
    dcs: DifferenceConstraintSystem, pairs: Mapping[SeparationKey, int]
) -> tuple[int, ...] | None:
    """Least stamps of dcs under the crossing orders of the best-of-three
    schedule; each pair of the gap table pairs gets the one order that
    schedule shows, built here, pushed onto dcs and popped again once the
    stamps are known.

    None when best-of-three leaves a vehicle without stamps, breaks a hard
    deadline, or its orders are infeasible in dcs.
    """
    best = deadline_and_proximity(dcs.instance)
    if not best.complete or best.hard_violations:
        return None
    times = best.times
    chosen = [
        dcs.order_constraint(key, s, times[j1][i1] < times[j2][i2])
        for key, s in pairs.items() for j1, i1, j2, i2 in (key,)
    ]
    for c in chosen:
        dcs.push(c)
    try:
        warm = minimal_times(dcs)
    finally:
        for c in reversed(chosen):
            dcs.pop(c)
    return warm.times if warm.feasible else None


def check_time_limit(time_limit: float | None, name: str = "time limit") -> None:
    """Reject a time limit that is not a real number of seconds >= 0: a
    bool, NaN, a negative number or a string; None and inf mean no limit."""
    if time_limit is not None and not (is_real(time_limit) and time_limit >= 0):
        raise ConfigurationError(f"{name} must be >= 0 seconds, got {time_limit!r}")


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    FEASIBLE_INCUMBENT = "feasible_incumbent"
    INFEASIBLE = "infeasible"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    schedule: Schedule | None
    objective: float | None
    node_count: int
    witness: tuple[Constraint, ...] | None = None
    # The objective once proved optimal.  Else the tardy weight at the
    # root's least stamps plus the root cover, capped at the warm-start
    # incumbent; None when the root is infeasible.
    lower_bound: float | None = None


def solve_exact(
    instance: Instance,
    time_limit: float | None = None,
    horizon: int | float | None = None,
) -> SolveResult:
    """Branch-and-bound over crossing orders for the tardy-count objectives,
    each tardy vehicle costing what core.tardy_weights gives it.

    Each search node fixes the order of some conflict pairs and keeps the
    componentwise-minimal stamps dist of the partial system.  Minimal stamps
    give both feasibility (positive cycle means prune) and a valid lower
    bound, since every completion of the subtree has stamps at least as
    large.  A pair clashes at dist when its two stamps are less than its gap
    apart; a decided pair never clashes.  One pass over the pair table per
    node lists its clashing pairs, for its node_bound and its branching; a
    node whose tardy weight alone reaches the incumbent skips that pass.  A
    node with none is a leaf: dist is a schedule, and none below costs less.
    Otherwise the search branches on the clashing pair with the earliest
    stamp (lowest pair index on ties), building its two order constraints
    there and trying first the one the stamps already satisfy; the first
    incumbent found at a given value is kept.  A child's stamps are its
    parent's, relaxed from the head of its new order constraint.

    The first incumbent is the least solution of the same system under the
    crossing orders of the best-of-three dispatch schedule, when that
    schedule is complete and meets every hard deadline, so the returned
    schedule is always componentwise-minimal for its orders.  Once there is
    an incumbent, a node is also pruned when its bound reaches it.  Bounds
    and incumbents are exact ints, float weights scaled as
    scaled_tardy_weights does, and compared with no tolerance; the
    objective and lower bound are divided back once, after the search.

    The search keeps one stack of tasks, so its depth is not bounded by the
    interpreter's recursion limit.  It is single-threaded and deterministic.
    With a time limit in seconds (inf for none; NaN or negative raises
    ConfigurationError) the best incumbent so far is returned once the
    budget runs out, as optimal if the root bound meets it; the limit also
    stops the cover search of the bound.  The horizon is that of
    DifferenceConstraintSystem.
    """
    check_time_limit(time_limit)
    deadline = None if time_limit is None else time.monotonic() + time_limit
    pairs = conflict_pairs(instance)
    dcs = DifferenceConstraintSystem(instance, horizon=horizon)
    bound = node_bound(dcs, deadline)
    root = minimal_times(dcs)
    if not root.feasible:
        return SolveResult(SolveStatus.INFEASIBLE, None, None, 1, root.witness)

    # Per pair: the row bound reads, ending in the pair's key, whose orders
    # branching builds where it reads them.
    table = [
        (dcs.var(j1, i1), dcs.var(j2, i2), s, j1, j2, key)
        for key, s in pairs.items() for j1, i1, j2, i2 in (key,)
    ]
    # The relaxation records predecessors; the search never reads them.
    scratch_pred: list[Constraint | None] = [None] * dcs.n_vars

    best_obj: float | None = None
    best_dist: Sequence[float] | None = None
    warm = _warm_start(dcs, pairs)
    if warm is not None:
        best_dist, best_obj = warm, bound(warm, None, ())

    nodes = 0
    stopped = False
    # Depth first.  A task is a node to enter, as (parent stamps, the order
    # constraint leading to it or None at the root), or a pushed order
    # constraint, popped once its subtree is done.
    tasks: list = [(root.times, None)]
    while tasks:
        task = tasks.pop()
        if isinstance(task, Constraint):
            dcs.pop(task)
            continue
        dist, c = task
        if c is not None:
            dcs.push(c)
            tasks.append(c)
            # The child's least stamps: the parent's, relaxed from c's head.
            raised = dist[c.y] + c.bound
            if dist[c.x] < raised:
                dist = list(dist)
                dist[c.x] = raised
                if _relax(dcs.out_edges, dist, scratch_pred, c.x) is not None:
                    continue
        nodes += 1
        # The root's bound is the lower bound until the search proves one: it
        # has a cover even without an incumbent, and it is taken even once
        # the time has run out.
        limit = INF if c is None and best_obj is None else best_obj
        # bound reads the scan only once the tardy weight is below the limit.
        scan, clashing = tee(
            row for row in table if abs(dist[row[0]] - dist[row[1]]) < row[2]
        )
        value = bound(dist, limit, scan)
        if c is None:
            lower_bound = value
        if deadline is not None and time.monotonic() > deadline:
            stopped = True
            break
        if best_obj is not None and value >= best_obj:
            continue
        clashes = list(clashing)  # the rows bound read, or the whole scan
        if not clashes:
            # No clashing pair, no cover edge: value is dist's tardy weight.
            best_obj, best_dist = value, dist
            continue
        a, b, s, _, _, key = min(clashes, key=lambda r: min(dist[r[0]], dist[r[1]]))
        # The order the stamps already satisfy goes on top.
        for j1_first in (dist[a] > dist[b], dist[a] <= dist[b]):
            tasks.append((dist, dcs.order_constraint(key, s, j1_first)))

    if best_dist is None:
        status = SolveStatus.BUDGET_EXHAUSTED if stopped else SolveStatus.INFEASIBLE
    elif stopped and best_obj > lower_bound:
        status = SolveStatus.FEASIBLE_INCUMBENT
    else:  # searched to the end, or stopped where the bound meets the incumbent
        status, lower_bound = SolveStatus.OPTIMAL, best_obj
    _, scale = scaled_tardy_weights(instance)
    if scale is not None:
        lower_bound /= scale
        best_obj = None if best_obj is None else best_obj / scale
    schedule = None if best_dist is None else dcs.to_schedule(tuple(best_dist))
    return SolveResult(status, schedule, best_obj, nodes, lower_bound=lower_bound)
