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
from typing import Callable, Sequence

from .core import INF, ConfigurationError, Instance, Schedule, VspError, tardy_weights
from .heuristics import deadline_and_proximity

NEG_INF = float("-inf")


@dataclass(frozen=True)
class ConflictPair:
    """One shared-vertex stamp pair with its required separation.

    The pair is stored once, lower vehicle id first.  Deciding it
    "j1 first" constrains t[j2][i2] - t[j1][i1] >= s; "j2 first" is the
    mirrored constraint.
    """

    j1: int
    i1: int
    j2: int
    i2: int
    s: int


def conflict_pairs(instance: Instance) -> tuple[ConflictPair, ...]:
    """Same-vertex stamp pairs with a positive gap, lower vehicle id first,
    sorted by (j1, i1, j2, i2); zero gaps constrain nothing and are dropped."""
    pairs = [
        ConflictPair(j1, i1, j2, i2, s)
        for steps in instance.visits.values()
        for a, (j1, i1) in enumerate(steps)
        for j2, i2 in steps[a + 1:]
        if (s := instance.gap(j1, i1, j2, i2)) > 0
    ]
    pairs.sort(key=lambda p: (p.j1, p.i1, p.j2, p.i2))
    return tuple(pairs)


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
    adjacency the longest-path relaxation walks.
    """

    def __init__(self, instance: Instance, horizon: int | float | None = None):
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
                self.add(0, last, -int(horizon), f"horizon v{j}")

    def var(self, j: int, i: int) -> int:
        return self._offsets[j] + i

    def add(self, x: int, y: int, bound: int, label: str) -> None:
        self.push(Constraint(x, y, int(bound), label))

    def push(self, c: Constraint) -> None:
        self.out_edges[c.y].append(c)

    def pop(self, c: Constraint) -> None:
        """Remove c, the last constraint pushed from c.y."""
        self.out_edges[c.y].pop()

    def order_constraint(self, pair: ConflictPair, j1_first: bool) -> Constraint:
        """pair.s ticks from one stamp of the pair to the other; the lower-id
        vehicle's stamp is the earlier one when j1_first."""
        a, b = (pair.j1, pair.i1), (pair.j2, pair.i2)
        earlier, later = (a, b) if j1_first else (b, a)
        label = f"separation v{earlier[0]}@{earlier[1]} before v{later[0]}@{later[1]}"
        return Constraint(self.var(*later), self.var(*earlier), pair.s, label)

    def to_schedule(self, times: tuple[int, ...]) -> Schedule:
        rows = []
        for j, walk in enumerate(self.instance.walks):
            off = self._offsets[j]
            rows.append(tuple(times[off:off + len(walk)]))
        return Schedule(tuple(rows))


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
    dcs: DifferenceConstraintSystem,
    pairs: Sequence[ConflictPair],
    deadline: float | None = None,
) -> Callable[[Sequence[float], float | None], float]:
    """The lower bound of the search, over the stamp variables of dcs.

    A node's tardy weight is what its least stamps dist already cost, each
    vehicle weighing its tardy_weights entry.  A stamp's latest on-time
    value is its vehicle's soft deadline minus the minimum travel time left
    after it.  Two vehicles are incompatible at a node when neither is tardy
    at dist and some pair fits in neither order: in both, the earlier stamp
    plus the gap passes the later one's latest on-time value.  At most one
    of the two can end on time below the node, so the least weight of a
    vertex cover of the incompatibility graph adds to the tardy weight.  A
    pair whose order dist already carries gives no edge, since its later
    stamp is at most its latest on-time value.

    Returns bound(dist, limit): the tardy weight of dist plus that cover
    weight, capped at limit.  With limit None it is the tardy weight alone,
    and no graph is built.  Past deadline (a time.monotonic() value) the
    cover falls back to its edge packing, still a lower bound.  Weights are
    those of scaled_tardy_weights, so every sum is an exact int; with float
    weights, bound and limit are in units of 1 / its denominator.
    """
    instance = dcs.instance
    weights, _ = scaled_tardy_weights(instance)
    deadlines = instance.soft_deadlines
    latest: list[float] = [INF] * dcs.n_vars
    last: list[int] = []
    for j, walk in enumerate(instance.walks):
        left = deadlines[j]
        for i in range(len(walk) - 1, -1, -1):
            latest[dcs.var(j, i)] = left
            if i:
                left -= walk.min_times[i - 1]
        last.append(dcs.var(j, len(walk) - 1))
    # Per pair whose vehicles both have a soft deadline: the two stamp
    # variables, the gap and the two vehicles.
    table = [
        (dcs.var(p.j1, p.i1), dcs.var(p.j2, p.i2), p.s, p.j1, p.j2)
        for p in pairs
        if deadlines[p.j1] != INF and deadlines[p.j2] != INF
    ]

    def bound(dist: Sequence[float], limit: float | None) -> float:
        value = sum(w for var, d, w in zip(last, deadlines, weights) if dist[var] > d)
        if limit is None:
            return value
        if value >= limit:
            return limit
        adjacency: dict[int, set[int]] = {}
        for a, b, s, j1, j2 in table:
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
    dcs: DifferenceConstraintSystem,
    pairs: Sequence[ConflictPair],
    orders: Sequence[tuple[Constraint, Constraint]],
) -> tuple[int, ...] | None:
    """Least stamps of dcs under the crossing orders of the best-of-three
    schedule; orders[k] holds pair k's j1-first and j2-first constraints.

    The orders are pushed onto dcs and popped again once the stamps are
    known.  None when best-of-three leaves a vehicle without stamps, breaks
    a hard deadline, or its orders are infeasible in dcs.
    """
    best = deadline_and_proximity(dcs.instance)
    if not best.complete or best.hard_violations:
        return None
    times = best.times
    chosen = [
        j1_first if times[p.j1][p.i1] < times[p.j2][p.i2] else j2_first
        for p, (j1_first, j2_first) in zip(pairs, orders)
    ]
    for c in chosen:
        dcs.push(c)
    try:
        warm = minimal_times(dcs)
    finally:
        for c in reversed(chosen):
            dcs.pop(c)
    return warm.times if warm.feasible else None


def check_time_limit(time_limit: float | None) -> None:
    """Reject a NaN or negative time limit; None and inf mean no limit."""
    if time_limit is not None and not time_limit >= 0:
        raise ConfigurationError(f"time limit must be >= 0 seconds, got {time_limit}")


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
    # Tardy weight at the root's least stamps plus the root cover, capped at
    # the warm-start incumbent; None when the root is infeasible.
    lower_bound: float | None = None


def solve_exact(
    instance: Instance,
    time_limit: float | None = None,
    horizon: int | None = None,
) -> SolveResult:
    """Branch-and-bound over crossing orders for the tardy-count objectives,
    each tardy vehicle costing what core.tardy_weights gives it.

    Each search node fixes the order of some conflict pairs and keeps the
    componentwise-minimal stamps dist of the partial system.  Minimal stamps
    give both feasibility (positive cycle means prune) and a valid lower
    bound, since every completion of the subtree has stamps at least as
    large.  A pair clashes at dist when its two stamps are less than its gap
    apart; a pair with a decided order never clashes.  A node with no
    clashing pair is a leaf: dist is a schedule, and no schedule below costs
    less.  Otherwise the search branches on the clashing pair with the
    earliest stamp (lowest pair index on ties), trying first the order the
    stamps already satisfy; the first incumbent found at a given value is
    kept.  A child's stamps are its parent's, relaxed from the head of the
    new order constraint by the routine minimal_times runs from the origin.

    The first incumbent is the least solution of the same system under the
    crossing orders of the best-of-three dispatch schedule, when that
    schedule is complete and meets every hard deadline, so the returned
    schedule is always componentwise-minimal for its orders.  Once there is
    an incumbent, a node is also pruned when its node_bound reaches it.
    Bounds and incumbents are exact ints, float weights scaled as
    scaled_tardy_weights does, and compared with no tolerance; the
    objective and lower bound are divided back once, after the search.

    The search keeps one stack of tasks, so its depth is not bounded by the
    interpreter's recursion limit.  It is single-threaded and deterministic.
    With a time limit in seconds (inf for none; NaN or negative raises
    ConfigurationError) the best incumbent so far is returned once the
    budget runs out; the limit also stops the cover search of the bound.
    """
    check_time_limit(time_limit)
    deadline = None if time_limit is None else time.monotonic() + time_limit
    pairs = conflict_pairs(instance)
    dcs = DifferenceConstraintSystem(instance, horizon=horizon)
    bound = node_bound(dcs, pairs, deadline)
    root = minimal_times(dcs)
    if not root.feasible:
        return SolveResult(SolveStatus.INFEASIBLE, None, None, 1, root.witness)

    # Per pair: its two stamp variables and gap, and its two order constraints.
    spans = [(dcs.var(p.j1, p.i1), dcs.var(p.j2, p.i2), p.s) for p in pairs]
    orders = [
        (dcs.order_constraint(p, True), dcs.order_constraint(p, False)) for p in pairs
    ]
    # The relaxation records predecessors; the search never reads them.
    scratch_pred: list[Constraint | None] = [None] * dcs.n_vars

    best_obj: float | None = None
    best_dist: Sequence[float] | None = None
    warm = _warm_start(dcs, pairs, orders)
    if warm is not None:
        best_dist, best_obj = warm, bound(warm, None)
    lower_bound = bound(root.times, INF if best_obj is None else best_obj)

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
        if deadline is not None and time.monotonic() > deadline:
            stopped = True
            break
        # The root's is lower_bound, whose cover is 0 if the root is a leaf.
        value = lower_bound if c is None else bound(dist, best_obj)
        if best_obj is not None and value >= best_obj:
            continue
        # (earliest stamp, pair index) of every clashing pair.
        clashes = [
            (min(dist[a], dist[b]), k)
            for k, (a, b, s) in enumerate(spans)
            if abs(dist[a] - dist[b]) < s
        ]
        if not clashes:
            # No clashing pair, no cover edge: value is dist's tardy weight.
            best_obj, best_dist = value, dist
            continue
        _, k = min(clashes)
        j1_first, j2_first = orders[k]
        a, b, _ = spans[k]
        if dist[a] > dist[b]:
            j1_first, j2_first = j2_first, j1_first
        # The order the stamps already satisfy goes on top.
        tasks.append((dist, j2_first))
        tasks.append((dist, j1_first))

    _, scale = scaled_tardy_weights(instance)
    if scale is not None:
        lower_bound /= scale
    if best_dist is None:
        status = SolveStatus.BUDGET_EXHAUSTED if stopped else SolveStatus.INFEASIBLE
        return SolveResult(status, None, None, nodes, lower_bound=lower_bound)
    if scale is not None:
        best_obj /= scale
    status = SolveStatus.FEASIBLE_INCUMBENT if stopped else SolveStatus.OPTIMAL
    return SolveResult(
        status, dcs.to_schedule(tuple(best_dist)), best_obj, nodes,
        lower_bound=lower_bound,
    )
