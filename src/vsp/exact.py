"""Exact minimisation of the (weighted) tardy-vehicle count.

Every pair of stamps tied by a positive separation gap must cross in one of
two orders.  Fixing some orders leaves a pure difference system whose
componentwise-minimal stamps are longest paths from an origin; once no pair
clashes at them they are a schedule, and the best one below, because
tardiness flags only ever grow with time.  So a branch-and-bound over the
orders of clashing pairs yields the exact optimum.  The search starts from
the best-of-three dispatch schedule, the least stamps under its own crossing
orders, and adds to each node's tardy weight a vertex cover over the
vehicles that cannot both be on time.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain, tee
from typing import Callable, Sequence

from .core import INF, ConfigurationError, Instance, Schedule, VspError
from .core import conflict_pairs, is_real, is_tick_or_inf, tardy_weights
from .heuristics import deadline_and_proximity

NEG_INF = float("-inf")


@dataclass(frozen=True)
class Constraint:
    """t[x] - t[y] >= bound, over system variable ids, as a witness shows it."""

    x: int
    y: int
    bound: int
    label: str


class DifferenceConstraintSystem:
    """Lower/upper stamp bounds as a single difference system.

    Variable 0 is an origin fixed at zero; variable ids for stamps follow in
    walk order.  A constraint t[x] - t[y] >= bound is the int triple
    (x, y, bound), kept in out_edges[y] as the pair (x, bound): the
    adjacency the longest-path relaxation walks.  The base constraints
    encode request times, per-link travel windows and one deadline per
    vehicle, the least of its hard deadline and the horizon; the crossing
    order of a conflict pair is pushed on top and popped when undone.  An
    integer-tick horizon bounds every vehicle's last stamp; None or inf sets
    no bound, and any other horizon raises ConfigurationError.
    """

    def __init__(self, instance: Instance, horizon: int | float | None = None):
        if horizon is not None and not is_tick_or_inf(horizon):
            raise ConfigurationError(f"horizon must be an integer tick, got {horizon!r}")
        self.instance = instance
        self.horizon = INF if horizon is None else horizon
        *self._offsets, self.n_vars = accumulate(map(len, instance.walks), initial=1)
        out = self.out_edges = [[] for _ in range(self.n_vars)]
        for j, (walk, first) in enumerate(zip(instance.walks, self._offsets)):
            last = first + len(walk) - 1
            out[0].append((first, instance.request_times[j]))
            if (deadline := min(instance.hard_deadlines[j], self.horizon)) != INF:
                out[last].append((0, -int(deadline)))
            for u, lo, hi in zip(range(first, last), walk.min_times, walk.max_times):
                out[u].append((u + 1, lo))
                if hi != INF:
                    out[u + 1].append((u, -hi))

    def var(self, j: int, i: int) -> int:
        return self._offsets[j] + i

    def push(self, c: tuple[int, int, int]) -> None:
        x, y, bound = c
        self.out_edges[y].append((x, bound))

    def pop(self, c: tuple[int, int, int]) -> None:
        """Remove c, the last constraint pushed from c's y."""
        self.out_edges[c[1]].pop()

    def constraint(self, x: int, y: int) -> Constraint:
        """The constraint from y to x, labelled by what it encodes."""
        bound = max(b for v, b in self.out_edges[y] if v == x)
        jx, jy = (bisect_right(self._offsets, v) - 1 for v in (x, y))
        ix, iy = x - self._offsets[jx], y - self._offsets[jy]
        if y == 0:
            label = f"request v{jx}"
        elif x == 0:
            hard = self.instance.hard_deadlines[jy]
            label = f"{'horizon' if self.horizon < hard else 'hard_deadline'} v{jy}"
        elif jx == jy:
            kind, link = ("min_time", iy) if ix == iy + 1 else ("max_time", ix)
            label = f"{kind} v{jx} link{link}"
        else:
            label = f"separation v{jy}@{iy} before v{jx}@{ix}"
        return Constraint(x, y, bound, label)

    def to_schedule(self, times: tuple[int, ...]) -> Schedule:
        walks = self.instance.walks
        return Schedule([times[off:off + len(w)] for off, w in zip(self._offsets, walks)])


@dataclass(frozen=True)
class DcsSolution:
    feasible: bool
    times: tuple[int, ...] | None
    witness: tuple[Constraint, ...] | None


def _relax(
    out_edges: list[list[tuple[int, int]]],
    dist: list[float],
    pred: list[int | None],
    start: int,
) -> int | None:
    """Raise dist in place to the least solution above it, from start on.

    dist[start] has just been raised, and every constraint that does not
    leave start already holds.  Variables wait in a FIFO queue, at most once
    at a time; pred[v] records the tail of the edge that last raised v.
    Returns None at the fixpoint, or the variable at which a positive cycle
    showed: the origin (which starts at 0) once it rises, or any variable
    queued more than n_vars times.  Started from the origin, that
    variable's predecessor chain runs into the cycle.
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
        for v, bound in out_edges[u]:
            if dist[v] < du + bound:
                dist[v] = du + bound
                pred[v] = u
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
    as a certificate, each of its constraints labelled by dcs.constraint.
    """
    n = dcs.n_vars
    dist: list[float] = [NEG_INF] * n
    dist[0] = 0
    pred: list[int | None] = [None] * n
    on_cycle = _relax(dcs.out_edges, dist, pred, 0)
    if on_cycle is None:
        if NEG_INF in dist:
            raise VspError("system has a variable unreachable from the origin")
        return DcsSolution(True, tuple(int(d) for d in dist), None)
    # Walk predecessors until a variable repeats; the repeat closes the cycle.
    seen: dict[int, int] = {}
    chain: list[int] = []
    u = on_cycle
    while u not in seen:
        seen[u] = len(chain)
        chain.append(u)
        u = pred[u]
        if u is None:
            raise VspError("predecessor chain broke while extracting a cycle")
    cycle = reversed(chain[seen[u]:])
    return DcsSolution(False, None, tuple(dcs.constraint(x, pred[x]) for x in cycle))


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
    variable, stamp variable, gap, vehicle, vehicle) of the pairs that clash
    at dist, which it reads only when the tardy weight is below the
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
        for a, b, s, j1, j2 in clashing:
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


def _warm_start(dcs: DifferenceConstraintSystem) -> tuple[int, ...] | None:
    """The best-of-three dispatch stamps D by variable id, the origin first.

    D is the least solution L of dcs under the crossing orders it shows.
    Dispatch gives each stamp the least tick at or past its lower bound (the
    request time, or the popped stamp plus the link minimum) outside every
    interval (u - s, u + s) of the stamps already at its vertex, so each
    stamp is tight on a constraint whose tail was placed earlier: the
    origin, its own previous stamp, or u + s under D's crossing order.  By
    induction over placement order L >= D; D meets every constraint, so
    L <= D.  None when best-of-three leaves a vehicle without stamps,
    breaks a hard deadline, or ends a vehicle past the horizon of dcs.
    """
    best = deadline_and_proximity(dcs.instance)
    if (not best.complete or best.hard_violations
            or any(row[-1] > dcs.horizon for row in best.times)):
        return None
    return (0, *chain.from_iterable(best.times))


def check_time_limit(time_limit: float | None, name: str = "time limit") -> None:
    """Reject a time limit that is not a real number of seconds >= 0 that a
    float holds: a bool, NaN, a negative number, a string or an int past
    the float range such as 10**400; None and inf mean no limit."""
    if time_limit is not None and not (
        is_real(time_limit) and (time_limit == INF or 0 <= time_limit <= sys.float_info.max)
    ):
        raise ConfigurationError(
            f"{name} must be >= 0 seconds and fit a float, got {time_limit!r}"
        )


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
    stamp (lowest pair index on ties), stacking its two order triples and
    trying first the one the stamps already satisfy; the first
    incumbent found at a given value is kept.  A child's stamps are its
    parent's, relaxed from the head of its new order constraint.

    The first incumbent is the best-of-three dispatch schedule, when it is
    complete and meets every hard deadline and the horizon.  It is the
    least solution under its own crossing orders (see _warm_start), so the
    returned schedule is always componentwise-minimal for its orders.  Once
    there is an incumbent, a node is also pruned when its bound reaches it.
    Bounds and incumbents are exact ints, float weights scaled as
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

    # Per pair: the row bound reads, (stamp, stamp, gap, vehicle, vehicle).
    table = [
        (dcs.var(j1, i1), dcs.var(j2, i2), s, j1, j2)
        for (j1, i1, j2, i2), s in pairs.items()
    ]
    # The relaxation records predecessors; the search never reads them.
    scratch_pred: list[int | None] = [None] * dcs.n_vars

    best_obj: float | None = None
    best_dist: Sequence[float] | None = None
    warm = _warm_start(dcs)
    if warm is not None:
        best_dist, best_obj = warm, bound(warm, None, ())

    nodes = 0
    stopped = False
    # Depth first.  A task is a node to enter, as (parent stamps, the order
    # triple leading to it or None at the root), or (None, a pushed order
    # triple), popped once its subtree is done.
    tasks: list = [(root.times, None)]
    while tasks:
        dist, c = tasks.pop()
        if dist is None:
            dcs.pop(c)
            continue
        if c is not None:
            dcs.push(c)
            tasks.append((None, c))
            # The child's least stamps: the parent's, relaxed from c's head x.
            x, y, s = c
            raised = dist[y] + s
            if dist[x] < raised:
                dist = list(dist)
                dist[x] = raised
                if _relax(dcs.out_edges, dist, scratch_pred, x) is not None:
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
        a, b, s, _, _ = min(clashes, key=lambda r: min(dist[r[0]], dist[r[1]]))
        # Both orders; the one the stamps already satisfy goes on top.
        early, late = (b, a) if dist[a] > dist[b] else (a, b)
        tasks += ((dist, (early, late, s)), (dist, (late, early, s)))

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
