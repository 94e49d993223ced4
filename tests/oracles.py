"""Independent reference computations used by the test suite.

Everything here deliberately avoids the library's own solver paths: the
difference systems are rebuilt from the instance and solved by a plain
fixpoint iteration, orderings are enumerated exhaustively, the unit
job-shop optimum comes from a breadth-first search over progress vectors,
the reference dispatch finds each slot by sorting the blocked intervals
of every stamp at the vertex, and the reference LP parser tests every
token of every line afresh.
"""

from __future__ import annotations

import heapq
import itertools
import random
import re
from bisect import insort
from dataclasses import replace
from typing import Iterable

from vsp import (
    INF,
    ConstraintKind,
    DispatchResult,
    ExperimentConfig,
    GridSpec,
    Instance,
    MipModel,
    MipRow,
    Mode,
    ObjectiveKind,
    Schedule,
    SlotWindowError,
    VehicleStatus,
    Violation,
    VspError,
    conflict_pairs,
    evaluate,
    generate_grid_instance,
    solve_exact,
    sorting_key,
)
from vsp.exact import SolveStatus

Triple = tuple[int, int, int]  # t[x] - t[y] >= c over variable ids

# Decoded JSON values that no reader may take as a tick.
BAD_TICKS = (0.7, "1", float("nan"), True, False)


class Tick(int):
    """An int subclass other than bool, which every check takes as a tick."""


def merge_instance(
    d_soft: tuple = (200, 200),
    d_hard: tuple = (INF, INF),
    gap: int = 5,
    weights: tuple | None = None,
    objective: ObjectiveKind = ObjectiveKind.TARDY_COUNT,
) -> Instance:
    """Two vehicles on (A,C) and (B,C) meeting at C, link minimum 50."""
    from vsp import Graph, Walk

    return Instance(
        graph=Graph(3, frozenset({(0, 2), (1, 2)})),
        walks=(Walk((0, 2), (50,), (INF,)), Walk((1, 2), (50,), (INF,))),
        request_times=(0, 0),
        soft_deadlines=d_soft,
        hard_deadlines=d_hard,
        separations={(0, 1, 1, 1): gap},
        objective=objective,
        weights=weights,
    )


def blocked_instance() -> Instance:
    """merge_instance with both links fixed at exactly 50: dispatch stamps
    both vehicles at C at 50, so every mode leaves vehicle 1 without a slot,
    though starting vehicle 1 five ticks later fits."""
    inst = merge_instance(d_soft=(INF, INF))
    return replace(inst, walks=tuple(replace(w, max_times=(50,)) for w in inst.walks))


def brute_force_separation_violations(
    instance: Instance, schedule: Schedule
) -> list[Violation]:
    """Every same-vertex stamp pair of distinct vehicles checked against
    instance.gap, with no window: the violations ordered by the vertex's
    first visit (vehicles, then steps, in order), then (j1, i1), then
    (j2, i2), lower vehicle id first."""
    rank: dict[int, int] = {}
    for walk in instance.walks:
        for v in walk.vertices:
            rank.setdefault(v, len(rank))
    found = []
    for j1, w1 in enumerate(instance.walks):
        for j2 in range(j1 + 1, instance.n_vehicles):
            for i1, v in enumerate(w1.vertices):
                for i2, u in enumerate(instance.walks[j2].vertices):
                    if u != v:
                        continue
                    s = instance.gap(j1, i1, j2, i2)
                    apart = abs(schedule.times[j1][i1] - schedule.times[j2][i2])
                    if apart < s:
                        found.append((rank[v], j1, i1, j2, i2, apart, s, v))
    return [
        Violation(
            ConstraintKind.SEPARATION, (j1, j2), (i1, i2),
            f"vehicles {j1} (step {i1}) and {j2} (step {i2}) are {apart} apart "
            f"at vertex {v}, need {s}",
        )
        for _, j1, i1, j2, i2, apart, s, v in sorted(found)
    ]


def naive_chain_violations(
    instance: Instance, schedule: Schedule
) -> list[Violation]:
    """The request time, continuity, link-window and hard-deadline
    violations of every vehicle, checked link by link, in the order and
    wording of validate_schedule."""
    found = []
    for j, walk in enumerate(instance.walks):
        row = schedule.times[j]
        request, hard = instance.request_times[j], instance.hard_deadlines[j]
        if row[0] < request:
            found.append(Violation(
                ConstraintKind.REQUEST_TIME, (j,), (0,),
                f"vehicle {j} starts at {row[0]} before request time {request}",
            ))
        for i, (here, there) in enumerate(zip(row, row[1:])):
            if there < here:
                found.append(Violation(
                    ConstraintKind.CONTINUITY, (j,), (i, i + 1),
                    f"vehicle {j}: stamp {there} at step {i + 1} precedes "
                    f"stamp {here} at step {i}",
                ))
            lo, hi = walk.min_times[i], walk.max_times[i]
            if not lo <= there - here <= hi:
                found.append(Violation(
                    ConstraintKind.TRAVEL_TIME, (j,), (i,),
                    f"vehicle {j} link {i}: travel time {there - here} outside "
                    f"[{lo},{hi}]",
                ))
        if row[-1] > hard:
            found.append(Violation(
                ConstraintKind.HARD_DEADLINE, (j,), (len(walk) - 1,),
                f"vehicle {j} completes at {row[-1]} after hard deadline {hard}",
            ))
    return found


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


def reference_dispatch(
    instance: Instance, mode: Mode, negative_slack: str = "prose"
) -> DispatchResult:
    """run_dispatch's event loop with each slot found by
    earliest_feasible_slot over every stamp already at the vertex: no
    max_gap window and no early stop.  Its sorts hold the instance, the
    initial order and the sorted keys of each group of more than one
    vehicle with its popped stamp, as run_dispatch records them."""
    n = instance.n_vehicles
    walks = instance.walks
    key = sorting_key(instance, mode, negative_slack)
    times: list[list[int]] = [[] for _ in range(n)]
    statuses = [VehicleStatus.COMPLETED] * n
    heap: list[int] = []
    waiting: dict[int, list[int]] = {}
    assigned: dict[int, list[tuple[int, int, int]]] = {}
    sorted_groups: list[tuple[int, list[tuple]]] = []

    def current_key(j: int):
        k = len(times[j])
        return key(j, k, times[j][-1] if k else instance.request_times[j])

    def place(j: int, lower: int, upper: int | float) -> None:
        step = len(times[j])
        node = walks[j].vertices[step]
        entries = assigned.setdefault(node, [])
        blockers = [
            (stamp, instance.gap(j, step, other, other_step))
            for stamp, other, other_step in entries
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

    order = sorted(range(n), key=current_key)
    for j in order:
        place(j, instance.request_times[j], INF)
    while heap:
        t = heapq.heappop(heap)
        groups: dict[int, list[int]] = {}
        for j in waiting.pop(t):
            groups.setdefault(walks[j].vertices[len(times[j])], []).append(j)
        for group in groups.values():
            group = sorted(group, key=current_key)
            if len(group) > 1:
                sorted_groups.append((t, [current_key(j) for j in group]))
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
        mode, tuple(tuple(row) for row in times), tuple(statuses),
        (instance, order, sorted_groups),
    )


def eager_best(inst: Instance, runs: Iterable[DispatchResult]) -> DispatchResult:
    """The run min ranks first over all finished runs, as best-of-three did
    before it learnt to stop drawing and to pause runs."""
    order = list(Mode)

    def rank(run: DispatchResult) -> tuple:
        value = evaluate(inst, run.schedule()) if run.complete else INF
        return (run.slot_failures, value, run.hard_violations, order.index(run.mode))
    return min(runs, key=rank)


_SECTIONS = {
    "minimize": "objective",
    "subject to": "rows",
    "bounds": "bounds",
    "binaries": "binaries",
    "end": "end",
}
_NUMBER = re.compile(r"[-+]?(\d+(\.\d*)?|\.\d+)([eE][-+]?\d+)?$")
_NAME = re.compile(r"[A-Za-z_]\w*$")


def _parse_number(token: str) -> float | None:
    if _NUMBER.match(token):
        value = float(token)
        return int(value) if value == int(value) else value
    return None


def _parse_terms(tokens: list[str]) -> dict[str, float]:
    """Terms "[sign] [coef] name", a sign before every term but the first;
    a missing sign, a dangling sign or number, or a bad name raises VspError."""
    coeffs: dict[str, float] = {}
    k = 0
    while k < len(tokens):
        sign = 1.0
        if tokens[k] in ("+", "-"):
            sign = -1.0 if tokens[k] == "-" else 1.0
            k += 1
        elif k:
            raise VspError(f"missing + or - before {tokens[k]!r}")
        value = _parse_number(tokens[k]) if k < len(tokens) else None
        if value is not None:
            k += 1
        if k == len(tokens) or not _NAME.match(tokens[k]):
            raise VspError(f"term without a variable name in {' '.join(tokens)!r}")
        coef = sign if value is None else sign * value
        coeffs[tokens[k]] = coeffs.get(tokens[k], 0.0) + coef
        k += 1
    return coeffs


def reference_parse_lp(text: str) -> MipModel:
    """vsp.parse_lp as it was before its token checks were memoised: every
    token of every line is matched and converted afresh.  Parse LP text
    written by write_lp back into a model.

    Reads only what write_lp writes: the Minimize / Subject To / Bounds /
    Binaries / End sections, comment lines starting with a backslash, one
    constraint per line, and bounds of the forms "lo <= x" and
    "lo <= x <= hi".  Anything else raises VspError.
    """
    objective: dict[str, float] = {}
    rows: list[MipRow] = []
    bounds: dict[str, tuple[float, float]] = {}
    binaries: list[str] = []
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        key = line.lower()
        if key in _SECTIONS:
            section = _SECTIONS[key]
            continue
        if section == "objective":
            body = line.split(":", 1)[1] if ":" in line else line
            objective.update(_parse_terms(body.split()))
        elif section == "rows":
            if ":" not in line:
                raise VspError(f"constraint line without a name: {line!r}")
            name, body = line.split(":", 1)
            tokens = body.split()
            sense_at = next(
                (k for k, tok in enumerate(tokens) if tok in ("<=", ">=", "=")), None
            )
            if sense_at is None or sense_at != len(tokens) - 2:
                raise VspError(f"cannot parse constraint: {line!r}")
            rhs = _parse_number(tokens[-1])
            if rhs is None:
                raise VspError(f"constraint has non-numeric rhs: {line!r}")
            rows.append(MipRow(
                name.strip(), _parse_terms(tokens[:sense_at]), tokens[sense_at], rhs,
            ))
        elif section == "bounds":
            tokens = line.split()
            lo = _parse_number(tokens[0])
            if len(tokens) == 3 and tokens[1] == "<=" and lo is not None:
                bounds[tokens[2]] = (lo, INF)
            elif (
                len(tokens) == 5 and tokens[1] == tokens[3] == "<=" and lo is not None
                and (hi := _parse_number(tokens[4])) is not None
            ):
                bounds[tokens[2]] = (lo, hi)
            else:
                raise VspError(f"cannot parse bound: {line!r}")
        elif section == "binaries":
            binaries.extend(line.split())
        elif section == "end":
            raise VspError(f"content after End: {line!r}")
        else:
            raise VspError(f"content before any section: {line!r}")
    return MipModel(objective, tuple(rows), bounds, tuple(binaries))


def chain_instance(
    d_soft: int | float = INF,
    d_hard: int | float = INF,
    link_min: int = 50,
    n_links: int = 2,
) -> Instance:
    """One vehicle walking a simple path."""
    from vsp import Graph, Walk

    vertices = tuple(range(n_links + 1))
    edges = frozenset((i, i + 1) for i in range(n_links))
    return Instance(
        graph=Graph(n_links + 1, edges),
        walks=(Walk(vertices, (link_min,) * n_links, (INF,) * n_links),),
        request_times=(0,),
        soft_deadlines=(d_soft,),
        hard_deadlines=(d_hard,),
    )


def var_layout(instance: Instance) -> list[int]:
    """Variable id of each vehicle's first stamp; id 0 is the origin."""
    offsets = []
    next_id = 1
    for walk in instance.walks:
        offsets.append(next_id)
        next_id += len(walk)
    return offsets


def base_triples(instance: Instance) -> tuple[list[Triple], int]:
    offsets = var_layout(instance)
    n_vars = 1 + instance.total_stamps
    cons: list[Triple] = []
    for j, walk in enumerate(instance.walks):
        first = offsets[j]
        last = offsets[j] + len(walk) - 1
        cons.append((first, 0, instance.request_times[j]))
        if instance.hard_deadlines[j] != INF:
            cons.append((0, last, -int(instance.hard_deadlines[j])))
        for i in range(len(walk) - 1):
            cons.append((first + i + 1, first + i, walk.min_times[i]))
            if walk.max_times[i] != INF:
                cons.append((first + i, first + i + 1, -int(walk.max_times[i])))
    return cons, n_vars


def ordering_triples(instance: Instance, bits: tuple[bool, ...]) -> list[Triple]:
    """Crossing-order constraints; bit True puts the lower-id vehicle first."""
    offsets = var_layout(instance)
    cons = []
    for ((j1, i1, j2, i2), s), j1_first in zip(conflict_pairs(instance).items(), bits):
        a = offsets[j1] + i1
        b = offsets[j2] + i2
        cons.append((b, a, s) if j1_first else ((a, b, s)))
    return cons


def naive_minimal_times(n_vars: int, cons: list[Triple]) -> list[int] | None:
    """Plain Bellman-Ford fixpoint; None when a positive cycle exists."""
    dist = [float("-inf")] * n_vars
    dist[0] = 0
    for _ in range(n_vars - 1):
        changed = False
        for x, y, c in cons:
            if dist[y] != float("-inf") and dist[x] < dist[y] + c:
                dist[x] = dist[y] + c
                changed = True
        if not changed:
            return [int(d) for d in dist]
    for x, y, c in cons:
        if dist[y] != float("-inf") and dist[x] < dist[y] + c:
            return None
    return [int(d) for d in dist]


def pair_rows(instance: Instance) -> list[tuple]:
    """One row per conflict pair, as node_bound's bound reads them: (stamp
    variable, stamp variable, gap, vehicle, vehicle, pair key)."""
    offsets = var_layout(instance)
    return [
        (offsets[j1] + i1, offsets[j2] + i2, s, j1, j2, (j1, i1, j2, i2))
        for (j1, i1, j2, i2), s in conflict_pairs(instance).items()
    ]


def clashing_rows(rows: list[tuple], dist: list[int]) -> list[tuple]:
    """The rows whose two stamps are less than their gap apart at dist."""
    return [row for row in rows if abs(dist[row[0]] - dist[row[1]]) < row[2]]


def tardy_of_times(instance: Instance, times: list[int]) -> float:
    offsets = var_layout(instance)
    # Only the weighted objective reads weights; tardy_count counts vehicles.
    weighted = instance.objective is ObjectiveKind.WEIGHTED_TARDY_COUNT
    weights = instance.weights if weighted else (1,) * instance.n_vehicles
    total = 0
    for j, walk in enumerate(instance.walks):
        completion = times[offsets[j] + len(walk) - 1]
        if instance.soft_deadlines[j] != INF and completion > instance.soft_deadlines[j]:
            total += weights[j]
    return total


def brute_force_tardy(
    instance: Instance, fixed: dict[int, bool] | None = None
) -> float | None:
    """Best tardy weight over every crossing order, by full enumeration.

    fixed pins the orientation of some pairs (by index into the canonical
    pair list); the rest are enumerated.  None when every order is
    infeasible.
    """
    pairs = conflict_pairs(instance)
    base, n_vars = base_triples(instance)
    fixed = fixed or {}
    free = [k for k in range(len(pairs)) if k not in fixed]
    best = None
    for combo in itertools.product((True, False), repeat=len(free)):
        bits: list[bool] = [False] * len(pairs)
        for k, value in fixed.items():
            bits[k] = value
        for k, value in zip(free, combo):
            bits[k] = value
        times = naive_minimal_times(
            n_vars, base + ordering_triples(instance, tuple(bits))
        )
        if times is None:
            continue
        value = tardy_of_times(instance, times)
        if best is None or value < best:
            best = value
    return best


def random_small_instance(rng: random.Random, max_pairs: int = 12) -> Instance:
    """Grid instance small enough for exhaustive ordering enumeration."""
    while True:
        n = rng.randint(2, 5)
        side = rng.choice((4, 5))
        ratio = rng.choice((0.95, 1.0, 1.02, 1.05, 1.1, 1.3))
        config = ExperimentConfig(
            n_vehicles=n,
            grid=GridSpec(side, side),
            soft_deadline_ratios=(ratio,),
            hard_deadline_factor=2.2,
            n_instances=1,
            seed=0,
        )
        instance = generate_grid_instance(config, ratio, rng.randrange(2**32))
        if len(conflict_pairs(instance)) <= max_pairs:
            return instance


def shared_vertex_pairs(instance: Instance) -> list[tuple[int, int, int, int]]:
    """Every (j1, i1, j2, i2) pair of stamps of distinct vehicles at one
    vertex, in visit order: the keys a separation override may take."""
    return [
        (j1, i1, j2, i2)
        for steps in instance.visits.values()
        for a, (j1, i1) in enumerate(steps)
        for j2, i2 in steps[a + 1:]
        if j1 != j2
    ]


def random_feasible_times(
    n_vars: int, cons: list[Triple], rng: random.Random
) -> list[int]:
    """A random feasible point of a lower-bound-only system, built by
    inflating every bound and solving the inflated system independently."""
    inflated = [(x, y, c + rng.randint(0, 40)) for x, y, c in cons]
    times = naive_minimal_times(n_vars, inflated)
    assert times is not None, "inflating lower bounds cannot create a cycle"
    return times


def check_triples(times: list[int], cons: list[Triple]) -> bool:
    return all(times[x] - times[y] >= c for x, y, c in cons)


def unit_jsp_min_slots(jobs: tuple[tuple[int, ...], ...]) -> int:
    """Fewest unit slots completing a no-deadline unit job shop (all jobs
    released at zero, waiting allowed), via BFS over progress vectors."""
    start = tuple(0 for _ in jobs)
    goal = tuple(len(job) for job in jobs)
    frontier = {start}
    seen = {start}
    slots = 0
    while goal not in frontier:
        nxt = set()
        for state in frontier:
            ready = [j for j, done in enumerate(state) if done < len(jobs[j])]
            for size in range(1, len(ready) + 1):
                for subset in itertools.combinations(ready, size):
                    machines = [jobs[j][state[j]] for j in subset]
                    if len(set(machines)) != len(machines):
                        continue
                    child = list(state)
                    for j in subset:
                        child[j] += 1
                    child = tuple(child)
                    if child not in seen:
                        seen.add(child)
                        nxt.add(child)
        frontier = nxt
        slots += 1
        assert slots <= sum(len(job) for job in jobs) + 1
    return slots


def exact_makespan(instance: Instance) -> int:
    """Smallest feasible bound on the last stamp, by binary search with the
    exact solver as the feasibility test."""
    check = replace(
        instance,
        objective=ObjectiveKind.TARDY_COUNT,
        soft_deadlines=(INF,) * instance.n_vehicles,
    )

    def feasible(bound: int) -> bool:
        capped = replace(
            check,
            hard_deadlines=tuple(
                min(h, bound) for h in instance.hard_deadlines
            ),
        )
        result = solve_exact(capped)
        assert result.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)
        return result.status is SolveStatus.OPTIMAL

    lo = max(
        instance.request_times[j] + sum(instance.walks[j].min_times)
        for j in range(instance.n_vehicles)
    )
    hi = max(instance.request_times) + sum(
        sum(w.min_times) + (len(w) - 1) for w in instance.walks
    ) + sum(conflict_pairs(instance).values())
    while not feasible(hi):
        hi = 2 * hi + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def scipy_milp_solve(model, time_limit: float | None = None):
    """Solve a parsed LP model with scipy's MILP solver.

    Returns (solved_to_optimality, objective, values) or None when scipy is
    unavailable.
    """
    try:
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint, milp
    except ImportError:
        return None
    names: list[str] = []
    index: dict[str, int] = {}

    def var(name: str) -> int:
        if name not in index:
            index[name] = len(names)
            names.append(name)
        return index[name]

    for name in model.objective:
        var(name)
    for row in model.rows:
        for name in row.coeffs:
            var(name)
    for name in model.bounds:
        var(name)
    for name in model.binaries:
        var(name)

    n = len(names)
    c = np.zeros(n)
    for name, coef in model.objective.items():
        c[index[name]] = coef
    a = np.zeros((len(model.rows), n))
    lb = np.zeros(len(model.rows))
    ub = np.zeros(len(model.rows))
    for k, row in enumerate(model.rows):
        for name, coef in row.coeffs.items():
            a[k, index[name]] = coef
        if row.sense == "<=":
            lb[k], ub[k] = -np.inf, row.rhs
        elif row.sense == ">=":
            lb[k], ub[k] = row.rhs, np.inf
        else:
            lb[k], ub[k] = row.rhs, row.rhs
    lo = np.zeros(n)
    hi = np.full(n, np.inf)
    binary = set(model.binaries)
    integrality = np.zeros(n)
    for name in names:
        k = index[name]
        if name in binary:
            lo[k], hi[k] = 0.0, 1.0
            integrality[k] = 1
        elif name in model.bounds:
            lo[k], hi[k] = model.bounds[name]
    options = {} if time_limit is None else {"time_limit": time_limit}
    result = milp(
        c,
        constraints=LinearConstraint(a, lb, ub),
        integrality=integrality,
        bounds=Bounds(lo, hi),
        options=options,
    )
    if result.status != 0:
        return (False, None, None)
    values = {name: float(result.x[index[name]]) for name in names}
    return (True, float(result.fun), values)
