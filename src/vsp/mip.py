"""Big-M linearisation of the tardy-count model and its LP-file round trip.

The separation disjunction |t1 - t2| >= s becomes an equality splitting the
difference into nonnegative parts P and N plus a binary that forces one part
above s and the other to zero.  A second binary per vehicle, linked through
an earliness slack variable, marks vehicles finishing strictly after their
soft deadline.  Files use the CPLEX LP dialect with Minimize, Subject To,
Bounds and Binaries sections; parsing an emitted file reconstructs the model
row for row.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import INF, Instance, Schedule, VspError, tardy_weights
from .exact import ConflictPair, conflict_pairs


class HorizonError(VspError):
    """No finite bound on the stamps can be derived from the instance."""


def resolve_horizon(instance: Instance, horizon: int | None = None) -> int:
    """Latest stamp any schedule may use: the caller's value, or the largest
    hard deadline when every vehicle has one."""
    if horizon is not None:
        if horizon < max(instance.request_times):
            raise HorizonError(f"horizon {horizon} precedes a request time")
        return int(horizon)
    hard = instance.hard_deadlines
    if any(h == INF for h in hard):
        raise HorizonError(
            "some hard deadlines are infinite; supply an explicit horizon"
        )
    return int(max(hard))


@dataclass(frozen=True)
class BigMValues:
    """Valid big-M constants: one per conflict pair, in conflict_pairs
    order, and one per vehicle with a finite soft deadline."""

    horizon: int
    pair: dict[ConflictPair, int]
    vehicle: dict[int, int]


def big_m_values(instance: Instance, horizon: int | None = None) -> BigMValues:
    """Constants that safely dominate the linearised absolute values.

    For a pair, every stamp lies in [min request, horizon], so the stamp
    difference never exceeds horizon - min(request times) and the largest
    separation gap is added as headroom.  For a vehicle, both the deadline
    gap and the tardiness are bounded by max(horizon, deadline) - request.
    """
    h = resolve_horizon(instance, horizon)
    pairs = conflict_pairs(instance)
    max_gap = max((p.s for p in pairs), default=0)
    pair_m = {
        p: h - min(instance.request_times[p.j1], instance.request_times[p.j2]) + max_gap
        for p in pairs
    }
    vehicle_m = {
        j: int(max(h, instance.soft_deadlines[j]) - instance.request_times[j])
        for j in range(instance.n_vehicles)
        if instance.soft_deadlines[j] != INF
    }
    return BigMValues(h, pair_m, vehicle_m)


@dataclass(frozen=True)
class MipRow:
    name: str
    coeffs: dict[str, float]
    sense: str  # "<=", ">=" or "="
    rhs: float


@dataclass(frozen=True)
class MipModel:
    """Objective, constraint rows, variable bounds and binaries.

    Variables absent from bounds default to [0, +inf), matching the LP
    format convention.
    """

    objective: dict[str, float]
    rows: tuple[MipRow, ...]
    bounds: dict[str, tuple[float, float]]
    binaries: tuple[str, ...]


def _t(j: int, i: int) -> str:
    return f"t_{j}_{i}"


def _pair_suffix(p: ConflictPair) -> str:
    return f"{p.j1}_{p.i1}_{p.j2}_{p.i2}"


def build_mip_model(instance: Instance, horizon: int | None = None) -> MipModel:
    """Assemble the tardy-count model for one instance.

    Emits travel-window rows per link, the five separation rows per conflict
    pair, and the four lateness rows per vehicle with a finite soft
    deadline; request times and hard deadlines become variable bounds.
    Vehicles without a soft deadline can never be tardy and get no lateness
    block.  The binary of a pair equals one exactly when the higher-id
    vehicle of the pair crosses first; a vehicle's tardy binary costs its
    tardy_weights entry in the objective.
    """
    weights = tardy_weights(instance)
    big_m = big_m_values(instance, horizon)

    objective = {
        f"l_{j}": float(weights[j]) for j in sorted(big_m.vehicle)
    }
    rows: list[MipRow] = []
    for j, walk in enumerate(instance.walks):
        for i in range(len(walk) - 1):
            step = {_t(j, i + 1): 1.0, _t(j, i): -1.0}
            rows.append(MipRow(f"tmin_{j}_{i}", dict(step), ">=", walk.min_times[i]))
            if walk.max_times[i] != INF:
                rows.append(MipRow(f"tmax_{j}_{i}", dict(step), "<=", walk.max_times[i]))
    for p in big_m.pair:
        tag = _pair_suffix(p)
        pos, neg, flag = f"P_{tag}", f"N_{tag}", f"b_{tag}"
        m = float(big_m.pair[p])
        rows.append(MipRow(
            f"sep_eq_{tag}",
            {_t(p.j1, p.i1): 1.0, _t(p.j2, p.i2): -1.0, pos: -1.0, neg: 1.0},
            "=", 0,
        ))
        rows.append(MipRow(f"sep_p_lo_{tag}", {pos: 1.0, flag: -float(p.s)}, ">=", 0))
        rows.append(MipRow(f"sep_p_hi_{tag}", {pos: 1.0, flag: -m}, "<=", 0))
        rows.append(MipRow(f"sep_n_lo_{tag}", {neg: 1.0, flag: float(p.s)}, ">=", p.s))
        rows.append(MipRow(f"sep_n_hi_{tag}", {neg: 1.0, flag: m}, "<=", m))
    for j in sorted(big_m.vehicle):
        last = _t(j, len(instance.walks[j]) - 1)
        slack, late = f"X_{j}", f"l_{j}"
        d = float(instance.soft_deadlines[j])
        m = float(big_m.vehicle[j])
        rows.append(MipRow(f"late_lb_{j}", {slack: 1.0, last: 1.0}, ">=", d))
        rows.append(MipRow(f"late_nn_{j}", {slack: 1.0}, ">=", 0))
        rows.append(MipRow(f"late_cap_{j}", {slack: 1.0, late: m}, "<=", m))
        rows.append(MipRow(f"late_link_{j}", {slack: 1.0, last: 1.0, late: -m}, "<=", d))

    bounds: dict[str, tuple[float, float]] = {}
    for j, walk in enumerate(instance.walks):
        lo = float(instance.request_times[j])
        hi = float(min(instance.hard_deadlines[j], big_m.horizon))
        for i in range(len(walk)):
            bounds[_t(j, i)] = (lo, hi)
    binaries = tuple(f"b_{_pair_suffix(p)}" for p in big_m.pair) + tuple(
        f"l_{j}" for j in sorted(big_m.vehicle)
    )
    return MipModel(objective, tuple(rows), bounds, binaries)


def _fmt(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return repr(x)


def _fmt_terms(coeffs: dict[str, float]) -> str:
    parts: list[str] = []
    for name, coef in coeffs.items():
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        body = name if mag == 1 else f"{_fmt(mag)} {name}"
        if not parts:
            parts.append(body if sign == "+" else f"- {body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def write_lp(model: MipModel) -> str:
    """Render a model in the CPLEX LP dialect."""
    lines = ["\\ tardy-count scheduling model", "Minimize"]
    lines.append(f" obj: {_fmt_terms(model.objective)}".rstrip())
    lines.append("Subject To")
    for row in model.rows:
        lines.append(f" {row.name}: {_fmt_terms(row.coeffs)} {row.sense} {_fmt(row.rhs)}")
    lines.append("Bounds")
    for name, (lo, hi) in model.bounds.items():
        if hi == INF:
            lines.append(f" {_fmt(lo)} <= {name}")
        else:
            lines.append(f" {_fmt(lo)} <= {name} <= {_fmt(hi)}")
    if model.binaries:
        lines.append("Binaries")
        lines.append(" " + " ".join(model.binaries))
    lines.append("End")
    return "\n".join(lines) + "\n"


def export_mip(instance: Instance, horizon: int | None = None) -> str:
    """LP text of the tardy-count model for an instance."""
    return write_lp(build_mip_model(instance, horizon))


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


def parse_lp(text: str) -> MipModel:
    """Parse LP text written by write_lp back into a model.

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


def schedule_from_lp_solution(
    instance: Instance, values: dict[str, float]
) -> Schedule:
    """Decode solver variable values back into per-vehicle stamps."""
    rows = []
    for j, walk in enumerate(instance.walks):
        rows.append(tuple(
            int(round(values[_t(j, i)])) for i in range(len(walk))
        ))
    return Schedule(tuple(rows))
