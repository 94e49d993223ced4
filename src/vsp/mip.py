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

import math
import re
from dataclasses import dataclass

from .core import INF, Instance, Schedule, VspError, conflict_pairs
from .core import is_tick, tardy_weights


class HorizonError(VspError):
    """No finite bound on the stamps can be derived from the instance."""


def resolve_horizon(instance: Instance, horizon: int | None = None) -> int:
    """Latest stamp any schedule may use: the caller's value, or the largest
    hard deadline when every vehicle has one.  A horizon that is not an
    integer tick raises HorizonError."""
    if horizon is not None:
        if not is_tick(horizon):
            raise HorizonError(f"horizon must be an integer tick, got {horizon!r}")
        if horizon < max(instance.request_times):
            raise HorizonError(f"horizon {horizon} precedes a request time")
        return int(horizon)
    hard = instance.hard_deadlines
    if any(h == INF for h in hard):
        raise HorizonError(
            "some hard deadlines are infinite; supply an explicit horizon"
        )
    return int(max(hard))


@dataclass(slots=True)
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


def build_mip_model(instance: Instance, horizon: int | None = None) -> MipModel:
    """Assemble the tardy-count model for one instance.

    Emits travel-window rows per link, the five separation rows per conflict
    pair, and the four lateness rows per vehicle with a finite soft
    deadline; request times and hard deadlines become variable bounds.
    Vehicles without a soft deadline can never be tardy and get no lateness
    block.  The binary of a pair equals one exactly when the higher-id
    vehicle of the pair crosses first; a vehicle's tardy binary costs its
    tardy_weights entry in the objective.

    Each big-M is computed beside its rows and safely dominates the value
    it linearises.  Every stamp lies in [min request, h], h the horizon, so
    a pair's stamp difference never exceeds h - min(rho_j1, rho_j2); its M
    adds the largest gap of the pair table as headroom.  A vehicle's
    deadline gap and its tardiness are both bounded by its M,
    max(h, d_j) - rho_j.
    """
    weights = tardy_weights(instance)
    h = resolve_horizon(instance, horizon)
    pairs = conflict_pairs(instance)
    headroom = max(pairs.values(), default=0)
    rho = instance.request_times
    soft = [j for j, d in enumerate(instance.soft_deadlines) if d != INF]

    objective = {f"l_{j}": float(weights[j]) for j in soft}
    # stamps[j][i]: the name of stamp variable t_j_i, built once.
    stamps = [
        [_t(j, i) for i in range(len(walk))] for j, walk in enumerate(instance.walks)
    ]
    rows: list[MipRow] = []
    for j, walk in enumerate(instance.walks):
        names = stamps[j]
        for i, (here, there) in enumerate(zip(names, names[1:])):
            rows.append(MipRow(
                f"tmin_{j}_{i}", {there: 1.0, here: -1.0}, ">=", walk.min_times[i]
            ))
            if walk.max_times[i] != INF:
                rows.append(MipRow(
                    f"tmax_{j}_{i}", {there: 1.0, here: -1.0}, "<=", walk.max_times[i]
                ))
    binaries: list[str] = []
    for (j1, i1, j2, i2), s in pairs.items():
        tag = f"{j1}_{i1}_{j2}_{i2}"
        pos, neg, flag = f"P_{tag}", f"N_{tag}", f"b_{tag}"
        m = float(h - min(rho[j1], rho[j2]) + headroom)
        rows.append(MipRow(
            f"sep_eq_{tag}",
            {stamps[j1][i1]: 1.0, stamps[j2][i2]: -1.0, pos: -1.0, neg: 1.0},
            "=", 0,
        ))
        rows.append(MipRow(f"sep_p_lo_{tag}", {pos: 1.0, flag: -float(s)}, ">=", 0))
        rows.append(MipRow(f"sep_p_hi_{tag}", {pos: 1.0, flag: -m}, "<=", 0))
        rows.append(MipRow(f"sep_n_lo_{tag}", {neg: 1.0, flag: float(s)}, ">=", s))
        rows.append(MipRow(f"sep_n_hi_{tag}", {neg: 1.0, flag: m}, "<=", m))
        binaries.append(flag)
    for j in soft:
        last = stamps[j][-1]
        slack, late = f"X_{j}", f"l_{j}"
        d = float(instance.soft_deadlines[j])
        m = float(max(h, instance.soft_deadlines[j]) - rho[j])
        rows.append(MipRow(f"late_lb_{j}", {slack: 1.0, last: 1.0}, ">=", d))
        rows.append(MipRow(f"late_nn_{j}", {slack: 1.0}, ">=", 0))
        rows.append(MipRow(f"late_cap_{j}", {slack: 1.0, late: m}, "<=", m))
        rows.append(MipRow(f"late_link_{j}", {slack: 1.0, last: 1.0, late: -m}, "<=", d))
        binaries.append(late)

    bounds = {
        name: (float(rho[j]), float(min(instance.hard_deadlines[j], h)))
        for j, names in enumerate(stamps) for name in names
    }
    return MipModel(objective, tuple(rows), bounds, tuple(binaries))


def write_lp(model: MipModel) -> str:
    """Render a model in the CPLEX LP dialect.

    Every number must be finite except an upper bound of +inf, which is
    written as the open bound "lo <= x"; an infinite or NaN coefficient,
    rhs or bound raises VspError naming its row or variable.

    Each distinct number, and each distinct sequence of coefficients, is
    formatted once per call, into dicts local to the call: a sequence
    becomes a template of signs and magnitudes with a slot per name, so a
    later row with the same coefficients costs one lookup and one format.
    """
    numbers: dict[float, str] = {}
    templates: dict[tuple[float, ...], str] = {}

    def fmt(x: float) -> str:
        text = numbers.get(x)
        if text is None:
            text = numbers[x] = str(int(x)) if x == int(x) else repr(x)
        return text

    def terms(coeffs: dict[str, float]) -> str:
        values = tuple(coeffs.values())
        template = templates.get(values)
        if template is None:
            # "[sign] [magnitude] name" per term; the first drops a "+".
            parts: list[str] = []
            for coef in values:
                mag = abs(coef)
                body = "{}" if mag == 1 else fmt(mag) + " {}"
                parts.append(("- " if coef < 0 else "+ " if parts else "") + body)
            template = templates[values] = " ".join(parts)
        return template.format(*coeffs)

    lines = ["\\ tardy-count scheduling model", "Minimize"]
    try:
        lines.append(f" obj: {terms(model.objective)}".rstrip())
    except (OverflowError, ValueError):
        raise VspError("objective has a non-finite coefficient") from None
    lines.append("Subject To")
    for row in model.rows:
        try:
            lines.append(
                f" {row.name}: {terms(row.coeffs)} {row.sense} {fmt(row.rhs)}"
            )
        except (OverflowError, ValueError):
            raise VspError(f"row {row.name} has a non-finite number") from None
    lines.append("Bounds")
    for name, (lo, hi) in model.bounds.items():
        try:
            if hi == INF:
                lines.append(f" {fmt(lo)} <= {name}")
            else:
                lines.append(f" {fmt(lo)} <= {name} <= {fmt(hi)}")
        except (OverflowError, ValueError):
            raise VspError(f"bound on {name} is not finite") from None
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
_SENSES = frozenset(("<=", ">=", "="))
_NUMBER = re.compile(r"[-+]?(\d+(\.\d*)?|\.\d+)([eE][-+]?\d+)?$")
_NAME = re.compile(r"[A-Za-z_]\w*$")
# What _classify makes of a token that is not a finite number.
_IS_NAME = object()
_TOO_BIG = object()
_NEITHER = object()


def _classify(token: str) -> object:
    """A name, a number's value (an int when integral), _TOO_BIG for a
    number that overflows a float, or _NEITHER."""
    # On ASCII text isidentifier() is exactly _NAME, and much cheaper.
    if token.isidentifier() if token.isascii() else _NAME.match(token):
        return _IS_NAME
    if _NUMBER.match(token):
        value = float(token)
        if not math.isfinite(value):
            return _TOO_BIG
        return int(value) if value == int(value) else value
    return _NEITHER


def parse_lp(text: str) -> MipModel:
    """Parse LP text written by write_lp back into a model.

    Reads only what write_lp writes: the Minimize / Subject To / Bounds /
    Binaries / End sections, comment lines starting with a backslash, one
    constraint per line, and bounds of the forms "lo <= x" and
    "lo <= x <= hi".  Terms are "[sign] [coef] name", a sign before every
    term but the first.  Each section header appears at most once, and the
    objective section holds one line.  The objective label, row names,
    bounded variables and binaries follow the same name rule as terms, and
    none of them may repeat.  Anything else, a number too large for a float
    included, raises VspError.

    Each distinct token is classified once per call; its later occurrences
    cost one dict lookup.
    """
    kinds: dict[str, object] = {}

    def kind_of(token: str) -> object:
        kind = kinds.get(token)
        if kind is None:
            kind = kinds[token] = _classify(token)
        return kind

    def number(token: str, line: str) -> float | None:
        kind = kind_of(token)
        if kind is _TOO_BIG:
            raise VspError(f"number {token!r} out of range: {line!r}")
        return None if kind is _IS_NAME or kind is _NEITHER else kind

    def check_name(name: str, what: str, line: str) -> None:
        if kind_of(name) is not _IS_NAME:
            raise VspError(f"bad {what} name {name!r}: {line!r}")

    def terms(tokens: list[str], line: str) -> dict[str, float]:
        # state 0: before the first term, 1: after a sign, 2: after a
        # coefficient, 3: after a name.
        coeffs: dict[str, float] = {}
        state = 0
        sign = 1.0
        for token in tokens:
            if state == 3:
                if token == "-":
                    sign = -1.0
                elif token != "+":
                    raise VspError(f"missing + or - before {token!r}")
                state = 1
                continue
            kind = kinds.get(token)  # kind_of(token), inlined on the hot path
            if kind is None:
                kind = kinds[token] = _classify(token)
            if kind is _IS_NAME:
                coeffs[token] = coeffs.get(token, 0.0) + sign
                sign = 1.0
                state = 3
            elif state == 2:
                break
            elif kind is _NEITHER:
                if state or (token != "-" and token != "+"):
                    break
                sign = -1.0 if token == "-" else 1.0
                state = 1
            elif kind is _TOO_BIG:
                raise VspError(f"number {token!r} out of range: {line!r}")
            else:
                sign *= kind
                state = 2
        else:
            if state == 0 or state == 3:
                return coeffs
        raise VspError(f"term without a variable name in {' '.join(tokens)!r}")

    objective: dict[str, float] | None = None
    rows: list[MipRow] = []
    row_names: set[str] = set()
    bounds: dict[str, tuple[float, float]] = {}
    binaries: dict[str, None] = {}
    section = None
    headers: set[str] = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line[0] == "\\":
            continue
        name, colon, body = line.partition(":")
        if not colon and (header := _SECTIONS.get(line.lower())):
            if header in headers:
                raise VspError(f"repeated section header: {line!r}")
            headers.add(header)
            section = header
            continue
        if section == "rows":
            if not colon:
                raise VspError(f"constraint line without a name: {line!r}")
            tokens = body.split()
            head = tokens[:-2]
            if (
                len(tokens) < 2 or tokens[-2] not in _SENSES
                or not _SENSES.isdisjoint(head)
            ):
                raise VspError(f"cannot parse constraint: {line!r}")
            rhs = number(tokens[-1], line)
            if rhs is None:
                raise VspError(f"constraint has non-numeric rhs: {line!r}")
            coeffs = terms(head, line)
            name = name.strip()
            check_name(name, "row", line)
            if name in row_names:
                raise VspError(f"duplicate row name {name!r}: {line!r}")
            row_names.add(name)
            rows.append(MipRow(name, coeffs, tokens[-2], rhs))
        elif section == "objective":
            coeffs = terms((body if colon else line).split(), line)
            if colon:
                check_name(name.strip(), "objective", line)
            if objective is not None:
                raise VspError(f"more than one objective line: {line!r}")
            objective = coeffs
        elif section == "bounds":
            tokens = line.split()
            lo = number(tokens[0], line)
            if len(tokens) == 3 and tokens[1] == "<=" and lo is not None:
                hi = INF
            elif not (
                len(tokens) == 5 and tokens[1] == tokens[3] == "<=" and lo is not None
                and (hi := number(tokens[4], line)) is not None
            ):
                raise VspError(f"cannot parse bound: {line!r}")
            var = tokens[2]
            check_name(var, "bound variable", line)
            if var in bounds:
                raise VspError(f"duplicate bound on {var!r}: {line!r}")
            bounds[var] = (lo, hi)
        elif section == "binaries":
            for var in line.split():
                check_name(var, "binary", line)
                if var in binaries:
                    raise VspError(f"duplicate binary {var!r}: {line!r}")
                binaries[var] = None
        elif section == "end":
            raise VspError(f"content after End: {line!r}")
        else:
            raise VspError(f"content before any section: {line!r}")
    return MipModel(objective or {}, tuple(rows), bounds, tuple(binaries))


def schedule_from_lp_solution(
    instance: Instance, values: dict[str, float]
) -> Schedule:
    """Decode solver variable values back into per-vehicle stamps.

    Each stamp value must be an int or a finite float within 1e-6 of an
    integer; a missing value, or any other (a bool or a string included),
    raises VspError naming the variable.
    """

    def tick(name: str) -> int:
        value = values.get(name)
        if isinstance(value, float) and math.isfinite(value):
            value = round(value) if abs(value - round(value)) <= 1e-6 else value
        if not is_tick(value):
            raise VspError(f"no integer tick for stamp variable {name}: {value!r}")
        return value

    return Schedule([
        [tick(_t(j, i)) for i in range(len(walk))]
        for j, walk in enumerate(instance.walks)
    ])
