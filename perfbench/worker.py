"""One benchmark client in a fresh interpreter: a closed loop of ops.

Started by run.py.  Imports vsp from the checkout's ``src``, prepares the
workload's inputs, prints ``READY`` (run.py times set-up up to that line)
and the time of one reference job, then runs ops back to back until ``--seconds`` have passed and, for a
workload over a fixed input set, at least one full pass is done.  The last
line of output is one JSON object with a raw record per op.

    python3 perfbench/worker.py --workload sweep --seed 1 --seconds 5 \\
        --trace 0 --tmp .perfbench/tmp
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_ITEMS = 15_000
# Nominal seconds of reference(): op times are reported as if every
# reference job had taken this long (see README.md).
REFERENCE_S = 0.02


def _import_vsp() -> dict[str, object]:
    sys.path.insert(0, str(SRC))
    import vsp
    import vsp.bench
    import vsp.cli
    import vsp.exact
    import vsp.heuristics

    if Path(vsp.__file__).resolve().parent != SRC / "vsp":
        raise SystemExit(f"imported vsp from {vsp.__file__}, not from {SRC}")
    return {name: sys.modules[name] for name in
            ("vsp", "vsp.cli", "vsp.bench", "vsp.heuristics", "vsp.exact")}


def reference() -> float:
    """Seconds for a fixed pure-Python job of dict, tuple and sort work.

    It shares the machine's momentary speed with the ops but runs no vsp
    code; run.py divides each op's time by it (see README.md).
    """
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(REFERENCE_ITEMS):
        key = (i * 7919 % 40_009, i % 13)
        table[key] = table.get(key, 0) + i
    sorted(table.items())
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--ops", type=int, default=0,
                        help="run exactly this many ops instead of --seconds")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    modules = _import_vsp()
    from tracing import Tracer
    from workloads import WORKLOADS, CheckFailed

    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](modules["vsp"], args.seed, tmp, args.smoke)
    print("READY", flush=True)
    reference()  # warm-up
    print(f"REFERENCE {reference()!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    period = workload.period
    records = []
    start = time.perf_counter()
    for k, key in enumerate(workload.keys()):
        if args.ops:
            if k >= args.ops:
                break
        elif time.perf_counter() - start >= args.seconds and k >= max(period, 1):
            break
        # Traced and untraced ops alternate; over a fixed input set the
        # phase flips every pass so each input is seen both ways.
        traced = tracer is not None and (k + (k // period if period else 0)) % 2 == 1
        # The reference job runs right before and right after every op.
        ref = reference()
        if records:
            records[-1]["reference_s"].append(ref)
        record = {"op": k, "key": key, "traced": traced, "reference_s": [ref]}
        if traced:
            tracer.install(modules)
            span = tracer.begin_op(k)
        t0 = time.perf_counter()
        try:
            outcome = workload.run(key, ref / REFERENCE_S)
            error = None
        except Exception:
            outcome, error = None, traceback.format_exc(limit=3)
        finally:
            record["seconds"] = time.perf_counter() - t0
            if traced:
                tracer.end_op(span)
                tracer.uninstall()
        if error is None:
            try:
                record.update(workload.check(key, outcome, tracer if traced else None))
            except CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=3)
        record["error"] = error
        records.append(record)
    wall = time.perf_counter() - start
    records[-1]["reference_s"].append(reference())

    result = {
        "records": records,
        "wall_s": wall,
        "period": period,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
