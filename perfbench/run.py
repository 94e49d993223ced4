"""vsp benchmark: end-to-end metrics per workload, or per-layer metrics from a
separate traced run.

    python3 perfbench/run.py --workload city --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                  # every workload, one after another
    python3 perfbench/run.py --smoke          # seconds-long run on tiny inputs

Each run starts its client in a fresh interpreter (worker.py), so set-up time
and peak memory belong to that workload alone.  The client is one closed
loop in one process: the next op starts when the previous one and its output
check are done.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The run stamp, every
metric, and one raw record per op are also written to
``.perfbench/<workload>-seed<seed>-trace<t>/result.json``; a traced run adds
``spans.json``.  See perfbench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_metrics
from worker import REFERENCE_S

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("city", "sweep", "exact")
RUN_SECONDS = 30
SETUP_SAMPLES = 4  # set-up-only interpreters, after one untimed warm-up
DIGEST_OPS = 5
RUN_BUDGET_S = 175  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "on_time_fraction": "fraction",
}
PER_LAYER_UNITS = {
    "s": "s", "self_s": "s", "calls": "count", "separation_entries": "count",
    "json_bytes": "bytes", "walkset_reuse": "ratio", "stamps_per_s": "1/s",
    "slot_failures": "count", "hard_violations": "count", "pairs_checked": "count",
    "nodes": "count", "nodes_per_s": "1/s", "conflict_pairs": "count",
    "budget_stops": "count", "root_gap": "count", "heuristic_gap": "count",
    "lp_bytes": "bytes", "rows": "count", "layer_self_share": "ratio",
    "spans_per_op": "count", "p50": "s", "overhead_s": "s",
}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def run_stamp(seed: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "scipy": importlib.util.find_spec("scipy") is not None,
        "hypothesis": importlib.util.find_spec("hypothesis") is not None,
        "seed": seed,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (a checkout
    that is not a repository has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# -- statistics ---------------------------------------------------------

def per_key(records: list[dict], field: str) -> dict[str, list]:
    """Values of a field grouped by input key, in first-seen order."""
    grouped: dict[str, list] = {}
    for rec in records:
        grouped.setdefault(json.dumps(rec["key"]), []).append(rec[field])
    return grouped


def op_times(records: list[dict], field: str = "scaled_s") -> list[float]:
    """One time per distinct input: the median over its ops.  Over a fixed
    input set this weights every input once, however many passes ran."""
    return [statistics.median(v) for v in per_key(records, field).values()]


def scale_ops(records: list[dict]) -> None:
    """Add each op's reference-scaled time: its wall time times REFERENCE_S
    over the mean of the reference jobs run right before and after it."""
    for rec in records:
        rec["scale"] = REFERENCE_S / statistics.mean(rec["reference_s"])
        rec["scaled_s"] = rec["seconds"] * rec["scale"]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with ten samples beyond it;
    the median when that rank would not lie above it (n <= 20)."""
    n = len(values)
    if n <= 20:
        return statistics.median(values), 50.0
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def end_to_end(result: dict, setup: list[dict]) -> tuple[dict, dict]:
    records = [r for r in result["records"] if r["error"] is None]
    times = op_times(records)
    tail_s, tail_pct = tail(times)
    first = {k: v[0] for k, v in per_key(records, "tardy_fraction").items()}
    tardy_fraction = sum(first.values()) / len(first)
    metrics = {
        "setup_s": statistics.median(x["scaled_s"] for x in setup),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_s,
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": result["peak_rss_mb"],
        "on_time_fraction": 1.0 - tardy_fraction,
    }
    attempted = len(result["records"])
    extra = {
        "samples": len(times),
        "tail_percentile": tail_pct,
        "ops": len(records),
        "wall_s": result["wall_s"],
        "setup_samples": setup,
        "scale": statistics.median(r["scale"] for r in records),
        "wall_op_s.p50": statistics.median(op_times(records, "seconds")),
        "wall_setup_s": statistics.median(x["wall_s"] for x in setup),
        "error_rate": (attempted - len(records)) / attempted,
        "tardy_fraction": tardy_fraction,
    }
    if records and "status" in records[0]:
        status = {k: v[0] for k, v in per_key(records, "status").items()}
        extra["proved_fraction"] = (
            sum(s == "optimal" for s in status.values()) / len(status)
        )
    extra["digest"], extra["digest_ops"] = digest(records, result["period"])
    return metrics, extra


def digest(records: list[dict], period: int) -> tuple[str, int]:
    """Hash of the per-op output digests: over one full pass of a fixed
    input set (in input order), or over the first DIGEST_OPS ops."""
    if period:
        by_key = {json.dumps(r["key"]): r["digest"] for r in records}
        parts = [f"{k}={by_key[k]}" for k in sorted(by_key)]
    else:
        parts = [r["digest"] for r in records[:DIGEST_OPS]]
    return hashlib.sha256("\n".join(map(str, parts)).encode()).hexdigest()[:16], len(parts)


def traced_metrics(result: dict) -> dict:
    """Per-layer metrics, with span times scaled like op times (by the
    median scale of the traced ops), plus the tracing overhead."""
    records = [r for r in result["records"] if r["error"] is None]
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    scale = statistics.median(r["scale"] for r in traced) if traced else 1.0
    metrics = {}
    for name, value in layer_metrics(result["trace"], len(traced)).items():
        unit = per_layer_unit(name)
        metrics[name] = (
            value * scale if unit == "s" else value / scale if unit == "1/s" else value
        )
    traced_p50 = statistics.median(op_times(traced)) if traced else 0.0
    plain_p50 = statistics.median(op_times(plain)) if plain else 0.0
    metrics["trace.op_s.p50"] = traced_p50
    metrics["trace.untraced_op_s.p50"] = plain_p50
    metrics["trace.overhead_s"] = traced_p50 - plain_p50
    return metrics


# -- processes ----------------------------------------------------------

def _spawn(args: argparse.Namespace, tmp: Path, setup_only: bool):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp)]
    if args.smoke:
        cmd.append("--smoke")
    if args.ops:
        cmd += ["--ops", str(args.ops)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    ref = proc.stdout.readline().split()
    if line.strip() != "READY" or len(ref) != 2 or ref[0] != "REFERENCE":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up: {line.strip()!r}")
    return proc, {"wall_s": ready, "scaled_s": ready * REFERENCE_S / float(ref[1])}


def run_workload(args: argparse.Namespace, out_root: Path) -> tuple[dict, dict, dict]:
    """Run one workload in fresh interpreters; return the summary that the
    last output line carries, the other details, and the files written."""
    deadline = time.monotonic() + RUN_BUDGET_S
    tmp = out_root / f"tmp-{os.getpid()}"
    try:
        setup = []
        for k in range(SETUP_SAMPLES + 1):
            proc, ready = _spawn(args, tmp, setup_only=True)
            proc.communicate()
            if k:  # the first start fills the bytecode cache
                setup.append(ready)
        proc, ready = _spawn(args, tmp, setup_only=False)
        setup.append(ready)
        try:
            out, _ = proc.communicate(timeout=max(5.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("worker ran past the time budget")
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    records = result["records"]
    scale_ops(records)
    failed = sum(r["error"] is not None for r in records)
    if failed == len(records):
        metrics, extra = {}, {"error_rate": 1.0}
    else:
        metrics, extra = end_to_end(result, setup)
    if args.trace:
        metrics = traced_metrics(result)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        units = END_TO_END
    summary = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in metrics
        },
    }
    run_dir = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    files = {"result": run_dir / "result.json"}
    files["result"].write_text(json.dumps({
        "stamp": run_stamp(args.seed),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "result": summary,
        "details": extra,
        "records": records,
        "counters": result.get("trace", {}).get("counters"),
    }, indent=1) + "\n")
    if args.trace:
        files["spans"] = run_dir / "spans.json"
        files["spans"].write_text(json.dumps([
            {"id": i, "name": name, "start": start, "end": end,
             "parent": parent, "op": op}
            for i, (name, start, end, parent, op) in enumerate(result["trace"]["spans"])
        ]) + "\n")
    for rec in records:
        if rec["error"] is not None:
            print(f"op {rec['op']} key {rec['key']}: {rec['error']}", file=sys.stderr)
    return summary, extra, files


def report(workload: str, summary: dict, extra: dict, files: dict) -> None:
    print(f"== {workload}: attempted {summary['attempted']}, failed {summary['failed']}, "
          f"correct {summary['correct']}")
    for name, metric in summary["metrics"].items():
        note = ""
        if name == "op_s.p50":
            note = f"  (n={extra['samples']}; wall {extra['wall_op_s.p50']:.6g} s)"
        elif name == "op_s.tail":
            note = f"  (p{extra['tail_percentile']:.1f}, n={extra['samples']})"
        elif name == "setup_s":
            note = (f"  (median of {len(extra['setup_samples'])} starts; "
                    f"wall {extra['wall_setup_s']:.6g} s)")
        print(f"  {name:<44} {metric['value']:.6g} {metric['unit']}{note}")
    if "scale" in extra:
        print(f"  {'time scale (median)':<44} {extra['scale']:.6g} (reference job "
              f"{REFERENCE_S / extra['scale'] * 1000:.4g} ms, nominal "
              f"{REFERENCE_S * 1000:g} ms)")
    for name in ("tardy_fraction", "proved_fraction", "error_rate"):
        if name in extra:
            print(f"  {name:<44} {extra[name]:.6g} fraction")
    if "digest" in extra:
        print(f"  {'digest':<44} {extra['digest']} (over {extra['digest_ops']} outputs)")
    for kind, path in files.items():
        print(f"  {kind}: {path.relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one second per workload")
    parser.add_argument("--ops", type=int, default=0,
                        help="run exactly this many ops (for determinism checks)")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1 if args.smoke else RUN_SECONDS
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "vsp" / "__init__.py").is_file():
        print(f"error: no vsp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_root = ROOT / ".perfbench"
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for workload in workloads:
        args.workload = workload
        try:
            summary, extra, files = run_workload(args, out_root)
        except RuntimeError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        report(workload, summary, extra, files)
        results[workload] = summary
    print(json.dumps(results[workloads[0]] if len(workloads) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
