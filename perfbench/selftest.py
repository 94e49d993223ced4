"""Self-test of the benchmark on tiny inputs; takes well under a minute.

    python3 perfbench/selftest.py

Checks that
- every workload, untraced and traced, prints a last line with exactly the
  metrics BENCHMARK.json names, in its units, with no failed op;
- two runs of the same ops give identical output digests;
- run.py refuses to run, printing no result, where the vsp sources are
  missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    problems: list[str] = []

    for workload in names:
        for trace in (0, 1):
            where = f"{workload} trace {trace}"
            proc = run("--smoke", "--workload", workload, "--seed", "3",
                       "--trace", str(trace))
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = last_json(proc)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(n for n in set(got) & set(expected[trace])
                               if got[n] != expected[trace][n])
                problems.append(f"{where}: missing {missing}, extra {extra}, "
                                f"wrong units {wrong}")
            for name, metric in result["metrics"].items():
                value = metric["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {name} = {value!r}")
                elif trace == 0 and value <= 0:
                    problems.append(f"{where}: end-to-end {name} = {value}")

    for workload in names:
        digests = []
        for _ in range(2):
            proc = run("--smoke", "--workload", workload, "--seed", "5", "--ops", "6")
            if proc.returncode != 0:
                problems.append(f"determinism {workload}: exit {proc.returncode}")
                break
            record = json.loads(
                (ROOT / ".perfbench" / f"{workload}-seed5-trace0" / "result.json").read_text()
            )
            digests.append(record["details"]["digest"])
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append(f"determinism {workload}: digests {digests}")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", names[0], "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=bare)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
            problems.append(f"bare directory: exit {proc.returncode}, "
                            f"stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
