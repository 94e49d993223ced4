import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vsp
from vsp import (
    Schedule,
    read_instance,
    read_schedule,
    validate_schedule,
    write_instance,
    write_schedule,
)
from vsp.cli import (
    EXIT_BUDGET_EMPTY,
    EXIT_BUDGET_INCUMBENT,
    EXIT_ERROR,
    EXIT_HARD_DEADLINE,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_SLOT_WINDOW,
    main,
)
from oracles import blocked_instance, chain_instance, merge_instance
from vsp import conflict_pairs

DATA = Path(__file__).parent / "data"

def run_cli(*argv):
    return main([str(a) for a in argv])


def test_generate_schedule_validate_roundtrip(tmp_path):
    inst_path = tmp_path / "inst.json"
    sched_path = tmp_path / "sched.json"
    assert run_cli(
        "generate", "--vehicles", 6, "--ratio", 1.4, "--seed", 9,
        "--out", inst_path,
    ) == EXIT_OK
    inst = read_instance(inst_path)
    assert inst.n_vehicles == 6
    for mode in ("proximity", "abs", "rel", "best"):
        assert run_cli(
            "schedule", "--instance", inst_path, "--mode", mode,
            "--out", sched_path,
        ) == EXIT_OK
        sched = read_schedule(sched_path)
        assert validate_schedule(inst, sched).passes()
    assert run_cli(
        "validate", "--instance", inst_path, "--schedule", sched_path
    ) == EXIT_OK


def test_schedule_exit_codes(tmp_path, capsys):
    tight = merge_instance(d_soft=(54, 54), d_hard=(54, 54))
    inst_path = tmp_path / "tight.json"
    write_instance(tight, inst_path)
    code = run_cli(
        "schedule", "--instance", inst_path, "--mode", "proximity",
        "--out", tmp_path / "s.json",
    )
    assert code == EXIT_HARD_DEADLINE

    blocked_path = tmp_path / "blocked.json"
    write_instance(blocked_instance(), blocked_path)
    capsys.readouterr()
    # Best-of-three fails like a single mode: same status lines, same exit.
    for mode in ("proximity", "best"):
        out = tmp_path / f"s-{mode}.json"
        code = run_cli(
            "schedule", "--instance", blocked_path, "--mode", mode, "--out", out,
        )
        assert code == EXIT_SLOT_WINDOW
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == "completed: 1\nslot_window_failed: 1\n"
        assert captured.err == "no complete schedule; nothing written\n"


def test_solve_and_exit_codes(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    write_instance(merge_instance(d_soft=(50, 50), d_hard=(200, 200)), inst_path)
    out = tmp_path / "exact.json"
    assert run_cli("solve", "--instance", inst_path, "--exact", "--out", out) == EXIT_OK
    sched = read_schedule(out)
    assert sched.times == ((0, 50), (0, 55))
    assert "status=optimal nodes=1 bound=1\n" in capsys.readouterr().out

    infeasible = tmp_path / "bad.json"
    write_instance(chain_instance(d_hard=90), infeasible)  # needs 100 ticks
    assert run_cli(
        "solve", "--instance", infeasible, "--exact", "--out", out
    ) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert "bound=" not in captured.out
    # The witness cycle: request, both link minima, then the hard deadline.
    assert captured.err == (
        "  cycle: request v0 (>= 0)\n"
        "  cycle: min_time v0 link0 (>= 50)\n"
        "  cycle: min_time v0 link1 (>= 50)\n"
        "  cycle: hard_deadline v0 (>= -90)\n"
    )

    # A zero budget keeps the best-of-three warm start, proved optimal where
    # the root bound meets it ...
    out.unlink()
    assert run_cli(
        "solve", "--instance", inst_path, "--exact", "--time-limit", 0,
        "--out", out,
    ) == EXIT_OK
    assert read_schedule(out).times == ((0, 50), (0, 55))
    assert "status=optimal nodes=1 bound=1\n" in capsys.readouterr().out

    # ... and unproved where the bound, 5, stays below it, 6 ...
    grid_path = tmp_path / "grid.json"
    assert run_cli(
        "generate", "--grid", "5x5", "--vehicles", 12, "--ratio", "1.0",
        "--seed", 3, "--out", grid_path,
    ) == EXIT_OK
    out.unlink()
    assert run_cli(
        "solve", "--instance", grid_path, "--exact", "--time-limit", 0,
        "--out", out,
    ) == EXIT_BUDGET_INCUMBENT
    printed = capsys.readouterr().out
    assert "status=feasible_incumbent nodes=1 bound=5\n" in printed
    assert f"objective=6 -> {out}\n" in printed

    # ... unless best-of-three breaks a hard deadline (vehicle 1's here).
    late_path = tmp_path / "late.json"
    write_instance(merge_instance(d_soft=(50, 50), d_hard=(200, 52)), late_path)
    out.unlink()
    assert run_cli(
        "solve", "--instance", late_path, "--exact", "--time-limit", 0,
        "--out", out,
    ) == EXIT_BUDGET_EMPTY
    assert not out.exists()
    assert "status=budget_exhausted nodes=1 bound=1\n" in capsys.readouterr().out


def test_export_mip(tmp_path):
    inst_path = tmp_path / "inst.json"
    write_instance(merge_instance(d_soft=(50, 50), d_hard=(200, 200)), inst_path)
    out = tmp_path / "model.lp"
    assert run_cli("export-mip", "--instance", inst_path, "--out", out) == EXIT_OK
    text = out.read_text()
    assert text.startswith("\\")
    assert "Binaries" in text
    # Without hard deadlines the exporter needs an explicit horizon.
    open_path = tmp_path / "open.json"
    write_instance(merge_instance(), open_path)
    assert run_cli("export-mip", "--instance", open_path, "--out", out) == EXIT_ERROR
    assert run_cli(
        "export-mip", "--instance", open_path, "--horizon", 500, "--out", out
    ) == EXIT_OK


def test_reduce_jsp(tmp_path, capsys):
    jsp_path = tmp_path / "jsp.json"
    jsp_path.write_text(json.dumps({
        "machines": 2,
        "jobs": [[0, 1], [0, 1]],
        "r": [0, 0],
        "delta": [None, None],
        "theta": False,
    }))
    out = tmp_path / "reduced.json"
    assert run_cli("reduce-jsp", "--jsp", jsp_path, "--out", out) == EXIT_OK
    inst = read_instance(out)
    assert inst.graph.vertex_count == 2
    assert list(conflict_pairs(inst).items()) == [
        ((0, 0, 1, 0), 1), ((0, 1, 1, 1), 1),
    ]
    # The reduced instance's objective is the makespan, and is named so.
    sched = tmp_path / "sched.json"
    capsys.readouterr()
    assert run_cli(
        "schedule", "--instance", out, "--mode", "best", "--out", sched
    ) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"mode=proximity makespan=2 -> {sched}"
    )


def test_validate_prints_each_violation_and_exits_1(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    sched_path = tmp_path / "sched.json"
    write_instance(merge_instance(d_soft=(50, 50), d_hard=(200, 200)), inst_path)
    write_schedule(Schedule(((-1, 50), (0, 52))), sched_path)
    capsys.readouterr()
    assert run_cli(
        "validate", "--instance", inst_path, "--schedule", sched_path
    ) == EXIT_ERROR
    assert capsys.readouterr().out == (
        "[request_time] vehicle 0 starts at -1 before request time 0\n"
        "[separation] vehicles 0 (step 1) and 1 (step 1) are 2 apart at vertex 2, "
        "need 5\n"
    )


@pytest.mark.parametrize("tau_max, written", [
    ("inf", None), ("none", None), ("120", 120),
])
def test_generate_tau_max(tmp_path, tau_max, written):
    out = tmp_path / "inst.json"
    assert run_cli(
        "generate", "--vehicles", 2, "--ratio", 1.0, "--seed", 1,
        "--tau-max", tau_max, "--out", out,
    ) == EXIT_OK
    walks = json.loads(out.read_text())["walks"]
    assert {t for walk in walks for t in walk["tau_max"]} == {written}


@pytest.mark.parametrize("argv, message", [
    (("generate", "--grid", "5by5", "--vehicles", 3, "--ratio", 1.0, "--seed", 1),
     "grid must look like 5x5: '5by5'"),
    (("bench", "--vehicles", 3, "--ratios", "1.0:x:0.1"),
     "ratio range must look like 1.0:2.0:0.1: '1.0:x:0.1'"),
])
def test_malformed_option_is_a_usage_error(tmp_path, capsys, argv, message):
    out = "--out-dir" if argv[0] == "bench" else "--out"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, out, tmp_path / "out")
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_file_reports_error(tmp_path):
    assert run_cli(
        "schedule", "--instance", tmp_path / "nope.json", "--mode", "best",
        "--out", tmp_path / "s.json",
    ) == EXIT_ERROR
    assert run_cli(
        "validate", "--instance", tmp_path / "nope.json",
        "--schedule", tmp_path / "nope2.json",
    ) == EXIT_ERROR


def test_unwritable_output_reports_error(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    write_instance(merge_instance(d_soft=(50, 50), d_hard=(200, 200)), inst_path)
    jsp_path = tmp_path / "jsp.json"
    jsp_path.write_text(json.dumps({
        "machines": 2, "jobs": [[0, 1]], "r": [0], "delta": [None], "theta": False,
    }))
    missing = tmp_path / "missing" / "out.json"
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    capsys.readouterr()
    for argv in (
        ("generate", "--vehicles", 3, "--ratio", 1.2, "--seed", 1, "--out", missing),
        ("schedule", "--instance", inst_path, "--mode", "best", "--out", missing),
        ("schedule", "--instance", inst_path, "--mode", "best", "--out", tmp_path),
        ("solve", "--instance", inst_path, "--exact", "--out", missing),
        ("export-mip", "--instance", inst_path, "--out", missing),
        ("reduce-jsp", "--jsp", jsp_path, "--out", missing),
        ("bench", "--vehicles", 3, "--instances", 1, "--ratios", "1.0",
         "--out-dir", not_a_dir),
    ):
        assert run_cli(*argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
    assert not missing.parent.exists()


def test_non_finite_weight_reports_error(tmp_path, capsys):
    inst = merge_instance(
        weights=(1.0, 2.0), objective=vsp.ObjectiveKind.WEIGHTED_TARDY_COUNT
    )
    data = vsp.instances.instance_to_dict(inst)
    data["weights"] = [1.0, float("inf")]  # written as the JSON token Infinity
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(data))
    out = tmp_path / "model.lp"
    assert run_cli(
        "export-mip", "--instance", inst_path, "--horizon", 1000, "--out", out
    ) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_bench_writes_outputs(tmp_path):
    out_dir = tmp_path / "sweep"
    assert run_cli(
        "bench", "--vehicles", "4,6", "--instances", 2,
        "--ratios", "1.0:1.5:0.5", "--algorithms", "baseline,heuristic",
        "--seed", 5, "--out-dir", out_dir,
    ) == EXIT_OK
    tardy = (out_dir / "tardy.csv").read_text().splitlines()
    assert len(tardy) == 1 + 2 * 2 * 2  # vehicles x ratios x algorithms
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["vehicles"] == [4, 6]
    assert manifest["ratios"] == [1.0, 1.5]
    assert manifest["seed"] == 5
    assert (out_dir / "manifest.json").read_text() == MANIFEST_4_6
    assert (out_dir / "runtime.csv").exists()


def test_bench_rows_of_several_counts_follow_one_another(tmp_path):
    def rows(vehicles):
        out_dir = tmp_path / vehicles
        assert run_cli(
            "bench", "--vehicles", vehicles, "--instances", 2,
            "--ratios", "1.0,1.3", "--seed", 101, "--out-dir", out_dir,
        ) == EXIT_OK
        return (out_dir / "tardy.csv").read_text().splitlines()[1:]

    both = rows("5,7")
    assert both == rows("5") + rows("7")
    assert len(both) == 2 * 2 * 2  # vehicles x ratios x algorithms


# Every bench option but --out-dir, in declared order, defaults resolved.
MANIFEST_4_6 = """\
{
 "grid": "5x5",
 "vehicles": [
  4,
  6
 ],
 "instances": 2,
 "ratios": [
  1.0,
  1.5
 ],
 "algorithms": [
  "baseline",
  "heuristic"
 ],
 "seed": 5,
 "separation": 5,
 "tau_min": 50,
 "hard_factor": 2.2,
 "exact_cap": 25,
 "exact_time_limit": 3600.0,
 "negative_slack": "prose"
}
"""


def test_bench_tardy_csv_matches_golden(tmp_path):
    out_dir = tmp_path / "sweep"
    assert run_cli(
        "bench", "--grid", "5x5", "--vehicles", "20,40", "--instances", 3,
        "--seed", 42, "--out-dir", out_dir,
    ) == EXIT_OK
    golden = (DATA / "golden_tardy.csv").read_bytes()
    assert (out_dir / "tardy.csv").read_bytes() == golden


def test_bench_tardy_csv_matches_golden_under_pseudocode_policy(tmp_path):
    # At 20 and 40 vehicles both policies write golden_tardy.csv's bytes;
    # 100 vehicles add cells where they differ.
    out_dir = tmp_path / "sweep"
    assert run_cli(
        "bench", "--grid", "5x5", "--vehicles", "20,40,100", "--instances", 3,
        "--seed", 42, "--negative-slack", "pseudocode", "--out-dir", out_dir,
    ) == EXIT_OK
    golden = (DATA / "golden_tardy_pseudocode.csv").read_bytes()
    assert (out_dir / "tardy.csv").read_bytes() == golden


@pytest.mark.parametrize("argv", [
    ("generate", "--vehicles", 0, "--ratio", 1.2, "--seed", 1),
    ("generate", "--vehicles", 3, "--ratio", 1.2, "--seed", 1, "--separation", -1),
    ("bench", "--vehicles", 3, "--instances", 0),
    ("bench", "--vehicles", 3, "--ratios", "2.0,1.0"),
    ("bench", "--vehicles", 3, "--hard-factor", 1.5),
    ("generate", "--vehicles", 3, "--ratio", 3.0, "--seed", 1, "--hard-factor", 1.0),
    ("bench", "--vehicles", 3, "--algorithms", "nope"),
    ("reduce-jsp", "--jsp", DATA / "jsp_release_after_deadline.json"),
    ("generate", "--vehicles", 3, "--ratio", "nan", "--seed", 1),
    ("generate", "--vehicles", 3, "--ratio", 1.2, "--seed", 1, "--hard-factor", "nan"),
    ("generate", "--vehicles", 3, "--ratio", "inf", "--seed", 1),
    ("generate", "--vehicles", 3, "--ratio=-1", "--seed", 1),
    ("bench", "--vehicles", 3, "--ratios", "1.0,nan"),
    ("schedule", "--instance", DATA / "vertices_1e300.json", "--mode", "best"),
    ("solve", "--instance", DATA / "legacy_grid.json", "--exact",
     "--time-limit", "nan"),
    ("solve", "--instance", DATA / "legacy_grid.json", "--exact", "--time-limit=-1"),
    ("bench", "--vehicles", 3, "--instances", 1, "--algorithms", "exact",
     "--exact-time-limit", "nan"),
    ("bench", "--vehicles", 3, "--instances", 1, "--ratios", "1.0",
     "--exact-time-limit", "nan"),
    ("bench", "--vehicles", 3, "--instances", 1, "--ratios", "1.0",
     "--algorithms", "baseline,exact", "--exact-cap", 2,
     "--exact-time-limit=-5"),
    ("bench", "--vehicles", "5,5", "--instances", 1, "--ratios", "1.0"),
    ("bench", "--vehicles", 3, "--instances", 1, "--ratios", "1.0",
     "--algorithms", "baseline,heuristic,baseline"),
    ("bench", "--vehicles", "5,6", "--instances", 1, "--algorithms", "exact",
     "--exact-cap", 3),
    ("bench", "--vehicles", 12, "--instances", 3, "--ratios", "1.0",
     "--algorithms", "exact", "--exact-time-limit", 0),
    ("generate", "--grid", "3x3", "--vehicles", 4, "--ratio", 1.0,
     "--hard-factor", 1e308, "--seed", 1),
    ("generate", "--grid", "3x3", "--vehicles", 4, "--ratio", 1e308,
     "--hard-factor", 1e308, "--seed", 1),
    ("bench", "--vehicles", 3, "--instances", 1, "--ratios", "1.0",
     "--hard-factor", 1e308),
    ("generate", "--vehicles", 3, "--ratio", 1.0, "--seed", 1,
     "--tau-min", 10**400),
], ids=[
    "no-vehicles", "negative-separation", "no-instances", "falling-ratios",
    "hard-factor-below-ratios", "hard-factor-below-ratio", "unknown-algorithm",
    "jsp-release-after-deadline", "nan-ratio", "nan-hard-factor", "inf-ratio",
    "negative-ratio", "nan-in-ratios", "vertex-count-1e300", "nan-time-limit",
    "negative-time-limit", "nan-exact-time-limit", "nan-exact-time-limit-unused",
    "negative-exact-time-limit-over-cap", "repeated-vehicle-count",
    "repeated-algorithm", "exact-over-cap-runs-nothing",
    "exact-proves-no-cell",
    "hard-factor-1e308", "ratio-1e308", "bench-hard-factor-1e308", "tau-min-1e400",
])
def test_bad_config_values_report_error(tmp_path, capsys, argv):
    out = "--out-dir" if argv[0] == "bench" else "--out"
    assert run_cli(*argv, out, tmp_path / "out") == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_bench_writes_infinite_time_limit_as_null(tmp_path):
    out_dir = tmp_path / "sweep"
    assert run_cli(
        "bench", "--vehicles", 3, "--instances", 1, "--ratios", "1.0",
        "--exact-time-limit", "inf", "--out-dir", out_dir,
    ) == EXIT_OK

    def reject(constant):
        raise ValueError(f"not valid JSON: {constant}")

    text = (out_dir / "manifest.json").read_text()
    assert json.loads(text, parse_constant=reject)["exact_time_limit"] is None


def test_non_finite_ratio_range_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("bench", "--vehicles", 3, "--ratios", "1.0:inf:0.1")
    assert exc.value.code == 2
    assert "bad ratio range" in capsys.readouterr().err


@pytest.mark.parametrize("ratios", [
    "1:2:1e-11", "1:2:6e-11", "10000000:10000001:1e-10",
])
def test_ratio_step_below_rounding_is_a_usage_error(tmp_path, ratios):
    # A range whose rounded ratios repeat is rejected before any ratio is
    # built.  The child's address space is capped, so building them would
    # fail fast instead of exhausting memory.
    import resource

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = str(Path(vsp.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, "-m", "vsp.cli", "bench", "--vehicles", "5",
         "--ratios", ratios, "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=30, preexec_fn=cap_memory,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
    )
    assert result.returncode == 2
    assert "step below the 1e-10 rounding" in result.stderr
    assert not (tmp_path / "out").exists()


def test_ratio_range_above_the_cap_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # The count is checked before any ratio is built, so a lowered cap
    # stands in for a range like 1:2:1e-10 that would not fit in memory.
    monkeypatch.setattr(vsp.cli, "MAX_RATIOS", 4)
    assert vsp.cli._parse_ratios("1:1.75:0.25") == (1.0, 1.25, 1.5, 1.75)
    with pytest.raises(SystemExit) as exc:
        run_cli("bench", "--vehicles", 3, "--ratios", "1:2:0.25",
                "--out-dir", tmp_path / "out")
    assert exc.value.code == 2
    assert "5 ratios, more than 4" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def run_python(*args, **options):
    """A fresh interpreter that imports vsp from the same src directory as
    this process, whether or not the package is installed."""
    src = str(Path(vsp.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
        **options,
    )


def test_console_entry_point():
    result = run_python("-m", "vsp.cli", "--help")
    assert result.returncode == 0
    assert "schedule" in result.stdout and "bench" in result.stdout


def test_parser_is_built_once_on_first_use(tmp_path):
    # Counts the top-level parsers built: none on import, one for two calls.
    script = """
import argparse

built = []
init = argparse.ArgumentParser.__init__


def counting_init(self, *args, **kwargs):
    init(self, *args, **kwargs)
    if self.prog == "vsp":
        built.append(self)


argparse.ArgumentParser.__init__ = counting_init
import vsp.cli

on_import = len(built)
codes = [
    vsp.cli.main(["validate", "--instance", "no.json", "--schedule", "no.json"])
    for _ in range(2)
]
print(on_import, len(built), codes)
"""
    result = run_python("-c", script, cwd=tmp_path)
    assert result.stdout.split("\n")[0] == f"0 1 {[EXIT_ERROR] * 2}"


def test_malformed_files_exit_1_and_write_nothing(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    write_instance(merge_instance(d_soft=(50, 50), d_hard=(200, 200)), inst_path)
    bad_inst = json.loads(inst_path.read_text())
    bad_inst["rho"][1] = 0.7
    # A one-vertex walk at a vertex the graph does not have.
    lost_walk = json.loads(inst_path.read_text())
    lost_walk["walks"][1] = {"vertices": [7], "tau_min": [], "tau_max": []}
    lost_walk["separations"] = []
    # An objective that needs weights, in a file that has none.
    unweighted = json.loads(inst_path.read_text())
    unweighted["objective"] = "weighted_tardy_count"
    del unweighted["weights"]  # written as null
    bad_sched = {"times": [[0, 50], 7]}
    bad_jsp = {"machines": 2, "jobs": [[0, 1]], "r": [float("nan")],
               "delta": [None], "theta": False}
    for name, data in (("i.json", bad_inst), ("w.json", lost_walk),
                       ("u.json", unweighted), ("s.json", bad_sched),
                       ("j.json", bad_jsp)):
        (tmp_path / name).write_text(json.dumps(data))
    # Too deep for the decoder, and a number past the int-string limit.
    deep, long_int = tmp_path / "deep.json", tmp_path / "long.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    long_int.write_text('{"times": [[' + "9" * 5000 + "]]}")
    out = tmp_path / "out.json"
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    cases = [
        (("schedule", "--instance", tmp_path / "i.json", "--mode", "best", "--out", out),
         tmp_path / "i.json"),
        (("schedule", "--instance", tmp_path / "w.json", "--mode", "best", "--out", out),
         tmp_path / "w.json"),
        (("schedule", "--instance", tmp_path / "u.json", "--mode", "best", "--out", out),
         tmp_path / "u.json"),
        (("validate", "--instance", inst_path, "--schedule", tmp_path / "s.json"),
         tmp_path / "s.json"),
        (("reduce-jsp", "--jsp", tmp_path / "j.json", "--out", out), tmp_path / "j.json"),
    ]
    for bad in (deep, long_int):
        cases += [
            (("schedule", "--instance", bad, "--mode", "best", "--out", out), bad),
            (("solve", "--instance", bad, "--exact", "--out", out), bad),
            (("export-mip", "--instance", bad, "--out", out), bad),
            (("validate", "--instance", bad, "--schedule", tmp_path / "s.json"), bad),
            (("validate", "--instance", inst_path, "--schedule", bad), bad),
            (("reduce-jsp", "--jsp", bad, "--out", out), bad),
        ]
    for argv, named in cases:
        assert run_cli(*argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {named}: ")
        if named in (deep, long_int):
            assert captured.err.startswith(f"error: {named}: not valid JSON (")
        assert sorted(tmp_path.iterdir()) == before
