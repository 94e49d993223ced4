import csv
from dataclasses import replace
from functools import cached_property

import pytest

import vsp.bench
from vsp import (
    ConfigurationError,
    ExperimentConfig,
    GridSpec,
    Instance,
    Mode,
    ObjectiveKind,
    Schedule,
    SweepResult,
    VspError,
    best_of,
    deadline_and_proximity,
    emit_csv,
    evaluate,
    generate_grid_instance,
    run_dispatch,
    run_sweep,
    validate_schedule,
)
from vsp.bench import _DISPATCH_OK, _check
from vsp.instances import soft_deadlines_at
from oracles import merge_instance


def small_config(n_vehicles=5, ratios=(1.0, 1.3), instances=3, seed=101):
    return ExperimentConfig(
        n_vehicles=n_vehicles,
        soft_deadline_ratios=ratios,
        n_instances=instances,
        seed=seed,
    )


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_record_and_cell_counts():
    result = run_sweep(small_config(), ("baseline", "heuristic"))
    assert len(result.records) == 2 * 2 * 3  # algorithms x ratios x instances
    means = result.mean_tardy()
    assert len(means) == 4
    for (n, _, _), (mean, err) in means.items():
        assert n == 5
        assert 0.0 <= mean <= 1.0
        assert err >= 0.0


def test_csv_row_counts_and_format(tmp_path):
    result = run_sweep(small_config(), ("baseline", "heuristic"))
    tardy_path, runtime_path = emit_csv(result, tmp_path)
    tardy = read_rows(tardy_path)
    assert tardy[0] == ["n", "ratio", "algorithm", "mean_tardy_fraction", "stderr"]
    assert len(tardy) == 1 + 2 * 2
    assert tardy[1][:3] == ["5", "1.000", "baseline"]
    runtime = read_rows(runtime_path)
    assert runtime[0] == ["n", "algorithm", "mean_worst_runtime_s"]
    assert len(runtime) == 1 + 2
    for row in tardy[1:]:
        float(row[3]), float(row[4])  # fixed decimal, parseable


@pytest.mark.parametrize("ratios, cells", [
    ((1.0001, 1.0002), ["1.0001", "1.0002"]),
    ((1.0, 1.0005, 1.001), ["1.000", "1.0005", "1.001"]),
])
def test_csv_keeps_ratios_that_three_decimals_would_merge(tmp_path, ratios, cells):
    result = run_sweep(small_config(ratios=ratios, instances=2), ("baseline",))
    tardy_path, _ = emit_csv(result, tmp_path)
    assert [row[1] for row in read_rows(tardy_path)[1:]] == cells


def test_heuristic_never_above_baseline_per_cell():
    result = run_sweep(small_config(n_vehicles=10, instances=4), ("baseline", "heuristic"))
    means = result.mean_tardy()
    for (n, ratio, algorithm), (mean, _) in means.items():
        if algorithm == "heuristic":
            assert mean <= means[(n, ratio, "baseline")][0] + 1e-12


def test_baseline_nonincreasing_in_ratio_per_instance():
    result = run_sweep(
        small_config(n_vehicles=12, ratios=(1.0, 1.2, 1.5, 2.0), instances=3),
        ("baseline",),
    )
    per_instance = {}
    for rec in result.records:
        per_instance.setdefault(rec.instance_index, []).append((rec.ratio, rec.tardy_count))
    for rows in per_instance.values():
        counts = [c for _, c in sorted(rows)]
        assert counts == sorted(counts, reverse=True)


def test_each_ratio_derived_from_one_generated_instance():
    """run_sweep generates each seed's walks once and only resets the soft
    deadlines per ratio; that must equal generating at the ratio."""
    configs = (
        ExperimentConfig(n_vehicles=12),
        ExperimentConfig(n_vehicles=7, grid=GridSpec(3, 4), tau_max_link=80),
    )
    for config in configs:
        for seed in (0, 1, 42, 2**32 - 1):
            base = generate_grid_instance(
                config, config.soft_deadline_ratios[0], seed
            )
            for ratio in config.soft_deadline_ratios:
                derived = replace(
                    base, soft_deadlines=soft_deadlines_at(base.walks, ratio)
                )
                assert derived == generate_grid_instance(config, ratio, seed)


def test_tardy_csv_reproducible(tmp_path):
    a = run_sweep(small_config(), ("baseline", "heuristic"))
    b = run_sweep(small_config(), ("baseline", "heuristic"))
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    path_a, _ = emit_csv(a, dir_a)
    path_b, _ = emit_csv(b, dir_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_empty_algorithms_and_single_cell(tmp_path):
    empty = run_sweep(small_config(), ())
    tardy_path, runtime_path = emit_csv(empty, tmp_path / "empty")
    assert len(read_rows(tardy_path)) == 1
    assert len(read_rows(runtime_path)) == 1
    single = run_sweep(
        small_config(ratios=(1.1,), instances=1), ("baseline", "heuristic")
    )
    tardy_path, _ = emit_csv(single, tmp_path / "single")
    assert len(read_rows(tardy_path)) == 3


def test_exact_needs_time_limit_and_respects_cap():
    with pytest.raises(ConfigurationError, match="time limit"):
        run_sweep(small_config(), ("baseline", "exact"))
    capped = run_sweep(
        small_config(n_vehicles=6, ratios=(1.0,), instances=2),
        ("exact",),
        exact_time_limit=30.0,
        exact_cap=5,
    )
    assert not capped.records  # 6 vehicles exceeds the cap of 5
    result = run_sweep(
        small_config(n_vehicles=4, ratios=(1.0,), instances=2, seed=7),
        ("baseline", "heuristic", "exact"),
        exact_time_limit=30.0,
    )
    by_alg = {}
    for rec in result.records:
        by_alg.setdefault(rec.algorithm, []).append(rec)
    assert {rec.status for rec in by_alg["exact"]} == {"optimal"}
    for exact_rec in by_alg["exact"]:
        others = [
            rec.tardy_count
            for rec in by_alg["heuristic"]
            if rec.instance_index == exact_rec.instance_index
            and rec.ratio == exact_rec.ratio
        ]
        assert exact_rec.tardy_count <= min(others)


def test_unknown_algorithm_rejected():
    with pytest.raises(ConfigurationError, match="unknown algorithms"):
        run_sweep(small_config(), ("baseline", "annealing"))


def test_validator_failure_aborts():
    inst = merge_instance(d_soft=(200, 200))
    broken = Schedule(((0, 40), (0, 41)))  # short link and a 1-tick gap
    with pytest.raises(VspError, match="invalid schedule"):
        _check(inst, broken, "baseline", frozenset())


def test_failing_aggregate_writes_no_csv(tmp_path):
    result = run_sweep(small_config(instances=2, ratios=(1.0,)), ("baseline",))
    with pytest.raises(VspError, match="expected 3"):
        emit_csv(SweepResult(3, result.records), tmp_path)
    assert list(tmp_path.iterdir()) == []


def tight_config():
    """Hard deadlines at 1.1 times the free trip time, so some dispatch runs
    break one and record a hard_violations= status."""
    return ExperimentConfig(
        n_vehicles=10,
        soft_deadline_ratios=(1.0, 1.05, 1.1),
        hard_deadline_factor=1.1,
        n_instances=3,
        seed=3,
    )


@pytest.mark.parametrize("algorithms", [
    ("baseline",),
    ("heuristic",),
    ("baseline", "heuristic"),
    ("baseline", "heuristic", "exact"),
])
def test_shared_proximity_run_matches_per_ratio_dispatch(algorithms):
    """One proximity run per instance seed gives every record a per-ratio
    dispatch of the generated instance would give."""
    config = tight_config()
    result = run_sweep(config, algorithms, exact_time_limit=30.0)
    dispatch_records = [r for r in result.records if r.algorithm != "exact"]
    expected = []
    seeds = sorted({(r.instance_index, r.instance_seed) for r in result.records})
    assert len(seeds) == config.n_instances
    for index, seed in seeds:
        for ratio in config.soft_deadline_ratios:
            inst = generate_grid_instance(config, ratio, seed)
            runs = {
                "baseline": run_dispatch(inst, Mode.PROXIMITY),
                "heuristic": deadline_and_proximity(inst),
            }
            for name, run in runs.items():
                if name in algorithms:
                    expected.append((
                        index, ratio, name,
                        int(evaluate(inst, run.schedule(), ObjectiveKind.TARDY_COUNT)),
                        "completed" if not run.hard_violations
                        else f"hard_violations={run.hard_violations}",
                    ))
    assert [
        (r.instance_index, r.ratio, r.algorithm, r.tardy_count, r.status)
        for r in dispatch_records
    ] == expected
    assert any(status != "completed" for *_, status in expected)
    if "exact" in algorithms:
        alone = run_sweep(config, ("exact",), exact_time_limit=30.0)
        assert [
            (r.instance_index, r.ratio, r.tardy_count, r.status)
            for r in result.records if r.algorithm == "exact"
        ] == [
            (r.instance_index, r.ratio, r.tardy_count, r.status)
            for r in alone.records
        ]


def test_sweep_dispatches_proximity_once_per_instance_seed(monkeypatch):
    config = tight_config()
    calls = []

    def counted(instance, mode, *args):
        calls.append(mode)
        return run_dispatch(instance, mode, *args)

    def deadline_draws(seed, ratio):
        # best_of draws the modes in Mode order and stops at the first run
        # that is complete, on time and free of hard violations.
        inst = generate_grid_instance(config, ratio, seed)
        runs = [run_dispatch(inst, mode) for mode in Mode]
        return next((k for k, run in enumerate(runs) if run.complete
                     and not run.hard_violations
                     and evaluate(inst, run.schedule()) == 0), 2)

    seeds = sorted({
        (r.instance_index, r.instance_seed)
        for r in run_sweep(config, ("baseline",)).records
    })
    draws = [deadline_draws(seed, ratio)
             for _, seed in seeds for ratio in config.soft_deadline_ratios]
    # Every way of stopping occurs: after proximity, after abs, never.
    assert set(draws) == {0, 1, 2}
    monkeypatch.setattr(vsp.bench, "run_dispatch", counted)
    for algorithms, expected in (
        (("baseline", "heuristic"), config.n_instances + sum(draws)),
        (("heuristic",), config.n_instances + sum(draws)),
        (("baseline",), config.n_instances),
        (("exact",), 0),
    ):
        calls.clear()
        run_sweep(config, algorithms, exact_time_limit=30.0)
        assert len(calls) == expected, algorithms
        assert calls.count(Mode.PROXIMITY) == (config.n_instances if expected else 0)


def test_sweep_validates_proximity_schedule_once_per_instance_seed(monkeypatch):
    """Validation reads no soft deadline, so the shared proximity schedule
    is checked the first time a seed emits it; every deadline-mode schedule
    is checked at its own ratio."""
    config = tight_config()
    calls = []

    def counted(instance, schedule):
        calls.append((instance.walks, schedule))
        return validate_schedule(instance, schedule)

    monkeypatch.setattr(vsp.bench, "validate_schedule", counted)
    winners = set()
    for algorithms in (("baseline", "heuristic"), ("heuristic",), ("baseline",)):
        calls.clear()
        result = run_sweep(config, algorithms)
        seeds = sorted({(r.instance_index, r.instance_seed) for r in result.records})
        expected = []
        for _, seed in seeds:
            insts = [generate_grid_instance(config, ratio, seed)
                     for ratio in config.soft_deadline_ratios]
            proximity = run_dispatch(insts[0], Mode.PROXIMITY).schedule()
            best = [deadline_and_proximity(inst) for inst in insts]
            winners |= {b.mode for b in best}
            shown = [b.schedule() for b in best] if "heuristic" in algorithms else []
            if "baseline" in algorithms:
                shown.insert(0, proximity)
            # Each deadline-mode schedule shown, and the proximity one once.
            deadline = [s for s in shown if s != proximity]
            expected.append(len(deadline) + (len(deadline) < len(shown)))
        per_seed = {}
        for walks, _ in calls:
            per_seed[walks] = per_seed.get(walks, 0) + 1
        assert list(per_seed.values()) == expected, algorithms
    # Both outcomes of best-of-three occur, so both branches are counted.
    assert Mode.PROXIMITY in winners and len(winners) > 1


def test_sweep_builds_the_visit_index_once_per_instance_seed(monkeypatch):
    """Validation reads no soft deadline, so every dispatch schedule of a
    seed is checked against the seed's base instance, and the per-vertex
    visit index is built once per seed, not once per validated ratio."""
    built = []
    build = Instance.__dict__["visits"].func

    def counted(instance):
        built.append(instance.walks)
        return build(instance)

    visits = cached_property(counted)
    visits.__set_name__(Instance, "visits")
    monkeypatch.setattr(Instance, "visits", visits)
    config = tight_config()
    for algorithms in (("baseline", "heuristic"), ("heuristic",), ("baseline",)):
        built.clear()
        run_sweep(config, algorithms)
        assert len(built) == len(set(built)) == config.n_instances, algorithms


@pytest.mark.parametrize("algorithms", [
    ("baseline",), ("heuristic",), ("baseline", "heuristic"),
])
@pytest.mark.parametrize("bad_seed", [0, 2])
def test_clashing_proximity_run_still_aborts_the_sweep(
        monkeypatch, algorithms, bad_seed):
    """A proximity run that ignores the separation aborts the sweep at the
    first cell that emits it, with the message of that cell's check."""
    config = tight_config()
    seeds = sorted({
        (r.instance_index, r.instance_seed)
        for r in run_sweep(config, ("baseline",)).records
    })
    proximity_calls = []

    def clashing(instance, mode, *args):
        if mode is Mode.PROXIMITY:
            proximity_calls.append(mode)
            if len(proximity_calls) == bad_seed + 1:
                instance = replace(instance, separation=0)
        return run_dispatch(instance, mode, *args)

    seed = seeds[bad_seed][1]
    base = generate_grid_instance(config, config.soft_deadline_ratios[0], seed)
    bad = run_dispatch(replace(base, separation=0), Mode.PROXIMITY)
    message = None
    for ratio in config.soft_deadline_ratios:
        inst = replace(base, soft_deadlines=soft_deadlines_at(base.walks, ratio))
        if "baseline" in algorithms:
            name = "baseline"
        else:
            def dispatch(m):
                return bad if m is Mode.PROXIMITY else run_dispatch(inst, m)
            if best_of(inst, dispatch) is not bad:
                continue
            name = "heuristic"
        with pytest.raises(VspError) as caught:
            _check(inst, bad.schedule(), name, _DISPATCH_OK)
        message = str(caught.value)
        break
    assert message is not None

    monkeypatch.setattr(vsp.bench, "run_dispatch", clashing)
    with pytest.raises(VspError) as caught:
        run_sweep(config, algorithms)
    assert str(caught.value) == message
