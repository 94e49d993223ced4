import csv
from dataclasses import replace

import pytest

import vsp.bench
from vsp import (
    ConfigurationError,
    ExperimentConfig,
    GridSpec,
    Mode,
    ObjectiveKind,
    Schedule,
    SweepResult,
    VspError,
    deadline_and_proximity,
    emit_csv,
    evaluate,
    generate_grid_instance,
    run_dispatch,
    run_sweep,
)
from vsp.bench import _check
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


def test_combined_requires_matching_instance_counts():
    a = run_sweep(small_config(instances=2, ratios=(1.0,)), ("baseline",))
    b = run_sweep(small_config(n_vehicles=7, instances=2, ratios=(1.0,)), ("baseline",))
    combined = SweepResult.combined([a, b])
    assert {rec.n_vehicles for rec in combined.records} == {5, 7}
    c = run_sweep(small_config(instances=3, ratios=(1.0,)), ("baseline",))
    with pytest.raises(ValueError):
        SweepResult.combined([a, c])


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

    monkeypatch.setattr(vsp.bench, "run_dispatch", counted)
    ratios = len(config.soft_deadline_ratios)
    for algorithms, expected in (
        (("baseline", "heuristic"), config.n_instances * (1 + 2 * ratios)),
        (("heuristic",), config.n_instances * (1 + 2 * ratios)),
        (("baseline",), config.n_instances),
        (("exact",), 0),
    ):
        calls.clear()
        run_sweep(config, algorithms, exact_time_limit=30.0)
        assert len(calls) == expected, algorithms
        assert calls.count(Mode.PROXIMITY) == (config.n_instances if expected else 0)
