import csv
from dataclasses import replace
from functools import cached_property

import pytest

import vsp.bench
import vsp.heuristics
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
    deadline_and_proximity,
    emit_csv,
    evaluate,
    generate_grid_instance,
    lazy_dispatch,
    replay_dispatch,
    run_dispatch,
    run_sweep,
    validate_schedule,
)
from vsp.bench import _DISPATCH_OK, _check
from vsp.instances import deadlines_at
from oracles import eager_best, merge_instance


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
    """run_sweep generates each seed's walks once and derives each ratio's
    instance from them with only new soft deadlines, at the ratio times the
    free trip times its table starts with; that must equal generating at
    the ratio, and replacing the soft deadlines."""
    configs = (
        ExperimentConfig(n_vehicles=12),
        ExperimentConfig(n_vehicles=7, grid=GridSpec(3, 4), tau_max_link=80),
    )
    for config in configs:
        for seed in (0, 1, 42, 2**32 - 1):
            base = generate_grid_instance(
                config, config.soft_deadline_ratios[0], seed
            )
            trips = [row[0] for row in base.remaining_minima]
            assert trips == [sum(walk.min_times) for walk in base.walks]
            for ratio in config.soft_deadline_ratios:
                soft = deadlines_at(trips, ratio)
                derived = base.with_soft_deadlines(soft)
                assert derived == generate_grid_instance(config, ratio, seed)
                assert derived == replace(base, soft_deadlines=soft)
                assert derived.walks is base.walks
                assert derived.remaining_minima is base.remaining_minima


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


@pytest.mark.parametrize("bad", [
    {"exact_cap": float("nan")},
    {"exact_cap": "30"},
    {"exact_cap": True},
    {"exact_cap": -1},
    {"exact_time_limit": -1},
    {"exact_time_limit": float("nan")},
    {"exact_time_limit": "30"},
    {"exact_time_limit": True},
], ids=repr)
def test_sweep_checks_exact_arguments_before_it_builds_an_instance(monkeypatch, bad):
    """6 vehicles are over the cap of 5, so no exact cell would ever run or
    read either argument: a bad one is still refused, naming itself."""
    built = []
    monkeypatch.setattr(vsp.bench, "generate_grid_instance",
                        lambda *args: built.append(args))
    (name, value), = bad.items()
    arguments = {"exact_time_limit": 30.0, "exact_cap": 5, **bad}
    with pytest.raises(ConfigurationError, match=f"^{name} must be .*{value!r}$"):
        run_sweep(small_config(n_vehicles=6), ("baseline", "exact"), **arguments)
    assert not built


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


def test_exact_row_reports_only_proved_optima(tmp_path):
    """A zero budget leaves 2 of these 3 solves at their warm start: every
    returned schedule is still validated and every status kept, but only
    the proved one has a tardy count, and the cell, short of 2 optima, is
    left out of the means and of tardy.csv.  Under 30 s all 3 are proved
    and the cell is their mean."""
    config = small_config(n_vehicles=12, ratios=(1.0,), instances=3, seed=42)
    unproved = run_sweep(config, ("heuristic", "exact"), exact_time_limit=0.0)
    exact = [rec for rec in unproved.records if rec.algorithm == "exact"]
    assert [rec.status for rec in exact] == [
        "optimal", "feasible_incumbent", "feasible_incumbent"
    ]
    assert [rec.tardy_count is None for rec in exact] == [False, True, True]
    assert set(unproved.mean_tardy()) == {(12, 1.0, "heuristic")}
    tardy_path, _ = emit_csv(unproved, tmp_path / "unproved")
    assert [row[2] for row in read_rows(tardy_path)[1:]] == ["heuristic"]

    proved = run_sweep(config, ("heuristic", "exact"), exact_time_limit=30.0)
    solves = [rec for rec in proved.records if rec.algorithm == "exact"]
    assert {rec.status for rec in solves} == {"optimal"}
    optima = [rec.tardy_count for rec in solves]
    mean, _ = proved.mean_tardy()[(12, 1.0, "exact")]
    assert mean == pytest.approx(sum(optima) / len(optima) / 12)
    assert exact[0].tardy_count == optima[0]


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
def test_shared_proximity_run_matches_per_ratio_dispatch(monkeypatch, algorithms):
    """One proximity run per instance seed, and the deadline runs replayed
    from earlier runs of the seed, give every record a per-ratio dispatch
    of the generated instance would give, under both negative-slack
    policies, at tight hard deadlines, at the 11 default ratios and with
    zero link minima, where deadline modes are replayed too."""
    replays = []  # per replay tried: whether it replayed a deadline mode

    def counted(run, instance, mode, *args):
        run = replay_dispatch(run, instance, mode, *args)
        replays.append(run is not None and mode is not Mode.PROXIMITY)
        return run

    monkeypatch.setattr(vsp.heuristics, "replay_dispatch", counted)
    statuses = set()
    for config in (
        tight_config(),
        ExperimentConfig(n_vehicles=12, n_instances=3, seed=3),
        ExperimentConfig(n_vehicles=12, n_instances=3, seed=3, tau_min_link=0),
    ):
        swept = []  # the replays tried inside run_sweep
        for policy in ("prose", "pseudocode"):
            replays.clear()
            result = run_sweep(
                config, algorithms, exact_time_limit=30.0, negative_slack=policy
            )
            swept += replays
            dispatch_records = [r for r in result.records if r.algorithm != "exact"]
            expected = []
            seeds = sorted({(r.instance_index, r.instance_seed) for r in result.records})
            assert len(seeds) == config.n_instances
            for index, seed in seeds:
                for ratio in config.soft_deadline_ratios:
                    inst = generate_grid_instance(config, ratio, seed)
                    runs = {
                        "baseline": run_dispatch(inst, Mode.PROXIMITY, policy),
                        "heuristic": deadline_and_proximity(inst, policy),
                    }
                    for name, run in runs.items():
                        if name in algorithms:
                            expected.append((
                                index, ratio, name,
                                int(evaluate(
                                    inst, run.schedule(), ObjectiveKind.TARDY_COUNT
                                )),
                                "completed" if not run.hard_violations
                                else f"hard_violations={run.hard_violations}",
                            ))
            assert [
                (r.instance_index, r.ratio, r.algorithm, r.tardy_count, r.status)
                for r in dispatch_records
            ] == expected, policy
            statuses |= {status for *_, status in expected}
        if "exact" in algorithms:
            alone = run_sweep(config, ("exact",), exact_time_limit=30.0)
            assert [
                (r.instance_index, r.ratio, r.tardy_count, r.status)
                for r in result.records if r.algorithm == "exact"
            ] == [
                (r.instance_index, r.ratio, r.tardy_count, r.status)
                for r in alone.records
            ]
        # Every config, zero link minima included, replays a deadline mode.
        assert any(swept) == ("heuristic" in algorithms)
    assert statuses - {"completed"}


def test_sweep_dispatches_proximity_once_per_instance_seed(monkeypatch):
    """Every mode best-of-three draws is a run started or a replay of an
    earlier run of the seed, and no replay is tried twice.  Proximity is
    started once per seed and replayed at every heuristic cell, and a
    deadline mode is replayed too, also with zero link minima."""
    configs = (tight_config(), replace(tight_config(), tau_min_link=0))
    calls, replays, tries = [], [], []

    def counted(instance, mode, *args):
        calls.append(mode)
        return lazy_dispatch(instance, mode, *args)

    def counted_replay(run, instance, mode, *args):
        tries.append((run, instance, mode))  # kept alive, so ids stay unique
        run = replay_dispatch(run, instance, mode, *args)
        if run is not None:
            replays.append(run.mode)
        return run

    def deadline_draws(config, seed, ratio):
        # deadline_and_proximity draws the modes in Mode order and stops at
        # the first run that is complete, on time and free of hard violations.
        inst = generate_grid_instance(config, ratio, seed)
        runs = [run_dispatch(inst, mode) for mode in Mode]
        return next((k for k, run in enumerate(runs) if run.complete
                     and not run.hard_violations
                     and evaluate(inst, run.schedule()) == 0), 2)

    seeds = sorted({
        (r.instance_index, r.instance_seed)
        for r in run_sweep(configs[0], ("baseline",)).records
    })
    draws = [
        [deadline_draws(config, seed, ratio)
         for _, seed in seeds for ratio in config.soft_deadline_ratios]
        for config in configs
    ]
    # Every way of stopping occurs: after proximity, after abs, never.
    assert set(draws[0]) == {0, 1, 2}
    monkeypatch.setattr(vsp.heuristics, "lazy_dispatch", counted)
    monkeypatch.setattr(vsp.heuristics, "replay_dispatch", counted_replay)
    for config, cell_draws in zip(configs, draws):
        seeded, cells = config.n_instances, len(cell_draws)
        for algorithms, expected in (
            (("baseline", "heuristic"), seeded + cells + sum(cell_draws)),
            (("heuristic",), seeded + cells + sum(cell_draws)),
            (("baseline",), seeded),
            (("exact",), 0),
        ):
            calls.clear()
            replays.clear()
            tries.clear()
            # The exact solver's warm start dispatches through the same
            # functions, so it is capped out: this case counts the sweep's own.
            run_sweep(config, algorithms, exact_time_limit=30.0, exact_cap=0)
            assert len(calls) + len(replays) == expected, algorithms
            assert calls.count(Mode.PROXIMITY) == (seeded if expected else 0)
            heuristic = "heuristic" in algorithms
            assert replays.count(Mode.PROXIMITY) == (cells if heuristic else 0)
            assert (len(replays) > replays.count(Mode.PROXIMITY)) == heuristic, algorithms
            assert len({(id(r), id(i), m) for r, i, m in tries}) == len(tries)


def test_sweep_validates_proximity_schedule_once_per_instance_seed(monkeypatch):
    """Validation reads no soft deadline, so each distinct schedule is
    checked the first time a seed emits it: the shared proximity one once,
    and a deadline-mode one once however many ratios emit the same stamps."""
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
            # Each distinct schedule shown, once.
            expected.append(len({s.times for s in shown}))
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


def test_sweep_builds_remaining_minima_once_per_instance_seed(monkeypatch):
    """No soft deadline changes the minimum travel time left after a step,
    so every ratio of a seed shares the table its generated instance
    builds, however many ratios run and whichever algorithms read it."""
    built = []
    build = Instance.__dict__["remaining_minima"].func

    def counted(instance):
        built.append(instance.walks)
        return build(instance)

    table = cached_property(counted)
    table.__set_name__(Instance, "remaining_minima")
    monkeypatch.setattr(Instance, "remaining_minima", table)
    many = tight_config()
    for config in (many, replace(many, soft_deadline_ratios=(1.0,))):
        for algorithms in (
            ("baseline", "heuristic"), ("heuristic",), ("baseline",), ("exact",), (),
        ):
            built.clear()
            run_sweep(config, algorithms, exact_time_limit=30.0)
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
                *_, run = lazy_dispatch(replace(instance, separation=0), mode, *args)
                # Recorded under the real instance, so best-of-three replays it.
                yield replace(run, sorts=(instance, *run.sorts[1:]))
                return
        yield from lazy_dispatch(instance, mode, *args)

    seed = seeds[bad_seed][1]
    base = generate_grid_instance(config, config.soft_deadline_ratios[0], seed)
    bad = run_dispatch(replace(base, separation=0), Mode.PROXIMITY)
    message = None
    for ratio in config.soft_deadline_ratios:
        trips = [sum(walk.min_times) for walk in base.walks]
        inst = replace(base, soft_deadlines=deadlines_at(trips, ratio))
        if "baseline" in algorithms:
            name = "baseline"
        else:
            runs = [bad, run_dispatch(inst, Mode.ABS_DEADLINE_PROXIMITY),
                    run_dispatch(inst, Mode.REL_DEADLINE_PROXIMITY)]
            if eager_best(inst, runs) is not bad:
                continue
            name = "heuristic"
        with pytest.raises(VspError) as caught:
            _check(inst, bad.schedule(), name, _DISPATCH_OK)
        message = str(caught.value)
        break
    assert message is not None

    monkeypatch.setattr(vsp.heuristics, "lazy_dispatch", clashing)
    with pytest.raises(VspError) as caught:
        run_sweep(config, algorithms)
    assert str(caught.value) == message
