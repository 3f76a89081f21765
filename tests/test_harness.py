"""Batch driver tests: aggregation, pairing, determinism, file outputs."""

import concurrent.futures
import csv
import json
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlosim import (
    ConfigError,
    EmptyInputError,
    ExperimentConfig,
    PhysicalConfig,
    Strategy,
    run_batch,
    run_scenario,
)
from mlosim import agents, engine, harness
from mlosim.codec import dumps, from_json
from mlosim.harness import (
    compute_ecdf,
    density_sweep,
    percentile,
    run_experiment,
    run_seed,
    run_single_scenario,
    scenario_for_index,
)

LEARNERS = (Strategy.LOCAL_RL, Strategy.FEDERATED_RL)
SMALL = ExperimentConfig(
    num_scenarios=6, iterations=40, n_values=(3,), k=2, master_seed=99
)


class TestEcdf:
    def test_single_value(self):
        assert compute_ecdf([10.0]) == [(10.0, 1.0)]

    def test_hand_sorted_triplet(self):
        points = compute_ecdf([3.0, 1.0, 2.0])
        assert points == [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            compute_ecdf([])

    def test_fractions_monotone_with_duplicates(self):
        points = compute_ecdf([5.0, 5.0, 1.0, 7.0])
        fractions = [f for _, f in points]
        assert fractions == sorted(fractions)
        assert fractions[0] == 0.25 and fractions[-1] == 1.0


class TestPercentile:
    def test_p90_of_1_to_100_by_hand(self):
        values = list(range(1, 101))
        # sorted-order linear interpolation: position 0.9*(100-1) = 89.1,
        # so 90 + 0.1 * (91 - 90) = 90.1
        q = 0.9 * (len(values) - 1)
        lo = int(q)
        expected = values[lo] + (q - lo) * (values[lo + 1] - values[lo])
        assert expected == pytest.approx(90.1)
        assert percentile(values, 90.0) == pytest.approx(expected)

    def test_extremes(self):
        assert percentile([4.0, 2.0, 9.0], 0.0) == 2.0
        assert percentile([4.0, 2.0, 9.0], 100.0) == 9.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            percentile([], 50.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            percentile([1.0], 101.0)


class TestConfig:
    def test_defaults_match_reference_experiment(self):
        cfg = ExperimentConfig()
        assert cfg.num_scenarios == 500
        assert cfg.iterations == 2000
        assert cfg.n_values == (8,)
        assert cfg.k == 4
        assert cfg.area_side_m == 100.0
        assert cfg.d_m == 10.0
        assert cfg.strategies == tuple(Strategy)
        assert cfg.physical == PhysicalConfig()

    def test_json_roundtrip(self):
        cfg = replace(SMALL, strategies=(Strategy.FIXED, Strategy.FEDERATED_RL))
        again = from_json(ExperimentConfig, json.loads(dumps(cfg)))
        assert again == cfg

    def test_partial_json_uses_defaults(self):
        cfg = from_json(ExperimentConfig, {"num_scenarios": 3})
        assert cfg.num_scenarios == 3
        assert cfg.iterations == 2000

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            from_json(ExperimentConfig, {"scenario_count": 3})

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_scenarios=0),
            dict(iterations=0),
            dict(n_values=()),
            dict(n_values=(0,)),
            dict(strategies=()),
            dict(strategies=None),
            dict(workers=0),
            dict(n_values=(4, 2, 4)),
            dict(strategies=(Strategy.FEDERATED_RL, Strategy.FEDERATED_RL)),
            # Names equal their members (a str-Enum); only members are strategies.
            dict(strategies=("fixed", "frl")),
            dict(strategies=(Strategy.FIXED, "bogus")),
            dict(area_side_m="100"),
            dict(d_m=None),
            # Only what the JSON reader gives back.
            dict(physical=None),
            dict(physical={}),
            dict(output_dir=3),
            dict(output_dir=b"out"),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            replace(ExperimentConfig(), **kwargs)

    # Collections built directly take any iterable, numpy arrays included; a
    # value that is not iterable is a ConfigError that names its field.
    @pytest.mark.parametrize("name, value", [
        ("n_values", 3), ("n_values", None), ("strategies", 5), ("strategies", True),
    ])
    def test_rejects_non_iterable_collections(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be iterable"):
            replace(SMALL, **{name: value})

    # A str or bytes iterates over its characters or bytes, so it is refused
    # as a collection: "frl" is not three strategies, nor b"\x08" one AP count.
    def test_json_string_asks_for_a_list(self):
        with pytest.raises(ConfigError, match="strategies must be a list, .* got 'frl'"):
            from_json(ExperimentConfig, {"strategies": "frl"})

    def test_bytes_ask_for_a_list(self):
        with pytest.raises(ConfigError, match="n_values must be a list, not a string"):
            replace(SMALL, n_values=b"\x08")

    def test_collections_take_any_iterable(self):
        pair = (Strategy.FIXED, Strategy.FEDERATED_RL)
        for n_values, strategies in [(np.array([2, 4]), np.array(pair, dtype=object)),
                                     ([2, 4], list(pair)), (iter((2, 4)), iter(pair))]:
            cfg = replace(SMALL, n_values=n_values, strategies=strategies)
            assert cfg.n_values == (2, 4) and cfg.strategies == pair

    # Counts built directly (JSON configs go through codec) take integers,
    # numpy's too, but no bool.
    @pytest.mark.parametrize("name, value", [
        ("num_scenarios", True), ("iterations", True), ("iterations", 2.5), ("k", True),
        ("master_seed", False), ("workers", True), ("n_values", (True,)), ("n_values", (2.0,)),
    ])
    def test_rejects_non_integer_counts(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            replace(SMALL, **{name: value})
        replace(SMALL, **{name: np.int64(3) if name != "n_values" else (np.int64(3),)})

    @pytest.mark.parametrize("strategies, learners", [
        ((Strategy.FIXED,), 1),
        ((Strategy.RANDOM, Strategy.FEDERATED_RL), 1),
        (tuple(Strategy), 2),
    ])
    def test_run_bytes_budget_counts_every_learning_run(self, strategies, learners):
        # A world's learning runs step together as one run of L*n agents:
        # past a full block of draws, an iteration costs what it does for one
        # run of L*n agents.
        n, B = 8, harness._BLOCK
        one = ExperimentConfig(strategies=strategies, iterations=B, n_values=(n,))
        frl = replace(one, strategies=(Strategy.FEDERATED_RL,))

        def per_iteration(cfg, aps):
            return (harness.run_bytes(replace(cfg, iterations=B + 1), aps)
                    - harness.run_bytes(cfg, aps))

        assert per_iteration(one, n) == per_iteration(frl, learners * n)
        # The most iterations within the budget: each adds the same bytes.
        fits = B + (harness.RUN_BYTES_BUDGET - harness.run_bytes(one, n)) // per_iteration(one, n)
        replace(one, iterations=fits)
        with pytest.raises(ConfigError, match="iterations=.* and k=4"):
            replace(one, iterations=fits + 1)

    def test_run_bytes_budget_counts_every_link_subset(self):
        # Each of the 2**k - 1 actions holds a table entry per agent, so a
        # k=16 world needs about 16 times the bytes of a k=12 one.
        cfg = ExperimentConfig(iterations=1, n_values=(8,), k=12)
        assert harness.run_bytes(replace(cfg, k=16), 8) > 16 * harness.run_bytes(cfg, 8)
        with pytest.raises(ConfigError, match="k=16 at 1000 APs"):
            replace(cfg, k=16, n_values=(1000,))

    # Points where the per-iteration terms dominate: one learning run, a
    # world of all four strategies, and a batch task's chunk of 3 such
    # worlds. A lone frl run at n=2 peaks lower than the world's two
    # learning runs there, so it is left out for time.
    @pytest.mark.parametrize("run, n, T", [
        ("world", 2, 32000), ("frl", 8, 16000), ("world", 8, 16000), ("frl", 64, 8000),
        ("world", 64, 8000), ("chunk", 8, 8000),
    ])
    def test_world_peak_stays_within_run_bytes(self, run, n, T):
        strategies = (Strategy.FEDERATED_RL,) if run == "frl" else tuple(Strategy)
        worlds = 3 if run == "chunk" else 1
        cfg = ExperimentConfig(strategies=strategies, num_scenarios=worlds, iterations=T,
                               n_values=(n,))
        tracemalloc.start()
        try:
            if run == "chunk":
                harness._chunk_task((cfg, [(n, range(worlds))]))
            else:
                run_single_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= worlds * harness.run_bytes(cfg, n)

    # Points where the per-action terms dominate: a world of all four
    # strategies over the 2**k - 1 link subsets of k links.
    @pytest.mark.parametrize("k", [8, 12, 16])
    @pytest.mark.parametrize("n", [2, 8])
    def test_world_peak_stays_within_run_bytes_at_large_k(self, k, n):
        cfg = ExperimentConfig(num_scenarios=1, iterations=10, n_values=(n,), k=k)
        tracemalloc.start()
        try:
            run_single_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= harness.run_bytes(cfg, n)

    # Where a `random` run's block weighs most: a world of short runs at k=8
    # (without the block its peak reads 1.06 and 1.63 of run_bytes at n = 2
    # and 8).
    @pytest.mark.parametrize("n", [2, 8])
    def test_random_world_peak_stays_within_run_bytes(self, n):
        cfg = ExperimentConfig(strategies=(Strategy.RANDOM,), num_scenarios=1, iterations=200,
                               n_values=(n,), k=8)
        tracemalloc.start()
        try:
            run_single_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= harness.run_bytes(cfg, n)

    # Where a chunk's learning draws weigh most: chunks of S learning worlds
    # of short runs, whose draws are held for all S*L*n agents at once
    # (without them in run_bytes, peaks read up to 1.91 of S*run_bytes).
    @pytest.mark.parametrize("T", [130, 500])
    @pytest.mark.parametrize("S", [3, 10])
    @pytest.mark.parametrize("k", [1, 4, 8])
    @pytest.mark.parametrize("n", [2, 32])
    def test_chunk_peak_stays_within_run_bytes_per_world(self, n, k, S, T):
        cfg = ExperimentConfig(strategies=(Strategy.LOCAL_RL, Strategy.FEDERATED_RL),
                               num_scenarios=S, iterations=T, n_values=(n,), k=k)
        tracemalloc.start()
        try:
            harness._chunk_task((cfg, [(n, range(S))]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= S * harness.run_bytes(cfg, n)

    # Mixed tasks, whose worlds of several AP counts step together: a task
    # allocates at most the sum of its worlds' run_bytes. The first two are
    # the sweep-cli unit's tasks.
    @pytest.mark.parametrize("parts, T, k", [
        ([(16, 2), (4, 2), (2, 2)], 2000, 4),
        ([(12, 2), (8, 2)], 2000, 4),
        ([(64, 1), (8, 2)], 500, 4),
        ([(32, 3), (2, 10)], 130, 8),
        ([(8, 3), (2, 3), (1, 3)], 4000, 1),
    ])
    @pytest.mark.parametrize("learning_only", [False, True], ids=["all", "learning"])
    def test_mixed_task_peak_stays_within_its_worlds_run_bytes(self, parts, T, k,
                                                               learning_only):
        strategies = LEARNERS if learning_only else tuple(Strategy)
        cfg = ExperimentConfig(strategies=strategies, num_scenarios=max(S for _, S in parts),
                               iterations=T, n_values=tuple(n for n, _ in parts), k=k)
        task = [(n, range(S)) for n, S in parts]
        tracemalloc.start()
        try:
            harness._chunk_task((cfg, task))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sum(S * harness.run_bytes(cfg, n) for n, S in parts)

    def test_one_count_batch_splits_its_worlds_among_the_workers(self, monkeypatch):
        # With all five counts' worlds shared out, n=8's 100 would make one
        # task, so run_batch would start no pool.
        cfg = replace(SMALL, n_values=(2, 4, 8, 12, 16), num_scenarios=100, workers=4)
        pools = []

        class InlinePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        def no_run(task):
            _, parts = task
            return [(n, s, f"{n}:{s}", [0.0] * len(cfg.strategies))
                    for n, indices in parts for s in indices]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(harness, "_chunk_task", no_run)
        assert harness._tasks(cfg, (8,)) == [[(8, range(lo, lo + 25))] for lo in range(0, 100, 25)]
        assert run_batch(cfg, 8).scenario_digests == tuple(f"8:{s}" for s in range(100))
        assert pools == [4]

    def test_chunk_size_is_capped_by_chunk_bytes(self):
        cfg = replace(SMALL, num_scenarios=500, n_values=(8,), k=4, iterations=2000)
        assert harness.CHUNK_BYTES // harness.run_bytes(cfg, 8) == 22
        assert [len(parts[0][1]) for parts in harness._tasks(cfg, (8,))] == [22] * 22 + [16]
        # A world that alone exceeds CHUNK_BYTES, by its iterations or by its
        # link subsets, still runs, one per task.
        for huge in (replace(cfg, iterations=30 * 2000), replace(cfg, k=16)):
            assert harness.run_bytes(huge, 8) > harness.CHUNK_BYTES
            assert harness._tasks(huge, (8,)) == [[(8, range(s, s + 1))] for s in range(500)]

    # The task layouts of the benchmark's workloads (sweep-cli at 2 workers)
    # and of the 500-world batch at n=8: a sweep's 10 worlds are cut into two
    # tasks of about half their run_bytes each, and the batch into tasks of
    # the 22 worlds that fit in CHUNK_BYTES.
    @pytest.mark.parametrize("strategies, n_values, scenarios, T, workers, layout", [
        (tuple(Strategy), (8,), 1, 2000, 1, [[(8, range(1))]]),  # paper-batch
        ((Strategy.FIXED, Strategy.FEDERATED_RL), (64,), 1, 500, 1,
         [[(64, range(1))]]),  # dense-n64
        (tuple(Strategy), (2, 4, 8, 12, 16), 2, 2000, 2,
         [[(16, range(2)), (12, range(1))],
          [(12, range(1, 2)), (8, range(2)), (4, range(2)), (2, range(2))]]),  # sweep-cli
        (tuple(Strategy), (8,), 500, 2000, 1,
         [[(8, range(lo, min(lo + 22, 500)))] for lo in range(0, 500, 22)]),
    ], ids=["paper-batch", "dense-n64", "sweep-cli", "batch-500"])
    def test_task_layouts_of_the_benchmark_loads(self, strategies, n_values, scenarios, T,
                                                 workers, layout):
        cfg = ExperimentConfig(strategies=strategies, num_scenarios=scenarios, iterations=T,
                               n_values=n_values, workers=workers)
        assert harness._tasks(cfg, n_values) == layout

    # A one-count run's tasks are equal cuts of consecutive worlds: a share
    # of ceil(m / workers) worlds, or what fits in CHUNK_BYTES, or one.
    @pytest.mark.parametrize("scenarios, workers", [(1, 4), (7, 3), (100, 4), (500, 2), (45, 1)])
    def test_one_count_tasks_are_its_chunks(self, scenarios, workers):
        cfg = ExperimentConfig(num_scenarios=scenarios, n_values=(8,), workers=workers)
        size = min(-(-scenarios // workers), harness.CHUNK_BYTES // harness.run_bytes(cfg, 8))
        assert tasks_by_the_rule(cfg, (8,)) == [[(8, range(lo, min(lo + size, scenarios)))]
                                                for lo in range(0, scenarios, size)]

    @pytest.mark.parametrize("scenarios, workers", [(2, 2), (3, 2), (30, 2), (100, 2), (100, 8)])
    def test_mixed_tasks_fit_in_chunk_bytes(self, scenarios, workers):
        n_values = (2, 4, 8, 12, 16)
        tasks_by_the_rule(ExperimentConfig(num_scenarios=scenarios, n_values=n_values,
                                           workers=workers), n_values)

    # `_tasks` keeps a few numbers and its tasks, not a list of the worlds:
    # one would take about 19 MB here.
    def test_tasks_hold_no_list_of_worlds(self):
        cfg = ExperimentConfig(num_scenarios=200_000, iterations=1, n_values=(1,))
        tracemalloc.start()
        try:
            tasks = harness._tasks(cfg, (1,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(indices) for parts in tasks for _, indices in parts) == 200_000
        assert peak < 2**20


def tasks_by_the_rule(cfg, n_values):
    """`_tasks(cfg, n_values)`, checked against its rule: the tasks hold every
    world once, largest AP count first and in scenario order; a task of
    several worlds fits in CHUNK_BYTES; and a task closes once it holds the
    share of run_bytes per worker, or before a world that would overflow it."""
    tasks = harness._tasks(cfg, n_values)
    worlds = [[(n, s) for n, indices in parts for s in indices] for parts in tasks]
    assert [w for task in worlds for w in task] == [
        (n, s) for n in sorted(n_values, reverse=True) for s in range(cfg.num_scenarios)]
    loads = [[harness.run_bytes(cfg, n) for n, _ in task] for task in worlds]
    share = -(-sum(map(sum, loads)) // cfg.workers)
    for t, load in enumerate(loads):
        assert load and (len(load) == 1 or sum(load) <= harness.CHUNK_BYTES)
        assert sum(load[:-1]) < share  # it had not closed before its last world
        if t + 1 < len(loads):
            assert sum(load) >= share or sum(load) + loads[t + 1][0] > harness.CHUNK_BYTES
    return tasks


class TestWorldBuild:
    # A world's link budget and neighbor sets are built once, although its
    # learning runs and each of its fixed and random runs use them.
    @pytest.mark.parametrize("chunk", [1, 3])
    def test_each_world_is_built_once(self, monkeypatch, chunk):
        calls = {"all_neighbor_sets": 0, "link_budget_matrix_mw": 0}

        def counted(name):
            build = getattr(engine, name)

            def wrapper(scenario):
                calls[name] += 1
                return build(scenario)

            return wrapper

        for name in calls:
            monkeypatch.setattr(engine, name, counted(name))
        for lo in range(0, 3, chunk):
            harness._chunk_task((SMALL, [(3, range(lo, min(lo + chunk, 3)))]))
        assert calls == {"all_neighbor_sets": 3, "link_budget_matrix_mw": 3}

    def test_a_freed_world_leaves_no_build(self):
        sc = scenario_for_index(SMALL, 3, 0)
        res = run_scenario(sc, Strategy.FIXED, 5, 1)
        key = id(sc)
        assert key in engine._STATIC
        del sc, res
        assert key not in engine._STATIC


class TestRunBatch:
    def test_summary_shape_and_stats(self):
        summary = run_batch(SMALL)
        assert summary.n == 3 and summary.num_scenarios == 6
        assert set(summary.per_strategy) == set(Strategy)
        for stats in summary.per_strategy.values():
            assert len(stats.min_rates_bps) == 6
            assert stats.mean_min_rate_bps == pytest.approx(
                np.mean(stats.min_rates_bps)
            )
            fractions = [f for _, f in stats.ecdf_points]
            assert fractions[0] == pytest.approx(1 / 6)
            assert fractions[-1] == 1.0
            assert fractions == sorted(fractions)
            assert stats.p90_bps == pytest.approx(
                percentile(stats.min_rates_bps, 90.0)
            )

    def test_min_rate_is_min_of_time_averages(self):
        summary = run_batch(SMALL)
        from mlosim.engine import run_scenario

        sc = scenario_for_index(SMALL, 3, 2)
        res = run_scenario(
            sc, Strategy.FIXED, SMALL.iterations, run_seed(SMALL, 3, 2, Strategy.FIXED)
        )
        expected = res.mean_rates_bps().min()
        assert summary.per_strategy[Strategy.FIXED].min_rates_bps[2] == pytest.approx(
            expected, rel=1e-12
        )

    def test_paired_worlds_across_strategy_subsets(self):
        lone_fixed = replace(SMALL, strategies=(Strategy.FIXED,))
        lone_frl = replace(SMALL, strategies=(Strategy.FEDERATED_RL,))
        s_fixed = run_batch(lone_fixed)
        s_frl = run_batch(lone_frl)
        both = run_batch(SMALL)
        assert s_fixed.scenario_digests == s_frl.scenario_digests == both.scenario_digests
        assert (
            s_fixed.per_strategy[Strategy.FIXED].min_rates_bps
            == both.per_strategy[Strategy.FIXED].min_rates_bps
        )

    def test_deterministic_reruns(self):
        assert dumps(run_batch(SMALL)) == dumps(run_batch(SMALL))

    def test_worker_count_does_not_change_results(self):
        serial = run_batch(SMALL)
        parallel = run_batch(replace(SMALL, workers=2))
        assert dumps(serial) == dumps(parallel)

    def test_pool_has_no_more_workers_than_tasks(self, monkeypatch):
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        two = replace(SMALL, num_scenarios=2)
        assert dumps(run_batch(replace(two, workers=64))) == dumps(run_batch(two))
        run_batch(replace(SMALL, num_scenarios=1, workers=64))
        run_batch(replace(SMALL, workers=3))
        assert sizes == [2, 3]

    def test_multi_density_config_needs_explicit_n(self):
        cfg = replace(SMALL, n_values=(2, 3))
        with pytest.raises(ConfigError):
            run_batch(cfg)
        with pytest.raises(ConfigError):
            run_single_scenario(cfg)
        assert run_batch(cfg, n=2).n == 2
        # Only the config's AP counts, which it checked, run.
        with pytest.raises(ConfigError, match="AP count 4"):
            run_batch(cfg, n=4)
        with pytest.raises(ConfigError, match="AP count 4"):
            run_single_scenario(cfg, n=4)

    # An AP count is an integer of n_values, numpy's too: a float or bool
    # equal to one is not.
    def test_ap_count_must_be_an_integer(self):
        cfg = replace(SMALL, n_values=(1, 3))
        for n in (3.0, np.float64(3.0), True):
            for run in (run_batch, run_single_scenario):
                with pytest.raises(ConfigError, match="AP count must be an integer"):
                    run(cfg, n)
        summary = run_batch(cfg, np.int64(3))
        assert type(summary.n) is int and dumps(summary) == dumps(run_batch(cfg, 3))

    def test_unchecked_ap_count_is_rejected_before_any_world(self, monkeypatch):
        # 2000 APs at k=16 need about 12 GiB per world, which the config
        # would reject; the config at its 8 APs is fine.
        def no_world(*args, **kwargs):
            raise AssertionError("a world was sampled")

        monkeypatch.setattr(harness, "sample_scenario", no_world)
        cfg = ExperimentConfig(k=16)
        with pytest.raises(ConfigError, match="AP count 2000"):
            run_batch(cfg, n=2000)
        with pytest.raises(ConfigError, match="GiB"):
            replace(cfg, n_values=(2000,))

    def test_run_seeds_distinct_per_strategy_and_scenario(self):
        seeds = {
            run_seed(SMALL, 3, s, strat)
            for s in range(4)
            for strat in Strategy
        }
        assert len(seeds) == 16


class TestChunks:
    """A batch task steps a chunk of worlds together; the results must not
    depend on how the worlds are chunked into tasks."""

    @pytest.mark.parametrize("n_values", [(3,), (1,), (1, 4, 2)])
    def test_results_do_not_depend_on_chunk_size_or_workers(self, n_values):
        cfg = replace(SMALL, n_values=n_values, num_scenarios=8, iterations=30)
        expected = {n: dumps(run_batch(cfg, n)) for n in n_values}
        for size in (1, 3, 7):
            outcomes = {n: [None] * cfg.num_scenarios for n in n_values}
            for n in n_values:
                for lo in range(0, cfg.num_scenarios, size):
                    task = [(n, range(lo, min(lo + size, cfg.num_scenarios)))]
                    for _, s, digest, mins in harness._chunk_task((cfg, task)):
                        outcomes[n][s] = digest, mins
            assert {n: dumps(run_batch(cfg, n, outcomes=outcomes[n]))
                    for n in n_values} == expected, size
        sweep = density_sweep(replace(cfg, workers=2))
        assert {n: dumps(s) for n, s in sweep.items()} == expected
        assert dumps(run_batch(replace(cfg, workers=2), n_values[0])) == expected[n_values[0]]


class TestAnyLayout:
    """Any partition of a run's worlds into tasks, each task's worlds in any
    order, at any size of draw block: every world's outcome is bit for bit
    the one it has alone."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_world_equals_the_world_alone(self, data):
        m = data.draw(st.integers(1, 6), label="num_scenarios")
        T = data.draw(st.integers(1, 8), label="iterations")
        cfg = ExperimentConfig(
            strategies=data.draw(st.lists(st.sampled_from(Strategy), min_size=1, unique=True)),
            num_scenarios=m, iterations=T, k=data.draw(st.integers(1, 3), label="k"),
            n_values=data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True)),
            master_seed=data.draw(st.integers(0, 2**16), label="master_seed"))
        worlds = data.draw(st.permutations([(n, s) for n in cfg.n_values for s in range(m)]))
        gaps = len(worlds) - 1
        cuts = data.draw(st.lists(st.booleans(), min_size=gaps, max_size=gaps), label="cuts")
        block = data.draw(st.integers(1, T + 1), label="block")
        alone = {(n, s): harness._chunk_task((cfg, [(n, range(s, s + 1))])) for n, s in worlds}
        bounds = [0, *(i for i, cut in enumerate(cuts, 1) if cut), len(worlds)]
        with mock.patch.object(agents, "_BLOCK", block):
            for lo, hi in zip(bounds, bounds[1:]):
                task = [(n, range(s, s + 1)) for n, s in worlds[lo:hi]]
                for outcome in harness._chunk_task((cfg, task)):
                    assert [outcome] == alone[outcome[:2]]


class TestDensitySweep:
    SWEEP = replace(SMALL, n_values=(4, 2, 8), num_scenarios=3, iterations=20)

    def test_one_summary_per_density(self):
        cfg = replace(SMALL, n_values=(1, 2, 4), num_scenarios=3, iterations=20)
        summaries = density_sweep(cfg)
        assert list(summaries) == [1, 2, 4]
        for n, summary in summaries.items():
            assert summary.n == n

    def test_shared_pool_matches_serial_and_per_density_batches(self):
        serial = density_sweep(self.SWEEP)
        parallel = density_sweep(replace(self.SWEEP, workers=2))
        assert list(serial) == list(parallel) == [4, 2, 8]
        for n in self.SWEEP.n_values:
            expected = dumps(run_batch(self.SWEEP, n))
            assert dumps(serial[n]) == dumps(parallel[n]) == expected

    def test_one_pool_per_sweep_gets_largest_densities_first(self, monkeypatch):
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                self.max_workers = max_workers
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                self.tasks = list(tasks)
                return map(fn, self.tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = self.SWEEP
        expected = {n: dumps(s) for n, s in density_sweep(cfg).items()}
        assert pools == []
        largest_first = [(n, s) for n in (8, 4, 2) for s in range(cfg.num_scenarios)]
        # A task is a list of parts, each of consecutive worlds of one AP
        # count. On 2 workers, n=8's 3 worlds reach half the run_bytes and
        # close the first task; n=4's and n=2's make the second. On 64, each
        # of the 9 worlds is a task.
        for workers, layout in ((2, [[(8, 3)], [(4, 3), (2, 3)]]),
                                (64, [[(n, 1)] for n, _ in largest_first])):
            summaries = density_sweep(replace(cfg, workers=workers))
            assert {n: dumps(s) for n, s in summaries.items()} == expected
            (pool,) = pools
            assert pool.max_workers == len(layout)
            assert [[(n, len(indices)) for n, indices in parts]
                    for _, parts in pool.tasks] == layout
            assert [(n, s) for _, parts in pool.tasks
                    for n, indices in parts for s in indices] == largest_first
            pools.clear()


class TestSingleScenario:
    def test_all_strategies_share_the_world(self):
        results = run_single_scenario(SMALL, scenario_index=1)
        worlds = {dumps(res.scenario) for res in results.values()}
        assert len(worlds) == 1
        assert all(res.T == SMALL.iterations for res in results.values())
        assert results[Strategy.FIXED].scenario == scenario_for_index(SMALL, 3, 1)

    @pytest.mark.parametrize("strategies", [
        (Strategy.FEDERATED_RL, Strategy.FIXED, Strategy.LOCAL_RL),
        (Strategy.RANDOM, Strategy.LOCAL_RL),
        (Strategy.FIXED,),
    ])
    def test_runs_in_config_order_equal_each_run_alone(self, strategies):
        cfg = replace(SMALL, strategies=strategies)
        results = run_single_scenario(cfg, scenario_index=2)
        assert tuple(results) == strategies
        world = scenario_for_index(cfg, 3, 2)
        for strategy, res in results.items():
            alone = run_scenario(world, strategy, cfg.iterations, run_seed(cfg, 3, 2, strategy))
            assert dumps(res) == dumps(alone)

    # A batch world's index: an integer of range(num_scenarios), numpy's too.
    @pytest.mark.parametrize("index", [-1, SMALL.num_scenarios, 10**30, 2.5, 2.0, "1", None])
    def test_rejects_an_index_outside_the_batch(self, index):
        with pytest.raises(ConfigError, match="scenario_index"):
            run_single_scenario(SMALL, scenario_index=index)

    def test_numpy_index_passes(self):
        results = run_single_scenario(SMALL, scenario_index=np.int64(1))
        expected = run_single_scenario(SMALL, scenario_index=1)
        assert [dumps(r) for r in results.values()] == [dumps(r) for r in expected.values()]


class TestOutputs:
    def test_single_density_file_set(self, tmp_path):
        cfg = replace(SMALL, output_dir=str(tmp_path))
        run_experiment(cfg)
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {
            "fig3_convergence.csv",
            "fig4_per_ap.csv",
            "fig5_means.csv",
            "fig6_ecdf.csv",
            "summary.json",
        }

    def test_sweep_file_set(self, tmp_path):
        cfg = replace(
            SMALL, n_values=(2, 3), num_scenarios=2, iterations=15, output_dir=str(tmp_path)
        )
        run_experiment(cfg)
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"fig7_density.csv", "summary.json"}

    def test_rates_written_as_mbps_with_three_decimals(self, tmp_path):
        cfg = replace(SMALL, output_dir=str(tmp_path))
        summaries = run_experiment(cfg)
        with open(tmp_path / "fig5_means.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        by_strategy = {row["strategy"]: row for row in rows}
        stats = summaries[3].per_strategy[Strategy.FEDERATED_RL]
        cell = by_strategy["frl"]["mean_min_rate_mbps"]
        assert cell == f"{stats.mean_min_rate_bps / 1e6:.3f}"
        assert len(cell.rsplit(".", 1)[1]) == 3

    def test_convergence_rows(self, tmp_path):
        cfg = replace(SMALL, output_dir=str(tmp_path))
        run_experiment(cfg)
        with open(tmp_path / "fig3_convergence.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 * SMALL.iterations
        assert {row["strategy"] for row in rows} == {s.value for s in Strategy}

    def test_summary_json_contents(self, tmp_path):
        cfg = replace(SMALL, output_dir=str(tmp_path))
        summaries = run_experiment(cfg)
        data = json.loads((tmp_path / "summary.json").read_text())
        assert data["config"]["master_seed"] == 99
        assert data["batches"]["3"]["per_strategy"]["frl"]["mean_min_rate_bps"] == (
            summaries[3].per_strategy[Strategy.FEDERATED_RL].mean_min_rate_bps
        )

    @pytest.mark.parametrize("n_values", [(3,), (2, 3)])
    def test_files_do_not_depend_on_worker_count(self, tmp_path, n_values):
        files = {}
        for workers in (1, 2):
            out = tmp_path / str(workers)
            run_experiment(replace(SMALL, n_values=n_values, workers=workers, output_dir=str(out)))
            files[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert files[1].keys() == files[2].keys()
        for name, data in files[1].items():
            if name != "summary.json":
                assert data == files[2][name], name
        # summary.json differs only in the config's `workers`.
        one, two = (json.loads(f["summary.json"]) for f in (files[1], files[2]))
        for summary in (one, two):
            del summary["config"]["workers"]
        assert one == two

    # The config's output_dir is written as null, so a run writes the same
    # bytes wherever it writes them.
    def test_summary_does_not_depend_on_the_output_dir(self, tmp_path):
        summaries = []
        for name in ("a", "a-much-longer-directory-name"):
            run_experiment(replace(SMALL, num_scenarios=2, output_dir=str(tmp_path / name)))
            summaries.append((tmp_path / name / "summary.json").read_bytes())
        assert summaries[0] == summaries[1]
        assert json.loads(summaries[0])["config"]["output_dir"] is None

    def test_per_ap_view_is_batch_world_zero(self, tmp_path):
        summaries = run_experiment(replace(SMALL, output_dir=str(tmp_path)))
        with open(tmp_path / "fig4_per_ap.csv") as fh:
            rows = list(csv.DictReader(fh))
        for strategy, stats in summaries[3].per_strategy.items():
            rates = [row["mean_rate_mbps"] for row in rows if row["strategy"] == strategy.value]
            assert len(rates) == 3
            assert min(rates, key=float) == harness._mbps(stats.min_rates_bps[0])
