"""Iteration-loop tests: determinism, trace integrity, reward exchange."""

import csv
import itertools
import json
import math

import numpy as np
import pytest

from mlosim import (
    ConfigError,
    PhysicalConfig,
    Scenario,
    Strategy,
    min_rate_timeseries,
    run_scenario,
    sample_scenario,
)
from mlosim import agents, engine, radio
from mlosim.codec import dumps
from mlosim.engine import RunResult, run_learning
from mlosim.radio import all_neighbor_sets, dbm_to_mw, link_budget_matrix_mw, rate_kernel
from mlosim.rng import generator
from oracles import (
    expected_random_rates,
    max_min_optima,
    oracle_neighbor_sets,
    reference_run,
    scalar_rate_bps,
)


def world(seed=42, n=4, k=4):
    return sample_scenario(generator(seed), n=n, k=k, area_side_m=100.0, d=10.0)


def crossed_pair(k=2):
    """Two heavily overlapping BSSs: each STA sits 1 m from the other AP,
    so any shared link is crushed by interference."""
    return Scenario(
        area_side_m=100.0,
        ap_positions=((45.0, 50.0), (56.0, 50.0)),
        sta_positions=((55.0, 50.0), (46.0, 50.0)),
        ap_sta_distance_m=10.0,
        num_links=k,
        physical=PhysicalConfig(),
    )


class TestDeterminism:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_identical_inputs_identical_serialization(self, strategy):
        sc = world()
        a = run_scenario(sc, strategy, T=120, seed=9)
        b = run_scenario(sc, strategy, T=120, seed=9)
        assert dumps(a) == dumps(b)

    def test_different_seeds_differ(self):
        sc = world()
        a = run_scenario(sc, Strategy.RANDOM, T=50, seed=1)
        b = run_scenario(sc, Strategy.RANDOM, T=50, seed=2)
        assert not np.array_equal(a.action_masks, b.action_masks)

    def test_agent_streams_do_not_depend_on_population(self):
        # Random agents ignore rewards, so AP i's action sequence depends
        # only on its child stream (seed, i): shared APs must match across
        # worlds of different sizes.
        small = Scenario(
            area_side_m=100.0,
            ap_positions=((10.0, 10.0), (90.0, 90.0)),
            sta_positions=((10.0, 20.0), (90.0, 80.0)),
            ap_sta_distance_m=10.0,
            num_links=4,
        )
        big = Scenario(
            area_side_m=100.0,
            ap_positions=((10.0, 10.0), (90.0, 90.0), (50.0, 50.0)),
            sta_positions=((10.0, 20.0), (90.0, 80.0), (50.0, 60.0)),
            ap_sta_distance_m=10.0,
            num_links=4,
        )
        a = run_scenario(small, Strategy.RANDOM, T=80, seed=33)
        b = run_scenario(big, Strategy.RANDOM, T=80, seed=33)
        assert np.array_equal(a.action_masks, b.action_masks[:, :2])


class TestTrace:
    def test_shapes_and_materialized_records(self):
        sc = world(n=3)
        res = run_scenario(sc, Strategy.FEDERATED_RL, T=25, seed=4)
        assert res.T == 25 and res.n == 3
        assert res.action_masks.shape == res.rates_bps.shape == res.global_rewards.shape
        assert res.action_masks.dtype == np.uint16
        data = json.loads(dumps(res))
        assert set(data) == {
            "scenario", "strategy", "seed", "action_masks", "rates_bps", "global_rewards",
        }
        assert len(data["action_masks"]) == 25
        assert data["action_masks"][7][1] == res.action_masks[7, 1]
        assert data["rates_bps"][7] == res.rates_bps[7].tolist()
        assert data["global_rewards"][7] == res.global_rewards[7].tolist()

    def test_non_federated_runs_have_no_global_rewards(self):
        res = run_scenario(world(n=2), Strategy.LOCAL_RL, T=10, seed=1)
        assert res.global_rewards is None
        assert json.loads(dumps(res))["global_rewards"] is None

    def test_neighbor_sets_frozen_and_symmetric(self):
        # The world's one neighbour matrix is the oracle's, symmetric and
        # irreflexive, and every iteration's global reward is read through it.
        sc = world(n=6, seed=10)
        res = run_scenario(sc, Strategy.FEDERATED_RL, T=5, seed=2)
        hears = all_neighbor_sets(sc)
        assert np.array_equal(hears, oracle_neighbor_sets(sc))
        assert np.array_equal(hears, hears.T) and not hears.diagonal().any()
        for i, row in enumerate(hears | np.eye(6, dtype=bool)):
            assert np.array_equal(res.global_rewards[:, i], res.rates_bps[:, row].min(axis=1))

    def test_rejects_zero_iterations(self):
        with pytest.raises(ConfigError):
            run_scenario(world(n=1), Strategy.FIXED, T=0, seed=1)

    # Strategy is a str-Enum, so a name compares equal to its member; only
    # members select a strategy.
    @pytest.mark.parametrize("name", ["frl", "rl", "fixed", "random", "bogus"])
    def test_rejects_strategy_names(self, name):
        with pytest.raises(ConfigError, match="Strategy members"):
            run_scenario(world(n=2), name, T=10, seed=7)

    # Every strategy rejects a negative seed, fixed too, which draws nothing.
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_rejects_negative_seed(self, strategy):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            run_scenario(world(n=2), strategy, T=10, seed=-1)

    # Only integers, numpy's too, count iterations or seed a run, and they
    # are recorded as Python ints.
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("T, seed", [
        (10, 1.5), (10.0, 1), (10, "1"), (None, 1), (10, None), (10, 1.0), (True, 1), (10, False),
    ])
    def test_rejects_non_integer_iterations_or_seed(self, strategy, T, seed):
        with pytest.raises(ConfigError, match="(T|seed) must be an integer"):
            run_scenario(world(n=2), strategy, T=T, seed=seed)

    # A world whose rates, or their sum over the run's T iterations, would
    # not be finite is rejected before any world is built, by every
    # strategy and by the lockstep loop.
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("physical, T, names", [
        (PhysicalConfig(noise_floor_dbm=-300.0, sensitivity_dbm=-290.0), 1,
         "noise_floor_dbm=-300.0"),
        (PhysicalConfig(bandwidth_hz_per_link=1e306), 20, "bandwidth_hz_per_link=1e\\+306"),
    ], ids=["noise", "bandwidth"])
    def test_rejects_worlds_of_unbounded_rates(self, monkeypatch, strategy, physical, T, names):
        sc = sample_scenario(generator(3), n=3, k=4, area_side_m=100.0, d=10.0,
                             physical=physical)
        monkeypatch.setattr(engine, "_static", None)  # no world is built
        with pytest.raises(ConfigError, match=names):
            run_scenario(sc, strategy, T=T, seed=1)
        with pytest.raises(ConfigError, match=names):
            next(run_learning((sc, sc), LEARNERS, T, range(4)))

    def test_bandwidth_whose_run_sums_stay_finite_passes(self):
        sc = sample_scenario(generator(3), n=3, k=4, area_side_m=100.0, d=10.0,
                             physical=PhysicalConfig(bandwidth_hz_per_link=1e306))
        res = run_scenario(sc, Strategy.FIXED, T=2, seed=1)
        assert np.isfinite(res.mean_rates_bps()).all()

    def test_numpy_integers_pass(self):
        for strategy in Strategy:
            res = run_scenario(world(n=2), strategy, T=np.int64(10), seed=np.uint32(7))
            assert dumps(res) == dumps(run_scenario(world(n=2), strategy, T=10, seed=7))


class TestFixedStrategy:
    def test_full_mask_every_iteration(self):
        sc = world(n=5, seed=8)
        res = run_scenario(sc, Strategy.FIXED, T=40, seed=3)
        assert np.all(res.action_masks == 0b1111)

    def test_rates_constant_over_time(self):
        sc = world(n=5, seed=8)
        res = run_scenario(sc, Strategy.FIXED, T=40, seed=3)
        assert np.allclose(res.rates_bps, res.rates_bps[0], rtol=0, atol=0)


class TestRatesMatchScalarRadio:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_engine_rates_equal_direct_evaluation(self, strategy):
        sc = world(n=4, seed=21, k=3)
        res = run_scenario(sc, strategy, T=60, seed=11)
        for t in (0, 13, 37, 59):
            for i in range(sc.n):
                assert res.rates_bps[t, i] == pytest.approx(
                    scalar_rate_bps(sc, res.action_masks[t], i), rel=1e-12
                )

    @pytest.mark.parametrize("mutant", ["pathloss-slope", "halved-rate"])
    def test_oracle_shares_no_function_with_the_engine(self, monkeypatch, mutant):
        # A fault in the library's pathloss or rate kernel must show here;
        # scalar_rate_bps calls neither.
        if mutant == "pathloss-slope":
            pathloss = radio.pathloss_db
            monkeypatch.setattr(radio, "pathloss_db",
                                lambda d, phys: pathloss(d, phys) + 10 * np.log10(d))
        else:
            kernel = radio.rate_kernel
            monkeypatch.setattr(engine, "rate_kernel",
                                lambda *args: lambda index: kernel(*args)(index) / 2)
        sc = world(n=5, seed=45)
        res = run_scenario(sc, Strategy.FIXED, T=1, seed=3)
        assert res.rates_bps[0] != pytest.approx(
            [scalar_rate_bps(sc, [0b1111] * sc.n, i) for i in range(sc.n)], rel=1e-12
        )


class TestWorldRateFunction:
    """The rate function that the engine builds once per world (or per
    task, on one budget per run) must give, call after call, the bits of a
    fresh `rate_kernel` call on each world's budget, and of the kernel's
    form written out with a transposed view and `.sum`; for action indices
    of the dtypes and shapes the engine passes too: intp or uint16 (the
    learning loop's distinct rows), and a `random` run's (128, n) block."""

    @staticmethod
    def written_out(power, active, noise_mw, bandwidth):
        total = power.T @ active + noise_mw
        ratio = total / (total - active * power.diagonal()[:, None])
        return np.log2(ratio).sum(axis=-1) * bandwidth

    @pytest.mark.parametrize("k", [1, 4, 8, 9, 16])
    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_equals_rates_bps_bit_for_bit(self, n, k):
        worlds = [world(seed=60 + w, n=n, k=k) for w in range(3)]
        bits = radio.link_mask_matrix(k)
        index = generator(n * k).integers(0, len(bits), size=(3, 4, n))
        block = generator(n * k + 1).integers(0, len(bits), size=(128, n), dtype=np.intp)
        noise_mw, bandwidth = dbm_to_mw(-95.0), 80e6
        power = [link_budget_matrix_mw(sc) for sc in worlds]
        stacked = rate_kernel([p for p in power for _ in range(4)], k, worlds[0].physical)
        for w, sc in enumerate(worlds):
            alone = rate_kernel([power[w]], k, sc.physical)
            expected = rate_kernel([power[w]], k, sc.physical)(index[w])
            assert np.array_equal(expected, self.written_out(power[w], bits[index[w]], noise_mw,
                                                             bandwidth))
            for _ in range(2):  # the kernel's second call too
                assert np.array_equal(alone(index[w]), expected)
                assert np.array_equal(alone(index[w].astype(np.uint16)), expected)
            for stack in (index, index.astype(np.uint16)):  # 4 runs of each world
                assert np.array_equal(stacked(stack.reshape(-1)).reshape(3, 4, n)[w], expected)
            expected = rate_kernel([power[w]], k, sc.physical)(block)
            assert np.array_equal(alone(block), expected)
            assert np.array_equal(alone(block.astype(np.uint16)), expected)


class TestFederatedExchange:
    def test_global_is_min_over_self_and_neighbors(self):
        sc = world(n=6, seed=14)
        res = run_scenario(sc, Strategy.FEDERATED_RL, T=50, seed=5)
        hears = oracle_neighbor_sets(sc)
        for t in range(res.T):
            for i in range(res.n):
                members = {i, *np.flatnonzero(hears[i])}
                expected = min(res.rates_bps[t, j] for j in members)
                assert res.global_rewards[t, i] == pytest.approx(expected, rel=1e-12)

    @staticmethod
    def assert_minima_exact(res):
        for i, nbrs in enumerate(oracle_neighbor_sets(res.scenario)):
            members = [i, *np.flatnonzero(nbrs)]
            for t in range(res.T):
                assert res.global_rewards[t, i] == min(res.rates_bps[t, j] for j in members)

    def test_minimum_is_exact_at_n64(self):
        res = run_scenario(world(seed=16, n=64), Strategy.FEDERATED_RL, T=100, seed=8)
        assert oracle_neighbor_sets(res.scenario).sum(axis=1).max() > 1
        self.assert_minima_exact(res)

    def test_isolated_ap_is_its_own_minimum(self):
        sc = Scenario(
            area_side_m=100.0,
            ap_positions=((10.0, 10.0), (12.0, 10.0), (90.0, 90.0)),
            sta_positions=((10.0, 20.0), (12.0, 20.0), (90.0, 80.0)),
            ap_sta_distance_m=10.0,
            num_links=2,
        )
        assert all_neighbor_sets(sc).tolist() == [[False, True, False], [True, False, False],
                                                  [False, False, False]]
        res = run_scenario(sc, Strategy.FEDERATED_RL, T=200, seed=9)
        self.assert_minima_exact(res)
        assert np.array_equal(res.global_rewards[:, 2], res.rates_bps[:, 2])

    def test_global_never_exceeds_local(self):
        sc = world(n=8, seed=15)
        res = run_scenario(sc, Strategy.FEDERATED_RL, T=200, seed=6)
        assert np.all(res.global_rewards <= res.rates_bps + 1e-9)

    def test_clique_world_agrees_on_global_reward(self):
        # All APs within coverage of each other: every agent must compute
        # the same minimum at every iteration.
        rng = generator(55)
        pts = [(48.0 + 2 * i, 50.0) for i in range(4)]
        sc = Scenario(
            area_side_m=100.0,
            ap_positions=tuple(pts),
            sta_positions=tuple((x, 60.0) for x, _ in pts),
            ap_sta_distance_m=10.0,
            num_links=2,
        )
        assert np.all(all_neighbor_sets(sc).sum(axis=1) == 3)
        res = run_scenario(sc, Strategy.FEDERATED_RL, T=40, seed=7)
        spread = res.global_rewards.max(axis=1) - res.global_rewards.min(axis=1)
        assert np.all(spread == 0.0)


class TestConvergence:
    def test_isolated_ap_learns_full_mask(self):
        # No interference: the all-links arm strictly dominates, so the
        # local learner must sit on it for >= 95% of the final 200 rounds.
        sc = world(n=1, seed=30)
        res = run_scenario(sc, Strategy.LOCAL_RL, T=2000, seed=13)
        final = res.action_masks[-200:, 0]
        assert (final == 0b1111).mean() >= 0.95

    def test_crossed_pair_frl_finds_disjoint_links(self):
        # Brute force over the 9 joint profiles: the max-min optima are the
        # two disjoint single-link assignments.
        sc = crossed_pair()
        _, optima = max_min_optima(sc)
        assert optima == {(0b01, 0b10), (0b10, 0b01)}

        res = run_scenario(sc, Strategy.FEDERATED_RL, T=2000, seed=14)
        final = res.action_masks[-200:]
        hits = sum(tuple(row) in optima for row in final.tolist())
        assert hits / 200 >= 0.80


def tiny_world(n, k, family):
    """A world of n <= 3 APs in one of three geometries: `isolated` (far
    apart), `clique` (2 m apart in a row, all within coverage) or `sampled`
    (uniform in a 30 m square, so they interfere)."""
    if family == "sampled":
        return sample_scenario(generator(900 + 10 * n + k), n=n, k=k, area_side_m=30.0, d=10.0)
    if family == "isolated":
        pts = [(10.0, 10.0), (90.0, 90.0), (10.0, 80.0)][:n]
    else:
        pts = [(48.0 + 2 * i, 50.0) for i in range(n)]
    return Scenario(
        area_side_m=100.0,
        ap_positions=tuple(pts),
        sta_positions=tuple((x, y + 10.0) for x, y in pts),
        ap_sta_distance_m=10.0,
        num_links=k,
    )


LEARNERS = [Strategy.LOCAL_RL, Strategy.FEDERATED_RL]


class TestReferenceBandit:
    """The engine's array agents against per-agent bandits (tests/oracles.py)
    that read the same uniforms: masks, rates and global rewards must match
    bit for bit."""

    @staticmethod
    def assert_matches_reference(sc, strategy, T, seed):
        res = run_scenario(sc, strategy, T, seed)
        masks, rates, shared = reference_run(sc, strategy, T, seed)
        assert np.array_equal(res.action_masks, masks)
        assert np.array_equal(res.rates_bps, rates)
        if strategy is Strategy.FEDERATED_RL:
            assert np.array_equal(res.global_rewards, shared)
        return res

    @pytest.mark.parametrize("strategy", LEARNERS)
    @pytest.mark.parametrize("family", ["isolated", "clique", "sampled"])
    @pytest.mark.parametrize("n,k", list(itertools.product((1, 2, 3), (1, 2))))
    def test_every_tiny_world_family(self, n, k, family, strategy):
        sc = tiny_world(n, k, family)
        res = self.assert_matches_reference(sc, strategy, T=200, seed=7 * n + k)
        # Sanity anchor: no joint action beats the brute-force max-min optimum.
        best, _ = max_min_optima(sc)
        assert res.rates_bps.min(axis=1).max() <= best * (1 + 1e-12)

    @pytest.mark.parametrize("strategy", LEARNERS)
    @pytest.mark.parametrize("world_seed", [61, 62, 63])
    def test_sampled_n8_worlds(self, world_seed, strategy):
        sc = sample_scenario(generator(world_seed), n=8, k=4, area_side_m=100.0, d=10.0)
        self.assert_matches_reference(sc, strategy, T=300, seed=world_seed)


class TestBlockLayout:
    @pytest.mark.parametrize("strategy", [Strategy.RANDOM, *LEARNERS])
    def test_results_do_not_depend_on_block_size(self, monkeypatch, strategy):
        sc = world(n=5, seed=70)
        default = dumps(run_scenario(sc, strategy, T=300, seed=71))
        for block in (1, 7, 10**6):
            monkeypatch.setattr(agents, "_BLOCK", block)
            assert dumps(run_scenario(sc, strategy, T=300, seed=71)) == default

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_stacked_rates_equal_per_iteration_calls(self, n):
        sc = world(n=n, seed=80 + n)
        power = link_budget_matrix_mw(sc)
        index = generator(81).integers(0, 15, size=(128, n))
        stacked = rate_kernel([power], 4, sc.physical)(index)
        single = np.array([rate_kernel([power], 4, sc.physical)(a) for a in index])
        assert stacked.shape == (128, n)
        assert np.array_equal(stacked, single)


class TestRecurringJointActions:
    """A learning run computes each joint action's rates once and gathers
    them where the joint action recurs. Long runs, where most rows recur,
    must still match fresh evaluations row by row."""

    @staticmethod
    def recurring_share(res):
        _, first = np.unique(res.action_masks, axis=0, return_index=True)
        return 1.0 - len(first) / res.T

    @pytest.mark.parametrize("strategy", LEARNERS)
    @pytest.mark.parametrize("sc", [crossed_pair(k=4), world(seed=64, n=8)], ids=["n2", "n8"])
    def test_long_runs_match_reference(self, sc, strategy):
        res = TestReferenceBandit.assert_matches_reference(sc, strategy, T=2000, seed=65)
        assert self.recurring_share(res) > 0.5

    @pytest.mark.parametrize("strategy", LEARNERS)
    def test_every_row_equals_fresh_evaluation(self, strategy):
        sc = world(seed=66, n=8)
        res = run_scenario(sc, strategy, T=2000, seed=67)
        assert self.recurring_share(res) > 0.5
        power = link_budget_matrix_mw(sc)
        hears = oracle_neighbor_sets(sc)
        members = [[i, *np.flatnonzero(nbrs)] for i, nbrs in enumerate(hears)]
        for row in range(res.T):
            fresh = rate_kernel([power], sc.num_links, sc.physical)(res.action_masks[row] - 1)
            assert np.array_equal(res.rates_bps[row], fresh), row
            if strategy is Strategy.FEDERATED_RL:
                shared = [fresh[m].min() for m in members]
                assert np.array_equal(res.global_rewards[row], shared), row


ORDERS = [tuple(LEARNERS), tuple(LEARNERS[::-1]), tuple(LEARNERS[:1]), tuple(LEARNERS[1:])]
ORDER_IDS = ["-".join(s.value for s in order) for order in ORDERS]


def lockstep(sc, strategies, T, seed):
    """run_learning over `strategies`, run w seeded seed + w; returns the
    (strategy, seed, result) of each run."""
    seeds = [seed + w for w in range(len(strategies))]
    return list(zip(strategies, seeds, run_learning([sc], strategies, T, seeds)))


class TestLockstep:
    """A world's learning runs step together as one population of L * n
    agents; each run must equal the run alone, bit for bit."""

    @pytest.mark.parametrize("block", [1, 7, 128])
    @pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
    @pytest.mark.parametrize("n", [1, 2, 8, 16, 64])
    def test_each_run_equals_the_run_alone(self, monkeypatch, n, order, block):
        monkeypatch.setattr(agents, "_BLOCK", block)
        sc = world(n=n, seed=100 + n)
        T = 100 if n == 64 else 300
        runs = lockstep(sc, order, T, seed=7 * n)
        assert [res.strategy for _, _, res in runs] == list(order)
        for strategy, seed, res in runs:
            alone = run_scenario(sc, strategy, T, seed)
            assert np.array_equal(res.action_masks, alone.action_masks)
            assert np.array_equal(res.rates_bps, alone.rates_bps)
            if strategy is Strategy.FEDERATED_RL:
                assert np.array_equal(res.global_rewards, alone.global_rewards)
                assert res.global_rewards.flags.c_contiguous
            else:
                assert res.global_rewards is None
            assert res.action_masks.flags.c_contiguous and res.rates_bps.flags.c_contiguous
            # At n=1 numpy sums a contiguous column pairwise, so the mean
            # depends on the layout as well as on the values.
            assert np.array_equal(res.mean_rates_bps(), alone.mean_rates_bps())
            assert dumps(res) == dumps(alone)

    @pytest.mark.parametrize("family", ["isolated", "clique", "sampled"])
    @pytest.mark.parametrize("n,k", list(itertools.product((1, 2, 3), (1, 2))))
    def test_tiny_worlds_match_reference_bandit(self, n, k, family):
        sc = tiny_world(n, k, family)
        for strategy, seed, res in lockstep(sc, LEARNERS, T=200, seed=7 * n + k):
            masks, rates, shared = reference_run(sc, strategy, 200, seed)
            assert np.array_equal(res.action_masks, masks)
            assert np.array_equal(res.rates_bps, rates)
            if strategy is Strategy.FEDERATED_RL:
                assert np.array_equal(res.global_rewards, shared)

    @pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
    @pytest.mark.parametrize("n", [3, 8])
    def test_mid_run_rates_equal_scalar_oracle(self, n, order):
        sc = world(n=n, seed=110 + n)
        for _, _, res in lockstep(sc, order, T=400, seed=n):
            t = res.T // 2
            for i in range(n):
                assert res.rates_bps[t, i] == pytest.approx(
                    scalar_rate_bps(sc, res.action_masks[t], i), rel=1e-9)

    @pytest.mark.parametrize("strategies, seeds, T", [
        ((Strategy.LOCAL_RL,), (1,), 0),
        ((Strategy.LOCAL_RL, Strategy.FEDERATED_RL), (1,), 10),
        ((Strategy.FIXED,), (1,), 10),
        ((), (), 10),
        (("frl",), (1,), 10),
        ((Strategy.LOCAL_RL, "frl"), (1, 2), 10),
        ((Strategy.FEDERATED_RL,), (-1,), 10),
    ])
    def test_rejects_bad_runs(self, strategies, seeds, T):
        with pytest.raises(ConfigError):
            run_learning([world(n=2)], strategies, T, seeds)

    # Worlds of several AP counts step together (TestMixedCounts); worlds of
    # several k, whose action sets differ, or of other physical constants
    # cannot.
    @pytest.mark.parametrize("worlds, seeds", [
        ([], []),
        ([world(n=2), world(n=2, k=3)], [1, 2, 3, 4]),
        ([world(n=3), world(n=2, k=3)], [1, 2, 3, 4]),
        ([world(n=3), sample_scenario(generator(43), n=2, k=4, area_side_m=100.0, d=10.0,
                                      physical=PhysicalConfig(noise_floor_dbm=-90.0))],
         [1, 2, 3, 4]),
        ([world(n=2), world(n=2, seed=43)], [1, 2, 3]),
    ], ids=["no-world", "mixed-k", "mixed-n-and-k", "mixed-physical", "seed-short"])
    def test_rejects_worlds_that_cannot_step_together(self, worlds, seeds):
        with pytest.raises(ConfigError):
            run_learning(worlds, LEARNERS, 10, seeds)


class TestWorldChunks:
    """S worlds of one AP count step together as one population of
    S * L * n agents; every run must equal the run alone, bit for bit."""

    @pytest.mark.parametrize("S", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64])
    def test_each_run_equals_the_run_alone(self, monkeypatch, n, S):
        monkeypatch.setattr(agents, "_BLOCK", 64)
        worlds = [world(n=n, seed=200 + 10 * n + w) for w in range(S)]
        T = 60 if n == 64 else 300
        seeds = [3 * n + r for r in range(S * len(LEARNERS))]
        runs = list(run_learning(worlds, LEARNERS, T, seeds))
        assert [(res.scenario, res.strategy, res.seed) for res in runs] == [
            (sc, strategy, seeds[r]) for r, (sc, strategy)
            in enumerate(itertools.product(worlds, LEARNERS))]
        for res in runs:
            alone = run_scenario(res.scenario, res.strategy, T, res.seed)
            assert dumps(res) == dumps(alone)
            assert np.array_equal(res.mean_rates_bps(), alone.mean_rates_bps())

    # Long enough that joint actions recur, at S = 2 too: the chunk's whole
    # joint action, every run's, keys one dict, so the kernel runs once per
    # distinct row of the runs' stacked actions, and a recurring row must
    # give every run the rows it would have had alone.
    @pytest.mark.parametrize("S", [1, 2])
    def test_each_distinct_joint_action_calls_the_kernel_once(self, monkeypatch, S):
        calls = counted_kernels(monkeypatch)
        worlds = [world(n=8, seed=250 + w) for w in range(S)]
        T, seeds = 2000, list(range(17, 17 + S * len(LEARNERS)))
        runs = list(run_learning(worlds, LEARNERS, T, seeds))
        stacked = np.hstack([res.action_masks for res in runs])  # (T, S * L * n)
        assert calls == [len(np.unique(stacked, axis=0))] and calls[0] < T
        monkeypatch.undo()
        for res in runs:
            assert dumps(res) == dumps(run_scenario(res.scenario, res.strategy, T, res.seed))

    def test_results_are_gathered_one_at_a_time(self):
        worlds = [world(n=4, seed=230 + w) for w in range(2)]
        runs = run_learning(worlds, LEARNERS, 50, [1, 2, 3, 4])
        first = next(runs)
        assert first.scenario == worlds[0] and first.strategy is LEARNERS[0]
        assert len(list(runs)) == 3


def counted_kernels(monkeypatch):
    """Patch the engine's rate kernel so that each kernel it builds counts
    its calls: returns the list of counts, one per kernel built, in order."""
    counts = []

    def counted(*args):
        rates = rate_kernel(*args)
        counts.append(0)
        kernel = len(counts) - 1

        def counted_rates(index):
            counts[kernel] += 1
            return rates(index)

        return counted_rates

    monkeypatch.setattr(engine, "rate_kernel", counted)
    return counts


class TestMixedCounts:
    """Worlds of several AP counts (one k) step together: one policy step
    for all their runs' agents and, per new joint action of the whole task,
    one key, one rate pass and one reward call. Every run must equal the
    run alone, bit for bit."""

    @pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
    @pytest.mark.parametrize("counts", [
        (2, 3), (1, 2, 3, 8), (8, 8, 3, 2, 2, 1), (3, 8, 8, 3), (1, 1, 8, 2),
    ], ids=["mixed-n", "1-2-3-8", "8-8-3-2-2-1", "3-8-8-3", "1-1-8-2"])
    @pytest.mark.parametrize("block", [7, 128])
    def test_each_run_equals_the_run_alone(self, monkeypatch, counts, order, block):
        monkeypatch.setattr(agents, "_BLOCK", block)
        worlds = [world(n=n, seed=300 + 10 * n + w) for w, n in enumerate(counts)]
        T, L = 300, len(order)
        seeds = [5 * len(counts) + r for r in range(len(worlds) * L)]
        runs = list(run_learning(worlds, order, T, seeds))
        assert [(res.scenario, res.strategy, res.seed) for res in runs] == [
            (sc, strategy, seeds[r]) for r, (sc, strategy)
            in enumerate(itertools.product(worlds, order))]
        for res in runs:
            alone = run_scenario(res.scenario, res.strategy, T, res.seed)
            assert dumps(res) == dumps(alone)
            assert np.array_equal(res.mean_rates_bps(), alone.mean_rates_bps())
            assert res.action_masks.flags.c_contiguous and res.rates_bps.flags.c_contiguous

    # Long enough that joint actions recur: the task's whole joint action
    # keys one dict, so its one kernel runs once per distinct row of every
    # run's stacked actions, fewer times than T.
    @pytest.mark.parametrize("counts", [(8, 8, 2), (2, 8, 8), (3, 8, 3)])
    def test_each_distinct_task_row_calls_the_kernel_once(self, monkeypatch, counts):
        calls = counted_kernels(monkeypatch)
        worlds = [world(n=n, seed=260 + w) for w, n in enumerate(counts)]
        T, L = 2000, len(LEARNERS)
        seeds = list(range(40, 40 + len(worlds) * L))
        runs = list(run_learning(worlds, LEARNERS, T, seeds))
        stacked = np.hstack([res.action_masks for res in runs])  # (T, A)
        assert calls == [len(np.unique(stacked, axis=0))] and calls[0] < T
        monkeypatch.undo()
        for res in runs:
            assert dumps(res) == dumps(run_scenario(res.scenario, res.strategy, T, res.seed))

    # From k = 8 on, numpy adds a link axis in eight partial sums, not in
    # link order. The task's one rate pass over the runs of worlds of
    # several AP counts (the four runs of two worlds of n = 3 stacked among
    # them) must keep each world's order: each world's rates equal its own
    # kernel's, bit for bit.
    @pytest.mark.parametrize("k", [1, 7, 8, 9, 16])
    def test_one_pass_keeps_each_worlds_link_sum_at_any_k(self, k):
        counts, L = (1, 3, 3, 8, 16, 64), 2
        worlds = [world(n=n, seed=500 + w, k=k) for w, n in enumerate(counts)]
        budgets = [link_budget_matrix_mw(sc) for sc in worlds for _ in range(L)]
        rates = rate_kernel(budgets, k, worlds[0].physical)
        p = 2**k - 1
        index = generator(k).integers(0, p, size=(3, L * sum(counts)))
        index[0] = p - 1  # every agent on every link
        for row in index:  # as the loop rates a distinct row
            row_rates, lo = rates(row), 0
            for sc in worlds:
                alone = rate_kernel([link_budget_matrix_mw(sc)], k, sc.physical)
                for _ in range(L):
                    chosen = row[lo:lo + sc.n]
                    assert np.array_equal(row_rates[lo:lo + sc.n], alone(chosen))
                    assert row_rates[lo:lo + sc.n] == pytest.approx(
                        [scalar_rate_bps(sc, chosen + 1, i) for i in range(sc.n)], rel=1e-12)
                    lo += sc.n
            assert lo == len(row)

    # The kernel decides how runs are stacked: the loop hands it one link
    # budget per run, S * L of them in run order, each its world's own.
    @pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
    def test_kernel_takes_one_budget_per_run(self, monkeypatch, order):
        taken = []

        def recorded(budgets, k, physical):
            taken.append(list(budgets))
            return rate_kernel(budgets, k, physical)

        monkeypatch.setattr(engine, "rate_kernel", recorded)
        worlds = [world(n=n, seed=540 + w) for w, n in enumerate((3, 8, 8, 2))]
        seeds = list(range(len(worlds) * len(order)))
        list(run_learning(worlds, order, 20, seeds))
        (budgets,) = taken
        assert len(budgets) == len(worlds) * len(order)
        for r, budget in enumerate(budgets):
            assert np.array_equal(budget, link_budget_matrix_mw(worlds[r // len(order)]))


class TestExactExpectation:
    def test_random_run_means_match_exact_expectation(self):
        # 20 worlds x 8 APs: per-AP z-scores of the run mean against the
        # exact expectation, pooled. Iterations are i.i.d. under `random`,
        # so the run's own spread gives the standard error.
        z = []
        for s in range(20):
            sc = sample_scenario(generator(4000 + s), n=8, k=4, area_side_m=100.0, d=10.0)
            res = run_scenario(sc, Strategy.RANDOM, T=2000, seed=s)
            se = res.rates_bps.std(axis=0, ddof=1) / math.sqrt(res.T)
            z.extend((res.mean_rates_bps() - expected_random_rates(sc)) / se)
        z = np.array(z)
        assert abs(z.sum()) / math.sqrt(len(z)) < 5
        assert 0.8 <= z.std(ddof=1) <= 1.25

    @pytest.mark.parametrize("n", [1, 5, 16])
    def test_fixed_rows_equal_scalar_reference(self, n):
        # From k = 8 on, numpy adds the kernel's link axis in eight partial
        # sums, not in link order.
        for k in (1, 4, 8, 9, 16):
            sc = world(n=n, seed=40 + n, k=k)
            res = run_scenario(sc, Strategy.FIXED, T=30, seed=3)
            assert np.all(res.rates_bps == res.rates_bps[0])
            assert res.rates_bps[0] == pytest.approx(
                [scalar_rate_bps(sc, [2**k - 1] * n, i) for i in range(n)], rel=1e-12
            ), f"k={k}"


class TestMinRateTimeseries:
    def test_hand_built_trace(self):
        sc = world(n=2, seed=18)
        rates = np.array([[1.0, 5.0], [3.0, 5.0], [2.0, 5.0]])
        res = RunResult(
            scenario=sc,
            strategy=Strategy.FIXED,
            seed=0,
            action_masks=np.full((3, 2), 0b1111, dtype=np.uint16),
            rates_bps=rates,
            global_rewards=None,
        )
        assert min_rate_timeseries(res).tolist() == [1.0, 2.0, 2.0]

    def test_empty_trace_rejected(self):
        sc = world(n=2, seed=18)
        res = RunResult(scenario=sc, strategy=Strategy.FIXED, seed=0,
                        action_masks=np.empty((0, 2), dtype=np.uint16),
                        rates_bps=np.empty((0, 2)), global_rewards=None)
        with pytest.raises(ConfigError, match="empty trace"):
            min_rate_timeseries(res)

    def test_single_ap_series_is_cumulative_mean(self):
        res = run_scenario(world(n=1, seed=19), Strategy.RANDOM, T=50, seed=20)
        series = min_rate_timeseries(res)
        expected = np.cumsum(res.rates_bps[:, 0]) / np.arange(1, 51)
        assert np.allclose(series, expected, rtol=1e-12)

    def test_fixed_series_constant_for_symmetric_world(self):
        res = run_scenario(world(n=3, seed=20), Strategy.FIXED, T=30, seed=21)
        series = min_rate_timeseries(res)
        assert np.allclose(series, series[0], rtol=1e-12)


class TestSerializationOutputs:
    def test_json_roundtrip_parses(self):
        res = run_scenario(world(n=2, seed=22), Strategy.FEDERATED_RL, T=12, seed=23)
        data = json.loads(dumps(res))
        assert data["strategy"] == "frl"
        assert len(data["action_masks"]) == 12
        assert data["rates_bps"][3][1] == res.rates_bps[3, 1]

    def test_csv_trace_layout(self, tmp_path):
        res = run_scenario(world(n=3, seed=24), Strategy.LOCAL_RL, T=7, seed=25)
        path = tmp_path / "trace.csv"
        res.write_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7 * 3
        assert rows[0]["t"] == "1" and rows[0]["ap"] == "0"
        assert set(rows[0]) == {
            "t", "ap", "action_mask", "rate_bps", "global_reward",
        }
        assert float(rows[4]["rate_bps"]) == res.rates_bps[1, 1]
        assert len(rows[0]["action_mask"]) == 4  # zero-padded to k bits
