"""Iteration-loop tests: determinism, trace integrity, reward exchange."""

import csv
import itertools
import json

import numpy as np
import pytest

from mlosim import (
    ActivationProfile,
    ConfigError,
    LinkSet,
    PhysicalConfig,
    Scenario,
    Strategy,
    achieved_rate_bps,
    enumerate_actions,
    min_rate_timeseries,
    run_scenario,
    sample_scenario,
)
from mlosim.engine import RunResult
from mlosim.radio import all_neighbor_sets
from mlosim.rng import generator


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
        assert a.to_json() == b.to_json()

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
        data = res.to_json_dict()
        assert set(data) == {
            "scenario", "strategy", "seed", "neighbor_sets",
            "action_masks", "rates_bps", "global_rewards",
        }
        assert len(data["action_masks"]) == 25
        assert data["action_masks"][7][1] == res.action_masks[7, 1]
        assert data["rates_bps"][7] == res.rates_bps[7].tolist()
        assert data["global_rewards"][7] == res.global_rewards[7].tolist()

    def test_non_federated_runs_have_no_global_rewards(self):
        res = run_scenario(world(n=2), Strategy.LOCAL_RL, T=10, seed=1)
        assert res.global_rewards is None
        assert res.to_json_dict()["global_rewards"] is None

    def test_neighbor_sets_frozen_and_symmetric(self):
        sc = world(n=6, seed=10)
        res = run_scenario(sc, Strategy.FEDERATED_RL, T=5, seed=2)
        assert res.neighbor_sets == all_neighbor_sets(sc)
        for i, nbrs in enumerate(res.neighbor_sets):
            assert i not in nbrs
            for j in nbrs:
                assert i in res.neighbor_sets[j]

    def test_rejects_zero_iterations(self):
        with pytest.raises(ConfigError):
            run_scenario(world(n=1), Strategy.FIXED, T=0, seed=1)


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
            profile = ActivationProfile(
                tuple(LinkSet(int(mask), 3) for mask in res.action_masks[t])
            )
            for i in range(sc.n):
                assert res.rates_bps[t, i] == pytest.approx(
                    achieved_rate_bps(sc, profile, i), rel=1e-12
                )


class TestFederatedExchange:
    def test_global_is_min_over_self_and_neighbors(self):
        sc = world(n=6, seed=14)
        res = run_scenario(sc, Strategy.FEDERATED_RL, T=50, seed=5)
        for t in range(res.T):
            for i in range(res.n):
                members = {i} | set(res.neighbor_sets[i])
                expected = min(res.rates_bps[t, j] for j in members)
                assert res.global_rewards[t, i] == pytest.approx(expected, rel=1e-12)

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
        assert all(len(s) == 3 for s in all_neighbor_sets(sc))
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
        space = enumerate_actions(2)
        scored = {}
        for m0, m1 in itertools.product([a.mask for a in space.actions], repeat=2):
            profile = ActivationProfile((LinkSet(m0, 2), LinkSet(m1, 2)))
            scored[(m0, m1)] = min(
                achieved_rate_bps(sc, profile, 0), achieved_rate_bps(sc, profile, 1)
            )
        best_value = max(scored.values())
        optima = {pair for pair, v in scored.items() if v == pytest.approx(best_value)}
        assert optima == {(0b01, 0b10), (0b10, 0b01)}

        res = run_scenario(sc, Strategy.FEDERATED_RL, T=2000, seed=14)
        final = res.action_masks[-200:]
        hits = sum(tuple(row) in optima for row in final.tolist())
        assert hits / 200 >= 0.80


class TestMinRateTimeseries:
    def test_hand_built_trace(self):
        sc = world(n=2, seed=18)
        rates = np.array([[1.0, 5.0], [3.0, 5.0], [2.0, 5.0]])
        res = RunResult(
            scenario=sc,
            strategy=Strategy.FIXED,
            seed=0,
            neighbor_sets=all_neighbor_sets(sc),
            action_masks=np.full((3, 2), 0b1111, dtype=np.uint16),
            rates_bps=rates,
            global_rewards=None,
        )
        assert min_rate_timeseries(res).tolist() == [1.0, 2.0, 2.0]

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
    def test_json_roundtrip_parses(self, tmp_path):
        res = run_scenario(world(n=2, seed=22), Strategy.FEDERATED_RL, T=12, seed=23)
        path = tmp_path / "trace.json"
        res.write_json(path)
        data = json.loads(path.read_text())
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
