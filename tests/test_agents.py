"""Policy tests: action space, epsilon-greedy selection, rewards, reward tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlosim import (
    ConfigError,
    Scenario,
    Strategy,
    enumerate_actions,
    exploration_rate,
    run_scenario,
    sample_scenario,
)
from mlosim import rng as streams
from mlosim.agents import credit, select
from mlosim.rng import generator
from oracles import reference_run


def choices(means, t, seed, trials):
    """`trials` selections of one agent with a frozen table at iteration t,
    each from fresh uniforms of stream `seed`."""
    means = np.asarray(means, dtype=float)[None, :]
    u = generator(seed).random((trials, 1, 3))
    explore = u[..., 0] < exploration_rate(t)
    arm = np.floor(u[..., 1] * means.shape[1]).astype(int)
    return np.array([select(means, explore[r], arm[r], u[r, :, 2])[0] for r in range(trials)])


def table(p):
    return np.zeros((1, p), dtype=np.int64), np.zeros((1, p))


def credit_one(counts, means, action, reward):
    credit(counts, means, np.array([action]), np.array([reward]))


class TestActionSpace:
    def test_four_links_give_fifteen_actions(self):
        assert enumerate_actions(4).p == 15

    def test_single_link(self):
        space = enumerate_actions(1)
        assert space.p == 1
        assert space.actions[0].mask == 0b1

    def test_two_links_exact_order(self):
        space = enumerate_actions(2)
        assert [a.mask for a in space.actions] == [0b01, 0b10, 0b11]

    def test_no_empty_action_and_full_last(self):
        space = enumerate_actions(5)
        assert all(not a.is_empty for a in space.actions)
        assert space.actions[space.full_index].mask == 0b11111

    @pytest.mark.parametrize("k", [0, 17, -3])
    def test_out_of_range(self, k):
        with pytest.raises(ConfigError):
            enumerate_actions(k)

    def test_mask_matrix_matches_actions(self):
        space = enumerate_actions(3)
        mat = space.mask_matrix()
        for idx, action in enumerate(space.actions):
            assert [bool(b) for b in mat[idx]] == [bool(action.mask >> j & 1) for j in range(3)]


class TestExplorationRate:
    def test_starts_fully_exploratory(self):
        assert exploration_rate(1) == 1.0

    def test_inverse_square_root(self):
        assert exploration_rate(4) == 0.5
        assert exploration_rate(10000) == pytest.approx(0.01)
        assert exploration_rate([1, 4, 100]).tolist() == [1.0, 0.5, 0.1]

    def test_rejects_zero(self):
        with pytest.raises(ConfigError):
            exploration_rate(0)
        with pytest.raises(ConfigError):
            exploration_rate([3, 0, 5])


class TestSelection:
    def test_fixed_always_full_mask(self):
        sc = sample_scenario(generator(3), n=3, k=4, area_side_m=100.0, d=10.0)
        res = run_scenario(sc, Strategy.FIXED, T=2000, seed=0)
        assert np.all(res.action_masks == 0b1111)

    def test_fixed_ignores_rewards(self, monkeypatch):
        # In the crossed pair the full mask is the worst joint action; fixed
        # keeps it anyway, and draws no random numbers at all.
        def no_stream(*key):
            raise AssertionError(f"fixed drew from stream {key}")

        monkeypatch.setattr(streams, "generator", no_stream)
        res = run_scenario(crossed_pair(), Strategy.FIXED, T=50, seed=1)
        assert np.all(res.action_masks == 0b11)

    def test_random_covers_the_space_uniformly(self):
        sc = sample_scenario(generator(5), n=1, k=4, area_side_m=100.0, d=10.0)
        trials = 15000
        res = run_scenario(sc, Strategy.RANDOM, T=trials, seed=5)
        counts = np.bincount(res.action_masks[:, 0], minlength=16)[1:]
        assert counts.min() > 0
        # each arm ~1000 draws; 5 sigma ~ 155
        assert np.all(np.abs(counts - trials / 15) < 160)

    def test_rl_at_t1_is_uniform_regardless_of_table(self):
        # epsilon(1) = 1, so a poisoned table must not matter.
        means = np.zeros(15)
        means[7] = 1e12
        hits = sum(int(choices(means, 1, seed, 1)[0]) == 7 for seed in range(400))
        # uniform would give ~400/15 ~ 27; exploitation would give 400
        assert hits < 80

    def test_exploitation_prefers_best_mean(self):
        means = np.zeros(15)
        means[4] = 5e8
        # epsilon(1e6) = 0.001: all 50 picks exploit with high probability
        assert set(choices(means, 10**6, 9, 50).tolist()) == {4}

    def test_federated_exploits_global_table(self):
        # frl credits the shared minimum, rl the own rate: on a contended
        # world both replay bit for bit from the same uniforms, and the
        # rewards they credit lead them apart.
        sc = crossed_pair()
        frl = run_scenario(sc, Strategy.FEDERATED_RL, T=300, seed=2)
        masks, _, shared = reference_run(sc, Strategy.FEDERATED_RL, 300, 2)
        assert np.array_equal(frl.action_masks, masks)
        assert np.array_equal(frl.global_rewards, shared)
        local_masks, _, _ = reference_run(sc, Strategy.LOCAL_RL, 300, 2)
        assert not np.array_equal(frl.action_masks, local_masks)

    def test_tiebreak_splits_evenly(self):
        # Spec example: means [5, 9, 9] Mbps -> arms 1 and 2 each picked
        # with frequency 0.5 +- 0.03 over 1e4 forced-exploitation trials.
        t = 10**9  # epsilon ~ 3e-5: effectively pure exploitation
        counts = np.bincount(choices([5e6, 9e6, 9e6], t, 31, 10**4), minlength=3)
        assert counts[0] <= 5  # only explorations can hit the losing arm
        assert abs(counts[1] / 1e4 - 0.5) < 0.03
        assert abs(counts[2] / 1e4 - 0.5) < 0.03

    def test_exploration_frequency_tracks_inverse_sqrt_t(self):
        # Freeze a table with a strict maximum; a selection differing from
        # the best arm must come from exploration, which happens with
        # probability eps * (p-1)/p. Chi-square over four t bins at the 1%
        # level (critical value for df=4 is 13.277).
        means = np.zeros(15)
        means[6] = 1e9
        chi2 = 0.0
        trials = 4000
        for bin_idx, t in enumerate((4, 25, 100, 400)):
            observed = int((choices(means, t, 1000 + bin_idx, trials) != 6).sum())
            expected = trials * exploration_rate(t) * 14 / 15
            chi2 += (observed - expected) ** 2 / (expected * (1 - expected / trials))
        assert chi2 < 13.277


def crossed_pair():
    """Two heavily overlapping BSSs: each STA sits 1 m from the other AP."""
    return Scenario(
        area_side_m=100.0,
        ap_positions=((45.0, 50.0), (56.0, 50.0)),
        sta_positions=((55.0, 50.0), (46.0, 50.0)),
        ap_sta_distance_m=10.0,
        num_links=2,
    )


def clique(n=4):
    """n APs 2 m apart in a row: every AP hears every other."""
    pts = [(48.0 + 2 * i, 50.0) for i in range(n)]
    return Scenario(
        area_side_m=100.0,
        ap_positions=tuple(pts),
        sta_positions=tuple((x, 60.0) for x, _ in pts),
        ap_sta_distance_m=10.0,
        num_links=2,
    )


class TestRewards:
    """The rewards the agents are credited with, as the engine computes them:
    the local reward is the AP's own rate, the federated (global) reward the
    minimum rate over the AP and its neighbors."""

    def test_local_reward_is_identity(self):
        # rl credits each AP's own rate: the engine replays bit for bit as
        # per-agent bandits that credit the recorded rates.
        sc = sample_scenario(generator(12), n=4, k=2, area_side_m=40.0, d=10.0)
        res = run_scenario(sc, Strategy.LOCAL_RL, T=200, seed=12)
        masks, rates, _ = reference_run(sc, Strategy.LOCAL_RL, 200, 12)
        assert np.array_equal(res.action_masks, masks)
        assert np.array_equal(res.rates_bps, rates)

    def test_global_reward_takes_minimum(self):
        res = run_scenario(clique(), Strategy.FEDERATED_RL, T=40, seed=3)
        expected = np.repeat(res.rates_bps.min(axis=1, keepdims=True), 4, axis=1)
        assert np.array_equal(res.global_rewards, expected)

    def test_global_reward_isolated_ap(self):
        sc = sample_scenario(generator(17), n=1, k=4, area_side_m=100.0, d=10.0)
        res = run_scenario(sc, Strategy.FEDERATED_RL, T=20, seed=10)
        assert np.array_equal(res.global_rewards, res.rates_bps)

    def test_global_reward_includes_self_by_default(self):
        # Whenever AP 0 is the worst of the clique, its own rate is the minimum.
        res = run_scenario(clique(), Strategy.FEDERATED_RL, T=200, seed=4)
        worst_is_self = res.rates_bps.argmin(axis=1) == 0
        assert worst_is_self.any()
        assert np.array_equal(
            res.global_rewards[worst_is_self, 0], res.rates_bps[worst_is_self, 0]
        )

    def test_never_above_local(self):
        for seed in range(5):
            sc = sample_scenario(generator(300 + seed), n=6, k=3, area_side_m=60.0, d=10.0)
            res = run_scenario(sc, Strategy.FEDERATED_RL, T=100, seed=seed)
            assert np.all(res.global_rewards <= res.rates_bps)


class TestRewardTable:
    """agents.credit: the running-mean update of the (n, p) tables."""

    def test_first_sample(self):
        counts, means = table(15)
        credit_one(counts, means, 3, 10.0)
        assert counts[0, 3] == 1 and means[0, 3] == 10.0

    def test_two_samples_average(self):
        counts, means = table(15)
        credit_one(counts, means, 3, 10.0)
        credit_one(counts, means, 3, 20.0)
        assert counts[0, 3] == 2 and means[0, 3] == 15.0

    def test_unvisited_actions_stay_zero(self):
        counts, means = table(4)
        credit_one(counts, means, 0, 5.0)
        assert counts.tolist() == [[1, 0, 0, 0]]
        assert means.tolist() == [[5.0, 0.0, 0.0, 0.0]]

    def test_rows_are_credited_independently(self):
        counts, means = np.zeros((3, 4), dtype=np.int64), np.zeros((3, 4))
        credit(counts, means, np.array([2, 0, 2]), np.array([1.0, 2.0, 3.0]))
        assert counts.tolist() == [[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 1, 0]]
        assert means.tolist() == [[0, 0, 1.0, 0], [2.0, 0, 0, 0], [0, 0, 3.0, 0]]

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.floats(0, 1e10)), min_size=1, max_size=200
        )
    )
    @settings(max_examples=200)
    def test_incremental_equals_batch_mean(self, events):
        counts, means = table(7)
        for action, reward in events:
            credit_one(counts, means, action, reward)
        for action in range(7):
            rewards = [r for a, r in events if a == action]
            assert counts[0, action] == len(rewards)
            if rewards:
                batch = sum(rewards) / len(rewards)
                assert means[0, action] == pytest.approx(batch, rel=1e-9, abs=1e-9)

    def test_thousand_random_sequences_match_batch(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            rewards = rng.uniform(0, 1e9, size=rng.integers(1, 50))
            counts, means = table(1)
            for r in rewards:
                credit_one(counts, means, 0, float(r))
            assert means[0, 0] == pytest.approx(rewards.mean(), rel=1e-9)
