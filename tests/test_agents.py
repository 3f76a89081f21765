"""Policy tests: action space, epsilon-greedy selection, rewards, reward tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlosim import (
    AgentState,
    ConfigError,
    Scenario,
    Strategy,
    enumerate_actions,
    exploration_rate,
    run_scenario,
    sample_scenario,
    select_action,
    update,
)
from mlosim.agents import RewardTable, _argmax_random_tie
from mlosim.rng import generator


def make_agent(strategy, k=4, seed=0):
    space = enumerate_actions(k)
    return AgentState.create(0, strategy, space.p, generator(seed)), space


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

    def test_rejects_zero(self):
        with pytest.raises(ConfigError):
            exploration_rate(0)


class TestSelection:
    def test_fixed_always_full_mask(self):
        agent, space = make_agent(Strategy.FIXED)
        for t in (1, 7, 2000):
            assert space.actions[select_action(agent, space, t)].mask == 0b1111

    def test_fixed_ignores_rewards(self):
        agent, space = make_agent(Strategy.FIXED)
        update(agent, select_action(agent, space, 1), 1e9)
        agent.local_table.means[3] = 1e12  # poison another arm
        assert space.actions[select_action(agent, space, 2)].mask == 0b1111

    def test_random_covers_the_space_uniformly(self):
        agent, space = make_agent(Strategy.RANDOM, seed=5)
        counts = np.zeros(space.p)
        trials = 15000
        for t in range(1, trials + 1):
            counts[select_action(agent, space, t)] += 1
        assert counts.min() > 0
        # each arm ~1000 draws; 5 sigma ~ 155
        assert np.all(np.abs(counts - trials / space.p) < 160)

    def test_rl_at_t1_is_uniform_regardless_of_table(self):
        # epsilon(1) = 1, so a poisoned table must not matter.
        hits = 0
        for seed in range(400):
            agent, space = make_agent(Strategy.LOCAL_RL, seed=seed)
            agent.local_table.means[7] = 1e12
            if space.actions[select_action(agent, space, 1)].mask == 8:
                hits += 1
        # uniform would give ~400/15 ~ 27; exploitation would give 400
        assert hits < 80

    def test_exploitation_prefers_best_mean(self):
        agent, space = make_agent(Strategy.LOCAL_RL, seed=9)
        agent.local_table.means[:] = 0.0
        agent.local_table.means[4] = 5e8
        picks = {select_action(agent, space, t) for t in range(10**6, 10**6 + 50)}
        # epsilon(1e6) = 0.001: all 50 picks exploit with high probability
        assert picks == {4}

    def test_federated_exploits_global_table(self):
        agent, space = make_agent(Strategy.FEDERATED_RL, seed=9)
        agent.local_table.means[2] = 9e9  # must be ignored
        agent.global_table.means[11] = 1e9
        picks = {select_action(agent, space, t) for t in range(10**6, 10**6 + 50)}
        assert picks == {11}

    def test_tiebreak_splits_evenly(self):
        # Spec example: means [5, 9, 9] Mbps -> arms 1 and 2 each picked
        # with frequency 0.5 +- 0.03 over 1e4 forced-exploitation trials.
        space = enumerate_actions(2)  # p = 3 arms
        agent, _ = make_agent(Strategy.LOCAL_RL, k=2, seed=31)
        agent.local_table.means[:] = [5e6, 9e6, 9e6]
        t = 10**9  # epsilon ~ 3e-5: effectively pure exploitation
        counts = np.zeros(3)
        for _ in range(10**4):
            counts[select_action(agent, space, t)] += 1
        assert counts[0] <= 5  # only explorations can hit the losing arm
        assert abs(counts[1] / 1e4 - 0.5) < 0.03
        assert abs(counts[2] / 1e4 - 0.5) < 0.03

    def test_exploration_frequency_tracks_inverse_sqrt_t(self):
        # Freeze a table with a strict maximum; a selection differing from
        # the best arm must come from exploration, which happens with
        # probability eps * (p-1)/p. Chi-square over four t bins at the 1%
        # level (critical value for df=4 is 13.277).
        space = enumerate_actions(4)
        chi2 = 0.0
        trials = 4000
        for bin_idx, t in enumerate((4, 25, 100, 400)):
            agent, _ = make_agent(Strategy.LOCAL_RL, seed=1000 + bin_idx)
            agent.local_table.means[6] = 1e9
            observed = sum(
                select_action(agent, space, t) != 6
                for _ in range(trials)
            )
            expected = trials * exploration_rate(t) * (space.p - 1) / space.p
            chi2 += (observed - expected) ** 2 / (expected * (1 - expected / trials))
        assert chi2 < 13.277


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
        agent, space = make_agent(Strategy.LOCAL_RL)
        index = select_action(agent, space, 1)
        value = 123.456789e6
        update(agent, index, value)
        assert agent.local_table.means[index] == value

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
    def test_first_sample(self):
        table = RewardTable(15)
        table.credit(3, 10.0)
        assert table.counts[3] == 1 and table.means[3] == 10.0

    def test_two_samples_average(self):
        table = RewardTable(15)
        table.credit(3, 10.0)
        table.credit(3, 20.0)
        assert table.counts[3] == 2 and table.means[3] == 15.0

    def test_unvisited_actions_stay_zero(self):
        table = RewardTable(4)
        table.credit(0, 5.0)
        assert list(table.counts) == [1, 0, 0, 0]
        assert list(table.means) == [5.0, 0.0, 0.0, 0.0]

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.floats(0, 1e10)), min_size=1, max_size=200
        )
    )
    @settings(max_examples=200)
    def test_incremental_equals_batch_mean(self, events):
        table = RewardTable(7)
        for action, reward in events:
            table.credit(action, reward)
        for action in range(7):
            rewards = [r for a, r in events if a == action]
            assert table.counts[action] == len(rewards)
            if rewards:
                batch = sum(rewards) / len(rewards)
                assert table.means[action] == pytest.approx(batch, rel=1e-9, abs=1e-9)

    def test_thousand_random_sequences_match_batch(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            rewards = rng.uniform(0, 1e9, size=rng.integers(1, 50))
            table = RewardTable(1)
            for r in rewards:
                table.credit(0, float(r))
            assert table.means[0] == pytest.approx(rewards.mean(), rel=1e-9)

    def test_json_view_keyed_by_mask(self):
        space = enumerate_actions(2)
        table = RewardTable(space.p)
        table.credit(0, 7.0)
        data = table.to_json_dict(space)
        assert data["01"] == {"count": 1, "mean": 7.0}
        assert data["11"] == {"count": 0, "mean": 0.0}


class TestUpdate:
    def test_federated_requires_global_reward(self):
        agent, space = make_agent(Strategy.FEDERATED_RL)
        with pytest.raises(TypeError):
            update(agent, select_action(agent, space, 1), 1.0, None)

    def test_fixed_still_records_statistics(self):
        agent, space = make_agent(Strategy.FIXED)
        for t, reward in enumerate([4.0, 8.0], start=1):
            update(agent, select_action(agent, space, t), reward)
        assert agent.local_table.counts[space.full_index] == 2
        assert agent.local_table.means[space.full_index] == 6.0

    def test_federated_updates_both_tables(self):
        agent, space = make_agent(Strategy.FEDERATED_RL)
        idx = select_action(agent, space, 1)
        update(agent, idx, 10.0, 4.0)
        assert agent.local_table.means[idx] == 10.0
        assert agent.global_table.means[idx] == 4.0


class TestArgmaxProperties:
    # Scaling by a power of two only shifts the exponent, so it is exact and
    # keeps distinct maxima distinct (a general scale like 9.005 can round
    # 1e9 and its float predecessor to the same value). Values stay far from
    # the subnormal range, where scaling down would round.
    @given(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e9)), min_size=1, max_size=15),
        st.integers(-10, 10),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300)
    def test_scale_invariance(self, means, exponent, seed):
        values = np.asarray(means)
        a = _argmax_random_tie(values, generator(seed))
        b = _argmax_random_tie(values * 2.0**exponent, generator(seed))
        assert a == b
