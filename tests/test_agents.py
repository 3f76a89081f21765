"""Policy tests: action space, epsilon-greedy selection, rewards, reward tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlosim import (
    ConfigError,
    Scenario,
    Strategy,
    run_scenario,
    sample_scenario,
)
from mlosim import agents
from mlosim import rng as streams
from mlosim.agents import (
    Tables,
    credit,
    link_mask_matrix,
    policy_draws,
    select,
)
from mlosim.rng import generator
from oracles import reference_run


def choices(means, t, seed, trials):
    """`trials` selections of one agent with a frozen table at iteration t,
    each from fresh uniforms of stream `seed`. The agent's row starts at
    flat index 0, so its flat indices are its actions."""
    tables = Tables(1, len(means))
    tables.means[0] = means
    u = generator(seed).random((trials, 1, 3))
    explore = u[..., 0] < 1 / np.sqrt(t)
    arm = np.floor(u[..., 1] * len(means)).astype(int)
    return np.array([select(tables, explore[r], arm[r], u[r, :, 2])[0][0] for r in range(trials)])


def credit_one(tables, action, reward):
    """Credit one agent's action; its row starts at flat index 0."""
    flat = np.array([action])
    credit(tables, flat, np.array([reward]), tables.flat_means[flat])


class TestActionSpace:
    def test_four_links_give_fifteen_actions(self):
        masks = link_mask_matrix(4)
        assert masks.shape == (15, 4) and masks.dtype == np.float64

    def test_sixteen_links_give_65535_actions(self):
        assert link_mask_matrix(16).shape == (65535, 16)

    def test_single_link(self):
        assert link_mask_matrix(1).tolist() == [[1.0]]

    def test_two_links_exact_order(self):
        assert link_mask_matrix(2).tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]

    def test_no_empty_action_and_full_last(self):
        masks = link_mask_matrix(5)
        assert np.all(masks.any(axis=1))
        assert np.all(masks[-1] == 1.0)

    @pytest.mark.parametrize("k", [0, 17, -3])
    def test_out_of_range(self, k):
        # The engine builds the matrix from scenario.num_links, which Scenario bounds.
        with pytest.raises(ConfigError):
            Scenario(area_side_m=100.0, ap_positions=((50.0, 50.0),),
                     sta_positions=((50.0, 60.0),), ap_sta_distance_m=10.0, num_links=k)

    def test_mask_matrix_matches_actions(self):
        masks = link_mask_matrix(3)
        for a, row in enumerate(masks):
            assert tuple(np.flatnonzero(row)) == tuple(j for j in range(3) if (a + 1) >> j & 1)


class TestExplorationRate:
    """The explore coins of policy_draws: agent-iteration t explores when its
    coin, the first uniform of its stream, is below 1/sqrt(t)."""

    SEEDS, N, T = (3, 8), 10, 10000

    def test_starts_fully_exploratory(self):
        t0, explore, _, _ = next(policy_draws(self.SEEDS, (self.N, self.N), self.T, 15))
        assert t0 == 0 and explore[0].all()

    def test_inverse_square_root(self):
        explore = np.concatenate([explore for _, explore, _, _
                                  in policy_draws(self.SEEDS, (self.N, self.N), self.T, 15)])
        coins = np.stack([generator(seed, streams.PURPOSE_AGENT, i).random((self.T, 3))[:, 0]
                          for seed in self.SEEDS for i in range(self.N)], axis=1)
        for t, rate in ((4, 0.5), (100, 0.1), (10000, 0.01)):
            assert np.array_equal(explore[t - 1], coins[t - 1] < rate), t
        assert 0 < explore[3].sum() < explore.shape[1]  # t=4 splits the agents


class TestPolicyDraws:
    """Column sum(ns[:w]) + i of the population's draws is AP i of run w:
    it reads stream (seeds[w], i) as if alone, whatever the block size. Every
    block's `explore` and `arm` are C-contiguous, so the loop's rows are."""

    @pytest.mark.parametrize("T", [300, 5, 1])  # 300 is no multiple of 7 or 128
    @pytest.mark.parametrize("block", [1, 7, 128, 10**6])  # 10**6: one block, longer than T
    @pytest.mark.parametrize("seeds", [(5,), (5, 9), (11, 5, 2)])
    def test_each_column_reads_its_own_stream(self, monkeypatch, seeds, block, T):
        monkeypatch.setattr(agents, "_BLOCK", block)
        n, p = 3, 15
        explore, arm, tie = (np.empty((T, len(seeds) * n), dtype)
                             for dtype in (bool, np.intp, np.float64))
        starts = []
        for t0, *draws in policy_draws(seeds, [n] * len(seeds), T, p):
            starts.append(t0)
            for block_draws in draws[:2]:  # explore, arm
                assert block_draws.flags.c_contiguous
                assert block_draws.shape == (min(block, T - t0), len(seeds) * n)
            # Copied before the next block: `tie` is a view that it overwrites.
            explore[t0 : t0 + block], arm[t0 : t0 + block], tie[t0 : t0 + block] = draws
        assert starts == list(range(0, T, block))
        epsilon = 1 / np.sqrt(np.arange(1, T + 1))
        for w, seed in enumerate(seeds):
            for i in range(n):
                u = generator(seed, streams.PURPOSE_AGENT, i).random((T, 3))
                assert np.array_equal(explore[:, w * n + i], u[:, 0] < epsilon)
                assert np.array_equal(arm[:, w * n + i], np.floor(u[:, 1] * p))
                assert np.array_equal(tie[:, w * n + i], u[:, 2])

    # Runs of several AP counts: run w's ns[w] APs take the columns after
    # those of the runs before it, each reading its own stream.
    @pytest.mark.parametrize("seeds, ns", [((5, 9, 2), (1, 3, 2)), ((4, 4), (8, 1))])
    def test_runs_of_several_ap_counts_take_consecutive_columns(self, seeds, ns):
        T, p = 20, 7
        (t0, explore, arm, tie), = policy_draws(seeds, ns, T, p)
        assert t0 == 0 and explore.shape == arm.shape == tie.shape == (T, sum(ns))
        column = 0
        epsilon = 1 / np.sqrt(np.arange(1, T + 1))
        for seed, n in zip(seeds, ns):
            for i in range(n):
                u = generator(seed, streams.PURPOSE_AGENT, i).random((T, 3))
                assert np.array_equal(explore[:, column], u[:, 0] < epsilon)
                assert np.array_equal(arm[:, column], np.floor(u[:, 1] * p))
                assert np.array_equal(tie[:, column], u[:, 2])
                column += 1

    def test_every_run_needs_its_ap_count(self):
        with pytest.raises(ValueError):
            next(policy_draws((1, 2), (3,), 5, 7))


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
            expected = trials / np.sqrt(t) * 14 / 15
            chi2 += (observed - expected) ** 2 / (expected * (1 - expected / trials))
        assert chi2 < 13.277


class TestTieRule:
    """agents.select against the rule of tests/oracles.py: the
    floor(u * m)-th of the m maxima of a row, in index order."""

    @given(st.data())
    @settings(max_examples=300)
    def test_select_follows_the_tie_rule(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        p = data.draw(st.integers(1, 15), label="p")
        row_values = st.lists(st.floats(0.0, 1e9), min_size=p, max_size=p, unique=True)
        means = np.array([data.draw(row_values) for _ in range(n)])
        for row in means:  # each row has one maximum; give some rows several
            top = int(row.argmax())
            if p > 1 and data.draw(st.booleans()):
                others = [a for a in range(p) if a != top]
                row[sorted(data.draw(st.sets(st.sampled_from(others), min_size=1)))] = row[top]
        unit = st.floats(0.0, 1.0, exclude_max=True)
        tie = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
        tables, arm = Tables(n, p), np.zeros(n, dtype=np.intp)
        tables.means[:] = means
        flat, mean = select(tables, None, arm, tie)
        same = select(tables, np.zeros(n, dtype=bool), arm, tie)
        assert np.array_equal(flat, same[0]) and np.array_equal(mean, same[1])
        for i, row in enumerate(means.tolist()):
            maxima = [a for a, m in enumerate(row) if m == max(row)]
            action = maxima[math.floor(tie[i] * len(maxima))]
            assert flat[i] == i * p + action and mean[i] == row[action]


    # An explorer takes its flat arm, offsets[i] plus its action, and that
    # entry's mean; every other agent's pick is the greedy one.
    @given(st.data())
    @settings(max_examples=200)
    def test_explorers_take_their_flat_arm_and_its_mean(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        p = data.draw(st.integers(1, 15), label="p")
        tables = Tables(n, p)
        values = st.lists(st.sampled_from([0.0, 1.0, 2.5, 7.0]), min_size=n * p, max_size=n * p)
        tables.flat_means[:] = data.draw(values)
        explore = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        action = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
        unit = st.floats(0.0, 1.0, exclude_max=True)
        tie = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
        arm = tables.offsets + action
        flat, mean = select(tables, explore, arm, tie)
        greedy, greedy_mean = select(tables, None, arm, tie)
        for i in range(n):
            want = arm[i] if explore[i] else greedy[i]
            assert flat[i] == want and mean[i] == tables.flat_means[want]
            assert greedy_mean[i] == tables.means[i].max() == tables.means[i, greedy[i] - i * p]


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
        tables = Tables(1, 15)
        credit_one(tables, 3, 10.0)
        assert tables.flat_counts.reshape(1, 15)[0, 3] == 1 and tables.means[0, 3] == 10.0

    def test_two_samples_average(self):
        tables = Tables(1, 15)
        credit_one(tables, 3, 10.0)
        credit_one(tables, 3, 20.0)
        assert tables.flat_counts.reshape(1, 15)[0, 3] == 2 and tables.means[0, 3] == 15.0

    def test_unvisited_actions_stay_zero(self):
        tables = Tables(1, 4)
        credit_one(tables, 0, 5.0)
        assert tables.flat_counts.reshape(1, 4).tolist() == [[1, 0, 0, 0]]
        assert tables.means.tolist() == [[5.0, 0.0, 0.0, 0.0]]

    def test_rows_are_credited_independently(self):
        tables = Tables(3, 4)
        flat = tables.offsets + [2, 0, 2]
        credit(tables, flat, np.array([1.0, 2.0, 3.0]), tables.flat_means[flat])
        counts = tables.flat_counts.reshape(3, 4)
        assert counts.tolist() == [[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 1, 0]]
        assert tables.means.tolist() == [[0, 0, 1.0, 0], [2.0, 0, 0, 0], [0, 0, 3.0, 0]]

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.floats(0, 1e10)), min_size=1, max_size=200
        )
    )
    @settings(max_examples=200)
    def test_incremental_equals_batch_mean(self, events):
        tables = Tables(1, 7)
        for action, reward in events:
            credit_one(tables, action, reward)
        for action in range(7):
            rewards = [r for a, r in events if a == action]
            assert tables.flat_counts.reshape(1, 7)[0, action] == len(rewards)
            if rewards:
                batch = sum(rewards) / len(rewards)
                assert tables.means[0, action] == pytest.approx(batch, rel=1e-9, abs=1e-9)

    def test_thousand_random_sequences_match_batch(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            rewards = rng.uniform(0, 1e9, size=rng.integers(1, 50))
            tables = Tables(1, 1)
            for r in rewards:
                credit_one(tables, 0, float(r))
            assert tables.means[0, 0] == pytest.approx(rewards.mean(), rel=1e-9)
