"""The iteration loop: joint selection, rates, reward exchange, updates.

The n agents of a world advance together as arrays; action a is row a of
the link-mask matrix, link mask a + 1. Only the learning strategies step
through t; `fixed` evaluates its one joint action once and `random` a
block of iterations per rate call. Every learning agent is rewarded with
the minimum rate over one segment of a flat member list: the AP alone
under `rl`, the AP then its neighbors under `frl`. A learning run computes
the rates and rewards of each joint action once, on its first occurrence;
rows where a joint action recurs copy that first row. The policy step
skips the explore merge on rows where no agent explores.

Moves are simultaneous: every agent commits its link subset before any
rate is computed, so no agent observes another's current-iteration choice.
Reward sharing between federated agents is modeled as a lossless,
instantaneous exchange within the iteration. Neighbor sets are frozen at
t=0 because the geometry never changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import Strategy, Tables, link_mask_matrix, policy_draws
# The loop calls the policy through these names, which perfbench's
# agents-layer probes wrap.
from .agents import credit as update, select as select_action
from .codec import dumps, write_csv
from .errors import ConfigError
from .radio import all_neighbor_sets, dbm_to_mw, link_budget_matrix_mw, rates_bps
from .scenario import Scenario


@dataclass
class RunResult:
    """A full simulation of one world under one strategy.

    Per-iteration data is stored columnar (arrays of shape (T, n)). An
    agent's local reward is its rate, so `rates_bps` is also the local
    reward trace.
    """

    scenario: Scenario
    strategy: Strategy
    seed: int
    neighbor_sets: tuple[frozenset[int], ...]
    action_masks: np.ndarray  # (T, n) uint16
    rates_bps: np.ndarray  # (T, n) float64
    global_rewards: np.ndarray | None  # (T, n) float64, federated runs only

    @property
    def T(self) -> int:
        return self.action_masks.shape[0]

    @property
    def n(self) -> int:
        return self.action_masks.shape[1]

    def mean_rates_bps(self) -> np.ndarray:
        """Each AP's rate averaged over the whole run, shape (n,)."""
        return self.rates_bps.mean(axis=0)

    def to_json(self) -> str:
        return dumps(self)

    def write_csv(self, path) -> None:
        """Compact per-iteration trace for plotting tools."""
        width, rewards = f"0{self.scenario.num_links}b", self.global_rewards
        write_csv(path, ["t", "ap", "action_mask", "rate_bps", "global_reward"], (
            [t + 1, i, format(int(self.action_masks[t, i]), width),
             repr(float(self.rates_bps[t, i])),
             "" if rewards is None else repr(float(rewards[t, i]))]
            for t in range(self.T) for i in range(self.n)))


def run_scenario(scenario: Scenario, strategy: Strategy, T: int, seed: int) -> RunResult:
    """Simulate `T` iterations of one world under one strategy.

    Identical inputs produce bitwise-identical results; every agent draws
    from its own child stream of `seed`. A learning agent's reward is the
    minimum instant rate over its segment: itself under `rl` (its own rate),
    itself and its neighbors under `frl` (the global reward).
    """
    if T < 1:
        raise ConfigError(f"need at least one iteration, got T={T}")

    n = scenario.n
    mask_bits = link_mask_matrix(scenario.num_links)  # (p, k), as rates_bps takes it
    p = len(mask_bits)
    neighbor_sets = all_neighbor_sets(scenario)
    # Static link budget: P[j, i] is AP j's power at STA i in mW.
    power = link_budget_matrix_mw(scenario)
    noise_mw = dbm_to_mw(scenario.physical.noise_floor_dbm)
    bandwidth = scenario.physical.bandwidth_hz_per_link

    def rates_of(index: np.ndarray) -> np.ndarray:
        return rates_bps(power, mask_bits[index], noise_mw, bandwidth)

    action_index = np.empty((T, n), dtype=np.uint16)
    rates_hist = np.empty((T, n), dtype=np.float64)
    global_hist = None
    if strategy is Strategy.FIXED:
        action_index[:] = p - 1  # the all-links action
        rates_hist[:] = rates_of(action_index[0])
    elif strategy is Strategy.RANDOM:
        for t0, _, arm, _ in policy_draws(seed, n, T, p):
            action_index[t0 : t0 + len(arm)] = arm
            rates_hist[t0 : t0 + len(arm)] = rates_of(arm)
    else:
        federated = strategy is Strategy.FEDERATED_RL
        # AP i's reward is the minimum over members[starts[i]:starts[i + 1]]:
        # itself (rl), or itself and its neighbors (frl). No segment is empty.
        segments = [[i, *nbrs] if federated else [i] for i, nbrs in enumerate(neighbor_sets)]
        members = np.concatenate(segments)
        starts = np.cumsum([0] + [len(seg) for seg in segments[:-1]])
        reward_hist = np.empty((T, n), dtype=np.float64)
        tables = Tables(n, p)
        # The geometry is static, so a joint action's rates and rewards never
        # change: each joint action is evaluated on the row where it first
        # occurs, and every later row is gathered from that first row at the end.
        first_row: dict[bytes, int] = {}
        source = []  # source[row]: the first row of row's joint action
        for t0, explore, arm, tie in policy_draws(seed, n, T, p):
            rows = zip(range(t0, t0 + len(arm)), explore.any(axis=1).tolist(), explore, arm, tie)
            for row, anyone, explore_row, arm_row, tie_row in rows:  # iteration t = row + 1
                chosen = action_index[row] = select_action(
                    tables, explore_row if anyone else None, arm_row, tie_row)
                first = first_row.setdefault(chosen.tobytes(), row)
                source.append(first)
                if first == row:
                    rates = rates_hist[row] = rates_of(chosen)
                    reward_hist[row] = np.minimum.reduceat(rates[members], starts)
                update(tables, chosen, reward_hist[first])
        rates_hist = rates_hist[source]
        if federated:
            global_hist = reward_hist[source]

    return RunResult(
        scenario=scenario,
        strategy=strategy,
        seed=seed,
        neighbor_sets=neighbor_sets,
        action_masks=action_index + np.uint16(1),  # action index a is link mask a + 1
        rates_bps=rates_hist,
        global_rewards=global_hist,
    )


def min_rate_timeseries(result: RunResult) -> np.ndarray:
    """Running-average rate of the AP that ends up worst over the run.

    Picks the AP with the lowest whole-run average (lowest index on ties)
    and returns its cumulative mean rate at each iteration, length T.
    """
    if result.T < 1:
        raise ConfigError("empty trace")
    worst = int(np.argmin(result.mean_rates_bps()))
    series = result.rates_bps[:, worst]
    return np.cumsum(series) / np.arange(1, result.T + 1)
