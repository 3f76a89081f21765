"""The iteration loop: joint selection, rates, reward exchange, updates.

Moves are simultaneous: every agent commits its link subset before any
rate is computed, so no agent observes another's current-iteration choice.
Reward sharing between federated agents is modeled as a lossless,
instantaneous exchange within the iteration. Neighbor sets are frozen at
t=0 because the geometry never changes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import rng as streams
from .agents import AgentState, Strategy, enumerate_actions, select_action, update
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

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_json_dict(),
            "strategy": self.strategy.value,
            "seed": self.seed,
            "neighbor_sets": [sorted(s) for s in self.neighbor_sets],
            "action_masks": self.action_masks.tolist(),
            "rates_bps": self.rates_bps.tolist(),
            "global_rewards": (
                self.global_rewards.tolist() if self.global_rewards is not None else None
            ),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    def write_csv(self, path) -> None:
        """Compact per-iteration trace for plotting tools."""
        has_global = self.global_rewards is not None
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "ap", "action_mask", "rate_bps", "global_reward"])
            for t in range(self.T):
                for i in range(self.n):
                    writer.writerow(
                        [
                            t + 1,
                            i,
                            format(int(self.action_masks[t, i]), f"0{self.scenario.num_links}b"),
                            repr(float(self.rates_bps[t, i])),
                            repr(float(self.global_rewards[t, i])) if has_global else "",
                        ]
                    )


def run_scenario(scenario: Scenario, strategy: Strategy, T: int, seed: int) -> RunResult:
    """Simulate `T` iterations of one world under one strategy.

    Identical inputs produce bitwise-identical results; every agent draws
    from its own child stream of `seed`. A federated agent's global reward
    is the minimum instant rate over itself and its neighbors.
    """
    if T < 1:
        raise ConfigError(f"need at least one iteration, got T={T}")

    n = scenario.n
    space = enumerate_actions(scenario.num_links)
    mask_bits = space.mask_matrix()  # (p, k)
    agents = [
        AgentState.create(
            i, strategy, space.p, streams.generator(seed, streams.PURPOSE_AGENT, i)
        )
        for i in range(n)
    ]
    neighbor_sets = all_neighbor_sets(scenario)
    federated = strategy is Strategy.FEDERATED_RL
    shares = np.eye(n, dtype=bool)  # shares[i, j]: i's minimum covers j
    for i, nbrs in enumerate(neighbor_sets):
        shares[i, list(nbrs)] = True

    # Static link budget: P[j, i] is AP j's power at STA i in mW.
    power = link_budget_matrix_mw(scenario)
    noise_mw = dbm_to_mw(scenario.physical.noise_floor_dbm)
    bandwidth = scenario.physical.bandwidth_hz_per_link

    action_masks = np.empty((T, n), dtype=np.uint16)
    rates_hist = np.empty((T, n), dtype=np.float64)
    global_hist = np.empty((T, n), dtype=np.float64) if federated else None
    no_globals = [None] * n

    for t in range(1, T + 1):
        chosen = [select_action(agent, space, t) for agent in agents]
        rates = rates_bps(power, mask_bits[chosen], noise_mw, bandwidth)
        globals_t = no_globals
        if federated:
            global_hist[t - 1] = np.where(shares, rates, np.inf).min(axis=1)
            globals_t = global_hist[t - 1].tolist()
        for agent, index, local_r, global_r in zip(agents, chosen, rates.tolist(), globals_t):
            update(agent, index, local_r, global_r)
        action_masks[t - 1] = chosen
        rates_hist[t - 1] = rates
    action_masks += 1  # action index a is link mask a + 1

    return RunResult(
        scenario=scenario,
        strategy=strategy,
        seed=seed,
        neighbor_sets=neighbor_sets,
        action_masks=action_masks,
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
