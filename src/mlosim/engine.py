"""The iteration loop: joint selection, rates, reward exchange, updates.

The n agents of a world advance together as arrays; action a is row a of
the link-mask matrix, link mask a + 1. `fixed` evaluates its one joint
action once and `random` a block of iterations per rate call. A world's
learning runs (`rl`, `frl`) step through t together in `run_learning`, as
one population of L * n agents whose per-AP streams are the runs' own;
`run_scenario` runs a learning strategy as its one-run case. Every learning
agent is rewarded with the minimum rate over one segment of a flat member
list: the AP alone under `rl`, the AP then its neighbors under `frl`, each
run's segments offset by its place in the population. The loop evaluates
each distinct joint action once, into tables from which every run's rows
are gathered at the end, and skips the explore merge on rows where no agent
explores.

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


# The strategies that `run_learning` steps.
LEARNING = (Strategy.LOCAL_RL, Strategy.FEDERATED_RL)


def _check_iterations(T: int) -> None:
    if T < 1:
        raise ConfigError(f"need at least one iteration, got T={T}")


def _world(scenario: Scenario):
    """A world's link-mask matrix, its neighbor sets and the rate function
    of its joint actions: action indices of shape (..., n) to rates (..., n)."""
    mask_bits = link_mask_matrix(scenario.num_links)  # (p, k), as rates_bps takes it
    # Static link budget: P[j, i] is AP j's power at STA i in mW.
    power = link_budget_matrix_mw(scenario)
    noise_mw = dbm_to_mw(scenario.physical.noise_floor_dbm)
    bandwidth = scenario.physical.bandwidth_hz_per_link

    def rates_of(index: np.ndarray) -> np.ndarray:
        return rates_bps(power, mask_bits[index], noise_mw, bandwidth)

    return mask_bits, all_neighbor_sets(scenario), rates_of


def run_scenario(scenario: Scenario, strategy: Strategy, T: int, seed: int) -> RunResult:
    """Simulate `T` iterations of one world under one strategy.

    Identical inputs produce bitwise-identical results; every agent draws
    from its own child stream of `seed`. A learning run is the one-run case
    of `run_learning`.
    """
    if strategy in LEARNING:
        return run_learning(scenario, (strategy,), T, (seed,))[0]
    _check_iterations(T)
    n = scenario.n
    mask_bits, neighbor_sets, rates_of = _world(scenario)
    p = len(mask_bits)
    action_index = np.empty((T, n), dtype=np.uint16)
    rates_hist = np.empty((T, n), dtype=np.float64)
    if strategy is Strategy.FIXED:
        action_index[:] = p - 1  # the all-links action
        rates_hist[:] = rates_of(action_index[0])
    else:
        for t0, _, arm, _ in policy_draws((seed,), n, T, p):
            action_index[t0 : t0 + len(arm)] = arm
            rates_hist[t0 : t0 + len(arm)] = rates_of(arm)
    return RunResult(
        scenario=scenario,
        strategy=strategy,
        seed=seed,
        neighbor_sets=neighbor_sets,
        action_masks=action_index + np.uint16(1),  # action index a is link mask a + 1
        rates_bps=rates_hist,
        global_rewards=None,
    )


def run_learning(scenario: Scenario, strategies, T: int, seeds) -> list[RunResult]:
    """Simulate `T` iterations of one world under each learning strategy
    (`rl`, `frl`) of `strategies`, the run of strategies[w] seeded by
    seeds[w]. Returns the results in that order; each equals the run alone.

    The L runs step in lockstep as one population of L * n agents, run w's
    AP i being agent w * n + i, so each iteration makes one policy step, one
    rate call and one reward call for all of them. A learning agent's reward
    is the minimum instant rate over its segment: itself under `rl` (its own
    rate), itself and its neighbors under `frl` (the global reward).
    """
    _check_iterations(T)
    if not strategies or len(seeds) != len(strategies) or not set(strategies) <= set(LEARNING):
        raise ConfigError(f"need learning strategies, one seed each, got {strategies} and {seeds}")
    n, L = scenario.n, len(strategies)
    mask_bits, neighbor_sets, rates_of = _world(scenario)
    p = len(mask_bits)
    # Agent a's reward is the minimum over members[starts[a]:starts[a + 1]]:
    # itself (rl), or itself and its neighbors (frl). No segment is empty.
    segments = [[w * n + j for j in ([i, *nbrs] if strategy is Strategy.FEDERATED_RL else [i])]
                for w, strategy in enumerate(strategies) for i, nbrs in enumerate(neighbor_sets)]
    members = np.array([m for segment in segments for m in segment])
    starts = np.cumsum([0] + [len(seg) for seg in segments[:-1]])
    tables = Tables(L * n, p)
    # The geometry is static, so a joint action's rates and rewards never
    # change: each distinct joint action of all L * n agents is evaluated
    # once, into the next free row of these tables, and every iteration's
    # row is gathered from there at the end.
    distinct: dict[bytes, int] = {}  # a joint action's intp bytes: its row
    distinct_actions = np.empty((T, L * n), dtype=np.uint16)
    distinct_rates = np.empty((T, L * n), dtype=np.float64)
    distinct_rewards = np.empty((T, L * n), dtype=np.float64)
    source = np.empty(T, dtype=np.intp)  # source[row]: the distinct row of iteration row + 1
    for t0, explore, arm, tie in policy_draws(seeds, n, T, p):
        rows = zip(range(t0, t0 + len(arm)), explore.any(axis=1).tolist(), explore, arm, tie)
        for row, anyone, explore_row, arm_row, tie_row in rows:  # iteration t = row + 1
            chosen = select_action(tables, explore_row if anyone else None, arm_row, tie_row)
            fresh = len(distinct)
            d = source[row] = distinct.setdefault(chosen.tobytes(), fresh)
            if d == fresh:
                distinct_actions[d] = chosen
                rates = distinct_rates[d] = rates_of(chosen.reshape(L, n)).reshape(L * n)
                distinct_rewards[d] = np.minimum.reduceat(rates[members], starts)
            update(tables, chosen, distinct_rewards[d])
    del distinct
    runs = [slice(w * n, (w + 1) * n) for w in range(L)]
    # Each table is dropped once gathered into the runs' own (T, n) arrays,
    # so that the world's peak memory stays near the size of its results.
    run_rewards = [distinct_rewards[source, run] if strategy is Strategy.FEDERATED_RL else None
                   for strategy, run in zip(strategies, runs)]
    del distinct_rewards
    run_rates = [distinct_rates[source, run] for run in runs]
    del distinct_rates
    distinct_actions += np.uint16(1)  # action index a is link mask a + 1
    run_masks = [distinct_actions[source, run] for run in runs]
    del distinct_actions
    return [RunResult(scenario=scenario, strategy=strategy, seed=seed, neighbor_sets=neighbor_sets,
                      action_masks=masks, rates_bps=rates, global_rewards=rewards)
            for strategy, seed, masks, rates, rewards
            in zip(strategies, seeds, run_masks, run_rates, run_rewards)]


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
