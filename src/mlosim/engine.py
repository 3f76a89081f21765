"""The iteration loop: joint selection, rates, reward exchange, updates.

The n agents of a world advance together as arrays; action a is row a of
the link-mask matrix, link mask a + 1. `fixed` evaluates its one joint
action once and `random` a block of iterations per rate call. The learning
runs (`rl`, `frl`) of S worlds of one AP count step through t together in
`run_learning`, as one population of S * L * n agents whose per-AP streams
are the runs' own; a batch task passes a chunk of worlds, and `run_scenario`
runs a learning strategy as the one-world, one-run case. Every learning
agent is rewarded with the minimum rate over one segment of a flat member
list: the AP alone under `rl`, the AP then its neighbors under `frl`, each
run's segments offset by its place in the population. The loop evaluates
each world's distinct joint actions once, into tables from which every
run's rows are gathered at the end, and skips the explore merge on rows
where no agent explores.

Moves are simultaneous: every agent commits its link subset before any
rate is computed, so no agent observes another's current-iteration choice.
Reward sharing between federated agents is modeled as a lossless,
instantaneous exchange within the iteration. Neighbor sets are frozen at
t=0 because the geometry never changes.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .agents import Strategy, Tables, link_mask_matrix, policy_draws
# The loop calls the policy through these names, which perfbench's
# agents-layer probes wrap.
from .agents import credit as update, select as select_action
from .codec import write_csv
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


def _worlds(scenarios):
    """The worlds' link-mask matrix, their neighbor sets and the rate function
    of their joint actions: action indices of shape (S, ..., n), world w's in
    row w, to rates of the same shape; one world's of shape (..., n). Every
    world must share n, k and the physical constants."""
    first = scenarios[0]
    shape = (first.n, first.num_links, first.physical)
    if any((sc.n, sc.num_links, sc.physical) != shape for sc in scenarios):
        raise ConfigError("worlds stepped together need the same n, k and physical constants")
    mask_bits = link_mask_matrix(first.num_links)  # (p, k), as rates_bps takes it
    # Static link budgets: power[w, 0, j, i] is AP j's power at STA i of world
    # w in mW; one world's is (n, n), which costs less per call than a stack.
    budgets = [link_budget_matrix_mw(sc) for sc in scenarios]
    power = budgets[0] if len(budgets) == 1 else np.stack(budgets)[:, None]
    noise_mw = dbm_to_mw(first.physical.noise_floor_dbm)
    bandwidth = first.physical.bandwidth_hz_per_link

    def rates_of(index: np.ndarray) -> np.ndarray:
        return rates_bps(power, mask_bits[index], noise_mw, bandwidth)

    return mask_bits, [all_neighbor_sets(sc) for sc in scenarios], rates_of


def run_scenario(scenario: Scenario, strategy: Strategy, T: int, seed: int) -> RunResult:
    """Simulate `T` iterations of one world under one strategy.

    Identical inputs produce bitwise-identical results; every agent draws
    from its own child stream of `seed`. A learning run is the one-run case
    of `run_learning`.
    """
    if strategy in LEARNING:
        return next(run_learning((scenario,), (strategy,), T, (seed,)))
    _check_iterations(T)
    n = scenario.n
    mask_bits, (neighbor_sets,), rates_of = _worlds((scenario,))
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


def run_learning(scenarios, strategies, T: int, seeds) -> Iterator[RunResult]:
    """Simulate `T` iterations of S worlds of one AP count under each
    learning strategy (`rl`, `frl`) of `strategies`, the run of world w
    under strategies[l] seeded by seeds[w * L + l]. Returns an iterator over
    the S * L results in that order; each equals the run alone.

    The runs step in lockstep as one population of S * L * n agents, run
    r = w * L + l's AP i being agent r * n + i, so each iteration makes one
    policy step, one rate call and one reward call for all of them. A
    learning agent's reward is the minimum instant rate over its segment:
    itself under `rl` (its own rate), itself and its neighbors under `frl`
    (the global reward). The loop runs before this returns; each result's
    arrays are gathered only when the iterator reaches it, so a caller that
    reduces and drops each result holds one at a time.
    """
    _check_iterations(T)
    S, L = len(scenarios), len(strategies)
    if not S or not L or len(seeds) != S * L or not set(strategies) <= set(LEARNING):
        raise ConfigError(f"need worlds and learning strategies, one seed each per world, "
                          f"got {S} worlds, {strategies} and {seeds}")
    n = scenarios[0].n
    mask_bits, neighbor_sets, rates_of = _worlds(scenarios)
    p, agents = len(mask_bits), S * L * n
    joint = (L, n) if S == 1 else (S, L, n)  # what rates_of takes
    # Agent a's reward is the minimum over members[starts[a]:starts[a + 1]]:
    # itself (rl), or itself and its neighbors (frl). No segment is empty.
    runs = enumerate(itertools.product(neighbor_sets, strategies))  # run r = w * L + l
    segments = [[r * n + j for j in ([i, *nbrs] if strategy is Strategy.FEDERATED_RL else [i])]
                for r, (nbr_sets, strategy) in runs for i, nbrs in enumerate(nbr_sets)]
    members = np.array([m for segment in segments for m in segment])
    starts = np.cumsum([0] + [len(seg) for seg in segments[:-1]])
    tables = Tables(agents, p)
    # The geometry is static, so a world's joint action always has the same
    # rates and rewards. Each world keys its joint actions (its L * n agents'
    # slice of the iteration's intp bytes) in its own dict. An iteration where
    # some world meets a new one evaluates every world's, into the next free
    # row of these (T, S * L * n) tables. Viewed as (T * S, L * n), their
    # world row d * S + w is world w's part of row d: a dict maps a joint
    # action to its world row, and source[t - 1, w] is world w's at iteration
    # t, from which every run's rows are gathered at the end.
    distinct = [{} for _ in range(S)]  # per world: a joint action's bytes: its world row
    width = L * n * np.dtype(np.intp).itemsize
    cuts = [(seen, w * width, (w + 1) * width, w) for w, seen in enumerate(distinct)]
    only = distinct[0]
    distinct_actions = np.empty((T, agents), dtype=np.uint16)
    distinct_rates = np.empty((T, agents), dtype=np.float64)
    distinct_rewards = np.empty((T, agents), dtype=np.float64)
    world_rewards = distinct_rewards.reshape(T * S, L * n)
    source: list[int] = []  # every iteration's world rows, world-major
    fresh = first = 0  # the next free row and its first world row, fresh * S
    for t0, explore, arm, tie in policy_draws(seeds, n, T, p):
        rows = zip(explore.any(axis=1).tolist(), explore, arm, tie)
        for anyone, explore_row, arm_row, tie_row in rows:
            chosen = select_action(tables, explore_row if anyone else None, arm_row, tie_row)
            raw = chosen.tobytes()
            if S == 1:  # the whole row is the one world's key
                hit = only.setdefault(raw, first)
                source.append(hit)
                new = hit == first
                reward = distinct_rewards[hit]
            else:
                hits = [seen.setdefault(raw[lo:hi], first + w) for seen, lo, hi, w in cuts]
                source += hits
                new = max(hits) >= first  # some world met a new joint action
                if not new:
                    reward = world_rewards.take(hits, axis=0).reshape(agents)
            if new:
                distinct_actions[fresh] = chosen
                rates = distinct_rates[fresh] = rates_of(chosen.reshape(joint)).reshape(agents)
                reward = distinct_rewards[fresh] = np.minimum.reduceat(rates[members], starts)
                fresh += 1
                first += S
            update(tables, chosen, reward)
    del distinct, cuts, only
    distinct_actions += np.uint16(1)  # action index a is link mask a + 1
    return _gather(scenarios, strategies, seeds, neighbor_sets,
                   np.array(source, dtype=np.intp).reshape(T, S),
                   [distinct_actions, distinct_rates, distinct_rewards])


def _gather(scenarios, strategies, seeds, neighbor_sets, source, tables):
    """Yield each run of `run_learning` in order, gathering its (T, n) rows
    from the world rows of the distinct-row tables [masks, rates, rewards].
    The last run frees each table once gathered from it, so that a caller
    that keeps every run peaks near the size of its results."""
    (T, S), n, L = source.shape, scenarios[0].n, len(strategies)
    tables = [table.reshape(T * S, L * n) for table in tables]
    for r, seed in enumerate(seeds):
        w, strategy = r // L, strategies[r % L]
        rows, run = source[:, w], slice(r % L * n, (r % L + 1) * n)
        federated = strategy is Strategy.FEDERATED_RL
        columns = []
        for i, table in enumerate(tables):
            columns.append(table[rows, run] if federated or i < 2 else None)
            if r + 1 == len(seeds):
                tables[i] = None
        masks, rates, rewards = columns
        yield RunResult(scenario=scenarios[w], strategy=strategy, seed=seed,
                        neighbor_sets=neighbor_sets[w], action_masks=masks, rates_bps=rates,
                        global_rewards=rewards)


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
