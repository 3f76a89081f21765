"""The iteration loop: joint selection, rates, reward exchange, updates.

The n agents of a world advance together as arrays of action indices,
action a being link mask a + 1, which the rate kernel takes as they are.
`fixed` evaluates its one joint action once and `random` a block of
iterations per rate call. The learning runs (`rl`, `frl`) of S worlds of
one k step through t together in `run_learning`, as one population whose
per-AP streams are the runs' own, with one policy step per iteration; a
batch task passes its worlds, of one AP count or several, and
`run_scenario` runs a learning strategy as the one-world, one-run case.
Every learning agent is rewarded with the minimum rate over the true
entries of its row of an (n, n) bool matrix: the identity under `rl`, and
under `frl` the identity or who hears whom (radio.all_neighbor_sets, built
only when a task has `frl` runs). Actions travel through the loop as flat
table indices (agents.Tables), each with the mean that `select` read for
it. The whole population's joint action is the one key of the loop: each
distinct one is rated once, by one pass of the rate kernel built once on
one link budget per run (radio.rate_kernel decides how the runs are
stacked), and rewarded by one call, into tables from which each run is
gathered once the loop ends. The loop skips the explore merge on rows
where no agent explores. A world's link budget is built once while its
Scenario lives, however many runs step it. Before any is built, the runs'
rates are checked to stay finite (radio.check_rates).

Moves are simultaneous: every agent commits its link subset before any
rate is computed, so no agent observes another's current-iteration choice.
Reward sharing between federated agents is modeled as a lossless,
instantaneous exchange within the iteration. Who hears whom is fixed at
t=0 because the geometry never changes.
"""

from __future__ import annotations

import itertools
import weakref
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .agents import Strategy, Tables, policy_draws
# The loop calls the policy through these names, which perfbench's
# agents-layer probes wrap.
from .agents import credit as update, select as select_action
from .codec import write_csv
from .errors import ConfigError, integer
from .radio import all_neighbor_sets, check_rates, link_budget_matrix_mw, rate_kernel
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


def _check_runs(scenarios, strategies, T: int, seeds) -> tuple[int, list[int]]:
    """T and the seeds as Python ints, once the runs are checked: their
    rates and sums of T of them stay finite (radio.check_rates)."""
    T, seeds = integer(T, "T", 1), [integer(seed, "seed", 0) for seed in seeds]
    if not all(isinstance(s, Strategy) for s in strategies):
        raise ConfigError(f"strategies must be Strategy members, got {list(strategies)}")
    for k, d, physical in {(sc.num_links, sc.ap_sta_distance_m, sc.physical) for sc in scenarios}:
        check_rates(k, d, physical, T)
    return T, seeds


# Each live world's link budget, by the identity of its Scenario: a batch
# world's learning runs and its fixed and random runs build it once. An
# entry goes when its Scenario is freed.
_STATIC: dict[int, np.ndarray] = {}


def _static(scenario: Scenario) -> np.ndarray:
    key = id(scenario)
    if key not in _STATIC:
        _STATIC[key] = link_budget_matrix_mw(scenario)
        weakref.finalize(scenario, _STATIC.pop, key)
    return _STATIC[key]


def run_scenario(scenario: Scenario, strategy: Strategy, T: int, seed: int) -> RunResult:
    """Simulate `T` iterations of one world under one strategy.

    Identical inputs produce bitwise-identical results; every agent draws
    from its own child stream of `seed`. A learning run is the one-run case
    of `run_learning`.
    """
    T, (seed,) = _check_runs((scenario,), (strategy,), T, (seed,))
    if strategy in LEARNING:
        return next(run_learning((scenario,), (strategy,), T, (seed,)))
    n, p = scenario.n, 2**scenario.num_links - 1
    rates = rate_kernel([_static(scenario)], scenario.num_links, scenario.physical)
    action_index = np.empty((T, n), dtype=np.uint16)
    rates_hist = np.empty((T, n), dtype=np.float64)
    if strategy is Strategy.FIXED:
        action_index[:] = p - 1  # the all-links action
        rates_hist[:] = rates(action_index[0])
    else:
        for t0, _, arm, _ in policy_draws((seed,), (n,), T, p):
            action_index[t0 : t0 + len(arm)] = arm
            rates_hist[t0 : t0 + len(arm)] = rates(arm)
    return RunResult(
        scenario=scenario,
        strategy=strategy,
        seed=seed,
        action_masks=action_index + np.uint16(1),  # action index a is link mask a + 1
        rates_bps=rates_hist,
        global_rewards=None,
    )


def run_learning(scenarios, strategies, T: int, seeds) -> Iterator[RunResult]:
    """Simulate `T` iterations of S worlds of one k under each learning
    strategy (`rl`, `frl`) of `strategies`, the run of world w under
    strategies[l] seeded by seeds[w * L + l]. Returns an iterator over the
    S * L results in that order; each equals the run alone.

    The runs step in lockstep as one population of A agents: run r = w * L
    + l's n APs are the next n agents after the runs before it. Each
    iteration makes one policy step; a learning agent's reward is the
    minimum instant rate over its segment: itself under `rl` (its own
    rate), itself and the APs it hears under `frl` (the global reward). The
    geometry is static, so the intp bytes of `select`'s row of flat indices
    key one dict, and a new joint action makes one rate pass and one reward
    call, into the next free row of the (T, A) tables [actions, rates,
    rewards]. The loop runs before this returns; run r's columns of the
    tables at every iteration's row are gathered only when the iterator
    reaches it, and the last run frees each table once gathered from it.
    """
    T, seeds = _check_runs(scenarios, strategies, T, seeds)
    S, L = len(scenarios), len(strategies)
    if not S or not L or len(seeds) != S * L or not set(strategies) <= set(LEARNING):
        raise ConfigError(f"need worlds and learning strategies, one seed each per world, "
                          f"got {S} worlds, {strategies} and {seeds}")
    first = scenarios[0]
    if any((sc.num_links, sc.physical) != (first.num_links, first.physical) for sc in scenarios):
        raise ConfigError("worlds stepped together need the same k and physical constants")
    p = 2**first.num_links - 1
    ns = [sc.n for sc in scenarios for _ in strategies]  # each run's AP count
    bounds = list(itertools.accumulate(ns, initial=0))  # run r's agents: bounds[r]:bounds[r + 1]
    tables = Tables(bounds[-1], p)
    rates_of = rate_kernel([_static(sc) for sc in scenarios for _ in strategies],
                           first.num_links, first.physical)
    # Agent a's reward is the minimum over members[starts[a]:starts[a + 1]]:
    # the true entries of its row of its run's (n, n) reward matrix, itself
    # (rl) or itself and the APs it hears (frl). No segment is empty.
    eyes = [np.eye(sc.n, dtype=bool) for sc in scenarios]
    matrices = [all_neighbor_sets(sc) | eye if strategy is Strategy.FEDERATED_RL else eye
                for sc, eye in zip(scenarios, eyes) for strategy in strategies]  # run r's
    members = np.concatenate([np.flatnonzero(m) % len(m) + lo for m, lo in zip(matrices, bounds)])
    counts = np.concatenate([m.sum(axis=1) for m in matrices])
    starts = np.cumsum(counts) - counts
    distinct: dict[bytes, int] = {}  # a joint action's flat indices' bytes: its row
    distinct_tables = [np.empty((T, bounds[-1]), dtype) for dtype in (np.uint16, float, float)]
    distinct_actions, distinct_rates, distinct_rewards = distinct_tables
    source: list[int] = []  # every iteration's row
    for t0, explore, arm, tie in policy_draws(seeds, ns, T, p):
        arm += tables.offsets  # the explore arms as flat table indices
        rows = zip(explore.any(axis=1).tolist(), explore, arm, tie)
        for anyone, explore_row, arm_row, tie_row in rows:
            flat, mean = select_action(tables, explore_row if anyone else None, arm_row, tie_row)
            fresh = len(distinct)  # the next free row
            hit = distinct.setdefault(flat.tobytes(), fresh)
            source.append(hit)
            if hit == fresh:
                chosen = distinct_actions[fresh] = flat - tables.offsets
                rates = distinct_rates[fresh] = rates_of(chosen)
                distinct_rewards[fresh] = np.minimum.reduceat(rates[members], starts)
            update(tables, flat, distinct_rewards[hit], mean)
    distinct_actions += np.uint16(1)  # action index a is link mask a + 1

    def gather(source: np.ndarray) -> Iterator[RunResult]:
        for r, seed in enumerate(seeds):
            w, strategy = r // L, strategies[r % L]
            federated = strategy is Strategy.FEDERATED_RL
            columns = []
            for i, table in enumerate(distinct_tables):
                columns.append(table[source, bounds[r]:bounds[r + 1]] if federated or i < 2
                               else None)
                if r + 1 == len(seeds):
                    distinct_tables[i] = None
            masks, rates, rewards = columns
            yield RunResult(scenario=scenarios[w], strategy=strategy, seed=seed,
                            action_masks=masks, rates_bps=rates, global_rewards=rewards)

    return gather(np.array(source, dtype=np.intp))


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
