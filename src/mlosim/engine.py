"""The iteration loop: joint selection, rates, reward exchange, updates.

The n agents of a world advance together as arrays; action a is row a of
the link-mask matrix, link mask a + 1. `fixed` evaluates its one joint
action once and `random` a block of iterations per rate call. The learning
runs (`rl`, `frl`) of S worlds of one k step through t together in
`run_learning`, as one population whose per-AP streams are the runs' own,
with one policy step per iteration; a batch task passes its worlds, of one
AP count or several, and `run_scenario` runs a learning strategy as the
one-world, one-run case. Every learning agent is rewarded with the minimum
rate over one segment of a flat member list: the AP alone under `rl`, the
AP then its neighbors under `frl`. Actions travel through the loop as flat
table indices (agents.Tables), each with the mean that `select` read for
it. Consecutive worlds of one AP count form a group, which shares a key
and a rate call: the group keys each iteration on the joint action of its
agents, evaluates each distinct one once, through a rate kernel built once
per group, into tables from which every run's rows are gathered at the
end. The loop skips the explore merge on rows where no agent explores. A
world's link budget and neighbor sets are built once while its Scenario
lives, however many runs step it.

Moves are simultaneous: every agent commits its link subset before any
rate is computed, so no agent observes another's current-iteration choice.
Reward sharing between federated agents is modeled as a lossless,
instantaneous exchange within the iteration. Neighbor sets are frozen at
t=0 because the geometry never changes.
"""

from __future__ import annotations

import itertools
import weakref
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .agents import Strategy, Tables, link_mask_matrix, policy_draws
# The loop calls the policy through these names, which perfbench's
# agents-layer probes wrap.
from .agents import credit as update, select as select_action
from .codec import write_csv
from .errors import ConfigError, integer
from .radio import all_neighbor_sets, dbm_to_mw, link_budget_matrix_mw, rate_kernel
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


def _check_runs(strategies, T: int, seeds) -> tuple[int, list[int]]:
    """T and the seeds as Python ints, once the runs are checked."""
    try:  # numpy integers pass; bools, floats, strings and None do not
        T, seeds = integer(T), [integer(seed) for seed in seeds]
    except TypeError:
        raise ConfigError(f"T and seeds must be integers, got {T!r} and {list(seeds)}") from None
    if T < 1:
        raise ConfigError(f"need at least one iteration, got T={T}")
    if not all(isinstance(s, Strategy) for s in strategies):
        raise ConfigError(f"strategies must be Strategy members, got {list(strategies)}")
    if any(seed < 0 for seed in seeds):
        raise ConfigError(f"seeds must be >= 0, got {list(seeds)}")
    return T, seeds


# Each live world's link budget and neighbor sets, by the identity of its
# Scenario: a batch world's learning runs and its fixed and random runs
# build them once. An entry goes when its Scenario is freed.
_STATIC: dict[int, tuple] = {}


def _static(scenario: Scenario) -> tuple:
    key = id(scenario)
    if key not in _STATIC:
        _STATIC[key] = link_budget_matrix_mw(scenario), all_neighbor_sets(scenario)
        weakref.finalize(scenario, _STATIC.pop, key)
    return _STATIC[key]


def _worlds(scenarios):
    """The worlds' link-mask matrix, their neighbor sets and the rate function
    of their joint actions: action indices of shape (S, ..., n), world w's in
    row w, to rates of the same shape; one world's of shape (..., n). The
    indices' link rows are gathered with `take`, cheaper per call than fancy
    indexing. Every world must share n, k and the physical constants, as
    `run_learning` checks."""
    first = scenarios[0]
    mask_bits = link_mask_matrix(first.num_links)  # (p, k), as the rate kernel takes it
    # Static link budgets: power[w, 0, j, i] is AP j's power at STA i of world
    # w in mW; one world's is (n, n), which costs less per call than a stack.
    budgets, neighbor_sets = zip(*map(_static, scenarios))
    power = budgets[0] if len(budgets) == 1 else np.stack(budgets)[:, None]
    rates = rate_kernel(power, dbm_to_mw(first.physical.noise_floor_dbm),
                        first.physical.bandwidth_hz_per_link)

    def rates_of(index: np.ndarray) -> np.ndarray:
        return rates(mask_bits.take(index, axis=0))

    return mask_bits, neighbor_sets, rates_of


def run_scenario(scenario: Scenario, strategy: Strategy, T: int, seed: int) -> RunResult:
    """Simulate `T` iterations of one world under one strategy.

    Identical inputs produce bitwise-identical results; every agent draws
    from its own child stream of `seed`. A learning run is the one-run case
    of `run_learning`.
    """
    T, (seed,) = _check_runs((strategy,), T, (seed,))
    if strategy in LEARNING:
        return next(run_learning((scenario,), (strategy,), T, (seed,)))
    n = scenario.n
    mask_bits, (neighbor_sets,), rates_of = _worlds((scenario,))
    p = len(mask_bits)
    action_index = np.empty((T, n), dtype=np.uint16)
    rates_hist = np.empty((T, n), dtype=np.float64)
    if strategy is Strategy.FIXED:
        action_index[:] = p - 1  # the all-links action
        rates_hist[:] = rates_of(action_index[0])
    else:
        for t0, _, arm, _ in policy_draws((seed,), (n,), T, p):
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
    """Simulate `T` iterations of S worlds of one k under each learning
    strategy (`rl`, `frl`) of `strategies`, the run of world w under
    strategies[l] seeded by seeds[w * L + l]. Returns an iterator over the
    S * L results in that order; each equals the run alone.

    The runs step in lockstep as one population: run r = w * L + l's n APs
    are the next n agents after the runs before it, so each iteration makes
    one policy step for all of them. Consecutive worlds of one AP count
    share a key and a rate call: such a group makes one rate call and one
    reward call when its joint action is new. A learning agent's reward is
    the minimum instant rate over its segment: itself under `rl` (its own
    rate), itself and its neighbors under `frl` (the global reward). The
    loop runs before this returns; each result's arrays are gathered only
    when the iterator reaches it, so a caller that reduces and drops each
    result holds one at a time.
    """
    T, seeds = _check_runs(strategies, T, seeds)
    S, L = len(scenarios), len(strategies)
    if not S or not L or len(seeds) != S * L or not set(strategies) <= set(LEARNING):
        raise ConfigError(f"need worlds and learning strategies, one seed each per world, "
                          f"got {S} worlds, {strategies} and {seeds}")
    first = scenarios[0]
    if any((sc.num_links, sc.physical) != (first.num_links, first.physical) for sc in scenarios):
        raise ConfigError("worlds stepped together need the same k and physical constants")
    p = 2**first.num_links - 1
    ns = [sc.n for sc in scenarios for _ in strategies]  # each run's AP count
    tables = Tables(sum(ns), p)
    groups, parts, w, lo = [], [], 0, 0
    for n, worlds in itertools.groupby(scenarios, key=lambda sc: sc.n):
        worlds = list(worlds)
        hi = lo + len(worlds) * L * n
        step, finish = _group(worlds, strategies, T, tables.offsets[lo:hi])
        groups.append((worlds, seeds[w * L:(w + len(worlds)) * L], finish))
        parts.append((step, lo, hi))
        w, lo = w + len(worlds), hi
    if len(parts) > 1:  # else the one group's step takes every agent
        def step(flat):
            return np.concatenate([part(flat[lo:hi]) for part, lo, hi in parts])
    for t0, explore, arm, tie in policy_draws(seeds, ns, T, p):
        arm += tables.offsets  # the explore arms as flat table indices
        rows = zip(explore.any(axis=1).tolist(), explore, arm, tie)
        for anyone, explore_row, arm_row, tie_row in rows:
            flat, mean = select_action(tables, explore_row if anyone else None, arm_row, tie_row)
            update(tables, flat, step(flat), mean)
    return _gather(strategies, [(worlds, seeds, *finish()) for worlds, seeds, finish in groups])


def _group(worlds, strategies, T: int, offsets: np.ndarray):
    """(step, finish) of a group of `run_learning`: consecutive worlds of one
    AP count, whose S * L * n agents have the flat table offsets `offsets`.

    step(flat) takes the agents' flat indices of one iteration and returns
    their rewards. The geometry is static, so a joint action always has the
    same rates and rewards: the iteration's intp bytes key one dict, and a
    new joint action is evaluated once, into the next free row of the
    group's (T, S * L * n) tables. finish() frees the dict and returns the
    worlds' neighbor sets, every iteration's row and the tables [masks,
    rates, rewards], from which every run's rows are gathered."""
    n, L, agents = worlds[0].n, len(strategies), len(offsets)
    _, neighbor_sets, rates_of = _worlds(worlds)
    joint = (L, n) if len(worlds) == 1 else (len(worlds), L, n)  # what rates_of takes
    # Agent a's reward is the minimum over members[starts[a]:starts[a + 1]]:
    # itself (rl), or itself and its neighbors (frl). No segment is empty.
    runs = enumerate(itertools.product(neighbor_sets, strategies))  # run r = w * L + l
    segments = [[r * n + j for j in ([i, *nbrs] if strategy is Strategy.FEDERATED_RL else [i])]
                for r, (nbr_sets, strategy) in runs for i, nbrs in enumerate(nbr_sets)]
    members = np.array([m for segment in segments for m in segment])
    starts = np.cumsum([0] + [len(seg) for seg in segments[:-1]])
    distinct: dict[bytes, int] = {}  # a joint action's flat indices' bytes: its row
    tables = [np.empty((T, agents), dtype=np.uint16), np.empty((T, agents)), np.empty((T, agents))]
    distinct_actions, distinct_rates, distinct_rewards = tables
    source: list[int] = []  # every iteration's row

    def step(flat: np.ndarray) -> np.ndarray:
        fresh = len(distinct)  # the next free row
        hit = distinct.setdefault(flat.tobytes(), fresh)
        source.append(hit)
        if hit != fresh:
            return distinct_rewards[hit]
        chosen = distinct_actions[fresh] = flat - offsets
        rates = distinct_rates[fresh] = rates_of(chosen.reshape(joint)).reshape(agents)
        reward = distinct_rewards[fresh] = np.minimum.reduceat(rates[members], starts)
        return reward

    def finish():
        distinct.clear()
        tables[0] += np.uint16(1)  # action index a is link mask a + 1
        return neighbor_sets, np.array(source, dtype=np.intp), tables

    return step, finish


def _gather(strategies, groups):
    """Yield each run of `run_learning` in order. Each group (worlds, seeds,
    neighbor sets, source, tables) yields its runs r in turn, gathering
    columns r * n to (r + 1) * n of its distinct-row tables [masks, rates,
    rewards] at the rows `source` names. A group's last run frees each table
    once gathered from it, so that a caller that keeps every run peaks near
    its results."""
    L = len(strategies)
    for worlds, seeds, neighbor_sets, source, tables in groups:
        n = worlds[0].n
        for r, seed in enumerate(seeds):
            w, strategy = r // L, strategies[r % L]
            federated = strategy is Strategy.FEDERATED_RL
            columns = []
            for i, table in enumerate(tables):
                columns.append(table[source, r * n:(r + 1) * n] if federated or i < 2 else None)
                if r + 1 == len(seeds):
                    tables[i] = None
            masks, rates, rewards = columns
            yield RunResult(scenario=worlds[w], strategy=strategy, seed=seed,
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
