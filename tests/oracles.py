"""Reference implementations that the engine is checked against.

`reference_run` is a per-agent epsilon-greedy bandit written one agent and
one iteration at a time with Python floats. It reads the same three
uniforms per agent-iteration from the same per-AP streams as the engine,
so the engine's array form must match it bit for bit. `max_min_optima`
is the brute-force max-min optimum over every joint action of a tiny
world, through the scalar rate reference.
"""

import itertools
import math

import numpy as np

from mlosim import ActivationProfile, LinkSet, Strategy, achieved_rate_bps
from mlosim.radio import all_neighbor_sets, dbm_to_mw, link_budget_matrix_mw, rates_bps
from mlosim.rng import PURPOSE_AGENT, generator


class ReferenceAgent:
    """One AP's bandit: a visit count and a running mean per action."""

    def __init__(self, p, rng):
        self.counts = [0] * p
        self.means = [0.0] * p
        self.rng = rng

    def select(self, t):
        coin, arm, tie = (float(u) for u in self.rng.random(3))
        if coin < 1.0 / math.sqrt(t):
            return math.floor(arm * len(self.means))
        best = max(self.means)
        maxima = [a for a, m in enumerate(self.means) if m == best]
        return maxima[math.floor(tie * len(maxima))]

    def credit(self, action, reward):
        self.counts[action] += 1
        self.means[action] += (reward - self.means[action]) / self.counts[action]


def reference_run(scenario, strategy, T, seed):
    """(action masks, rates, global rewards or None) of an rl or frl run."""
    n, k = scenario.n, scenario.num_links
    p = 2**k - 1
    agents = [ReferenceAgent(p, generator(seed, PURPOSE_AGENT, i)) for i in range(n)]
    members = [{i, *nbrs} for i, nbrs in enumerate(all_neighbor_sets(scenario))]
    power = link_budget_matrix_mw(scenario)
    noise_mw = dbm_to_mw(scenario.physical.noise_floor_dbm)
    bits = [[(a + 1) >> link & 1 for link in range(k)] for a in range(p)]
    federated = strategy is Strategy.FEDERATED_RL
    masks, rates, globals_ = [], [], []
    for t in range(1, T + 1):
        chosen = [agent.select(t) for agent in agents]
        rate = rates_bps(power, np.array([bits[a] for a in chosen]), noise_mw,
                         scenario.physical.bandwidth_hz_per_link).tolist()
        shared = [min(rate[j] for j in members[i]) for i in range(n)]
        for agent, a, reward in zip(agents, chosen, shared if federated else rate):
            agent.credit(a, reward)
        masks.append([a + 1 for a in chosen])
        rates.append(rate)
        globals_.append(shared)
    return np.array(masks), np.array(rates), np.array(globals_) if federated else None


def max_min_optima(scenario):
    """(best value, set of mask tuples attaining it): the max-min rate over
    all (2**k - 1)**n joint actions, by the scalar rate reference."""
    k = scenario.num_links
    scores = {}
    for masks in itertools.product(range(1, 2**k), repeat=scenario.n):
        profile = ActivationProfile(tuple(LinkSet(m, k) for m in masks))
        scores[masks] = min(achieved_rate_bps(scenario, profile, i) for i in range(scenario.n))
    best = max(scores.values())
    return best, {masks for masks, v in scores.items() if v >= best * (1 - 1e-12)}
