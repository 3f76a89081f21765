"""Reference implementations that the engine is checked against.

`scalar_rate_bps` is the rate model written again, one AP and one link at
a time, from the world's `PhysicalConfig` fields with `math` alone: it
calls no pathloss, dBm or rate function of `mlosim`, so a fault in those
cannot also hide in it. `max_min_optima` is the brute-force max-min
optimum over every joint action of a tiny world, through it.

`monotonicity_case` draws the small worlds and activation profiles on
which the model's link-monotonicity properties are checked.

`reference_run` is a per-agent epsilon-greedy bandit written one agent and
one iteration at a time with Python floats. It reads the same three
uniforms per agent-iteration from the same per-AP streams as the engine,
so the engine's array form must match it bit for bit. That comparison
needs the engine's own floats, so it takes its rates from `rates_bps`.
"""

import itertools
import math

import numpy as np

from mlosim import Scenario, Strategy
from mlosim.radio import all_neighbor_sets, link_budget_matrix_mw, rates_bps
from mlosim.rng import PURPOSE_AGENT, generator


def scalar_rate_bps(scenario, masks, i):
    """Downlink rate (bits/second) of AP i when each AP j transmits on the
    links set in the bits of masks[j]: Shannon rate per active link, with
    the interference summed in mW over every other AP on that link (no
    sensitivity cutoff)."""
    phys = scenario.physical
    sta = scenario.sta_positions[i]

    def received_mw(j):
        d = math.dist(scenario.ap_positions[j], sta)
        pathloss = (phys.pathloss_intercept_db + 10 * phys.attenuation_factor * math.log10(d)
                    + phys.wall_attenuation_db_per_wall * phys.walls_per_meter * d)
        return 10 ** ((phys.tx_power_dbm - pathloss) / 10)

    noise_mw = 10 ** (phys.noise_floor_dbm / 10)
    rate = 0.0
    for link in range(scenario.num_links):
        if masks[i] >> link & 1:
            interference = sum(received_mw(j) for j in range(scenario.n)
                               if j != i and masks[j] >> link & 1)
            rate += phys.bandwidth_hz_per_link * math.log2(
                1 + received_mw(i) / (interference + noise_mw))
    return rate


def monotonicity_case(rng, k=3):
    """(world, masks, i, j): a world of 2 to 4 APs in the 100 m square, each
    STA 10 m north of its AP, with k links; a nonempty link mask per AP; an
    AP i and another AP j, all drawn from `rng`."""
    n = int(rng.integers(2, 5))
    pts = rng.uniform(0, 90, size=(n, 2))
    stas = pts + [0.0, 10.0]
    world = Scenario(
        area_side_m=100.0,
        ap_positions=tuple(map(tuple, pts)),
        sta_positions=tuple(map(tuple, stas)),
        ap_sta_distance_m=10.0,
        num_links=k,
    )
    masks = rng.integers(1, 2**k, size=n)
    i = int(rng.integers(n))
    j = int((i + 1 + rng.integers(n - 1)) % n)
    return world, masks, i, j


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
    noise_mw = 10 ** (scenario.physical.noise_floor_dbm / 10)
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
    all (2**k - 1)**n joint actions, by scalar_rate_bps."""
    scores = {}
    for masks in itertools.product(range(1, 2**scenario.num_links), repeat=scenario.n):
        scores[masks] = min(scalar_rate_bps(scenario, masks, i) for i in range(scenario.n))
    best = max(scores.values())
    return best, {masks for masks, v in scores.items() if v >= best * (1 - 1e-12)}
