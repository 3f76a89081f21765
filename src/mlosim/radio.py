"""RF arithmetic: pathloss, link budget, who hears whom, achievable rates.

All SINR math happens in linear milliwatts; dBm appears only at the
boundaries. Rates follow the per-link Shannon form
B * log2(1 + P / (I + N)) summed over the active links, where I aggregates
the power received from every other AP transmitting on the same link;
`rate_kernel` is the one place that form is written, the only place
where an action index a becomes the link row of link mask a + 1, and the
only place that stacks the link budgets of a task's runs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .scenario import MAX_LINKS, PhysicalConfig, Scenario, dbm_to_mw


@dataclass(frozen=True)
class LinkSet:
    """A subset of the k links, packed as a bitmask (bit j <=> link j active)."""

    mask: int
    width: int

    def __post_init__(self) -> None:
        if not 1 <= self.width <= MAX_LINKS:
            raise ConfigError(f"link-set width must be in [1, {MAX_LINKS}], got {self.width}")
        if not 0 <= self.mask < (1 << self.width):
            raise ConfigError(
                f"mask {self.mask:#x} does not fit in {self.width} link bits"
            )


@dataclass(frozen=True)
class ActivationProfile:
    """The joint action: one nonempty LinkSet per AP, all of equal width."""

    per_ap: tuple[LinkSet, ...]

    def __post_init__(self) -> None:
        if not self.per_ap:
            raise ConfigError("activation profile needs at least one AP entry")
        width = self.per_ap[0].width
        for i, ls in enumerate(self.per_ap):
            if ls.width != width:
                raise ConfigError(f"entry {i} has width {ls.width}, expected {width}")
            if ls.mask == 0:
                raise ConfigError(f"entry {i} activates no links; actions must be nonempty")


def pathloss_db(d, physical: PhysicalConfig):
    """Pathloss over d meters (scalar or array): intercept +
    10*gamma*log10(d) + wall term. The only place the formula is written."""
    d = np.asarray(d, dtype=np.float64)
    if np.any(d <= 0):
        raise DomainError(f"pathloss needs positive distances, got min {d.min()} m")
    return (
        physical.pathloss_intercept_db
        + 10.0 * physical.attenuation_factor * np.log10(d)
        + physical.wall_attenuation_db_per_wall * physical.walls_per_meter * d
    )


def _distances(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """dist[j, i]: Euclidean distance from point src[j] to point dst[i]."""
    return np.sqrt(((src[:, None, :] - dst[None, :, :]) ** 2).sum(axis=-1))


def link_budget_matrix_mw(scenario: Scenario) -> np.ndarray:
    """P[j, i]: power (mW) received at STA i from AP j at full TX power.

    The diagonal is each pair's own signal; off-diagonal entries are the
    potential interference contributions. Geometry is static, so this is
    computed once per world.
    """
    phys = scenario.physical
    dist = _distances(np.asarray(scenario.ap_positions), np.asarray(scenario.sta_positions))
    return dbm_to_mw(phys.tx_power_dbm - pathloss_db(dist, phys))


def all_neighbor_sets(scenario: Scenario) -> np.ndarray:
    """The (n, n) bool matrix of who hears whom: hears[i, j] when AP j's
    transmissions reach AP i at or above the sensitivity threshold (AP-to-AP
    distance, full TX power). Symmetric, with a false diagonal.
    """
    phys = scenario.physical
    ap = np.asarray(scenario.ap_positions)
    dist = _distances(ap, ap)
    np.fill_diagonal(dist, 1.0)  # any positive distance: the diagonal is cleared below
    hears = phys.tx_power_dbm - pathloss_db(dist, phys) >= phys.sensitivity_dbm
    np.fill_diagonal(hears, False)  # no AP hears itself
    return hears


@functools.cache
def link_mask_matrix(k: int) -> np.ndarray:
    """The (2**k - 1, k) float64 link rows: row a is the bit pattern of
    link mask a + 1 (bit j <=> link j active), so every row is nonempty and
    the last activates all k links. Built once per k and read-only: every
    kernel of k links shares it."""
    masks = np.arange(1, 2**k, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(k)) & 1).astype(np.float64)
    bits.setflags(write=False)
    return bits


def rate_kernel(budgets, k: int, physical: PhysicalConfig):
    """The rate function of a task's runs: index -> rates (bits/second) of
    its A agents under joint actions, shape (..., A).

    `budgets` holds one (n, n) link budget (link_budget_matrix_mw) per run
    of n agents, in agent order: run r's agent i is AP i of its world,
    after the agents of the runs before it. `index[..., a]` is agent a's
    action index, shape (..., A), and leading axes index independent joint
    actions. The kernel stacks each group of consecutive budgets of one AP
    count into one (R, n, n) array; a call gathers the link rows into a
    buffer, makes one matmul per group, into its slice of the totals, then
    one elementwise pass over all agents. The terms of the budgets alone
    are taken once; the buffers of a shape of `index`, with their views,
    when it is first rated, and kept until another comes.
    """
    bits = link_mask_matrix(k)
    noise_mw, bandwidth = dbm_to_mw(physical.noise_floor_dbm), physical.bandwidth_hz_per_link
    parts, signals, lo = [], [], 0
    for n, group in itertools.groupby(budgets, key=len):
        stack = np.stack(list(group))  # (R, n, n): the group's R runs
        runs = len(stack)
        # gain is a view: a contiguous copy rounds differently
        parts.append((stack.swapaxes(-1, -2), slice(lo, lo + runs * n), (runs, n)))
        signals.append(stack.diagonal(0, -2, -1).ravel())
        lo += runs * n
    signal = np.concatenate(signals)[:, None]  # each agent's own signal
    buffers: dict = {}

    def views(shape):
        *lead, _ = shape
        active, total = np.empty((*shape, k)), np.empty((*shape, k))
        return active, total, [(gain, *(buf[..., agents, :].reshape(*lead, *joint, k)
                                        for buf in (active, total)))
                               for gain, agents, joint in parts]

    def rates(index: np.ndarray) -> np.ndarray:
        if index.shape not in buffers:
            buffers.clear()  # the previous shape's buffers go first
            buffers[index.shape] = views(index.shape)
        active, total, products = buffers[index.shape]
        bits.take(index, axis=0, out=active)
        # total[..., a, l]: power on link l at agent a's STA from every active AP, plus noise
        for gain, part, part_total in products:
            np.matmul(gain, part, out=part_total)
        total += noise_mw
        # On an active link 1 + S/(I + N) = total / (total - S); inactive
        # gives 1. Each step writes over the link rows, no longer needed.
        np.multiply(active, signal, out=active)
        np.subtract(total, active, out=active)
        np.divide(total, active, out=active)
        return np.add.reduce(np.log2(active, out=active), axis=-1) * bandwidth

    return rates


def check_rates(k: int, d: float, physical: PhysicalConfig, sums: int) -> None:
    """Raise a ConfigError unless the rates of worlds of k links and AP-STA
    distance d stay finite, and so do sums of `sums` of them.

    No AP's rate exceeds its isolated link's: its own STA at distance d, all
    k links on and no other AP transmitting. That rate is taken on the rate
    kernel's own float path, where the signal S and noise N must give
    fl(S + N) > S: otherwise 1 + S/N rounds to S/0.
    """
    where = (f"d_m={d}, k={k} and physical tx_power_dbm={physical.tx_power_dbm}, "
             f"noise_floor_dbm={physical.noise_floor_dbm}, "
             f"bandwidth_hz_per_link={physical.bandwidth_hz_per_link}")
    with np.errstate(over="ignore"):
        signal = dbm_to_mw(physical.tx_power_dbm - pathloss_db(d, physical))
        noise = dbm_to_mw(physical.noise_floor_dbm)
        if not signal + noise > signal:
            raise ConfigError(f"{where}: the noise of {noise:.3g} mW is below the float "
                              f"resolution of the isolated link's signal of {signal:.3g} mW, "
                              "so its rate would be infinite")
        rate = rate_kernel([np.array([[signal]])], k, physical)(np.array([2**k - 2]))[0]
        if not np.isfinite(rate * sums):
            raise ConfigError(f"{where}: the isolated link's rate of {rate:.3g} bit/s "
                              f"summed over {sums} iterations or worlds is not finite")


def achieved_rate_bps(scenario: Scenario, profile: ActivationProfile, i: int) -> float:
    """Downlink rate of AP i under the joint profile, in bits/second: entry
    i of the rate kernel on the world's link budget (no sensitivity cutoff)."""
    if len(profile.per_ap) != scenario.n:
        raise ConfigError(f"profile covers {len(profile.per_ap)} APs, scenario has {scenario.n}")
    width = profile.per_ap[0].width
    if width != scenario.num_links:
        raise ConfigError(
            f"profile has {width} link bits, scenario has {scenario.num_links} links")
    if not 0 <= i < scenario.n:
        raise IndexError(f"AP index {i} out of range for n={scenario.n}")
    masks = np.array([ls.mask for ls in profile.per_ap])
    rates = rate_kernel([link_budget_matrix_mw(scenario)], width, scenario.physical)
    return float(rates(masks - 1)[i])
