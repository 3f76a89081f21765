"""RF arithmetic: pathloss, link budget, neighborhoods, achievable rates.

All SINR math happens in linear milliwatts; dBm appears only at the
boundaries. Rates follow the per-link Shannon form
B * log2(1 + P / (I + N)) summed over the active links, where I aggregates
the power received from every other AP transmitting on the same link;
`rate_kernel` is the one place that form is written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .agents import link_mask_matrix
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


def all_neighbor_sets(scenario: Scenario) -> tuple[frozenset[int], ...]:
    """Neighbor sets for every AP, in index order: the APs whose
    transmissions reach it at or above the sensitivity threshold (AP-to-AP
    distance, full TX power). Symmetric and irreflexive.
    """
    phys = scenario.physical
    ap = np.asarray(scenario.ap_positions)
    dist = _distances(ap, ap)
    np.fill_diagonal(dist, 1.0)  # any positive distance: the diagonal is cleared below
    hears = phys.tx_power_dbm - pathloss_db(dist, phys) >= phys.sensitivity_dbm
    np.fill_diagonal(hears, False)  # no AP hears itself
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in hears)


def rate_kernel(budgets, noise_mw: float, bandwidth: float, runs: int = 1):
    """The rate function of a task's worlds: active -> rates (bits/second)
    of its A agents under joint actions, shape (..., A).

    `budgets` holds one entry per run of consecutive worlds of one AP count
    n, in order: a lone world's (n, n) link budget (link_budget_matrix_mw)
    or a stack of S of them, (S, n, n). Each world has `runs` runs of its n
    APs, its agent r * n + i being AP i of run r, after the agents of the
    worlds before it; `active[..., a, l]` says whether agent a transmits on
    link l, shape (..., A, k), and leading axes index independent joint
    actions. A call makes one matmul per entry, into its slice of the
    totals, then one elementwise pass over all agents. The terms of the
    budgets alone are taken once; the buffers of a shape of `active`, with
    their views, when it is first rated, and kept until another comes.
    """
    parts, signals, lo = [], [], 0
    for power in budgets:
        # A lone world multiplies its (runs, n, k) actions, a stack of S
        # worlds, as (S, 1, n, n), its (S, runs, n, k) ones.
        stack = power if power.ndim == 2 else power[:, None]
        joint = (*stack.shape[:-3], runs, stack.shape[-1])
        # gain is a view: a contiguous copy rounds differently
        parts.append((stack.swapaxes(-1, -2), slice(lo, lo + math.prod(joint)), joint))
        signals.append(np.broadcast_to(stack.diagonal(0, -2, -1), joint).ravel())
        lo += math.prod(joint)
    signal = np.concatenate(signals)[:, None]  # each agent's own signal
    buffers: dict = {}

    def views(shape):
        *lead, _, k = shape
        active_f, total = np.empty(shape), np.empty(shape)
        return active_f, total, [(gain, *(buf[..., agents, :].reshape(*lead, *joint, k)
                                          for buf in (active_f, total)))
                                 for gain, agents, joint in parts]

    def rates(active: np.ndarray) -> np.ndarray:
        if active.shape not in buffers:
            buffers.clear()  # the previous shape's buffers go first
            buffers[active.shape] = views(active.shape)
        active_f, total, products = buffers[active.shape]
        np.copyto(active_f, active)
        # total[..., a, l]: power on link l at agent a's STA from every active AP, plus noise
        for gain, part, part_total in products:
            np.matmul(gain, part, out=part_total)
        total += noise_mw
        # On an active link 1 + S/(I + N) = total / (total - S); inactive
        # gives 1. Each step writes over the actions, no longer needed.
        np.multiply(active_f, signal, out=active_f)
        np.subtract(total, active_f, out=active_f)
        np.divide(total, active_f, out=active_f)
        return np.add.reduce(np.log2(active_f, out=active_f), axis=-1) * bandwidth

    return rates


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
    phys = scenario.physical
    masks = np.array([ls.mask for ls in profile.per_ap])
    active = link_mask_matrix(width)[masks - 1]
    rates = rate_kernel([link_budget_matrix_mw(scenario)], dbm_to_mw(phys.noise_floor_dbm),
                        phys.bandwidth_hz_per_link)
    return float(rates(active)[i])
