"""RF arithmetic: pathloss, link budget, neighborhoods, achievable rates.

All SINR math happens in linear milliwatts; dBm appears only at the
boundaries. Rates follow the per-link Shannon form
B * log2(1 + P / (I + N)) summed over the active links, where I aggregates
the power received from every other AP transmitting on the same link;
`rates_bps` is the one place that form is written.
"""

from __future__ import annotations

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

    @property
    def n(self) -> int:
        return len(self.per_ap)


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
    dist = _distances(scenario.ap_array(), scenario.sta_array())
    return dbm_to_mw(phys.tx_power_dbm - pathloss_db(dist, phys))


def all_neighbor_sets(scenario: Scenario) -> tuple[frozenset[int], ...]:
    """Neighbor sets for every AP, in index order: the APs whose
    transmissions reach it at or above the sensitivity threshold (AP-to-AP
    distance, full TX power). Symmetric and irreflexive.
    """
    phys = scenario.physical
    ap = scenario.ap_array()
    dist = _distances(ap, ap)
    np.fill_diagonal(dist, np.inf)  # infinite pathloss: no AP hears itself
    hears = phys.tx_power_dbm - pathloss_db(dist, phys) >= phys.sensitivity_dbm
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in hears)


def rates_bps(
    power: np.ndarray, active: np.ndarray, noise_mw: float, bandwidth: float
) -> np.ndarray:
    """Rates (bits/second) of all n APs under joint actions, shape (..., n).

    `power` is the (n, n) link budget of link_budget_matrix_mw, or a stack
    of them, shape (..., n, n), and `active[..., i, l]` says whether AP i
    transmits on link l, shape (..., n, k); leading axes index independent
    joint actions and broadcast against the stack of worlds.
    """
    active_f = np.asarray(active, dtype=np.float64)
    # total[..., i, l]: power on link l at STA i from every active AP, plus noise
    total = power.swapaxes(-1, -2) @ active_f + noise_mw
    # On an active link 1 + S/(I + N) = total / (total - S); inactive gives 1.
    ratio = total / (total - active_f * power.diagonal(0, -2, -1)[..., None])
    return np.log2(ratio).sum(axis=-1) * bandwidth


def achieved_rate_bps(scenario: Scenario, profile: ActivationProfile, i: int) -> float:
    """Downlink rate of AP i under the joint profile, in bits/second: entry
    i of `rates_bps` on the world's link budget (no sensitivity cutoff)."""
    if profile.n != scenario.n:
        raise ConfigError(f"profile covers {profile.n} APs, scenario has {scenario.n}")
    if not 0 <= i < scenario.n:
        raise IndexError(f"AP index {i} out of range for n={scenario.n}")
    phys = scenario.physical
    masks = np.array([ls.mask for ls in profile.per_ap])
    active = link_mask_matrix(profile.per_ap[0].width)[masks - 1]
    rates = rates_bps(link_budget_matrix_mw(scenario), active,
                      dbm_to_mw(phys.noise_floor_dbm), phys.bandwidth_hz_per_link)
    return float(rates[i])
