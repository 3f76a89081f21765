"""Simulation worlds: AP/STA placement, link inventory, physical constants.

A world is a square area with n downlink AP-STA pairs. Each STA sits at a
fixed distance from its own AP; all pairs share the same k radio links.
Geometry is static for the whole run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codec import dumps
from .errors import ConfigError, GeometryError

# Residential 5 GHz pathloss constants (TMB model) and the TX/RX defaults
# used throughout the experiments: 20 dBm and 80 MHz per link, -82 dBm
# reception sensitivity. The noise floor is not fixed by the model; -95 dBm
# is thermal noise integrated over 80 MHz with a 0 dB noise figure.
DEFAULT_PATHLOSS_INTERCEPT_DB = 54.12
DEFAULT_ATTENUATION_FACTOR = 2.06067
DEFAULT_WALL_ATTENUATION_DB = 5.25
DEFAULT_WALLS_PER_METER = 0.1467
DEFAULT_TX_POWER_DBM = 20.0
DEFAULT_BANDWIDTH_HZ = 80e6
DEFAULT_NOISE_FLOOR_DBM = -95.0
DEFAULT_SENSITIVITY_DBM = -82.0

MAX_LINKS = 16  # LinkSet masks are 16-bit; 2**16 - 1 actions stays enumerable

_STA_ANGLE_RETRIES = 1000
_DISTANCE_RTOL = 1e-9

Point = tuple[float, float]


def dbm_to_mw(dbm):
    return 10.0 ** (dbm / 10.0)


@dataclass(frozen=True)
class PhysicalConfig:
    """RF constants shared by every node in a world.

    Pathloss follows intercept + slope * log10(d) + wall_db_per_meter * d,
    where the wall term is a statistical average (walls/meter), not a map.
    """

    pathloss_intercept_db: float = DEFAULT_PATHLOSS_INTERCEPT_DB
    attenuation_factor: float = DEFAULT_ATTENUATION_FACTOR
    wall_attenuation_db_per_wall: float = DEFAULT_WALL_ATTENUATION_DB
    walls_per_meter: float = DEFAULT_WALLS_PER_METER
    tx_power_dbm: float = DEFAULT_TX_POWER_DBM
    bandwidth_hz_per_link: float = DEFAULT_BANDWIDTH_HZ
    noise_floor_dbm: float = DEFAULT_NOISE_FLOOR_DBM
    sensitivity_dbm: float = DEFAULT_SENSITIVITY_DBM

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ConfigError(f"physical {name} must be finite, got {value}")
        for name in ("attenuation_factor", "wall_attenuation_db_per_wall", "walls_per_meter"):
            if getattr(self, name) < 0:
                raise ConfigError(f"physical {name} must be >= 0, got {getattr(self, name)}")
        if self.bandwidth_hz_per_link <= 0:
            raise ConfigError(f"bandwidth must be positive, got {self.bandwidth_hz_per_link}")
        if self.sensitivity_dbm <= self.noise_floor_dbm:
            raise ConfigError(
                "sensitivity threshold must sit above the noise floor "
                f"({self.sensitivity_dbm} dBm vs {self.noise_floor_dbm} dBm)"
            )
        # The rate model works in mW, where 0 or inf mW turns rates into NaN or inf.
        at_1m = self.tx_power_dbm - self.pathloss_intercept_db
        for name, dbm in (("tx_power_dbm", self.tx_power_dbm),
                          ("noise_floor_dbm", self.noise_floor_dbm), ("power at 1 m", at_1m)):
            try:
                mw = dbm_to_mw(dbm)
            except OverflowError:
                mw = math.inf
            if not 0 < mw < math.inf:
                raise ConfigError(f"physical {name} of {dbm} dBm is {mw} mW, not in (0, inf)")


@dataclass(frozen=True)
class Scenario:
    """A sampled world: positions, pair distance, link count, RF constants."""

    area_side_m: float
    ap_positions: tuple[Point, ...]
    sta_positions: tuple[Point, ...]
    ap_sta_distance_m: float
    num_links: int
    physical: PhysicalConfig = field(default_factory=PhysicalConfig)

    def __post_init__(self) -> None:
        n = len(self.ap_positions)
        if n < 1 or len(self.sta_positions) != n:
            raise ConfigError(
                f"need equal, nonzero AP/STA counts, got {n} APs and "
                f"{len(self.sta_positions)} STAs"
            )
        check_world(n, self.num_links, self.area_side_m, self.ap_sta_distance_m)
        for label, pts in (("AP", self.ap_positions), ("STA", self.sta_positions)):
            for i, (x, y) in enumerate(pts):
                if not (0.0 <= x <= self.area_side_m and 0.0 <= y <= self.area_side_m):
                    raise ConfigError(f"{label} {i} at ({x}, {y}) is outside the area")
        for i, (ap, sta) in enumerate(zip(self.ap_positions, self.sta_positions)):
            d = math.dist(ap, sta)
            if not math.isclose(d, self.ap_sta_distance_m, rel_tol=_DISTANCE_RTOL):
                raise ConfigError(
                    f"pair {i} is {d} m apart, expected {self.ap_sta_distance_m} m"
                )

    @property
    def n(self) -> int:
        return len(self.ap_positions)

    def ap_array(self) -> np.ndarray:
        """AP coordinates as an (n, 2) float array."""
        return np.asarray(self.ap_positions, dtype=float)

    def sta_array(self) -> np.ndarray:
        """STA coordinates as an (n, 2) float array."""
        return np.asarray(self.sta_positions, dtype=float)

    def to_json(self) -> str:
        return dumps(self)


def check_world(n: int, k: int, area_side_m: float, d: float) -> None:
    """Raise `ConfigError` unless n >= 1 APs, k in [1, MAX_LINKS] links, a
    finite, positive area side and 0 < d < area side can make a world."""
    if n < 1:
        raise ConfigError(f"every AP count must be >= 1, got n={n}")
    if not 1 <= k <= MAX_LINKS:
        raise ConfigError(f"k must be in [1, {MAX_LINKS}], got {k}")
    if not (math.isfinite(area_side_m) and area_side_m > 0):
        raise ConfigError(f"area side must be finite and positive, got {area_side_m}")
    if not 0 < d < area_side_m:
        raise ConfigError(f"AP-STA distance must satisfy 0 < d < area side, got d={d}")


def sample_scenario(
    rng: np.random.Generator,
    n: int,
    k: int,
    area_side_m: float,
    d: float,
    physical: PhysicalConfig | None = None,
) -> Scenario:
    """Draw a world: APs uniform over the square, each STA on the circle of
    radius `d` around its AP at a uniform angle (redrawn while out of bounds).
    """
    check_world(n, k, area_side_m, d)
    physical = physical if physical is not None else PhysicalConfig()

    ap = rng.uniform(0.0, area_side_m, size=(n, 2))
    sta = np.empty_like(ap)
    for i in range(n):
        for _ in range(_STA_ANGLE_RETRIES):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            x = ap[i, 0] + d * math.cos(angle)
            y = ap[i, 1] + d * math.sin(angle)
            if 0.0 <= x <= area_side_m and 0.0 <= y <= area_side_m:
                sta[i] = (x, y)
                break
        else:
            raise GeometryError(
                f"no in-bounds STA position found for AP {i} at {tuple(ap[i])} "
                f"after {_STA_ANGLE_RETRIES} angle draws (d={d})"
            )
    return Scenario(
        area_side_m=float(area_side_m),
        ap_positions=tuple((float(x), float(y)) for x, y in ap),
        sta_positions=tuple((float(x), float(y)) for x, y in sta),
        ap_sta_distance_m=float(d),
        num_links=int(k),
        physical=physical,
    )

