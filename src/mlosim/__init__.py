"""Deterministic multi-agent simulator of multi-link Wi-Fi BSSs.

Per-AP agents pick which of the k shared links to activate each iteration
(fixed, random, local bandit, or federated bandit policies); the simulator
computes interference-aware Shannon rates and aggregates max-min
throughput statistics across Monte Carlo batches of sampled worlds.
"""

from .agents import Strategy
from .engine import RunResult, min_rate_timeseries, run_scenario
from .errors import (
    ConfigError,
    DomainError,
    EmptyInputError,
    GeometryError,
    MlosimError,
)
from .harness import (
    BatchSummary,
    ExperimentConfig,
    StrategyStats,
    compute_ecdf,
    density_sweep,
    percentile,
    run_batch,
    run_experiment,
    run_single_scenario,
)
from .radio import (
    ActivationProfile,
    LinkSet,
    achieved_rate_bps,
    dbm_to_mw,
    pathloss_db,
)
from .scenario import PhysicalConfig, Scenario, sample_scenario

__version__ = "0.1.0"

__all__ = [
    "ActivationProfile",
    "BatchSummary",
    "ConfigError",
    "DomainError",
    "EmptyInputError",
    "ExperimentConfig",
    "GeometryError",
    "LinkSet",
    "MlosimError",
    "PhysicalConfig",
    "RunResult",
    "Scenario",
    "Strategy",
    "StrategyStats",
    "achieved_rate_bps",
    "compute_ecdf",
    "dbm_to_mw",
    "density_sweep",
    "min_rate_timeseries",
    "pathloss_db",
    "percentile",
    "run_batch",
    "run_experiment",
    "run_scenario",
    "run_single_scenario",
    "sample_scenario",
]
