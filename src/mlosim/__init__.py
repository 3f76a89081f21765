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
from .harness import ExperimentConfig, run_batch
from .radio import ActivationProfile, LinkSet, achieved_rate_bps
from .scenario import PhysicalConfig, Scenario, sample_scenario

__version__ = "0.1.0"

__all__ = [
    "ActivationProfile",
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
    "achieved_rate_bps",
    "min_rate_timeseries",
    "run_batch",
    "run_scenario",
    "sample_scenario",
]
