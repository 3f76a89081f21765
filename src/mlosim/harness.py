"""Experiment driver: Monte Carlo batches, density sweeps, aggregation.

A batch samples `num_scenarios` worlds and runs every configured strategy
on the same geometry (paired comparison), reducing each run to the
scenario's min rate: the whole-run average rate of its worst AP. Scenario
tasks are independent, so they can be distributed over a worker pool; the
reduce is ordered by scenario index, which keeps summaries byte-identical
for any worker count.

Outputs are CSV files (one per figure analog) plus a summary JSON; rates
in the CSVs are Mbps with 3 decimals.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import rng as streams
from .agents import Strategy
from .engine import RunResult, min_rate_timeseries, run_scenario
from .errors import ConfigError, EmptyInputError
from .scenario import MAX_LINKS, PhysicalConfig, Scenario, sample_scenario

ALL_STRATEGIES = tuple(Strategy)

DEFAULT_NUM_SCENARIOS = 500
DEFAULT_ITERATIONS = 2000
DEFAULT_DENSITIES = (2, 4, 8, 12, 16)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a batch needs; JSON config files mirror these field names."""

    strategies: tuple[Strategy, ...] = ALL_STRATEGIES
    num_scenarios: int = DEFAULT_NUM_SCENARIOS
    iterations: int = DEFAULT_ITERATIONS
    n_values: tuple[int, ...] = (8,)
    k: int = 4
    area_side_m: float = 100.0
    d_m: float = 10.0
    physical: PhysicalConfig = field(default_factory=PhysicalConfig)
    master_seed: int = 1
    output_dir: str | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.strategies:
            raise ConfigError("need at least one strategy")
        if self.num_scenarios < 1:
            raise ConfigError(f"num_scenarios must be >= 1, got {self.num_scenarios}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ConfigError(f"every AP count must be >= 1, got {self.n_values}")
        if len(set(self.n_values)) != len(self.n_values):
            raise ConfigError(f"AP counts must be distinct, got {self.n_values}")
        if not 1 <= self.k <= MAX_LINKS:
            raise ConfigError(f"k must be in [1, {MAX_LINKS}], got {self.k}")
        if not (math.isfinite(self.area_side_m) and self.area_side_m > 0):
            raise ConfigError(f"area side must be finite and positive, got {self.area_side_m}")
        if not 0 < self.d_m < self.area_side_m:
            raise ConfigError(f"AP-STA distance must satisfy 0 < d < area side, got d={self.d_m}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.master_seed < 0:
            raise ConfigError(f"master seed must be >= 0, got {self.master_seed}")

    def to_json_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(strategies=[s.value for s in self.strategies], n_values=list(self.n_values),
                    physical=self.physical.to_json_dict())
        return data

    @classmethod
    def from_json_dict(cls, data) -> "ExperimentConfig":
        """Build a config from parsed JSON, rejecting values of the wrong
        JSON type (bools and fractions for counts, a string for a list)."""
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        kwargs: dict = {}
        for name, value in data.items():
            if name in ("strategies", "n_values"):
                if not isinstance(value, list):
                    raise ConfigError(f"{name} must be a JSON list, got {value!r}")
                item = Strategy.from_name if name == "strategies" else lambda v: _json_int(name, v)
                kwargs[name] = tuple(item(v) for v in value)
            elif name == "physical":
                kwargs[name] = PhysicalConfig.from_json_dict(value)
            elif name == "output_dir":
                if not isinstance(value, (str, type(None))):
                    raise ConfigError(f"output_dir must be a string, got {value!r}")
                kwargs[name] = value
            elif name in ("area_side_m", "d_m"):
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ConfigError(f"{name} must be a number, got {value!r}")
                kwargs[name] = float(value)
            else:
                kwargs[name] = _json_int(name, value)
        return cls(**kwargs)


def _json_int(name: str, value) -> int:
    """An integer, or a float with an integral value; never a bool."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class StrategyStats:
    """Batch aggregates for one strategy."""

    min_rates_bps: tuple[float, ...]  # per scenario, in scenario-index order
    mean_min_rate_bps: float
    ecdf_points: tuple[tuple[float, float], ...]
    p90_bps: float

    def to_json_dict(self) -> dict:
        return {
            "min_rates_bps": list(self.min_rates_bps),
            "mean_min_rate_bps": self.mean_min_rate_bps,
            "ecdf_points": [list(p) for p in self.ecdf_points],
            "p90_bps": self.p90_bps,
        }


@dataclass(frozen=True)
class BatchSummary:
    """Aggregated metrics for one batch (one AP count)."""

    n: int
    k: int
    num_scenarios: int
    iterations: int
    master_seed: int
    scenario_digests: tuple[str, ...]
    per_strategy: dict[Strategy, StrategyStats]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "num_scenarios": self.num_scenarios,
            "iterations": self.iterations,
            "master_seed": self.master_seed,
            "scenario_digests": list(self.scenario_digests),
            "per_strategy": {
                s.value: stats.to_json_dict() for s, stats in self.per_strategy.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def compute_ecdf(values) -> list[tuple[float, float]]:
    """Empirical CDF points: sorted values with cumulative fractions i/len."""
    values = list(values)
    if not values:
        raise EmptyInputError("cannot build an ECDF from no values")
    ordered = sorted(float(v) for v in values)
    m = len(ordered)
    return [(v, (i + 1) / m) for i, v in enumerate(ordered)]


def percentile(values, q: float) -> float:
    """q-th percentile by sorted-order linear interpolation."""
    values = list(values)
    if not values:
        raise EmptyInputError("cannot take a percentile of no values")
    if not 0 <= q <= 100:
        raise ConfigError(f"percentile must be in [0, 100], got {q}")
    return float(np.percentile(np.asarray(values, dtype=float), q, method="linear"))


def scenario_for_index(config: ExperimentConfig, n: int, s: int) -> Scenario:
    """The world for scenario index `s`: identical for every strategy."""
    rng = streams.generator(config.master_seed, streams.PURPOSE_SCENARIO, s)
    return sample_scenario(
        rng, n=n, k=config.k, area_side_m=config.area_side_m, d=config.d_m,
        physical=config.physical,
    )


def run_seed(config: ExperimentConfig, n: int, s: int, strategy: Strategy) -> int:
    """Engine seed for one (scenario, strategy) run, stable across configs."""
    return streams.derive_seed(
        config.master_seed, streams.PURPOSE_RUN, n, s, list(Strategy).index(strategy)
    )


def _scenario_digest(scenario: Scenario) -> str:
    return hashlib.sha256(scenario.to_json().encode()).hexdigest()[:16]


def _scenario_task(args) -> tuple[str, list[float]]:
    """One batch task: sample world `s`, run every strategy, reduce to min rates."""
    config, n, s = args
    scenario = scenario_for_index(config, n, s)
    mins = []
    for strategy in config.strategies:
        result = run_scenario(
            scenario, strategy, config.iterations, run_seed(config, n, s, strategy)
        )
        mins.append(float(result.mean_rates_bps().min()))
    return _scenario_digest(scenario), mins


def run_batch(config: ExperimentConfig, n: int | None = None) -> BatchSummary:
    """Run the paired Monte Carlo batch for one AP count."""
    if n is None:
        if len(config.n_values) != 1:
            raise ConfigError(
                "config sweeps several AP counts; pass n explicitly or use density_sweep"
            )
        n = config.n_values[0]
    tasks = [(config, n, s) for s in range(config.num_scenarios)]
    if config.workers > 1 and config.num_scenarios > 1:
        chunk = max(1, config.num_scenarios // (config.workers * 8))
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(_scenario_task, tasks, chunksize=chunk))
    else:
        outcomes = [_scenario_task(t) for t in tasks]

    digests = tuple(digest for digest, _ in outcomes)
    per_strategy: dict[Strategy, StrategyStats] = {}
    for col, strategy in enumerate(config.strategies):
        mins = tuple(mins_row[col] for _, mins_row in outcomes)
        per_strategy[strategy] = StrategyStats(
            min_rates_bps=mins,
            mean_min_rate_bps=float(np.mean(mins)),
            ecdf_points=tuple(compute_ecdf(mins)),
            p90_bps=percentile(mins, 90.0),
        )
    return BatchSummary(
        n=n,
        k=config.k,
        num_scenarios=config.num_scenarios,
        iterations=config.iterations,
        master_seed=config.master_seed,
        scenario_digests=digests,
        per_strategy=per_strategy,
    )


def density_sweep(config: ExperimentConfig) -> dict[int, BatchSummary]:
    """One batch per AP count in config.n_values, in order."""
    return {n: run_batch(config, n=n) for n in config.n_values}


def run_single_scenario(
    config: ExperimentConfig, n: int | None = None, scenario_index: int = 0
) -> dict[Strategy, RunResult]:
    """Full traces of every strategy on one batch world (convergence view)."""
    if n is None:
        n = config.n_values[0]
    scenario = scenario_for_index(config, n, scenario_index)
    return {
        strategy: run_scenario(
            scenario,
            strategy,
            config.iterations,
            run_seed(config, n, scenario_index, strategy),
        )
        for strategy in config.strategies
    }


# ---------------------------------------------------------------------------
# file outputs


def _mbps(value_bps: float) -> str:
    return f"{value_bps / 1e6:.3f}"


def write_convergence_csv(results: dict[Strategy, RunResult], path) -> None:
    """Running-average rate of the worst AP, per strategy (fig3 analog)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "t", "min_ap_running_avg_mbps"])
        for strategy, result in results.items():
            series = min_rate_timeseries(result)
            for t, value in enumerate(series, start=1):
                writer.writerow([strategy.value, t, _mbps(value)])


def write_per_ap_csv(results: dict[Strategy, RunResult], path) -> None:
    """Whole-run average rate of each AP, per strategy (fig4 analog)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "ap", "mean_rate_mbps"])
        for strategy, result in results.items():
            for i, value in enumerate(result.mean_rates_bps()):
                writer.writerow([strategy.value, i, _mbps(value)])


def write_means_csv(summary: BatchSummary, path) -> None:
    """Per-strategy batch mean and 90th percentile (fig5 analog)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "mean_min_rate_mbps", "p90_mbps"])
        for strategy, stats in summary.per_strategy.items():
            writer.writerow(
                [strategy.value, _mbps(stats.mean_min_rate_bps), _mbps(stats.p90_bps)]
            )


def write_ecdf_csv(summary: BatchSummary, path) -> None:
    """ECDF of per-scenario min rates, per strategy (fig6 analog)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "min_rate_mbps", "cumulative_fraction"])
        for strategy, stats in summary.per_strategy.items():
            for rate, fraction in stats.ecdf_points:
                writer.writerow([strategy.value, _mbps(rate), f"{fraction:.6f}"])


def write_density_csv(summaries: dict[int, BatchSummary], path) -> None:
    """Mean min rate vs AP count, per strategy (fig7 analog)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "strategy", "mean_min_rate_mbps", "p90_mbps"])
        for n, summary in summaries.items():
            for strategy, stats in summary.per_strategy.items():
                writer.writerow(
                    [n, strategy.value, _mbps(stats.mean_min_rate_bps), _mbps(stats.p90_bps)]
                )


def write_summary_json(
    config: ExperimentConfig, summaries: dict[int, BatchSummary], path
) -> None:
    payload = {
        "config": config.to_json_dict(),
        "batches": {str(n): s.to_json_dict() for n, s in summaries.items()},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)


def run_experiment(config: ExperimentConfig) -> dict[int, BatchSummary]:
    """The full driver: batches (or a sweep) plus figure CSVs on disk.

    With a single AP count this also emits the single-scenario convergence
    and per-AP views for batch world 0; with several counts it emits the
    density comparison instead.
    """
    out_dir = config.output_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    summaries = density_sweep(config)
    if len(config.n_values) == 1:
        n = config.n_values[0]
        single = run_single_scenario(config, n=n, scenario_index=0)
        write_convergence_csv(single, os.path.join(out_dir, "fig3_convergence.csv"))
        write_per_ap_csv(single, os.path.join(out_dir, "fig4_per_ap.csv"))
        write_means_csv(summaries[n], os.path.join(out_dir, "fig5_means.csv"))
        write_ecdf_csv(summaries[n], os.path.join(out_dir, "fig6_ecdf.csv"))
    else:
        write_density_csv(summaries, os.path.join(out_dir, "fig7_density.csv"))
    write_summary_json(config, summaries, os.path.join(out_dir, "summary.json"))
    return summaries
