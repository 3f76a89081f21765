"""Experiment driver: Monte Carlo batches, density sweeps, aggregation.

A batch samples `num_scenarios` worlds and runs every configured strategy
on the same geometry (paired comparison), reducing each run to the
scenario's min rate: the whole-run average rate of its worst AP. `_tasks`
cuts an experiment's worlds, largest AP count first (a world's cost grows
with n), into tasks of consecutive worlds, each an equal share of run_bytes
per worker and within CHUNK_BYTES unless one world alone exceeds it. A
task's learning runs step together in one `run_learning` loop. Tasks are
independent, so an experiment maps them over one worker pool, and then
reduces each AP count's outcomes in scenario-index order, which keeps
summaries byte-identical for any worker count and any task layout.

Every world, in a batch task or in the convergence view, runs through
`_world_runs`; `run_single_scenario` is its one-world case. Outputs are CSV
files (one per figure analog, each written through `codec.write_csv` from a
row generator) plus a summary JSON; rates in the CSVs are Mbps with 3
decimals.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as streams
from .agents import _BLOCK, Strategy
from .codec import dump, dumps, write_csv
from .engine import LEARNING, RunResult, min_rate_timeseries, run_learning, run_scenario
from .errors import ConfigError, EmptyInputError, integer, items
from .scenario import PhysicalConfig, Scenario, check_world, sample_scenario

DEFAULT_NUM_SCENARIOS = 500
DEFAULT_ITERATIONS = 2000
# Bytes one world's runs may allocate, its blocks of draws and rate
# temporaries included (run_bytes). Its L learning runs step together as
# L*n agents (engine.run_learning), whose arrays are each at most (T, L*n):
# the uint16 actions and float64 rates and rewards of each distinct joint
# action (2 + 8 + 8) and the runs' gathered rewards, rates and masks
# (8 + 8 + 2), so 36 bytes per agent-iteration; plus 48*T for the intp
# `source` entry of each iteration (8) and the dict of distinct joint
# actions; a task's S worlds of one AP count hold one of each, which
# S*run_bytes counts S times. The dict's keys, the intp bytes of every
# agent's action, add 8 per agent-iteration while it lives; it is freed
# before the gathers, and the tables with the last run gathered.
# Per action of the p = 2**k - 1, the L*n agents' bandit tables take 16
# bytes per agent (float64 counts and means, agents.Tables) and `select`'s
# temporaries 17 more (the bool ties, their int64 cast and its cumsum), so
# 33 per agent-action, counted as 48: the other 15 cover each agent's
# set-up (its generator, about 0.9 KB, and its reward segment) once k >= 8.
# The (p, k) float64 link-mask matrix takes up to 24*k + 4 per action while
# it is built (uint32 masks, two (p, k) arrays of 8-byte ints or floats and
# numpy's cast buffer), 8*k after.
# Draws come in blocks of B = min(128, T) iterations (agents.policy_draws):
# an agent holds 41 bytes per iteration (its agent-major row of three
# float64 uniforms, 24; the C-order bool explore coin, 1; `pick`'s float64
# product, 8, and the C-order intp arm it casts to, 8), so the learning
# runs hold 41*L*n*B. A `random` run's n agents hold a block of their own,
# and its rate step up to four (B, n, k) float64 arrays (the link rows that
# `take` gathers, the totals and two temporaries), so n*B*(41 + 32*k). So a world
# may allocate
#   (36*L*n + 48)*T + (48*L*n + 24*k + 4)*p + (41*L*n + (41 + 32*k)*n)*B
# bytes, L counting at least 1, which also covers a fixed or random run.
# A batch task steps its worlds together, of one AP count or several, and
# reduces its runs one at a time, so it allocates at most the sum of its
# worlds' run_bytes: each group of worlds of one AP count holds its own
# distinct-row tables and dict, and every group's dict is freed before the
# gathers. tests/test_harness.py checks tracemalloc peaks against that
# bound: of run_learning and of a 4-strategy world at n = 2, 8, 64 and T =
# 32000, 16000, 8000, where per-iteration terms dominate; at k = 8, 12, 16,
# where the per-action terms do; of a `random` world at k=8, T=200, where
# its block does; and of tasks of 3 and 10 learning worlds at T = 130 and
# 500 (k = 1-8, n = 2-32), where the task's draws do. They read 0.33-0.70
# of it (a world at n=64, T=500 reads 0.70 too); without the draws terms the
# tasks read up to 1.91. A 2-world task at n=16, T=2000 reads 0.66 (3.68
# MiB): a task's joint action recurs less often than a world's, so its dict
# holds more keys per world than a lone world's. Tasks of worlds of two or
# three AP counts (n = 1-64, k = 1-8, T = 130-4000) read 0.40-0.62 of the
# sum of their worlds' run_bytes.
# A config is rejected when a world's run_bytes at its largest AP count
# exceeds the budget, and every world a batch runs has an AP count of the
# config. The same budget bounds the batch state of an experiment's worlds
# (each world's task, outcome and share of the StrategyStats, all held until
# the last world is reduced): tracemalloc peaks of run_batch with 4
# strategies at n=1, T=1 read 867, 799 and 731 bytes per world at 5,000,
# 10,000 and 20,000 worlds, so at 2**10 bytes per world the budget holds
# 2**32 / 2**10 = 4,194,304 worlds.
RUN_BYTES_BUDGET = 2**32
# Bytes a batch task may allocate when it holds more than one world: `_tasks`
# closes a task before a world that would take the sum of its worlds'
# run_bytes past CHUNK_BYTES, and a task of one world is bounded by
# RUN_BYTES_BUDGET. Per-world time stops falling near S=16 worlds per task:
# run_batch at n=8, T=2000, 4 strategies, 1 worker read 45, 32, 23, 18,
# 16.0, 16.4 and 16.2 ms per world at S = 1, 2, 4, 8, 16, 32 and 64 (2-core
# x86-64, numpy 2.4.6, one BLAS thread), and this cap allows S=22 there.
CHUNK_BYTES = 2**25


def run_bytes(config: "ExperimentConfig", n: int) -> int:
    """The bytes that one world of n APs may allocate under `config`."""
    agents = max(1, sum(s in LEARNING for s in config.strategies)) * n
    actions, block = 2**config.k - 1, min(_BLOCK, config.iterations)
    return ((36 * agents + 48) * config.iterations + (48 * agents + 24 * config.k + 4) * actions
            + (41 * agents + (41 + 32 * config.k) * n) * block)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a batch needs; JSON config files mirror these field names."""

    strategies: tuple[Strategy, ...] = tuple(Strategy)
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
        object.__setattr__(self, "strategies", items(self.strategies, "strategies"))
        if not self.strategies:
            raise ConfigError("need at least one strategy")
        if not all(isinstance(s, Strategy) for s in self.strategies):
            raise ConfigError(f"strategies must be Strategy members, got {self.strategies}")
        if len(set(self.strategies)) != len(self.strategies):
            names = [s.value for s in self.strategies]
            raise ConfigError(f"strategies must be distinct, got {names}")
        if not isinstance(self.physical, PhysicalConfig):
            raise ConfigError(f"physical must be a PhysicalConfig, got {self.physical!r}")
        if not isinstance(self.output_dir, str | None):
            raise ConfigError(f"output_dir must be a string or None, got {self.output_dir!r}")
        for name, least in (("num_scenarios", 1), ("iterations", 1), ("master_seed", 0),
                            ("workers", 1)):
            object.__setattr__(self, name, integer(getattr(self, name), name, least))
        n_values = tuple(integer(n, "n_values", 1) for n in items(self.n_values, "n_values"))
        object.__setattr__(self, "n_values", n_values)
        if not self.n_values:
            raise ConfigError("need at least one AP count")
        if len(set(self.n_values)) != len(self.n_values):
            raise ConfigError(f"AP counts must be distinct, got {self.n_values}")
        n = max(self.n_values)
        _, *values = check_world(n, self.k, self.area_side_m, self.d_m)
        for name, value in zip(("k", "area_side_m", "d_m"), values):
            object.__setattr__(self, name, value)
        world_bytes = run_bytes(self, n)
        if world_bytes > RUN_BYTES_BUDGET:
            raise ConfigError(
                f"iterations={self.iterations} and k={self.k} at {n} APs need "
                f"about {world_bytes / 2**30:.3g} GiB per world, over "
                f"{RUN_BYTES_BUDGET / 2**30:g} GiB")
        worlds = self.num_scenarios * len(self.n_values)
        if worlds * 2**10 > RUN_BYTES_BUDGET:
            raise ConfigError(
                f"num_scenarios={self.num_scenarios} at {len(self.n_values)} AP counts is "
                f"{worlds} worlds, over the {RUN_BYTES_BUDGET // 2**10} that fit in memory")


@dataclass(frozen=True)
class StrategyStats:
    """Batch aggregates for one strategy."""

    min_rates_bps: tuple[float, ...]  # per scenario, in scenario-index order
    mean_min_rate_bps: float
    ecdf_points: tuple[tuple[float, float], ...]
    p90_bps: float


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


def _one_n(config: ExperimentConfig, n: int | None) -> int:
    """`n`, one of the config's AP counts, or else the config's only one."""
    if n is None:
        if len(config.n_values) != 1:
            raise ConfigError(
                "config sweeps several AP counts; pass n explicitly or use density_sweep")
        return config.n_values[0]
    count = integer(n, "AP count")
    if count not in config.n_values:
        raise ConfigError(f"AP count {n} is not one of the config's n_values {config.n_values}")
    return count


def _world_runs(config: ExperimentConfig, parts):
    """Yield (AP count, scenario index, strategy, result) of every run on the
    batch worlds of `parts`, a list of (AP count, scenario indices): first
    the learning runs of all of them, stepped together in one `run_learning`
    lockstep loop and produced one at a time, then each world's
    `fixed`/`random` runs."""
    worlds = [(n, s) for n, indices in parts for s in indices]
    scenarios = [scenario_for_index(config, n, s) for n, s in worlds]
    T = config.iterations
    learners = [s for s in config.strategies if s in LEARNING]
    if learners:
        seeds = [run_seed(config, n, s, strategy) for n, s in worlds for strategy in learners]
        for r, result in enumerate(run_learning(scenarios, learners, T, seeds)):
            yield *worlds[r // len(learners)], result.strategy, result
    for (n, s), scenario in zip(worlds, scenarios):
        for strategy in config.strategies:
            if strategy not in LEARNING:
                seed = run_seed(config, n, s, strategy)
                yield n, s, strategy, run_scenario(scenario, strategy, T, seed)


def run_single_scenario(
    config: ExperimentConfig, n: int | None = None, scenario_index: int = 0
) -> dict[Strategy, RunResult]:
    """Full traces of every strategy on batch world `scenario_index`, in
    config.strategies order: the one-world case of a batch task."""
    index = integer(scenario_index, "scenario_index", 0)
    if index >= config.num_scenarios:
        raise ConfigError(f"scenario_index must be in range({config.num_scenarios}), got {index}")
    results = {strategy: result for _, _, strategy, result
               in _world_runs(config, [(_one_n(config, n), [index])])}
    return {strategy: results[strategy] for strategy in config.strategies}


def _chunk_task(args) -> list[tuple[int, int, str, list[float]]]:
    """One batch task: (AP count, scenario index, digest, min rates) of each
    world of the task's parts, a list of (AP count, range of consecutive
    scenario indices), with each strategy's min rate on the world. Every run
    is reduced to its min rate as it is produced, then dropped."""
    config, parts = args
    column = {strategy: col for col, strategy in enumerate(config.strategies)}
    mins = {(n, s): [0.0] * len(column) for n, indices in parts for s in indices}
    digests = {}
    for n, s, strategy, result in _world_runs(config, parts):
        mins[n, s][column[strategy]] = float(result.mean_rates_bps().min())
        if (n, s) not in digests:
            digests[n, s] = hashlib.sha256(dumps(result.scenario).encode()).hexdigest()[:16]
    return [(n, s, digests[n, s], row) for (n, s), row in mins.items()]


def _tasks(config: ExperimentConfig, n_values) -> list[list[tuple[int, range]]]:
    """The batch tasks of a run of the AP counts `n_values`, each a list of
    (AP count, range of consecutive scenario indices).

    The worlds, largest AP count first (a world's cost grows with n) and in
    scenario order, are cut into consecutive tasks: a task closes once it
    holds an equal share per worker of the run's run_bytes, or before a
    world that would take it past CHUNK_BYTES; it holds one world at least."""
    m, tasks, load = config.num_scenarios, [[]], 0
    share = -(-m * sum(run_bytes(config, n) for n in n_values) // config.workers)
    for n in sorted(n_values, reverse=True):
        need, lo = run_bytes(config, n), 0
        while lo < m:
            if tasks[-1] and (load >= share or load + need > CHUNK_BYTES):
                tasks.append([])
                load = 0
            fits = min(-(-(share - load) // need), (CHUNK_BYTES - load) // need)
            hi = min(m, lo + max(1, fits))
            tasks[-1].append((n, range(lo, hi)))
            load, lo = load + (hi - lo) * need, hi
    return tasks


def _run_worlds(config: ExperimentConfig, n_values) -> dict[int, list]:
    """Task outcomes (digest, min rates) of every world of each AP count, in
    scenario-index order.

    The tasks of `_tasks` are all built up front, and run inline at one
    worker or mapped once over one pool; a task's worlds step together.
    """
    tasks = [(config, parts) for parts in _tasks(config, n_values)]
    # A forked pool starts all its workers at the first submit, so it gets
    # no more of them than there are tasks.
    workers = min(config.workers, len(tasks))
    if workers > 1:
        # Imported here, so that a run without a pool (and `import mlosim`)
        # never loads concurrent.futures and multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_chunk_task, tasks))
    else:
        chunks = [_chunk_task(t) for t in tasks]
    outcomes = {n: [None] * config.num_scenarios for n in n_values}
    for chunk in chunks:
        for n, s, digest, mins in chunk:
            outcomes[n][s] = digest, mins
    return outcomes


def run_batch(
    config: ExperimentConfig, n: int | None = None, *, outcomes: list | None = None
) -> BatchSummary:
    """Run the paired Monte Carlo batch for one AP count of config.n_values.

    Given `outcomes` (each world's digest and min rates, in scenario-index
    order), it only reduces them.
    """
    n = _one_n(config, n)
    if outcomes is None:
        outcomes = _run_worlds(config, (n,))[n]

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
    """One batch per AP count in config.n_values, in order.

    The worlds of every AP count share one pool, so no count waits for the
    slowest world of another before its own worlds start.
    """
    outcomes = _run_worlds(config, config.n_values)
    return {n: run_batch(config, n, outcomes=outcomes[n]) for n in config.n_values}


# ---------------------------------------------------------------------------
# file outputs


def _mbps(value_bps: float) -> str:
    return f"{value_bps / 1e6:.3f}"


def write_summary_json(
    config: ExperimentConfig, summaries: dict[int, BatchSummary], path
) -> None:
    """The config and each AP count's batch summary as JSON at `path`, with
    the config's `output_dir` null: the bytes do not depend on the directory."""
    batches = {str(n): summary for n, summary in summaries.items()}
    with open(path, "w") as fh:
        dump({"config": replace(config, output_dir=None), "batches": batches}, fh, indent=2)


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
        single = run_single_scenario(config, n, 0)
        stats = summaries[n].per_strategy
        # fig3: running-average rate of the worst AP of world 0, per strategy
        write_csv(os.path.join(out_dir, "fig3_convergence.csv"),
                  ["strategy", "t", "min_ap_running_avg_mbps"],
                  ([s.value, t, _mbps(v)] for s, result in single.items()
                   for t, v in enumerate(min_rate_timeseries(result), start=1)))
        # fig4: whole-run average rate of each AP of world 0, per strategy
        write_csv(os.path.join(out_dir, "fig4_per_ap.csv"), ["strategy", "ap", "mean_rate_mbps"],
                  ([s.value, i, _mbps(v)] for s, result in single.items()
                   for i, v in enumerate(result.mean_rates_bps())))
        # fig5: batch mean and 90th percentile of the min rate, per strategy
        write_csv(os.path.join(out_dir, "fig5_means.csv"),
                  ["strategy", "mean_min_rate_mbps", "p90_mbps"],
                  ([s.value, _mbps(st.mean_min_rate_bps), _mbps(st.p90_bps)]
                   for s, st in stats.items()))
        # fig6: ECDF of the per-world min rates, per strategy
        write_csv(os.path.join(out_dir, "fig6_ecdf.csv"),
                  ["strategy", "min_rate_mbps", "cumulative_fraction"],
                  ([s.value, _mbps(rate), f"{fraction:.6f}"]
                   for s, st in stats.items() for rate, fraction in st.ecdf_points))
    else:
        # fig7: batch mean and 90th percentile of the min rate vs AP count, per strategy
        write_csv(os.path.join(out_dir, "fig7_density.csv"),
                  ["n", "strategy", "mean_min_rate_mbps", "p90_mbps"],
                  ([n, s.value, _mbps(st.mean_min_rate_bps), _mbps(st.p90_bps)]
                   for n, summary in summaries.items() for s, st in summary.per_strategy.items()))
    write_summary_json(config, summaries, os.path.join(out_dir, "summary.json"))
    return summaries
