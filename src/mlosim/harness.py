"""Experiment driver: Monte Carlo batches, density sweeps, aggregation.

A batch samples `num_scenarios` worlds and runs every configured strategy
on the same geometry (paired comparison), reducing each run to the
scenario's min rate: the whole-run average rate of its worst AP. `_tasks`
cuts an experiment's worlds, largest AP count first (a world's cost grows
with n), into tasks of consecutive worlds, each an equal share per worker
of the worlds' loads (run_bytes plus WORLD_BYTES each) and within
CHUNK_BYTES unless one world alone exceeds it. A task's learning runs
step together in one `run_learning` loop. Tasks are
independent, so an experiment maps them over one worker pool, and then
reduces each AP count's outcomes in scenario-index order, which keeps
summaries byte-identical for any worker count and any task layout.

Every world runs once, in its batch task, which also keeps the convergence
and per-AP views of the worlds it is asked to show (batch world 0 of a
one-count experiment). Outputs are CSV files (one per figure analog, each
written through `codec.write_csv` from a row generator) plus a summary JSON;
rates in the CSVs are Mbps with 3 decimals.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as streams
from .agents import _BLOCK, Strategy
from .codec import dump, dumps, write_csv
from .engine import LEARNING, min_rate_timeseries, run_learning, run_scenario
from .errors import ConfigError, EmptyInputError, integer, items
from .radio import check_rates
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
# actions; a task's S worlds hold one of each, which S*run_bytes counts S
# times. The dict's keys, the intp bytes of every
# agent's action, add 8 per agent-iteration while it lives; it is freed
# before the gathers, and the tables with the last run gathered. The rate
# kernel keeps two (L*n, k) float64 buffers (the link rows and the totals)
# for the whole loop.
# Per action of the p = 2**k - 1, the L*n agents' bandit tables take 16
# bytes per agent (float64 counts and means, agents.Tables) and `select`'s
# temporaries 17 more (the bool ties, their int64 cast and its cumsum), so
# 33 per agent-action, counted as 48: the other 15 cover each agent's
# set-up (its generator, about 0.9 KB, and its reward segment) once k >= 8.
# The (p, k) float64 link-mask matrix takes up to 24*k + 4 per action while
# it is built (uint32 masks, two (p, k) arrays of 8-byte ints or floats and
# numpy's cast buffer), 8*k after, once per k (radio.link_mask_matrix).
# Draws come in blocks of B = min(128, T) iterations (agents.policy_draws):
# an agent holds 41 bytes per iteration (its agent-major row of three
# float64 uniforms, 24; the C-order bool explore coin, 1; `pick`'s float64
# product, 8, and the C-order intp arm it casts to, 8), so the learning
# runs hold 41*L*n*B. A `random` run's n agents hold a block of their own,
# and its rate step three (B, n, k) float64 arrays (the kernel's two
# buffers and the copy through which `take` fills one), counted as four, so
# n*B*(41 + 32*k). A world's O(n^2) arrays, held while it lives, are
# counted as 256 bytes per pair of APs: its float64 link budget (8) and
# the rate kernel's stack of one copy per learning run (8 each), its
# neighbor frozensets (up to about 140 per pair of APs that hear each
# other: a set's table and an int per member), an frl run's reward
# segments (about 48 per member while they are built) and the world's
# distance and pathloss temporaries. tracemalloc peaks of a one-world
# `_chunk_task` at T=1, k=1 read 32, 37 and 47 bytes per n^2 at n=1024 in
# the 100 m square (fixed, frl, all four strategies), and 73, 122 and 139
# in a 20 m square, where almost every AP hears every other; 129, 180 and
# 194 at n=1536, where a frozenset's table takes 85 bytes per member. So a
# world may allocate
#   (36*L*n + 48)*T + (48*L*n + 24*k + 4)*p + (41*L*n + (41 + 32*k)*n)*B + 256*n^2
# bytes, L counting at least 1, which also covers a fixed or random run.
# A batch task steps its worlds together, of one AP count or several, and
# reduces its runs one at a time, so it allocates at most the sum of its
# worlds' run_bytes: it holds one set of distinct-row tables, one `source`
# list and one dict, keyed on the joint action of all its agents, which is
# freed before the gathers. tests/test_harness.py checks tracemalloc peaks
# of `_chunk_task` against that bound: on one world that keeps its views
# (fig3/fig4), of `frl` alone and of all 4 strategies at n = 2, 8, 64 and T
# = 32000, 16000, 8000, where per-iteration terms dominate, at k = 8, 12,
# 16, where the per-action terms do, and of `random` alone at k=8, T=200,
# where its block does; and on tasks of 3 and 10 learning worlds at T = 130
# and 500 (k = 1-8, n = 2-32), where the task's draws do. They read
# 0.33-0.70 of it (a world at n=64, T=500 reads 0.59); without the draws
# terms the tasks read up to 1.91. A 2-world task at n=16, T=2000 reads
# 0.66 (3.67 MiB): a task's joint action recurs less often than a world's,
# so its dict holds more keys per world than a lone world's. Tasks of
# worlds of two or three AP counts (n = 1-64, k = 1-8, T = 130-4000) read
# 0.40-0.65 of the sum of their worlds' run_bytes. The two tasks of a sweep
# of n = 2-16 at 2 worlds per count and 2 workers (n = 16, 16, 12 and n =
# 12, 8, 8, 4, 4, 2, 2; T=2000, 4 strategies) peak at 5.05 and 4.59 MiB,
# 0.12 and 0.33 MiB above one dict per run of worlds of one AP count: the
# task's one dict keys all of its agents whenever any of them makes a new
# joint action. A config is rejected when a world's run_bytes at its
# largest AP count exceeds the budget, and every world a batch runs has an
# AP count of the config.
RUN_BYTES_BUDGET = 2**32
# Bytes of batch state per world: its share of its task (its Scenario,
# digest, outcome row and, while it steps, its agents' share of the task's
# arrays) and of the StrategyStats, held until the last world is reduced.
# tracemalloc peaks of run_batch with 4 strategies at n=1, T=1, where this
# state outweighs the runs, read 5,234, 4,889, 4,992, 5,015 and 5,031
# bytes per world at 500, 1,000, 2,000, 5,000 and 10,000 worlds (2-core
# x86-64, numpy 2.4.6). RUN_BYTES_BUDGET bounds the batch state of an
# experiment's worlds too, so a config runs at most
# RUN_BYTES_BUDGET // WORLD_BYTES = 524,288 worlds. `_tasks` loads each
# world at run_bytes + WORLD_BYTES: the first task of 13,000 such worlds
# holds 2,853 of them and peaks at 0.43 of their loads (5,082 bytes per
# world, 1.42 times a run_bytes of 3,567).
WORLD_BYTES = 2**13
# Bytes a batch task may allocate when it holds more than one world: `_tasks`
# closes a task before a world that would take the sum of its worlds' loads
# past CHUNK_BYTES, and a task of one world is bounded by RUN_BYTES_BUDGET.
# Per-world time stops falling near S=16 worlds per task: run_batch at n=8,
# T=2000, 4 strategies, 1 worker read 45, 32, 23, 18, 16.0, 16.4 and 16.2
# ms per world at S = 1, 2, 4, 8, 16, 32 and 64 (2-core x86-64, numpy
# 2.4.6, one BLAS thread), and this cap allows S=21 there.
CHUNK_BYTES = 2**25


def run_bytes(config: "ExperimentConfig", n: int) -> int:
    """The bytes that one world of n APs may allocate under `config`."""
    agents = max(1, sum(s in LEARNING for s in config.strategies)) * n
    actions, block = 2**config.k - 1, min(_BLOCK, config.iterations)
    return ((36 * agents + 48) * config.iterations + (48 * agents + 24 * config.k + 4) * actions
            + (41 * agents + (41 + 32 * config.k) * n) * block + 256 * n * n)


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
        # A run's mean sums T rates, a batch's mean num_scenarios of them.
        check_rates(self.k, self.d_m, self.physical, max(self.iterations, self.num_scenarios))
        world_bytes = run_bytes(self, n)
        if world_bytes > RUN_BYTES_BUDGET:
            raise ConfigError(
                f"iterations={self.iterations} and k={self.k} at {n} APs need "
                f"about {world_bytes / 2**30:.3g} GiB per world, over "
                f"{RUN_BYTES_BUDGET / 2**30:g} GiB")
        worlds = self.num_scenarios * len(self.n_values)
        if worlds * WORLD_BYTES > RUN_BYTES_BUDGET:
            raise ConfigError(
                f"num_scenarios={self.num_scenarios} at {len(self.n_values)} AP counts is "
                f"{worlds} worlds, over the {RUN_BYTES_BUDGET // WORLD_BYTES} that fit in memory")


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


def _chunk_task(args) -> tuple[list[tuple[int, int, str, list[float]]], dict]:
    """One batch task: (AP count, scenario index, digest, min rates) of each
    world of the task's parts, a list of (AP count, range of consecutive
    scenario indices), with each strategy's min rate on the world; and, by
    (AP count, scenario index), the views of the task's worlds in `shown`:
    each strategy's `min_rate_timeseries` and per-AP mean rates, in
    config.strategies order.

    The learning runs of all the worlds step together in one `run_learning`
    loop; each world's `fixed`/`random` runs follow. Every run is reduced
    as it is produced, then dropped."""
    config, parts, shown = args
    worlds = [(n, s) for n, indices in parts for s in indices]
    scenarios = [scenario_for_index(config, n, s) for n, s in worlds]
    T, learners = config.iterations, [s for s in config.strategies if s in LEARNING]
    runs = [(w, strategy) for w in range(len(worlds)) for strategy in learners]
    seeds = [run_seed(config, *worlds[w], strategy) for w, strategy in runs]
    lockstep = run_learning(scenarios, learners, T, seeds) if learners else ()
    others = [(w, strategy) for w in range(len(worlds))
              for strategy in config.strategies if strategy not in LEARNING]
    # The chain runs the lockstep iterator to its end, which frees the
    # learning runs' tables, before the first `fixed`/`random` run starts.
    results = itertools.chain(lockstep, (
        run_scenario(scenarios[w], strategy, T, run_seed(config, *worlds[w], strategy))
        for w, strategy in others))
    mins, views = [[0.0] * len(config.strategies) for _ in worlds], {}
    for (w, strategy), result in zip(runs + others, results):
        col, means = config.strategies.index(strategy), result.mean_rates_bps()
        mins[w][col] = float(means.min())
        if worlds[w] in shown:
            view = views.setdefault(worlds[w], [None] * len(config.strategies))
            view[col] = min_rate_timeseries(result), means
    digests = [hashlib.sha256(dumps(scenario).encode()).hexdigest()[:16] for scenario in scenarios]
    return [(n, s, digest, row) for (n, s), digest, row in zip(worlds, digests, mins)], views


def _tasks(config: ExperimentConfig, n_values) -> list[list[tuple[int, range]]]:
    """The batch tasks of a run of the AP counts `n_values`, each a list of
    (AP count, range of consecutive scenario indices).

    The worlds, largest AP count first (a world's cost grows with n) and in
    scenario order, are cut into consecutive tasks, each world's load being
    its run_bytes plus WORLD_BYTES: a task closes once it holds an equal
    share per worker of the run's load, or before a world that would take
    it past CHUNK_BYTES; it holds one world at least."""
    m, tasks, load = config.num_scenarios, [[]], 0
    loads = {n: run_bytes(config, n) + WORLD_BYTES for n in n_values}
    share = -(-m * sum(loads.values()) // config.workers)
    for n in sorted(n_values, reverse=True):
        need, lo = loads[n], 0
        while lo < m:
            if tasks[-1] and (load >= share or load + need > CHUNK_BYTES):
                tasks.append([])
                load = 0
            fits = min(-(-(share - load) // need), (CHUNK_BYTES - load) // need)
            hi = min(m, lo + max(1, fits))
            tasks[-1].append((n, range(lo, hi)))
            load, lo = load + (hi - lo) * need, hi
    return tasks


def _run_worlds(config: ExperimentConfig, n_values, shown=frozenset()) -> tuple[dict, dict]:
    """Task outcomes (digest, min rates) of every world of each AP count, in
    scenario-index order, and the views of the worlds in `shown`, by (AP
    count, scenario index).

    The tasks of `_tasks` are all built up front, and run inline at one
    worker or mapped once over one pool; a task's worlds step together.
    """
    tasks = [(config, parts, shown) for parts in _tasks(config, n_values)]
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
    outcomes, views = {n: [None] * config.num_scenarios for n in n_values}, {}
    for rows, task_views in chunks:
        views.update(task_views)
        for n, s, digest, mins in rows:
            outcomes[n][s] = digest, mins
    return outcomes, views


def run_batch(
    config: ExperimentConfig, n: int | None = None, *, outcomes: list | None = None
) -> BatchSummary:
    """Run the paired Monte Carlo batch for one AP count of config.n_values.

    Given `outcomes` (each world's digest and min rates, in scenario-index
    order), it only reduces them.
    """
    if n is None and len(config.n_values) != 1:
        raise ConfigError("config sweeps several AP counts; pass n explicitly or use density_sweep")
    n = config.n_values[0] if n is None else integer(n, "AP count")
    if n not in config.n_values:
        raise ConfigError(f"AP count {n} is not one of the config's n_values {config.n_values}")
    if outcomes is None:
        outcomes = _run_worlds(config, (n,))[0][n]

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
    outcomes, _ = _run_worlds(config, config.n_values)
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
    and per-AP views of batch world 0, kept by the task that runs it; with
    several counts it emits the density comparison instead.
    """
    out_dir = config.output_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    first, *others = config.n_values
    shown = frozenset() if others else {(first, 0)}
    outcomes, views = _run_worlds(config, config.n_values, shown)
    summaries = {n: run_batch(config, n, outcomes=outcomes[n]) for n in config.n_values}
    if not others:
        view = list(zip(config.strategies, views[first, 0]))
        stats = summaries[first].per_strategy
        # fig3: running-average rate of the worst AP of world 0, per strategy
        write_csv(os.path.join(out_dir, "fig3_convergence.csv"),
                  ["strategy", "t", "min_ap_running_avg_mbps"],
                  ([s.value, t, _mbps(v)] for s, (series, _) in view
                   for t, v in enumerate(series, start=1)))
        # fig4: whole-run average rate of each AP of world 0, per strategy
        write_csv(os.path.join(out_dir, "fig4_per_ap.csv"), ["strategy", "ap", "mean_rate_mbps"],
                  ([s.value, i, _mbps(v)] for s, (_, means) in view for i, v in enumerate(means)))
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
