"""Paired CPU timings of one density sweep in two checkouts, side by side.

    python3 tools/pair_time.py --parent /path/to/parent/checkout --change . \
        --n 2,4,8,12,16 --worlds 2 --iterations 2000 --strategies fixed,random,rl,frl \
        --pairs 10 --workers 2

Each checkout's `src/mlosim` is imported under its own package name
(`mlosim_parent`, `mlosim_change`), so both live in one interpreter. Pair i
runs the public `harness.density_sweep` at `--workers` workers (default 1)
over `--worlds` worlds of each AP count of `--n` (master seed i + 1)
RUNS = 3 times per side, the sides taking turns and the side that goes
first alternating from pair to pair, and keeps each side's least CPU time
per world, so that one disturbed run does not decide a pair. A run's CPU
time is its own plus that of the pool workers it reaped
(RUSAGE_CHILDREN). At one worker the sweep runs in this process; with one
AP count and at most 21 worlds (n=8, T=2000), it is one batch task, the
task that `run_batch` runs. At 2 workers, the five-count
sweep of 2 worlds per count is cut into the 2 tasks that the `sweep-cli`
benchmark runs. The ratio of a pair is change over parent. Printed: every
pair, then the median ratio, its quartiles and the pairs the change won
(ratio below 1). The tool exits 1 if the two sides' outcomes (every
strategy's per-world min rates of every AP count) differ in any run.

Set `OPENBLAS_NUM_THREADS=1` (and its OMP/MKL kin) for one BLAS thread;
the tool sets them itself when they are unset, which takes effect when it
is the first to load numpy.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import resource
import statistics
import sys
import time

SIDES = ("parent", "change")
RUNS = 3  # runs of each side per pair, of which the least CPU time counts


def load(root: str, name: str):
    """The checkout's `src/mlosim` imported as package `name`, harness loaded."""
    src = os.path.join(root, "src", "mlosim")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"), submodule_search_locations=[src])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.harness")


def sweep(harness, ns, worlds: int, iterations: int, strategies, seed: int, workers: int = 1):
    """Every strategy's per-world min rates of each AP count of one
    `density_sweep` at `workers` workers."""
    config = harness.ExperimentConfig(
        strategies=tuple(harness.Strategy(s) for s in strategies), num_scenarios=worlds,
        iterations=iterations, n_values=tuple(ns), master_seed=seed, workers=workers)
    return {n: {strategy.value: stats.min_rates_bps for strategy, stats in
                summary.per_strategy.items()}
            for n, summary in harness.density_sweep(config).items()}


def cpu_seconds() -> float:
    """CPU seconds of this process and of the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def pair_times(harnesses: dict, ns, worlds: int, iterations: int, strategies,
               pairs: int, workers: int = 1) -> list[dict]:
    """One record per pair: each side's least CPU ms per world over its
    RUNS runs, the ratio change / parent of those, and whether every run's
    outcomes agree."""
    for harness in harnesses.values():  # warm each side's caches and lazy imports
        sweep(harness, ns, 1, 1, strategies, 1)
    records = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        seconds, outcomes = {side: [] for side in SIDES}, []
        for side in order * RUNS:
            t0 = cpu_seconds()
            outcomes.append(sweep(harnesses[side], ns, worlds, iterations, strategies, i + 1,
                                  workers))
            seconds[side].append(cpu_seconds() - t0)
        least = {side: min(seconds[side]) for side in SIDES}
        records.append({
            "first": order[0],
            "ms_per_world": {side: 1e3 * least[side] / (worlds * len(ns)) for side in SIDES},
            "ratio": least["change"] / least["parent"],
            "equal": all(outcome == outcomes[0] for outcome in outcomes),
        })
    return records


def summary(records: list[dict]) -> dict:
    """Median ratio, its quartiles (the median twice for one pair), pairs won."""
    ratios = [r["ratio"] for r in records]
    quartiles = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else [ratios[0]] * 3
    return {"median": statistics.median(ratios), "iqr": [quartiles[0], quartiles[2]],
            "won": sum(r < 1 for r in ratios), "pairs": len(ratios),
            "outcomes_equal": all(r["equal"] for r in records)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pair_time.py")
    parser.add_argument("--parent", required=True, help="the checkout to compare against")
    parser.add_argument("--change", required=True, help="the checkout to measure")
    parser.add_argument("--n", default="8", help="comma-separated AP counts")
    parser.add_argument("--worlds", type=int, default=1, help="worlds per AP count")
    parser.add_argument("--iterations", type=int, default=2000, help="iterations per run (T)")
    parser.add_argument("--strategies", default="fixed,random,rl,frl",
                        help="comma-separated strategy names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workers", type=int, default=1, help="the sweeps' worker count")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.workers < 1:
        parser.error("--pairs and --workers must be at least 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # read when numpy first loads
    harnesses = {side: load(getattr(args, side), f"mlosim_{side}") for side in SIDES}
    strategies = args.strategies.split(",")
    ns = [int(n) for n in args.n.split(",")]
    records = pair_times(harnesses, ns, args.worlds, args.iterations, strategies, args.pairs,
                         args.workers)
    for i, r in enumerate(records):
        ms = r["ms_per_world"]
        print(f"pair {i}: parent {ms['parent']:.2f} ms/world, change {ms['change']:.2f} "
              f"ms/world, ratio {r['ratio']:.3f} ({r['first']} first)"
              f"{'' if r['equal'] else ', OUTCOMES DIFFER'}")
    s = summary(records)
    print(f"n={args.n} S={args.worlds} T={args.iterations} {args.strategies} "
          f"workers={args.workers}: "
          f"median ratio {s['median']:.3f} (IQR {s['iqr'][0]:.3f}-{s['iqr'][1]:.3f}), "
          f"change won {s['won']} of {s['pairs']} pairs")
    if not s["outcomes_equal"]:
        print("FAILED: the two checkouts' outcomes differ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
