"""Command-line entry point.

    simulate --config cfg.json --strategy all --scenarios 500 \
             --iterations 2000 --aps 8 --seed 1 --workers 4 --out results/

Flags override config-file values; both are read as JSON values of the
ExperimentConfig fields, typed by the field annotations. A single --aps
value produces the batch outputs (fig3..fig6 CSVs); several values produce
the density comparison (fig7). A summary JSON is always written.
"""

from __future__ import annotations

import argparse
import json
import sys

from .agents import Strategy
from .codec import from_json
from .errors import MlosimError
from .harness import ExperimentConfig, run_experiment


def comma_separated_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Multi-link Wi-Fi link-activation simulator",
    )
    parser.add_argument("--config", help="JSON file mirroring ExperimentConfig fields")
    parser.add_argument(
        "--strategy",
        choices=[s.value for s in Strategy] + ["all"],
        help="run a single strategy instead of all four",
    )
    parser.add_argument("--scenarios", type=int, help="number of sampled worlds")
    parser.add_argument("--iterations", type=int, help="iterations per run")
    parser.add_argument(
        "--aps", type=comma_separated_ints, help="comma-separated AP counts, e.g. 8 or 2,4,8,12,16"
    )
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--workers", type=int, help="parallel scenario workers")
    parser.add_argument("--out", help="output directory")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    strategies = [s.value for s in Strategy if args.strategy in ("all", s.value)] or None
    flags = {"strategies": strategies, "num_scenarios": args.scenarios,
             "iterations": args.iterations, "n_values": args.aps, "master_seed": args.seed,
             "workers": args.workers, "output_dir": args.out}
    flags = {name: value for name, value in flags.items() if value is not None}
    data: dict = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        # The file's values, with the flags filling only the fields it
        # leaves out, so that no flag hides a bad file value.
        from_json(ExperimentConfig, {**flags, **data} if isinstance(data, dict) else data)
    return from_json(ExperimentConfig, {**data, **flags})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        summaries = run_experiment(config)
    except (MlosimError, OSError, ValueError, MemoryError) as exc:
        print(f"simulate: error: {exc}", file=sys.stderr)
        return 1
    for n, summary in summaries.items():
        for strategy, stats in summary.per_strategy.items():
            print(
                f"n={n} {strategy.value:6s} mean min rate = "
                f"{stats.mean_min_rate_bps / 1e6:.3f} Mbps "
                f"(p90 {stats.p90_bps / 1e6:.3f} Mbps)"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
