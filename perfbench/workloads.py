"""Workload definitions shared by the benchmark's processes.

A workload is a closed loop of *units*: one unit is one call into the
program's public entry point (`mlosim.harness.run_batch` or
`mlosim.cli.main`) over a few freshly seeded worlds. Every world is run
under all of the workload's strategies. The next unit starts only when
the previous one has returned.

This module imports neither numpy nor mlosim at import time, so the
set-up probe can time those imports itself.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

ALL_STRATEGIES = ("fixed", "random", "rl", "frl")

# Model constants of the paper (README "Model summary"), written out here
# so that the rate cap below does not come from the code under test.
K_LINKS = 4
AREA_SIDE_M = 100.0
AP_STA_DISTANCE_M = 10.0
BANDWIDTH_HZ = 80e6
TX_POWER_DBM = 20.0
NOISE_FLOOR_DBM = -95.0


def rate_cap_bps() -> float:
    """k * B * log2(1 + S/N): every link on, no interference at all."""
    d = AP_STA_DISTANCE_M
    pathloss_db = 54.12 + 20.6067 * math.log10(d) + 5.25 * 0.1467 * d
    snr = 10.0 ** ((TX_POWER_DBM - pathloss_db - NOISE_FLOOR_DBM) / 10.0)
    return K_LINKS * BANDWIDTH_HZ * math.log2(1.0 + snr)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    n_values: tuple[int, ...]
    strategies: tuple[str, ...]
    iterations: int
    tiny_iterations: int
    # Per AP count. Small units track the machine's speed closely; the
    # CLI's pool only starts for at least 2.
    scenarios_per_unit: int
    via_cli: bool

    def iterations_for(self, tiny: bool) -> int:
        return self.tiny_iterations if tiny else self.iterations

    def worlds_per_unit(self) -> int:
        return self.scenarios_per_unit * len(self.n_values)

    def workers(self) -> int:
        return nproc() if self.via_cli else 1

    def probe_n(self) -> int:
        """AP count of the fixed-world engine probe: the workload's n, or
        the paper's n=8 for the sweep, whose n varies within a unit."""
        return self.n_values[0] if len(self.n_values) == 1 else 8

    def cli_argv(self, master_seed: int, workers: int, out_dir: str, tiny: bool) -> list[str]:
        return [
            "--aps", ",".join(str(n) for n in self.n_values),
            "--strategy", "all",
            "--iterations", str(self.iterations_for(tiny)),
            "--scenarios", str(self.scenarios_per_unit),
            "--seed", str(master_seed),
            "--workers", str(workers),
            "--out", out_dir,
        ]

    def batch_config(self, mlosim, master_seed: int, tiny: bool):
        return mlosim.ExperimentConfig(
            strategies=tuple(mlosim.Strategy.from_name(s) for s in self.strategies),
            num_scenarios=self.scenarios_per_unit,
            iterations=self.iterations_for(tiny),
            n_values=self.n_values,
            k=K_LINKS,
            area_side_m=AREA_SIDE_M,
            d_m=AP_STA_DISTANCE_M,
            master_seed=master_seed,
            workers=1,
        )

    def build_config(self, mlosim, master_seed: int, workers: int, out_dir: str, tiny: bool):
        """The config a user of this entry point would build."""
        if self.via_cli:
            args = mlosim.cli.build_parser().parse_args(
                self.cli_argv(master_seed, workers, out_dir, tiny)
            )
            return mlosim.cli.config_from_args(args)
        return self.batch_config(mlosim, master_seed, tiny)

    def run_unit(self, mlosim, master_seed: int, workers: int, out_dir: str, tiny: bool):
        """Run one unit; return {n: {strategy: [per-world min rate, bps]}}."""
        if self.via_cli:
            argv = self.cli_argv(master_seed, workers, out_dir, tiny)
            code = mlosim.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"simulate {' '.join(argv)} exited with {code}")
            with open(os.path.join(out_dir, "summary.json")) as fh:
                batches = json.load(fh)["batches"]
            return {
                n: {s: batches[str(n)]["per_strategy"][s]["min_rates_bps"] for s in self.strategies}
                for n in self.n_values
            }
        summary = mlosim.harness.run_batch(self.batch_config(mlosim, master_seed, tiny))
        return {
            summary.n: {
                s.value: list(stats.min_rates_bps) for s, stats in summary.per_strategy.items()
            }
        }


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-batch", (8,), ALL_STRATEGIES, 2000, 50, 1, via_cli=False),
        Workload("dense-n64", (64,), ("fixed", "frl"), 500, 20, 1, via_cli=False),
        Workload("sweep-cli", (2, 4, 8, 12, 16), ALL_STRATEGIES, 2000, 20, 2, via_cli=True),
    )
}


def unit_seed(seed: int, unit: int) -> int:
    """Master seed of a workload unit: distinct for every (seed, unit)."""
    return seed * 100_000 + unit
