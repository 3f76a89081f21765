"""Regenerate perfbench/reference.json, the population statistics behind
the benchmark's batch-mean check.

For every workload, size (full and --tiny) and AP count, it runs a large
batch on a seed no benchmark unit uses and stores, per strategy, the mean
and the standard deviation of the per-world min rate. A run of the
benchmark then passes the check when its own batch mean lies within five
standard errors of the stored mean. The check tests the distribution of
worlds, not particular worlds, so it survives a change of random streams.

    python3 perfbench/make_reference.py            # several minutes
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import mlosim  # noqa: E402

from workloads import WORKLOADS, nproc  # noqa: E402

REFERENCE_SEED = 1 << 40
WORLDS = {"paper-batch": 200, "dense-n64": 200, "sweep-cli": 100}


def main() -> int:
    out: dict = {}
    for name, wl in WORKLOADS.items():
        for tiny in (False, True):
            T = wl.iterations_for(tiny)
            base = replace(
                wl.batch_config(mlosim, REFERENCE_SEED, tiny),
                num_scenarios=WORLDS[name],
                workers=nproc(),
            )
            per_n = {}
            for n in wl.n_values:
                summary = mlosim.run_batch(replace(base, n_values=(n,)))
                per_n[str(n)] = {
                    s.value: {
                        "mean_bps": statistics.fmean(st.min_rates_bps),
                        "sd_bps": statistics.stdev(st.min_rates_bps),
                        "worlds": len(st.min_rates_bps),
                    }
                    for s, st in summary.per_strategy.items()
                }
                print(name, f"T={T}", f"n={n}", {
                    s: round(v["mean_bps"] / 1e6, 3) for s, v in per_n[str(n)].items()
                }, flush=True)
            out.setdefault(name, {})[f"T{T}"] = per_n
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump({"seed": REFERENCE_SEED, "workloads": out}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
