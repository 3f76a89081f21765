"""Record benchmark runs of one or more checkouts into a BENCH_*.json file.

    python3 tools/record_bench.py --out BENCH_6.json \
        --checkout parent=/path/to/parent/checkout --checkout change=.

For every workload in the checkout's BENCHMARK.json this runs
`perfbench/run.py` untraced with seeds 1 to 10 (30 s each), then one
traced `paper-batch` run (seed 1). With several checkouts the runs of one
seed take turns, and which checkout goes first alternates from seed to
seed, so a drift of the machine's speed hits every side. Last, it times
`pytest tests/test_acceptance.py` once per checkout, as a plain timing
with no gate, and keeps the criteria lines it prints. Each run's
metrics, checks, absent probes and the provenance that perfbench prints
are stored as printed; the file also gets the per-workload quartiles
(25 %, median, 75 %) of every end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

SEEDS = tuple(range(1, 11))
SECONDS = 30
TRACED_WORKLOAD = "paper-batch"


def parse_run(stdout: str) -> dict:
    """The parts of perfbench/run.py's output that a record keeps."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "absent": {},
        "notes": [],
    }
    for line in lines[:-1]:
        if line.startswith("provenance: "):
            record["provenance"] = json.loads(line[len("provenance: "):])
        elif line.startswith("  absent: "):
            match = re.match(r"  absent: (.+?) \((.*)\)$", line)
            if match:
                record["absent"][match.group(1)] = match.group(2)
        elif line.startswith("  ("):
            record["notes"].append(line.strip())
    return record


def run_bench(root: str, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    print(f"[{os.path.basename(os.path.abspath(root))}] {' '.join(argv[1:])}", flush=True)
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}", "stderr": proc.stderr[-2000:]}
    record = parse_run(proc.stdout)
    record["seed"] = seed
    return record


def time_acceptance(root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "tests/test_acceptance.py"],
        cwd=root, capture_output=True, text=True, env=env,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {
        "wall_s": round(wall, 1),
        "pytest_summary": lines[-1] if lines else "",
        "criteria": [line for line in lines if line.startswith("ACCEPTANCE CRITERION")],
    }


def quartiles(runs: list[dict]) -> dict:
    names = sorted({name for r in runs if "metrics" in r for name in r["metrics"]})
    return {name: statistics.quantiles([r["metrics"][name] for r in runs
                                        if name in r.get("metrics", {})], n=4)
            for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="record_bench.py")
    parser.add_argument("--out", required=True, help="BENCH_*.json file to write")
    parser.add_argument("--checkout", action="append", required=True, metavar="LABEL=DIR",
                        help="a checkout to measure; repeat to interleave several")
    args = parser.parse_args(argv)
    checkouts = {}
    for item in args.checkout:
        label, _, root = item.partition("=")
        if not label or not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
            parser.error(f"--checkout {item!r}: need LABEL=DIR with perfbench/run.py")
        checkouts[label] = os.path.abspath(root)

    first = next(iter(checkouts.values()))
    with open(os.path.join(first, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]

    runs = {label: {"untraced": {w: [] for w in workloads}} for label in checkouts}
    labels = list(checkouts)
    for workload in workloads:
        for i, seed in enumerate(SEEDS):
            order = labels if i % 2 == 0 else labels[::-1]
            for label in order:
                runs[label]["untraced"][workload].append(
                    run_bench(checkouts[label], workload, seed, 0))
    for label in labels:
        runs[label]["traced"] = {TRACED_WORKLOAD: run_bench(checkouts[label], TRACED_WORKLOAD,
                                                            SEEDS[0], 1)}
        runs[label]["acceptance"] = time_acceptance(checkouts[label])

    record = {
        "recorded_with": "tools/record_bench.py",
        "host": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                 "machine": platform.machine()},
        "seconds_per_run": SECONDS,
        "quartiles": {w: {label: quartiles(runs[label]["untraced"][w]) for label in labels}
                      for w in workloads},
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(record["quartiles"], indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
