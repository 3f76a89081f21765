"""Record benchmark runs of one or more checkouts into a BENCH_*.json file.

    python3 tools/record_bench.py --out BENCH_7.json \
        --checkout parent=/path/to/parent/checkout --checkout change=.

For every workload in the checkout's BENCHMARK.json this runs
`perfbench/run.py` untraced with seeds 1 to 10 (30 s each), then traced
`paper-batch` runs with seeds 1 to 6, enough that a per-layer move of a
few percent is not read from three samples. With several checkouts the runs of
one seed take turns, and which checkout goes first alternates from seed to
seed, so a drift of the machine's speed hits every side. Last, as plain
timings with no gate, it times `harness.run_batch` over the batch layer's
load (500 worlds x 2000 iterations x 4 strategies at n=8) three times per
checkout at 1 worker and three times at all cores, and then
`pytest tests/test_acceptance.py` three times per checkout. These timings
interleave like the seeds; each keeps every run (a batch run with the
SHA-256 of its result, an acceptance run with the criteria lines it
prints) and the median wall time. Every batch run computes the same batch,
so their digests are compared across runs, worker counts and checkouts:
the record's `batch_outputs_equal` says whether they all agree, and when
they do not, a `FAILED:` line names which runs printed which digest and
the tool exits 1, after writing the record. It also stores each checkout's count of
non-blank, non-`#` lines in `src/mlosim`, the size that ROADMAP aim 2 gates.
Each run's metrics, checks, absent probes and the provenance that
perfbench prints are stored as printed; a run that exits non-zero or
times out is stored as its error. The file also gets the per-workload
quartiles (25 %, median, 75 %) of every end-to-end metric, or an error
entry for a metric with fewer than two successful runs, and the same
quartiles of every per-layer metric over the traced runs.

Before its first run, each checkout's `src` is byte-compiled (`python -m
compileall`), so that every side runs from the same bytecode caches.
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
TRACED_SEEDS = tuple(range(1, 7))
SECONDS = 30
TRACED_WORKLOAD = "paper-batch"
TIMED_RUNS = 3
BATCH_WORLDS, BATCH_ITERATIONS, BATCH_N = 500, 2000, 8
# Times one run_batch in a fresh interpreter; prints its wall time and the
# SHA-256 of its JSON, so that checkouts can be seen to compute the same batch.
BATCH_SCRIPT = """
import hashlib, json, sys, time
from mlosim.codec import dumps
from mlosim.harness import ExperimentConfig, run_batch
worlds, iterations, n, workers = map(int, sys.argv[1:])
config = ExperimentConfig(num_scenarios=worlds, iterations=iterations, n_values=(n,),
                          workers=workers)
t0 = time.perf_counter()
text = dumps(run_batch(config, n))
wall = time.perf_counter() - t0
print(json.dumps({"wall_s": round(wall, 1), "sha256": hashlib.sha256(text.encode()).hexdigest()}))
"""


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
    try:
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired as exc:
        return {"error": f"timeout after {exc.timeout} s", "seed": seed}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}", "stderr": proc.stderr[-2000:]}
    record = parse_run(proc.stdout)
    record["seed"] = seed
    return record


def take_turns(labels: list, rounds):
    """(round, label) pairs in run order: the checkouts take turns, and which
    goes first alternates from round to round."""
    for i, item in enumerate(rounds):
        for label in labels if i % 2 == 0 else labels[::-1]:
            yield item, label


def interleaved(checkouts: dict, workload: str, seeds, trace: int) -> dict:
    """Each checkout's runs of `workload`, one per seed, taking turns."""
    runs = {label: [] for label in checkouts}
    for seed, label in take_turns(list(checkouts), seeds):
        runs[label].append(run_bench(checkouts[label], workload, seed, trace))
    return runs


def program_env(root: str) -> dict:
    """The environment of a timed program run: the checkout's sources, and
    one BLAS thread, as perfbench pins it."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def time_batch(root: str, workers: int) -> dict:
    env = program_env(root)
    argv = [sys.executable, "-c", BATCH_SCRIPT,
            *map(str, (BATCH_WORLDS, BATCH_ITERATIONS, BATCH_N, workers))]
    print(f"[{os.path.basename(root)}] run_batch {BATCH_WORLDS} worlds, {workers} workers",
          flush=True)
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        return {"workers": workers, "error": f"exit {proc.returncode}",
                "stderr": proc.stderr[-2000:]}
    return {"workers": workers, **json.loads(proc.stdout.strip().splitlines()[-1])}


def time_acceptance(root: str) -> dict:
    env = program_env(root)
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


def interleaved_timings(checkouts: dict, timer) -> dict:
    """Each checkout's `timer(root)` results, TIMED_RUNS of them taking
    turns, with the median wall time of those that did not fail."""
    timings = {label: [] for label in checkouts}
    for _, label in take_turns(list(checkouts), range(TIMED_RUNS)):
        timings[label].append(timer(checkouts[label]))
    out = {}
    for label, runs in timings.items():
        walls = [r["wall_s"] for r in runs if "wall_s" in r]
        out[label] = {"runs": runs, "median_wall_s": statistics.median(walls) if walls else None}
    return out


def batch_digests(runs: dict) -> dict:
    """{SHA-256: ["label/workers", ...]} over every batch run that finished,
    of every checkout and worker count; one key when they all agree."""
    digests: dict = {}
    for label, label_runs in runs.items():
        for batch in label_runs["batch"]:
            for run in batch["runs"]:
                if "sha256" in run:
                    digests.setdefault(run["sha256"], []).append(f"{label}/{batch['workers']}")
    return digests


def byte_compile(root: str) -> None:
    """Write the bytecode caches of the checkout's `src`, so that no side's
    first runs pay for compiling its sources, even when the environment
    sets PYTHONDONTWRITEBYTECODE."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(root, "src")],
                   check=True)


def source_lines(root: str) -> int:
    """Non-blank lines of the `.py` files in the checkout's `src/mlosim` that
    are not `#` comments: what `grep -cvE '^\\s*($|#)'` counts, docstrings included."""
    src = os.path.join(root, "src", "mlosim")
    count = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                count += sum(1 for line in fh if line.strip() and line.lstrip()[0] != "#")
    return count


def quartiles(runs: list[dict]) -> dict:
    """Quartiles of each metric over the runs that report it; a metric with
    fewer than two values gets an error entry instead."""
    names = sorted({name for r in runs if "metrics" in r for name in r["metrics"]})
    out = {}
    for name in names:
        values = [r["metrics"][name] for r in runs if name in r.get("metrics", {})]
        try:
            out[name] = statistics.quantiles(values, n=4)
        except statistics.StatisticsError as exc:
            out[name] = {"error": f"{exc} ({len(values)} successful runs)"}
    return out


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

    for root in checkouts.values():
        byte_compile(root)
    first = next(iter(checkouts.values()))
    with open(os.path.join(first, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]

    labels = list(checkouts)
    runs = {label: {"untraced": {}} for label in labels}
    nproc = len(os.sched_getaffinity(0))
    for workload in workloads:
        for label, workload_runs in interleaved(checkouts, workload, SEEDS, 0).items():
            runs[label]["untraced"][workload] = workload_runs
    for label, traced in interleaved(checkouts, TRACED_WORKLOAD, TRACED_SEEDS, 1).items():
        runs[label]["traced"] = {TRACED_WORKLOAD: traced}
    batches = {workers: interleaved_timings(checkouts, lambda root: time_batch(root, workers))
               for workers in (1, nproc)}
    for label in labels:
        runs[label]["batch"] = [{"workers": w, **b[label]} for w, b in batches.items()]
    for label, acceptance in interleaved_timings(checkouts, time_acceptance).items():
        runs[label]["acceptance"] = acceptance
        runs[label]["src_lines"] = source_lines(checkouts[label])

    digests = batch_digests(runs)
    record = {
        "recorded_with": "tools/record_bench.py",
        "batch_outputs_equal": len(digests) <= 1,
        "host": {"nproc": nproc, "python": platform.python_version(),
                 "machine": platform.machine()},
        "seconds_per_run": SECONDS,
        "batch_load": {"worlds": BATCH_WORLDS, "iterations": BATCH_ITERATIONS, "n": BATCH_N,
                       "strategies": 4},
        "quartiles": {w: {label: quartiles(runs[label]["untraced"][w]) for label in labels}
                      for w in workloads},
        "traced_quartiles": {TRACED_WORKLOAD: {
            label: quartiles(runs[label]["traced"][TRACED_WORKLOAD]) for label in labels}},
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(record["quartiles"], indent=2, sort_keys=True))
    if len(digests) > 1:
        print(f"FAILED: batch layer outputs differ across runs: {json.dumps(digests)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
