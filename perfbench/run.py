"""Layered benchmark of mlosim.

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics of one workload with nothing
wrapped; `--trace 1` is a separate run that records spans around each
layer's public functions and reports the per-layer metrics. `--tiny`
shrinks every workload for the smoke test. Workloads, metrics and the
reasons for them are described in perfbench/README.md.

The program is imported from `src/` of the checkout that holds this
directory. Every measurement runs in a fresh child process, with the
BLAS thread pools pinned to one thread. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MEASURE = os.path.join(HERE, "measure.py")

from workloads import WORKLOADS, nproc  # noqa: E402

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPS = 9
TIME_LIMIT_S = 170

def child_env() -> dict:
    env = dict(os.environ)
    # numpy's BLAS must not add threads beyond the workers we account for.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure(argv: list[str], timeout: float) -> dict:
    """Run measure.py in its own session; kill the whole group on timeout."""
    with subprocess.Popen(
        [sys.executable, MEASURE, *argv], stdout=subprocess.PIPE, text=True, cwd=ROOT,
        env=child_env(), start_new_session=True,
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py {' '.join(argv)} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    """Digest of the program's sources, for checkouts that are not git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "mlosim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("need --seed >= 0 and 1 <= --seconds <= 60")
    if not os.path.isfile(os.path.join(SRC, "mlosim", "__init__.py")):
        print(f"perfbench: no mlosim sources under {SRC}", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)] + (["--tiny"] if args.tiny else [])
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPS):
                probe = measure(["setup", *common], 30)
                setups.append(probe["setup_s"] / probe["slowness"])
        result = measure(["trace" if args.trace else "run", *common],
                         TIME_LIMIT_S - (time.monotonic() - t0))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    values = result["metrics"]
    if setups:
        values["setup_s"] = statistics.median(setups)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        # Per-layer times are scaled like the end-to-end ones, by the
        # run's median slowness (see measure.py).
        for name, unit in units.items():
            if unit in ("us", "ms") and name in values:
                values[name] /= result["slowness"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    absent = {name: result.get("absent", {}).get(name, "not measured")
              for name in units if name not in values}
    for name, why in result.get("absent", {}).items():
        absent.setdefault(name, why)
    checks = result["checks"]
    error_rate = checks["failed"] / checks["attempted"]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} units={result['units']} worlds={result['worlds']}"
          + (f" spans={result['spans']}" if "spans" in result else ""))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if setups:
        raw = result["raw"]
        print(f"  (medians: setup_s of {len(setups)} fresh interpreters, the rest of "
              f"{result['units']} units; times scaled by machine slowness "
              f"{raw['slowness']:.3f}; unscaled worlds_per_s {raw['worlds_per_s']:.6g}, "
              f"cpu_ms_per_world {raw['cpu_ms_per_world']:.6g})")
    if args.trace:
        print(f"  (times in us and ms scaled by machine slowness {result['slowness']:.3f})")
    print(f"  error_rate = {error_rate:g} ratio "
          f"({checks['failed']} of {checks['attempted']} checks failed)")
    for failure in checks["failures"]:
        print(f"  FAILED: {failure}")
    for name, why in absent.items():
        print(f"  absent: {name} ({why})")
    print("provenance: " + json.dumps({
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "git_sha": git_sha(),
        "src_sha256": source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "worlds_per_run": result["worlds"],
        "workers": result["workers"],
    }, sort_keys=True))
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
