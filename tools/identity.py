"""Byte-identity of two checkouts' outputs on a fixed list of layouts.

    python3 tools/identity.py --parent /path/to/parent/checkout --change .

For each layout of LAYOUTS, each checkout's `simulate` (`python -m
mlosim.cli` on its own `src`, one BLAS thread) writes into a temporary
directory of its own; a layout's `config` fields go to a `--config` file.
Every output file of the two sides is compared by SHA-256. Then each
checkout runs the batch layer of `tools/record_bench.py` (its
BATCH_SCRIPT: 500 worlds x 2000 iterations x 4 strategies at n=8) at each
worker count of BATCH_WORKERS. Printed: one digest per layout (over its
files' names and SHA-256s) and the batch digest, or what differs. The
tool exits 1 when a file is missing on one side or differs, naming it, or
when the batch digests of the runs disagree, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from record_bench import BATCH_ITERATIONS, BATCH_N, BATCH_SCRIPT, BATCH_WORLDS, program_env

SIDES = ("parent", "change")
# (name, simulate flags, config-file fields or None); T is 2000 unless set.
LAYOUTS = (
    ("n8-S40-w1", ["--aps", "8", "--scenarios", "40", "--workers", "1"], None),
    ("n8-S40-w2", ["--aps", "8", "--scenarios", "40", "--workers", "2"], None),
    ("sweep-S6-w1", ["--aps", "2,4,8,12,16", "--scenarios", "6", "--workers", "1"], None),
    ("sweep-S6-w2", ["--aps", "2,4,8,12,16", "--scenarios", "6", "--workers", "2"], None),
    ("k16-n4-S3", ["--aps", "4", "--scenarios", "3", "--iterations", "300"], {"k": 16}),
    ("k16-sweep-S2-w2", ["--aps", "2,4", "--scenarios", "2", "--iterations", "300",
                         "--workers", "2"], {"k": 16}),
)
BATCH = (BATCH_WORLDS, BATCH_ITERATIONS, BATCH_N)
BATCH_WORKERS = (1, 2)


def simulate(root: str, flags: list[str], config, out: str) -> dict:
    """{file name: SHA-256} of the outputs of `root`'s simulate run into `out`."""
    os.makedirs(out)
    argv = [sys.executable, "-m", "mlosim.cli", *flags, "--out", out]
    if config is not None:
        with open(out + ".json", "w") as fh:
            json.dump(config, fh)
        argv += ["--config", out + ".json"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=program_env(root))
    if proc.returncode != 0:
        raise SystemExit(f"identity: {root}: simulate {' '.join(flags)} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = hashlib.sha256(fh.read()).hexdigest()
    return files


def layout_digest(files: dict) -> str:
    """SHA-256 over a run's sorted (file name, file SHA-256) pairs."""
    text = "".join(f"{name} {digest}\n" for name, digest in sorted(files.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def batch_digest(root: str, workers: int) -> str:
    """The SHA-256 that `root`'s BATCH_SCRIPT prints for its batch at `workers`."""
    argv = [sys.executable, "-c", BATCH_SCRIPT, *map(str, (*BATCH, workers))]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, env=program_env(root))
    if proc.returncode != 0:
        raise SystemExit(f"identity: {root}: the batch at {workers} workers exited with "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["sha256"]


def compare(roots: dict) -> list[str]:
    """Run every layout and the batch on both sides; print the digests and
    return one line per difference."""
    problems = []
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        for name, flags, config in LAYOUTS:
            files = {side: simulate(roots[side], flags, config, os.path.join(tmp, side, name))
                     for side in SIDES}
            differ = [f for f in sorted(set(files["parent"]) | set(files["change"]))
                      if files["parent"].get(f) != files["change"].get(f)]
            problems += [f"{name}/{f} differs" for f in differ]
            digests = {side: layout_digest(files[side])[:16] for side in SIDES}
            print(f"{name}: " + (digests["change"] if not differ else
                                 f"parent {digests['parent']}, change {digests['change']}, "
                                 f"differ: {', '.join(differ)}"), flush=True)
    batches = {(side, w): batch_digest(roots[side], w) for side in SIDES for w in BATCH_WORKERS}
    worlds, iterations, n = BATCH
    label = f"batch {worlds} worlds x {iterations} iterations at n={n}"
    if len(set(batches.values())) == 1:
        print(f"{label}: {next(iter(batches.values()))}")
    else:
        for (side, w), digest in batches.items():
            print(f"{label}, {side} at {w} workers: {digest}")
        problems.append(f"{label}: the digests differ")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="identity.py")
    parser.add_argument("--parent", required=True, help="the checkout to compare against")
    parser.add_argument("--change", required=True, help="the checkout to check")
    args = parser.parse_args(argv)
    problems = compare({side: os.path.abspath(getattr(args, side)) for side in SIDES})
    for line in problems:
        print(f"FAILED: {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
