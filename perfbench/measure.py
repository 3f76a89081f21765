"""One measurement process of the benchmark; `run.py` starts it.

    measure.py setup --workload W --seed S [--tiny]
        time `import mlosim`, building the workload's config and sampling
        its first world, from a fresh interpreter;
    measure.py run   --workload W --seed S --seconds N [--tiny]
        the untraced closed loop: end-to-end metrics;
    measure.py trace --workload W --seed S --seconds N [--tiny]
        fixed-world probes plus traced units: per-layer metrics.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")

from workloads import (  # noqa: E402
    ALL_STRATEGIES,
    AP_STA_DISTANCE_M,
    AREA_SIDE_M,
    K_LINKS,
    WORKLOADS,
    nproc,
    rate_cap_bps,
    unit_seed,
)

# Seed of the fixed worlds that the probes use, the same in every run.
PROBE_SEED = 20230427
ORACLE_WORLDS = 3
ORACLE_RTOL = 1e-9
# A batch mean fails when it is further than this many standard errors
# from the reference mean.
MEAN_TOLERANCE_SE = 5.0
LAYERS = ("rng", "scenario", "radio", "agents", "engine", "harness", "cli")
# The machine's speed drifts by a third within a minute (other tenants).
# End-to-end times are therefore scaled to a reference speed: each unit's
# wall and CPU time are divided by slowness = calibration time around the
# unit / CALIBRATION_REF_S, where the calibration is a fixed kernel of the
# small numpy and generator calls the engine's loop is made of. It runs in
# this process between units, so it tracks pool workers less closely.
CALIBRATION_REF_S = 0.008
# Set-up is timed from before numpy is imported, so it is scaled by a
# pure-Python kernel timed just before and just after it.
PY_CALIBRATION_REF_S = 0.02

# Calls that the traced units record, as the calling module sees them.
# Engine-level and below: these run once per world, run or agent-iteration.
INNER_PROBES = (
    ("mlosim.harness", "sample_scenario"),
    ("mlosim.rng", "generator"),
    ("mlosim.rng", "derive_seed"),
    ("mlosim.engine", "select_action"),
    ("mlosim.engine", "update"),
    ("mlosim.engine", "local_reward"),
    ("mlosim.engine", "all_neighbor_sets"),
    ("mlosim.engine", "link_budget_matrix_mw"),
)
# Batch level and above: a few calls per unit. The `write_*` writers of
# the harness are added by name.
OUTER_PROBES = (
    ("mlosim.cli", "main"),
    ("mlosim.cli", "config_from_args"),
    ("mlosim.cli", "run_experiment"),
    ("mlosim.harness", "run_batch"),
    ("mlosim.harness", "density_sweep"),
    ("mlosim.harness", "compute_ecdf"),
    ("mlosim.harness", "percentile"),
)


class Absent(Exception):
    """A public name that a per-layer probe needs is gone."""


def api(owner, name: str):
    value = getattr(owner, name, None)
    if value is None:
        raise Absent(f"{getattr(owner, '__name__', type(owner).__name__)}.{name}")
    return value


def import_program():
    """Import mlosim from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import mlosim
    import mlosim.cli

    if not os.path.abspath(mlosim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"measure: imported mlosim from {mlosim.__file__}, not from {SRC}")
    return mlosim


def cpu_s() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def to_json(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures[:20]}


def check_outputs(checks: Checks, rates: dict, wl, tiny: bool) -> None:
    """Every per-world min rate in [0, cap]; every batch mean near the
    reference population mean (perfbench/reference.json).

    Min rates are heavy-tailed (one lucky world can carry a batch), so the
    batch's standard error uses the larger of its own and the reference's
    per-world spread: an outlier widens the tolerance it shifts."""
    cap = rate_cap_bps()
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)["workloads"].get(wl.name, {})
    ref_for_t = reference.get(f"T{wl.iterations_for(tiny)}", {})
    for n, per_strategy in rates.items():
        for strategy, values in per_strategy.items():
            for v in values:
                checks.check(math.isfinite(v) and 0.0 <= v <= cap,
                             f"n={n} {strategy}: min rate {v} outside [0, {cap}]")
            ref = ref_for_t.get(str(n), {}).get(strategy)
            if ref is None:
                checks.check(False, f"n={n} {strategy}: no reference mean")
                continue
            mean = statistics.fmean(values)
            sd = max(statistics.stdev(values), ref["sd_bps"]) if len(values) > 1 else ref["sd_bps"]
            tol = MEAN_TOLERANCE_SE * math.sqrt(sd**2 / len(values) + ref["sd_bps"]**2 / ref["worlds"])
            checks.check(abs(mean - ref["mean_bps"]) <= tol,
                         f"n={n} {strategy}: batch mean {mean:.6g} bps over {len(values)} "
                         f"worlds is not within {tol:.3g} of reference {ref['mean_bps']:.6g}")


def merge_rates(total: dict, unit: dict) -> None:
    for n, per_strategy in unit.items():
        for strategy, values in per_strategy.items():
            total.setdefault(n, {}).setdefault(strategy, []).extend(values)


def quiet(fn, *args):
    """Call fn with the CLI's progress prints kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def calibrate() -> float:
    """Seconds taken by a fixed kernel that does not touch mlosim."""
    import numpy as np

    a, b = np.ones((8, 4)), np.ones((8, 8))
    rng = np.random.Generator(np.random.PCG64(1))
    t0 = time.perf_counter()
    total = 0
    for _ in range(1500):
        c = a.T @ b
        total += int(c[0, 0] > 0) + int(rng.integers(15))
    return time.perf_counter() - t0


def calibrate_py() -> float:
    """Seconds taken by a fixed pure-Python kernel."""
    t0 = time.perf_counter()
    total, seen = 0, {}
    for i in range(150_000):
        total += i * i
        seen[i & 255] = total
    return time.perf_counter() - t0


def fixed_world(mlosim, n: int):
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(PROBE_SEED))
    return mlosim.sample_scenario(rng, n, K_LINKS, AREA_SIDE_M, AP_STA_DISTANCE_M)


# ---------------------------------------------------------------------------
# set-up and untraced run


def cmd_setup(args, wl) -> dict:
    calibrate_py()  # first call warms the interpreter's caches
    before = calibrate_py()
    t0 = time.perf_counter()
    mlosim = import_program()
    import numpy as np

    out_dir = os.path.join(WORK_DIR, "setup-out")
    config = wl.build_config(mlosim, unit_seed(args.seed, 0), wl.workers(), out_dir, args.tiny)
    mlosim.sample_scenario(
        np.random.Generator(np.random.PCG64(unit_seed(args.seed, 0))),
        config.n_values[0], config.k, config.area_side_m, config.d_m, config.physical,
    )
    setup_s = time.perf_counter() - t0
    slowness = (before + calibrate_py()) / (2 * PY_CALIBRATION_REF_S)
    return {"setup_s": setup_s, "slowness": slowness}


def cmd_run(args, wl) -> dict:
    mlosim = import_program()
    import numpy as np

    workers = wl.workers()
    rates: dict = {}
    walls, cpus, slowness = [], [], []
    calibrate()  # first call pays numpy's one-time costs
    calib = [calibrate()]
    t_start = time.perf_counter()
    unit = 0
    with tempfile.TemporaryDirectory(prefix="run-", dir=WORK_DIR) as out_dir:
        while True:
            c0, w0 = cpu_s(), time.perf_counter()
            out = quiet(wl.run_unit, mlosim, unit_seed(args.seed, unit), workers, out_dir,
                        args.tiny)
            walls.append(time.perf_counter() - w0)
            cpus.append(cpu_s() - c0)
            calib.append(calibrate())
            slowness.append((calib[-2] + calib[-1]) / (2 * CALIBRATION_REF_S))
            merge_rates(rates, out)
            unit += 1
            if time.perf_counter() - t_start >= args.seconds:
                break

    checks = Checks()
    check_outputs(checks, rates, wl, args.tiny)
    worlds = wl.worlds_per_unit()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kid = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "metrics": {
            "worlds_per_s": statistics.median(worlds * k / w for w, k in zip(walls, slowness)),
            "cpu_ms_per_world": statistics.median(1e3 * c / (k * worlds)
                                                  for c, k in zip(cpus, slowness)),
            # ru_maxrss is in KiB. Pool workers run side by side, so the
            # largest one counts once per worker: an upper bound.
            "peak_rss_mb": (own + workers * kid) / 1024.0,
        },
        "raw": {
            "worlds_per_s": statistics.median(worlds / w for w in walls),
            "cpu_ms_per_world": statistics.median(1e3 * c / worlds for c in cpus),
            "slowness": statistics.median(slowness),
        },
        "units": unit,
        "worlds": unit * worlds,
        "workers": workers,
        "checks": checks.to_json(),
        "numpy": np.__version__,
    }


# ---------------------------------------------------------------------------
# traced run


def probe(metrics: dict, absent: dict, names, fn, *args) -> None:
    """Run a per-layer probe; on a missing public name, mark its metrics
    absent instead of failing the run."""
    try:
        metrics.update(fn(*args))
    except Absent as exc:
        for name in names:
            absent[name] = f"{exc} is gone"


def engine_probe(mlosim, n: int, tiny: bool) -> dict:
    """µs per iteration of direct run_scenario calls on one fixed world;
    strategies take turns, so a drift of the machine's speed hits all."""
    run, strategy = api(mlosim, "run_scenario"), api(mlosim, "Strategy")
    world = fixed_world(mlosim, n)
    T = 20 if tiny else 200
    walls: dict = {name: [] for name in ALL_STRATEGIES}
    for _ in range(5):
        for name in ALL_STRATEGIES:
            t0 = time.perf_counter()
            run(world, strategy.from_name(name), T, PROBE_SEED)
            walls[name].append(time.perf_counter() - t0)
    return {f"engine.us_per_iter.{name}": 1e6 * statistics.median(w) / T
            for name, w in walls.items()}


def joint_rate_probe(mlosim, n: int, reps: int) -> dict:
    """One joint rate evaluation of all n APs through the public scalar
    kernel, on a fixed world and a fixed random joint action."""
    import numpy as np

    rate = api(mlosim, "achieved_rate_bps")
    profile_t, linkset_t = api(mlosim, "ActivationProfile"), api(mlosim, "LinkSet")
    world = fixed_world(mlosim, n)
    masks = np.random.Generator(np.random.PCG64(PROBE_SEED)).integers(1, 1 << K_LINKS, size=n)
    profile = profile_t(tuple(linkset_t(int(m), K_LINKS) for m in masks))
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for i in range(n):
            rate(world, profile, i)
        walls.append(time.perf_counter() - t0)
    return {f"radio.joint_rate_us.n{n}": 1e6 * statistics.median(walls)}


def wrap_outer(tracer, mlosim) -> None:
    for module, attr in OUTER_PROBES:
        tracer.wrap(module, attr)
    for attr in sorted(vars(mlosim.harness)):
        if attr.startswith("write_") and callable(getattr(mlosim.harness, attr)):
            tracer.wrap("mlosim.harness", attr)


def harness_probe(mlosim, tiny: bool) -> dict:
    """A fixed slice of the density sweep through cli.main, at 1 worker
    and at nproc workers: pool speedup, writers, outputs, config."""
    from tracer import Tracer

    main = api(mlosim.cli, "main")
    walls, summaries, sizes = {}, [], []
    # 1, N, N, 1 workers: a drift of the machine's speed hits both sides.
    for workers in (1, nproc(), nproc(), 1):
        with tempfile.TemporaryDirectory(prefix="slice-", dir=WORK_DIR) as out_dir:
            argv = ["--aps", "2,4,8,12,16", "--strategy", "all",
                    "--iterations", "20" if tiny else "200", "--scenarios", "4",
                    "--seed", str(PROBE_SEED), "--workers", str(workers), "--out", out_dir]
            with Tracer() as tracer:
                wrap_outer(tracer, mlosim)
                t0 = time.perf_counter()
                code = quiet(main, argv)
                walls[workers] = walls.get(workers, 0.0) + time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"simulate {' '.join(argv)} exited with {code}")
            sizes.append(sum(os.path.getsize(os.path.join(out_dir, f))
                             for f in os.listdir(out_dir)))
        summaries.append(tracer.summary())
    out = {"harness.pool_speedup": walls[1] / walls[max(walls)],
           "harness.output_bytes": sizes[-1]}
    if any(name.startswith("harness.write_") for name in summaries[0]):
        out["harness.write_ms"] = 1e3 * statistics.fmean(
            sum(s["total_s"] for name, s in summ.items() if name.startswith("harness.write_"))
            for summ in summaries
        )
    config = [s["cli.config_from_args"] for s in summaries if "cli.config_from_args" in s]
    if config:
        out["cli.config_ms"] = 1e3 * statistics.fmean(c["total_s"] / c["calls"] for c in config)
    return out


class RunObserver:
    """Sees each RunResult of the traced units: sizes its arrays and keeps
    a few federated runs for the scalar-oracle check."""

    def __init__(self) -> None:
        self.runs = 0
        self.nbytes = 0
        self.kept: list = []

    def __call__(self, result) -> None:
        import numpy as np

        self.runs += 1
        self.nbytes += sum(v.nbytes for v in getattr(result, "__dict__", {}).values()
                           if isinstance(v, np.ndarray))
        if len(self.kept) < ORACLE_WORLDS and getattr(result, "strategy", None) is not None \
                and result.strategy.value == "frl":
            self.kept.append(result)


def check_oracle(checks: Checks, mlosim, results) -> None:
    """The recorded joint action of one mid-run iteration must reproduce
    the recorded rates through the scalar achieved_rate_bps oracle."""
    rate = api(mlosim, "achieved_rate_bps")
    profile_t, linkset_t = api(mlosim, "ActivationProfile"), api(mlosim, "LinkSet")
    for result in results:
        world, masks = api(result, "scenario"), api(result, "action_masks")
        rates = api(result, "rates_bps")
        t = rates.shape[0] // 2
        profile = profile_t(tuple(linkset_t(int(m), world.num_links) for m in masks[t]))
        for i in range(rates.shape[1]):
            want, got = rate(world, profile, i), float(rates[t, i])
            checks.check(abs(got - want) <= ORACLE_RTOL * max(abs(want), abs(got)),
                         f"n={world.n} t={t} AP {i}: engine rate {got!r} != oracle {want!r}")


def span_metrics(spans: dict, observer: RunObserver, worlds: int, T: int) -> dict:
    import numpy as np

    out = {}

    def mean_us(label):
        s = spans.get(label)
        return None if not s or not s["calls"] else 1e6 * s["total_s"] / s["calls"]

    def per_world(*labels):
        if not all(spans.get(label) for label in labels):
            return None
        return sum(spans[label]["calls"] for label in labels) / worlds

    run = spans.get("harness.run_scenario")
    if run and run["calls"]:
        out["engine.self_us_per_iter"] = 1e6 * run["self_s"] / (run["calls"] * T)
        out["engine.run_ms_p50"] = 1e3 * float(np.percentile(run["durations_s"], 50))
        out["engine.run_ms_p90"] = 1e3 * float(np.percentile(run["durations_s"], 90))
        out["engine.runs_sampled"] = run["calls"]
        out["engine.trace_bytes_per_run"] = observer.nbytes / observer.runs
    batches = spans.get("harness.run_batch")
    reduce = [spans[label] for label in ("harness.compute_ecdf", "harness.percentile")
              if label in spans]
    if batches and batches["calls"] and reduce:
        out["harness.reduce_ms"] = 1e3 * sum(s["total_s"] for s in reduce) / batches["calls"]
    for name, value in (
        ("agents.select_us", mean_us("engine.select_action")),
        ("agents.update_us", mean_us("engine.update")),
        ("agents.calls_per_world", per_world("engine.select_action", "engine.update")),
        ("scenario.sample_us", mean_us("harness.sample_scenario")),
        ("scenario.neighbors_us", mean_us("engine.all_neighbor_sets")),
        ("scenario.neighbors_calls_per_world", per_world("engine.all_neighbor_sets")),
        ("radio.link_budget_us", mean_us("engine.link_budget_matrix_mw")),
        ("radio.link_budget_calls_per_world", per_world("engine.link_budget_matrix_mw")),
        ("rng.generator_us", mean_us("rng.generator")),
        ("rng.streams_per_world", per_world("rng.generator")),
    ):
        if value is not None:
            out[name] = value
    for layer in LAYERS:
        self_s = sum(s["self_s"] for s in spans.values() if s["layer"] == layer)
        out[f"self_ms_per_world.{layer}"] = 1e3 * self_s / worlds
    return out


def cmd_trace(args, wl) -> dict:
    mlosim = import_program()
    import numpy as np

    from tracer import Tracer

    t_start = time.perf_counter()
    metrics: dict = {}
    absent: dict = {}
    calibrate()  # first call pays numpy's one-time costs
    calib = [calibrate()]
    us_names = [f"engine.us_per_iter.{s}" for s in ALL_STRATEGIES]
    probe(metrics, absent, us_names, engine_probe, mlosim, wl.probe_n(), args.tiny)
    calib.append(calibrate())
    for n, reps in ((8, 20), (64, 3)):
        probe(metrics, absent, [f"radio.joint_rate_us.n{n}"], joint_rate_probe, mlosim, n, reps)
    calib.append(calibrate())
    probe(metrics, absent,
          ["harness.pool_speedup", "harness.write_ms", "harness.output_bytes", "cli.config_ms"],
          harness_probe, mlosim, args.tiny)

    # Paired units: the same unit untraced and traced, alternating which
    # runs first. Everything runs in this process (workers=1), so spans of
    # every layer are recorded; the pool is measured by the slice above.
    tracer = Tracer()
    observer = RunObserver()
    checks = Checks()
    rates: dict = {}
    walls = {False: 0.0, True: 0.0}
    unit = 0
    with tempfile.TemporaryDirectory(prefix="trace-", dir=WORK_DIR) as out_dir:
        while True:
            outputs = {}
            for traced in ((False, True) if unit % 2 == 0 else (True, False)):
                if traced:
                    wrap_outer(tracer, mlosim)
                    for module, attr in INNER_PROBES:
                        tracer.wrap(module, attr)
                    tracer.wrap("mlosim.harness", "run_scenario", observe=observer)
                try:
                    w0 = time.perf_counter()
                    outputs[traced] = quiet(wl.run_unit, mlosim, unit_seed(args.seed, unit), 1,
                                            out_dir, args.tiny)
                    walls[traced] += time.perf_counter() - w0
                finally:
                    tracer.unwrap()
            checks.check(outputs[True] == outputs[False],
                         f"unit {unit}: tracing changed the outputs")
            merge_rates(rates, outputs[True])
            calib.append(calibrate())
            unit += 1
            pair_s = (walls[False] + walls[True]) / unit
            if time.perf_counter() - t_start + pair_s >= args.seconds:
                break

    check_outputs(checks, rates, wl, args.tiny)
    try:
        check_oracle(checks, mlosim, observer.kept)
    except Absent as exc:
        absent["oracle check"] = f"{exc} is gone"
    tracer.write(os.path.join(WORK_DIR, f"trace-{wl.name}.npz"))
    for label in set(tracer.absent):
        absent[f"span {label}"] = "function is gone"
    worlds = unit * wl.worlds_per_unit()
    metrics.update(span_metrics(tracer.summary(), observer, worlds, wl.iterations_for(args.tiny)))
    metrics["trace_overhead_pct"] = 100.0 * (walls[True] / walls[False] - 1.0)
    return {
        "metrics": metrics,
        "absent": absent,
        "slowness": statistics.median(calib) / CALIBRATION_REF_S,
        "units": unit,
        "worlds": worlds,
        "workers": 1,
        "spans": len(tracer.start),
        "checks": checks.to_json(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="measure.py")
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(WORK_DIR, exist_ok=True)
    wl = WORKLOADS[args.workload]
    result = {"setup": cmd_setup, "run": cmd_run, "trace": cmd_trace}[args.mode](args, wl)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
