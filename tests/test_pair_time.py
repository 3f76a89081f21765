"""tools/pair_time.py: two checkouts side by side in one interpreter; unequal outcomes fail."""

import importlib.util
import os
import subprocess
import sys
import time
from dataclasses import replace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def pair_time(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # so that main's defaults outlive no test
    spec = importlib.util.spec_from_file_location(
        "pair_time", os.path.join(ROOT, "tools", "pair_time.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_two_pairs_of_one_checkout(pair_time, capsys):
    argv = ["--parent", ROOT, "--change", ROOT, "--n", "2", "--iterations", "5", "--pairs", "2"]
    assert pair_time.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["pair 0", "pair 1"]
    assert "(parent first)" in lines[0] and "(change first)" in lines[1]
    assert "median ratio" in lines[2] and lines[2].endswith("of 2 pairs")


def test_smoke_one_pair_over_two_ap_counts(pair_time, capsys):
    argv = ["--parent", ROOT, "--change", ROOT, "--n", "3,2", "--iterations", "5", "--pairs", "1"]
    assert pair_time.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("n=3,2 S=1 T=5")


def test_workers_run_the_sweep_in_a_pool(pair_time, capsys):
    argv = ["--parent", ROOT, "--change", ROOT, "--n", "3,2", "--iterations", "5", "--pairs", "1",
            "--workers", "2"]
    assert pair_time.main(argv) == 0
    assert "workers=2:" in capsys.readouterr().out.splitlines()[1]
    harness = pair_time.load(ROOT, "mlosim_side")
    assert (pair_time.sweep(harness, [3, 2], 2, 5, ["fixed", "frl"], 1, workers=2)
            == pair_time.sweep(harness, [3, 2], 2, 5, ["fixed", "frl"], 1))


def test_each_side_keeps_its_least_of_three_alternating_runs(pair_time, monkeypatch):
    clock, runs = [0.0], []
    # CPU seconds of each timed run, in the order the runs take turns.
    durations = iter([3.0, 2.0, 1.0, 5.0, 2.0, 4.0,  # pair 0: parent first
                      1.0, 6.0, 3.0, 2.0, 4.0, 5.0])  # pair 1: change first

    def sweep(side, ns, worlds, iterations, strategies, seed, workers=1):
        if worlds == 2:  # a timed run, not the warm-up
            runs.append((side, seed))
            clock[0] += next(durations)
        return "outcome"

    monkeypatch.setattr(pair_time, "sweep", sweep)
    monkeypatch.setattr(pair_time, "cpu_seconds", lambda: clock[0])
    assert pair_time.RUNS == 3
    records = pair_time.pair_times({"parent": "parent", "change": "change"}, [4], 2, 5,
                                   ["frl"], 2)
    assert runs == [("parent", 1), ("change", 1)] * 3 + [("change", 2), ("parent", 2)] * 3
    assert [r["first"] for r in records] == ["parent", "change"]
    assert [r["ms_per_world"] for r in records] == [{"parent": 500.0, "change": 1000.0},
                                                    {"parent": 1000.0, "change": 500.0}]
    assert [r["ratio"] for r in records] == [2.0, 0.5] and all(r["equal"] for r in records)


def test_cpu_seconds_count_reaped_children(pair_time):
    busy = "import time\nwhile time.process_time() < 0.2: pass"
    t0, own = pair_time.cpu_seconds(), time.process_time()
    subprocess.run([sys.executable, "-c", busy], check=True)
    assert pair_time.cpu_seconds() - t0 >= 0.2 + (time.process_time() - own)


def test_outcomes_are_every_counts_min_rates(pair_time):
    harness = pair_time.load(ROOT, "mlosim_side")
    outcome = pair_time.sweep(harness, [3, 2], 2, 5, ["fixed", "frl"], 1)
    assert list(outcome) == [3, 2]
    for rates in outcome.values():
        assert list(rates) == ["fixed", "frl"] and all(len(mins) == 2 for mins in rates.values())


def test_each_side_is_its_own_package(pair_time):
    harness = pair_time.load(ROOT, "mlosim_side")
    assert harness.__name__ == "mlosim_side.harness"
    assert harness.Strategy.__module__ == "mlosim_side.agents"


def test_outcomes_that_differ_fail(pair_time, monkeypatch, capsys):
    real = pair_time.load

    def load(root, name):
        harness = real(root, name)
        if name == "mlosim_change":  # the change's sweep runs other worlds
            sweep = harness.density_sweep
            monkeypatch.setattr(harness, "density_sweep",
                                lambda config: sweep(replace(config, master_seed=7)))
        return harness

    monkeypatch.setattr(pair_time, "load", load)
    argv = ["--parent", ROOT, "--change", ROOT, "--n", "2", "--iterations", "5", "--pairs", "1"]
    assert pair_time.main(argv) == 1
    out = capsys.readouterr().out
    assert "OUTCOMES DIFFER" in out and "FAILED" in out
