"""tools/pair_time.py: two checkouts side by side in one interpreter; unequal outcomes fail."""

import importlib.util
import os

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


def test_each_side_is_its_own_package(pair_time):
    harness = pair_time.load(ROOT, "mlosim_side")
    assert harness.__name__ == "mlosim_side.harness"
    assert harness.Strategy.__module__ == "mlosim_side.agents"


def test_outcomes_that_differ_fail(pair_time, monkeypatch, capsys):
    real = pair_time.load

    def load(root, name):
        harness = real(root, name)
        if name == "mlosim_change":
            chunk_task = harness._chunk_task
            monkeypatch.setattr(harness, "_chunk_task",
                                lambda args: [(d, [m * 2 for m in mins])
                                              for d, mins in chunk_task(args)])
        return harness

    monkeypatch.setattr(pair_time, "load", load)
    argv = ["--parent", ROOT, "--change", ROOT, "--n", "2", "--iterations", "5", "--pairs", "1"]
    assert pair_time.main(argv) == 1
    out = capsys.readouterr().out
    assert "OUTCOMES DIFFER" in out and "FAILED" in out
