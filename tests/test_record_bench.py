"""tools/record_bench.py: failed or stalled runs are recorded, not fatal; sides interleave."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def record_bench():
    spec = importlib.util.spec_from_file_location(
        "record_bench", os.path.join(ROOT, "tools", "record_bench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_timed_out_run_is_recorded_as_its_error(record_bench, monkeypatch):
    def stall(argv, **kwargs):
        raise subprocess.TimeoutExpired(argv, kwargs["timeout"])

    monkeypatch.setattr(record_bench.subprocess, "run", stall)
    run = record_bench.run_bench(ROOT, "paper-batch", 3, 0)
    assert run == {"error": "timeout after 600 s", "seed": 3}


def test_quartiles_of_too_few_runs_are_an_error_entry(record_bench):
    runs = [{"error": "exit 1"}, {"metrics": {"worlds_per_s": 9.5}}]
    assert "error" in record_bench.quartiles(runs)["worlds_per_s"]
    runs.append({"metrics": {"worlds_per_s": 10.5}})
    assert record_bench.quartiles(runs)["worlds_per_s"] == pytest.approx([9.25, 10.0, 10.75])


def test_acceptance_timing_pins_one_blas_thread(record_bench, monkeypatch):
    seen = {}

    def fake_run(argv, **kwargs):
        seen.update(kwargs["env"])
        return subprocess.CompletedProcess(argv, 0, stdout="1 passed\n", stderr="")

    monkeypatch.setattr(record_bench.subprocess, "run", fake_run)
    assert record_bench.time_acceptance(ROOT)["pytest_summary"] == "1 passed"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert seen[var] == "1"
    assert seen["PYTHONPATH"] == os.path.join(ROOT, "src")


def test_traced_runs_interleave_and_alternate_the_first_side(record_bench, monkeypatch):
    calls = []

    def fake_run_bench(root, workload, seed, trace):
        calls.append((root, seed, trace))
        return {"metrics": {"agents.select_us": float(seed)}, "seed": seed}

    monkeypatch.setattr(record_bench, "run_bench", fake_run_bench)
    runs = record_bench.interleaved({"parent": "/p", "change": "/c"}, "paper-batch",
                                    record_bench.TRACED_SEEDS, 1)
    assert record_bench.TRACED_SEEDS == (1, 2, 3, 4, 5, 6)  # six traced runs per side
    assert calls == [(root, seed, 1) for seed in record_bench.TRACED_SEEDS
                     for root in (("/p", "/c") if seed % 2 else ("/c", "/p"))]
    assert ([r["seed"] for r in runs["parent"]] == [r["seed"] for r in runs["change"]]
            == [1, 2, 3, 4, 5, 6])
    assert record_bench.quartiles(runs["change"])["agents.select_us"][1] == 3.5


def test_acceptance_timings_interleave_and_start_no_process(record_bench, monkeypatch):
    calls = []

    def fake_time_acceptance(root):
        calls.append(root)
        return {"wall_s": float(len(calls)), "pytest_summary": "7 passed", "criteria": []}

    def no_process(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(record_bench, "time_acceptance", fake_time_acceptance)
    monkeypatch.setattr(record_bench.subprocess, "run", no_process)
    timings = record_bench.interleaved_timings({"parent": "/p", "change": "/c"},
                                               record_bench.time_acceptance)
    assert calls == ["/p", "/c", "/c", "/p", "/p", "/c"]
    assert [r["wall_s"] for r in timings["parent"]["runs"]] == [1.0, 4.0, 5.0]
    assert timings["parent"]["median_wall_s"] == 4.0
    assert timings["change"]["median_wall_s"] == 3.0


def test_batch_timings_interleave_keep_every_run_and_start_no_process(record_bench, monkeypatch):
    calls = []

    def fake_run(argv, **kwargs):
        calls.append((kwargs["cwd"], argv[-1]))
        if len(calls) == 4:
            return subprocess.CompletedProcess(argv, 1, stdout="", stderr="MemoryError")
        stdout = json.dumps({"wall_s": float(len(calls)), "sha256": "ab"}) + "\n"
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(record_bench.subprocess, "run", fake_run)
    timings = record_bench.interleaved_timings({"parent": "/p", "change": "/c"},
                                               lambda root: record_bench.time_batch(root, 2))
    assert calls == [("/p", "2"), ("/c", "2"), ("/c", "2"), ("/p", "2"), ("/p", "2"), ("/c", "2")]
    assert [r.get("wall_s") for r in timings["parent"]["runs"]] == [1.0, None, 5.0]
    assert timings["parent"]["runs"][1]["error"] == "exit 1"
    assert timings["parent"]["median_wall_s"] == 3.0
    assert [r["wall_s"] for r in timings["change"]["runs"]] == [2.0, 3.0, 6.0]
    assert timings["change"]["median_wall_s"] == 3.0
    assert all(r["sha256"] == "ab" for r in timings["change"]["runs"])


def test_source_lines_skip_blank_and_comment_lines(record_bench, tmp_path):
    src = tmp_path / "src" / "mlosim"
    src.mkdir(parents=True)
    (src / "a.py").write_text('"""Doc."""\n\n# comment\nx = 1  # counted\n')
    (src / "b.py").write_text("def f():\n    # indented comment\n    \t\n    return 2\n")
    (src / "notes.txt").write_text("not python\n")
    assert record_bench.source_lines(str(tmp_path)) == 4


def fake_checkouts(tmp_path) -> list:
    """record_bench.py arguments for two minimal checkouts, parent and change."""
    argv = ["--out", str(tmp_path / "BENCH.json")]
    for label in ("parent", "change"):
        root = tmp_path / label
        (root / "src" / "mlosim").mkdir(parents=True)
        (root / "src" / "mlosim" / "engine.py").write_text("x = 1\n")
        (root / "perfbench").mkdir()
        (root / "perfbench" / "run.py").write_text("")
        (root / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "paper-batch"}]}))
        argv += ["--checkout", f"{label}={root}"]
    return argv


def test_every_checkout_is_byte_compiled_before_its_first_run(record_bench, monkeypatch,
                                                                tmp_path):
    # Without it, a checkout with no bytecode caches pays for compiling its
    # sources in its first runs, and reads slower on the set-up path.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    argv = fake_checkouts(tmp_path)
    cached = []

    def fake_run_bench(root, workload, seed, trace):
        cached.append(any(Path(root).glob("src/mlosim/__pycache__/engine.*.pyc")))
        return {"metrics": {"worlds_per_s": 1.0}, "seed": seed}

    monkeypatch.setattr(record_bench, "run_bench", fake_run_bench)
    monkeypatch.setattr(record_bench, "time_batch", lambda root, workers: {"wall_s": 1.0})
    monkeypatch.setattr(record_bench, "time_acceptance", lambda root: {"wall_s": 1.0})
    assert record_bench.main(argv) == 0
    assert cached and all(cached)


@pytest.mark.parametrize("odd_one", [None, "parent", "change"])
def test_batch_digests_are_compared_across_runs_and_checkouts(record_bench, monkeypatch,
                                                             tmp_path, capsys, odd_one):
    # Every batch run computes the same batch, so one run whose digest
    # differs from the others, in either checkout, fails the record.
    calls = []

    def fake_time_batch(root, workers):
        label = os.path.basename(root)
        calls.append(label)
        odd = label == odd_one and calls.count(label) == 2
        return {"wall_s": 1.0, "sha256": "bad" if odd else "ab"}

    monkeypatch.setattr(record_bench, "run_bench",
                        lambda root, workload, seed, trace: {"metrics": {}, "seed": seed})
    monkeypatch.setattr(record_bench, "time_batch", fake_time_batch)
    monkeypatch.setattr(record_bench, "time_acceptance", lambda root: {"wall_s": 1.0})
    code = record_bench.main(fake_checkouts(tmp_path))
    record = json.loads((tmp_path / "BENCH.json").read_text())
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAILED:")]
    if odd_one is None:
        assert (code, record["batch_outputs_equal"], failed) == (0, True, [])
    else:
        assert (code, record["batch_outputs_equal"], len(failed)) == (1, False, 1)
        assert f'"bad": ["{odd_one}/1"]' in failed[0]
