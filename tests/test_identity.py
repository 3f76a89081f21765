"""tools/identity.py: two checkouts' outputs compared file by file; any difference fails."""

import importlib.util
import os
import shutil

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def identity(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "identity", os.path.join(ROOT, "tools", "identity.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "LAYOUTS", (
        ("sweep", ["--aps", "3,2", "--scenarios", "2", "--iterations", "5"], None),
        ("k2", ["--aps", "2", "--scenarios", "2", "--iterations", "5", "--workers", "2"],
         {"k": 2}),
    ))
    monkeypatch.setattr(module, "BATCH", (2, 5, 2))
    monkeypatch.setattr(module, "BATCH_WORKERS", (1,))
    return module


def test_same_checkout_is_identical(identity, capsys):
    assert identity.main(["--parent", ROOT, "--change", ROOT]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "sweep", "k2", "batch 2 worlds x 5 iterations at n=2"]
    assert all(len(line.split(": ")[1]) in (16, 64) for line in lines)


def test_perturbed_radio_constant_fails_naming_the_files(identity, capsys, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(os.path.join(ROOT, "src"), copy / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    radio = copy / "src" / "mlosim" / "radio.py"
    text = radio.read_text()
    assert text.count("10.0 * physical.attenuation_factor") == 1
    radio.write_text(text.replace("10.0 * physical.attenuation_factor",
                                  "10.001 * physical.attenuation_factor"))
    assert identity.main(["--parent", ROOT, "--change", str(copy)]) == 1
    out = capsys.readouterr().out
    assert "FAILED: sweep/fig7_density.csv differs" in out
    assert "FAILED: k2/summary.json differs" in out
    assert "FAILED: batch 2 worlds x 5 iterations at n=2: the digests differ" in out
