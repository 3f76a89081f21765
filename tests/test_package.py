"""The package surface: what `import mlosim` offers and what README shows."""

import ast
import json
import os
import re
import subprocess
import sys

import mlosim

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PUBLIC = {
    "ActivationProfile",
    "ConfigError",
    "DomainError",
    "EmptyInputError",
    "ExperimentConfig",
    "GeometryError",
    "LinkSet",
    "MlosimError",
    "PhysicalConfig",
    "RunResult",
    "Scenario",
    "Strategy",
    "achieved_rate_bps",
    "min_rate_timeseries",
    "run_batch",
    "run_scenario",
    "sample_scenario",
}


def test_every_exported_name_resolves():
    for name in mlosim.__all__:
        assert getattr(mlosim, name) is not None, name


def test_exports_are_the_public_names():
    assert len(mlosim.__all__) == len(PUBLIC)
    assert set(mlosim.__all__) == PUBLIC


def test_readme_library_use_runs(tmp_path, monkeypatch):
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    section = readme[readme.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    with open(tmp_path / "trace.csv") as fh:
        assert fh.readline() == "t,ap,action_mask,rate_bps,global_reward\n"


# The rate layer stands below the policy layer: only radio turns action
# indices into link rows, and it takes nothing from agents or engine.
def test_radio_imports_nothing_from_the_policy_layer():
    with open(os.path.join(ROOT, "src", "mlosim", "radio.py")) as fh:
        tree = ast.parse(fh.read())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"__future__", "dataclasses", "errors", "scenario"}


# Run in a fresh interpreter: which modules a 1-worker run leaves out of
# sys.modules, then whether a 2-worker sweep equals the 1-worker one.
POOL_GUARD = """
import contextlib, io, json, sys, tempfile
from dataclasses import replace
import mlosim, mlosim.cli
from mlosim.codec import dumps
from mlosim.harness import density_sweep

def pool_modules():
    return [m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules]

loaded = {"import": pool_modules()}
config = mlosim.ExperimentConfig(num_scenarios=3, iterations=20, n_values=(3,), k=2)
mlosim.run_batch(config)
loaded["run_batch"] = pool_modules()
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    code = mlosim.cli.main(["--aps", "3", "--scenarios", "2", "--iterations", "20",
                            "--workers", "1", "--out", out])
loaded["cli"] = pool_modules()
sweep = replace(config, n_values=(2, 4))
serial = {n: dumps(s) for n, s in density_sweep(sweep).items()}
parallel = {n: dumps(s) for n, s in density_sweep(replace(sweep, workers=2)).items()}
loaded["pool"] = pool_modules()
print(json.dumps({"loaded": loaded, "cli_code": code, "equal": serial == parallel}))
"""


def test_pool_stack_loads_only_when_a_pool_starts():
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", POOL_GUARD], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    result = json.loads(done.stdout)
    assert result["loaded"] == {"import": [], "run_batch": [], "cli": [],
                                "pool": ["concurrent.futures", "multiprocessing"]}
    assert result["cli_code"] == 0
    assert result["equal"]
