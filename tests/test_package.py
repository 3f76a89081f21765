"""The package surface: what `import mlosim` offers and what README shows."""

import os
import re

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
