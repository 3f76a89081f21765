"""The JSON codec at the config boundary: any document is a config or a
ConfigError, and a written config reads back equal."""

import contextlib
import io
import json
import os
import tempfile
from dataclasses import replace

from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from mlosim import ConfigError, ExperimentConfig, PhysicalConfig, Strategy
from mlosim.agents import _BLOCK
from mlosim.cli import main
from mlosim.codec import dumps, from_json
from mlosim.harness import RUN_BYTES_BUDGET, WORLD_BYTES, run_bytes
from mlosim.radio import check_rates

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([s.value for s in Strategy]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
physical_docs = st.fixed_dictionaries(
    {}, optional={name: json_values for name in PhysicalConfig.__dataclass_fields__})
config_docs = st.fixed_dictionaries(
    {}, optional={name: json_values for name in ExperimentConfig.__dataclass_fields__}
    | {"physical": json_values | physical_docs})


def read_or_reject(doc):
    """The config `doc` gives, or None if it raises ConfigError."""
    try:
        config = from_json(ExperimentConfig, doc)
    except ConfigError:
        return None
    assert isinstance(config, ExperimentConfig)
    return config


@given(json_values | config_docs)
@example({"area_side_m": 10**400})
@example({"physical": {"tx_power_dbm": 10**400}})
@example({"strategies": [["frl"]]})
@settings(max_examples=500, deadline=None)
def test_any_document_is_a_config_or_a_config_error(doc):
    read_or_reject(doc)


@given(config_docs)
@settings(max_examples=100, deadline=None)
def test_rejected_document_exits_1_before_any_output(doc):
    if read_or_reject(doc) is not None:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["--config", path, "--out", out])
        assert code == 1
        assert err.getvalue().startswith("simulate: error:") and "Traceback" not in err.getvalue()
        assert not os.path.exists(out)


@st.composite
def configs(draw):
    noise = draw(st.floats(-120.0, -60.0))
    physical = PhysicalConfig(
        pathloss_intercept_db=draw(st.floats(0.0, 100.0)),
        attenuation_factor=draw(st.floats(0.0, 6.0)),
        wall_attenuation_db_per_wall=draw(st.floats(0.0, 20.0)),
        walls_per_meter=draw(st.floats(0.0, 1.0)),
        tx_power_dbm=draw(st.floats(-10.0, 40.0)),
        bandwidth_hz_per_link=draw(st.floats(1e3, 1e9)),
        noise_floor_dbm=noise,
        sensitivity_dbm=noise + draw(st.floats(0.1, 50.0)),
    )
    area = draw(st.floats(1.0, 1e4))
    strategies = tuple(draw(st.lists(st.sampled_from(Strategy), min_size=1, unique=True)))
    n_values = tuple(draw(st.lists(st.integers(1, 64), min_size=1, max_size=5, unique=True)))
    k = draw(st.integers(1, 16))
    # Up to 10**6 scenarios and iterations, inside the config's memory
    # bounds; past a full block of draws, each iteration adds the same bytes
    # to a world's run_bytes.
    n = max(n_values)
    one = ExperimentConfig(strategies=strategies, iterations=_BLOCK, n_values=n_values, k=k)
    first = run_bytes(one, n)
    per_iteration = run_bytes(replace(one, iterations=_BLOCK + 1), n) - first
    fits = _BLOCK + (RUN_BYTES_BUDGET - first) // per_iteration
    num_scenarios = draw(st.integers(
        1, min(10**6, RUN_BYTES_BUDGET // WORLD_BYTES // len(n_values))))
    iterations = draw(st.integers(1, min(10**6, fits)))
    d_m = area * draw(st.floats(0.01, 0.99))
    # A draw whose isolated link's signal leaves the noise below its float
    # resolution, so that every rate would be infinite, is no config.
    try:
        check_rates(k, d_m, physical, max(iterations, num_scenarios))
    except ConfigError:
        reject()
    return ExperimentConfig(
        strategies=strategies,
        num_scenarios=num_scenarios,
        iterations=iterations,
        n_values=n_values,
        k=k,
        area_side_m=area,
        d_m=d_m,
        physical=physical,
        master_seed=draw(st.integers(0, 2**64)),
        output_dir=draw(st.none() | st.text()),
        workers=draw(st.integers(1, 64)),
    )


def test_integral_floats_read_as_ints():
    config = from_json(ExperimentConfig, {"iterations": 20.0, "n_values": [8.0]})
    assert config.iterations == 20 and type(config.iterations) is int
    assert config.n_values == (8,) and type(config.n_values[0]) is int


def test_values_are_checked_by_the_dataclass_that_names_them():
    for doc, message in [
        ({"n_values": [8, "x"]}, "n_values must be an integer, got 'x'"),
        ({"physical": {"tx_power_dbm": "20"}}, "physical tx_power_dbm must be a finite number"),
        ({"iterations": 2.5}, "iterations must be an integer, got 2.5"),
        ({"strategies": 5}, "strategies must be iterable"),
        ({"output_dir": 3}, "output_dir must be a string or None"),
    ]:
        try:
            from_json(ExperimentConfig, doc)
        except ConfigError as error:
            assert message in str(error), doc
        else:
            raise AssertionError(f"{doc} was accepted")


@given(configs())
@settings(max_examples=200, deadline=None)
def test_written_config_reads_back_equal(config):
    text = dumps(config)
    again = from_json(ExperimentConfig, json.loads(text))
    assert again == config
    assert dumps(again) == text  # same JSON types, not just equal values
