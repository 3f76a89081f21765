"""The two rules for numeric arguments (`errors.integer`, `errors.number`)
and the entry points that read their ints and floats through them: a numpy
scalar gives the same result as the Python number it holds, and a value
that is not a number of the right kind is a `ConfigError`."""

import contextlib
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlosim import (
    ConfigError,
    ExperimentConfig,
    PhysicalConfig,
    Scenario,
    Strategy,
    run_scenario,
    sample_scenario,
)
from mlosim.codec import dumps, from_json
from mlosim.errors import integer, number
from mlosim.harness import run_experiment

INTEGER_TYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
FLOAT_TYPES = (np.float32, np.float64)


class TestRules:
    @pytest.mark.parametrize("value", [0, -3, 2**70] + [t(7) for t in INTEGER_TYPES])
    def test_integer_is_a_python_int(self, value):
        assert type(integer(value, "x")) is int and integer(value, "x") == value

    @pytest.mark.parametrize("value", [True, np.True_, 3.0, np.float64(3.0), "3", None, [3]])
    def test_integer_rejects_non_integers(self, value):
        with pytest.raises(ConfigError, match="x must be an integer"):
            integer(value, "x")

    @pytest.mark.parametrize("value", [-1, np.int8(-1), np.int64(-2**40)])
    def test_integer_rejects_values_below_its_bound(self, value):
        assert integer(0, "x", 0) == 0 and integer(np.uint64(2**64 - 1), "x", 0) == 2**64 - 1
        with pytest.raises(ConfigError, match="x must be >= 0"):
            integer(value, "x", 0)

    @pytest.mark.parametrize("value", [0, -3, 2**70, 0.1, -1e308]
                             + [t(7) for t in INTEGER_TYPES + FLOAT_TYPES])
    def test_number_is_a_python_float(self, value):
        assert type(number(value, "x")) is float and number(value, "x") == float(value)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [
        True, np.False_, "1", None, [1.0], 10**400, -10**400, np.nan, np.inf, -np.inf,
        np.float32("nan"), np.float32("inf"), np.float64("-inf"),
    ])
    def test_number_rejects_non_finite_and_non_numbers(self, value):
        with pytest.raises(ConfigError, match="x must be a finite number"):
            number(value, "x")


def numpy_form(value):
    """Strategy: `value` as a numpy scalar of a drawn type that holds it
    exactly: an integer type for an int; a float type, or an integer type if
    the value is integral, for a float."""
    types = [t for t in INTEGER_TYPES if np.iinfo(t).min <= value <= np.iinfo(t).max
             and (isinstance(value, int) or value.is_integer())]
    if isinstance(value, float):  # -0.0 has no integer form
        types = [t for t in FLOAT_TYPES + tuple(types) if repr(float(t(value))) == repr(value)]
    return st.sampled_from(types).map(lambda t: t(value))


def as_numpy(draw, values: dict) -> dict:
    """`values` with each number replaced by a drawn numpy form of it."""
    return {name: draw(numpy_form(value)) for name, value in values.items()}


def floats(lo, hi):
    """Floats in [lo, hi], some of them exact in float32 too."""
    in_float32 = st.floats(lo, hi).map(lambda v: float(np.float32(v)))
    return st.floats(lo, hi) | in_float32.filter(lambda v: lo <= v <= hi)


@contextlib.contextmanager
def warnings_as_errors():
    """Any warning, numpy's included, raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@st.composite
def physical_fields(draw):
    noise = draw(floats(-120.0, -60.0))
    return dict(
        pathloss_intercept_db=draw(floats(0.0, 100.0)),
        attenuation_factor=draw(floats(0.0, 6.0)),
        wall_attenuation_db_per_wall=draw(floats(0.0, 20.0)),
        walls_per_meter=draw(floats(0.0, 1.0)),
        tx_power_dbm=draw(floats(-10.0, 40.0)),
        bandwidth_hz_per_link=draw(floats(1e3, 1e9)),
        noise_floor_dbm=noise,
        sensitivity_dbm=noise + draw(floats(0.1, 50.0)),
    )


@st.composite
def typed_configs(draw, max_scenarios=10**6, max_iterations=10**4, max_n=64, max_workers=64):
    """(Python-typed, numpy-typed) keyword arguments of one ExperimentConfig."""
    area = draw(floats(10.0, 1e4))
    counts = dict(
        num_scenarios=draw(st.integers(1, max_scenarios)),
        iterations=draw(st.integers(1, max_iterations)),
        k=draw(st.integers(1, 4)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        workers=draw(st.integers(1, max_workers)),
    )
    n_values = draw(st.lists(st.integers(1, max_n), min_size=1, max_size=3, unique=True))
    sizes = dict(area_side_m=area, d_m=draw(floats(1.0, area / 2)))
    physical = draw(physical_fields())
    python = counts | sizes | dict(n_values=tuple(n_values), physical=PhysicalConfig(**physical))
    typed = as_numpy(draw, counts | sizes) | dict(
        n_values=[draw(numpy_form(n)) for n in n_values],
        physical=PhysicalConfig(**as_numpy(draw, physical)))
    return python, typed


@given(typed_configs())
@settings(max_examples=150, deadline=None)
def test_numpy_config_fields_equal_their_python_numbers(configs):
    python, typed = configs
    with warnings_as_errors():
        config = ExperimentConfig(**typed)
    assert dumps(config) == dumps(ExperimentConfig(**python))
    assert config == ExperimentConfig(**python)


@given(st.data(), st.integers(1, 16), st.integers(1, 8), floats(20.0, 1e4), st.integers(0, 99))
@settings(max_examples=100, deadline=None)
def test_numpy_world_arguments_equal_their_python_numbers(data, n, k, area, seed):
    with warnings_as_errors():
        d = data.draw(floats(1.0, area / 4))
        python = dict(n=n, k=k, area_side_m=area, d=d)
        world = sample_scenario(np.random.default_rng(seed), **python)
        again = sample_scenario(np.random.default_rng(seed), **as_numpy(data.draw, python))
        assert dumps(again) == dumps(world)
        # The same world built by hand, every number numpy's, and its runs.
        typed = as_numpy(data.draw, dict(area_side_m=world.area_side_m, num_links=k,
                                         ap_sta_distance_m=world.ap_sta_distance_m))
        for name in ("ap_positions", "sta_positions"):
            typed[name] = tuple((data.draw(numpy_form(x)), data.draw(numpy_form(y)))
                                for x, y in getattr(world, name))
        built = Scenario(**typed, physical=world.physical)
        assert dumps(built) == dumps(world)
        strategy = data.draw(st.sampled_from(Strategy))
        T, run_seed = data.draw(numpy_form(5)), data.draw(numpy_form(seed))
        assert dumps(run_scenario(built, strategy, T, run_seed)) == dumps(
            run_scenario(world, strategy, 5, seed))


@given(typed_configs(max_scenarios=1, max_iterations=12, max_n=3, max_workers=1))
@settings(max_examples=12, deadline=None)
def test_numpy_config_writes_the_same_files(configs):
    files = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, kwargs in enumerate(configs):
            out = os.path.join(tmp, str(i))
            with warnings_as_errors():
                run_experiment(ExperimentConfig(**kwargs, output_dir=out))
            files.append({path.name: path.read_bytes() for path in sorted(Path(out).iterdir())})
    assert files[0] == files[1]


def wrong_or(values):
    """Strategy: one of `values`, or a value of a wrong kind."""
    return st.sampled_from(values) | st.sampled_from(
        [None, True, "1", 2.5, np.float64(np.nan), np.True_, [], {}])


@given(
    st.fixed_dictionaries({}, optional={
        "strategies": st.sampled_from([(Strategy.FIXED,), [Strategy.FEDERATED_RL, Strategy.FIXED],
                                       ("rl",), ()]),
        "num_scenarios": wrong_or([1, np.int16(7), 0]),
        "iterations": wrong_or([10, np.uint32(3), -1]),
        "n_values": st.sampled_from([(2,), [np.int8(3), 2], (np.float32(2),), (), (0,)]),
        "k": wrong_or([2, np.uint8(3), 17]),
        "area_side_m": wrong_or([50.0, np.float32(60.5), np.int64(70), -1.0]),
        "d_m": wrong_or([5.0, np.float32(7.25), 1e9]),
        "physical": wrong_or([PhysicalConfig(), PhysicalConfig(tx_power_dbm=np.float32(21.5))]),
        "master_seed": wrong_or([0, np.uint64(2**64 - 1), -5]),
        "output_dir": wrong_or([None, "out", "a/b"]) | st.just(b"out"),
        "workers": wrong_or([1, np.int32(3), 0]),
    }))
@settings(max_examples=300, deadline=None)
def test_every_accepted_config_reads_back_equal(kwargs):
    try:
        config = ExperimentConfig(**kwargs)
    except ConfigError:
        return
    text = dumps(config)
    assert from_json(ExperimentConfig, json.loads(text)) == config
    assert dumps(from_json(ExperimentConfig, json.loads(text))) == text
