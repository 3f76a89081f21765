"""World sampling, validation, neighbor discovery, JSON round trips."""

import json
import math
import warnings

import numpy as np
import pytest

from mlosim import (
    ConfigError,
    DomainError,
    ExperimentConfig,
    GeometryError,
    PhysicalConfig,
    Scenario,
    run_batch,
    sample_scenario,
)
from mlosim.codec import dumps
from mlosim.radio import all_neighbor_sets
from mlosim.rng import generator
from mlosim.scenario import MAX_AREA_SIDE_M
from oracles import oracle_neighbor_sets

PHYS = PhysicalConfig()


def pair_world(d_apart, k=4, area=5000.0, d=10.0):
    """Two AP-STA pairs with the APs d_apart meters from each other."""
    x0, y0 = 10.0, area / 2
    return Scenario(
        area_side_m=area,
        ap_positions=((x0, y0), (x0 + d_apart, y0)),
        sta_positions=((x0, y0 + d), (x0 + d_apart, y0 + d)),
        ap_sta_distance_m=d,
        num_links=k,
        physical=PHYS,
    )


class TestPhysicalConfig:
    def test_paper_defaults(self):
        assert PHYS.pathloss_intercept_db == 54.12
        assert PHYS.attenuation_factor == 2.06067
        assert PHYS.wall_attenuation_db_per_wall == 5.25
        assert PHYS.walls_per_meter == 0.1467
        assert PHYS.tx_power_dbm == 20.0
        assert PHYS.bandwidth_hz_per_link == 80e6
        assert PHYS.sensitivity_dbm == -82.0

    def test_bandwidth_must_be_positive(self):
        with pytest.raises(ConfigError):
            PhysicalConfig(bandwidth_hz_per_link=0.0)

    def test_sensitivity_above_noise(self):
        with pytest.raises(ConfigError):
            PhysicalConfig(sensitivity_dbm=-96.0, noise_floor_dbm=-95.0)

    @pytest.mark.parametrize("kwargs", [
        dict(tx_power_dbm="20"), dict(walls_per_meter=True), dict(sensitivity_dbm=None)])
    def test_fields_must_be_finite_numbers(self, kwargs):
        with pytest.raises(ConfigError, match="must be a finite number"):
            PhysicalConfig(**kwargs)


class TestSampling:
    def test_reference_setup(self):
        sc = sample_scenario(generator(42), n=8, k=4, area_side_m=100.0, d=10.0)
        assert sc.n == 8 and sc.num_links == 4
        for ap, sta in zip(sc.ap_positions, sc.sta_positions):
            assert math.dist(ap, sta) == pytest.approx(10.0, rel=1e-9)

    def test_all_positions_in_bounds(self):
        for seed in range(30):
            sc = sample_scenario(generator(seed), n=6, k=2, area_side_m=50.0, d=20.0)
            for x, y in sc.ap_positions + sc.sta_positions:
                assert 0.0 <= x <= 50.0 and 0.0 <= y <= 50.0

    def test_single_pair_world(self):
        sc = sample_scenario(generator(3), n=1, k=1, area_side_m=100.0, d=10.0)
        assert sc.n == 1
        assert all_neighbor_sets(sc).tolist() == [[False]]

    def test_same_seed_is_bitwise_identical(self):
        a = sample_scenario(generator(42), n=8, k=4, area_side_m=100.0, d=10.0)
        b = sample_scenario(generator(42), n=8, k=4, area_side_m=100.0, d=10.0)
        assert a == b  # exact float equality through the dataclass

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, k=4, area_side_m=100.0, d=10.0),
            dict(n=1, k=0, area_side_m=100.0, d=10.0),
            dict(n=1, k=17, area_side_m=100.0, d=10.0),
            dict(n=1, k=4, area_side_m=100.0, d=0.0),
            dict(n=1, k=4, area_side_m=100.0, d=100.0),
            dict(n=1, k=4, area_side_m=-5.0, d=1.0),
            dict(n=1, k=4, area_side_m=math.inf, d=1.0),
            dict(n=1, k=4, area_side_m=math.nan, d=1.0),
            dict(n=1, k=4, area_side_m=MAX_AREA_SIDE_M, d=1.0),
            dict(n=1, k=4, area_side_m=1e200, d=1e199),
            # Only numbers of the right kind, by the rules of errors.
            dict(n=2.0, k=2, area_side_m=100.0, d=10.0),
            dict(n=2, k=np.True_, area_side_m=100.0, d=10.0),
            dict(n=2, k=2, area_side_m="100", d=10.0),
            dict(n=2, k=2, area_side_m=100.0, d="10"),
        ],
    )
    def test_preconditions(self, kwargs):
        with pytest.raises(ConfigError):
            sample_scenario(generator(1), **kwargs)

    def test_angle_retry_exhaustion(self):
        # A stub stream that drops the AP into a corner and then always
        # proposes the out-of-bounds angle exercises the bounded-retry path.
        class CornerStub:
            def uniform(self, lo, hi, size=None):
                if size is not None:
                    return np.zeros(size)
                return math.pi  # pointing at (-d, 0): always outside

            def random(self):  # pragma: no cover - not reached
                return 0.5

        with pytest.raises(GeometryError):
            sample_scenario(CornerStub(), n=1, k=1, area_side_m=100.0, d=50.0)


class TestInvariants:
    def test_distance_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            Scenario(
                area_side_m=100.0,
                ap_positions=((10.0, 10.0),),
                sta_positions=((10.0, 21.0),),
                ap_sta_distance_m=10.0,
                num_links=4,
            )

    def test_out_of_area_rejected(self):
        with pytest.raises(ConfigError):
            Scenario(
                area_side_m=100.0,
                ap_positions=((101.0, 10.0),),
                sta_positions=((101.0, 20.0),),
                ap_sta_distance_m=10.0,
                num_links=4,
            )

    def test_count_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            Scenario(
                area_side_m=100.0,
                ap_positions=((10.0, 10.0), (20.0, 20.0)),
                sta_positions=((10.0, 20.0),),
                ap_sta_distance_m=10.0,
                num_links=4,
            )

    @pytest.mark.parametrize("fields", [
        dict(area_side_m="100"), dict(ap_positions=(("10", 10.0),)), dict(num_links=4.0)])
    def test_numbers_checked_at_construction(self, fields):
        kwargs = dict(area_side_m=100.0, ap_positions=((10.0, 10.0),),
                      sta_positions=((10.0, 20.0),), ap_sta_distance_m=10.0, num_links=4)
        with pytest.raises(ConfigError, match="must be an integer|must be a finite number"):
            Scenario(**kwargs | fields)

    @pytest.mark.parametrize("name", ["ap_positions", "sta_positions"])
    @pytest.mark.parametrize("points", [((1.0,),), ((1.0, 2.0, 3.0),), (5.0,), None, 5.0])
    def test_positions_must_be_pairs(self, name, points):
        kwargs = dict(area_side_m=100.0, ap_positions=((10.0, 10.0),),
                      sta_positions=((10.0, 20.0),), ap_sta_distance_m=10.0, num_links=4)
        with pytest.raises(ConfigError, match=f"{name} must hold \\(x, y\\) pairs"):
            Scenario(**kwargs | {name: points})

    def test_positions_take_any_pairs(self):
        built = Scenario(area_side_m=100.0, ap_positions=np.array([[10.0, 10.0]]),
                         sta_positions=[[10.0, 20.0]], ap_sta_distance_m=10.0, num_links=4)
        assert built.ap_positions == ((10.0, 10.0),) and built.sta_positions == ((10.0, 20.0),)

    @pytest.mark.parametrize("area", [math.inf, 100.0])
    def test_world_parameters_checked_at_construction(self, area):
        # Each STA sits on its AP. Were it accepted, its first run would
        # fail deep in the pathloss with a DomainError.
        with pytest.raises(ConfigError):
            Scenario(
                area_side_m=area,
                ap_positions=((10.0, 10.0), (50.0, 50.0)),
                sta_positions=((10.0, 10.0), (50.0, 50.0)),
                ap_sta_distance_m=0.0,
                num_links=4,
            )


class TestAreaRange:
    # Two points of an area of side s are up to sqrt(2) * s apart, and the
    # link budget squares that distance.
    def test_area_whose_squared_distances_overflow_rejected(self):
        with pytest.raises(ConfigError, match="area side"):
            ExperimentConfig(area_side_m=1e200, d_m=1e199)
        with pytest.raises(ConfigError, match="area side"):
            Scenario(
                area_side_m=1e200,
                ap_positions=((0.0, 0.0),),
                sta_positions=((1e199, 0.0),),
                ap_sta_distance_m=1e199,
                num_links=4,
            )

    @pytest.mark.filterwarnings("error")
    def test_largest_accepted_area_runs_without_numpy_warning(self):
        assert 9e153 < MAX_AREA_SIDE_M
        cfg = ExperimentConfig(num_scenarios=2, iterations=3, n_values=(3,),
                               area_side_m=9e153, d_m=9e152)
        for stats in run_batch(cfg).per_strategy.values():
            assert all(math.isfinite(rate) for rate in stats.min_rates_bps)

    # A coordinate up to the area side rounds by up to half its ulp, so a
    # sampled pair misses d by up to about 0.71 ulp(side), which the pair
    # check's relative tolerance of 1e-9 must cover. A smaller d is rejected
    # before any draw, naming d_m; unchecked, d = 1e-6 in the 100 m square
    # fails mid-sampling with "pair 2 is 9.999999934964537e-07 m apart".
    @pytest.mark.parametrize("area", [1.0, 100.0, 1e4, 9e153])
    def test_distance_below_the_areas_resolution_rejected(self, area):
        least = math.ulp(area) / 1e-9
        for seed in range(5):
            world = sample_scenario(generator(seed), n=64, k=1, area_side_m=area, d=least)
            assert world.ap_sta_distance_m == least
        with pytest.raises(ConfigError, match="d_m="):
            sample_scenario(generator(0), n=1, k=1, area_side_m=area, d=least * 0.99)
        with pytest.raises(ConfigError, match="d_m=1e-06"):
            ExperimentConfig(area_side_m=100.0, d_m=1e-6)


class TestNeighbors:
    def test_close_pair_hear_each_other(self):
        # At 5 m the received power is 20 - 72.374 = -52.374 dBm >= -82.
        assert all_neighbor_sets(pair_world(5.0)).tolist() == [[False, True], [True, False]]

    def test_distant_pair_do_not(self):
        assert not all_neighbor_sets(pair_world(4000.0)).any()

    def test_coverage_edge_is_near_25m(self):
        # 20 - PL(r) crosses -82 dBm between 24 and 26 meters.
        assert all_neighbor_sets(pair_world(24.0))[0].tolist() == [False, True]
        assert all_neighbor_sets(pair_world(26.0))[0].tolist() == [False, False]

    def test_symmetric_and_irreflexive_on_sampled_worlds(self):
        for seed in range(25):
            sc = sample_scenario(generator(100 + seed), n=7, k=4, area_side_m=100.0, d=10.0)
            hears = all_neighbor_sets(sc)
            assert np.array_equal(hears, hears.T) and not hears.diagonal().any()
            assert np.array_equal(hears, oracle_neighbor_sets(sc)), seed

    def test_index_bounds(self):
        # One bool row and one bool column per AP.
        for n in (1, 2, 9, 40):
            sc = sample_scenario(generator(n), n=n, k=1, area_side_m=60.0, d=10.0)
            hears = all_neighbor_sets(sc)
            assert hears.dtype == bool and hears.shape == (n, n)

    def test_matches_scalar_oracle_on_sampled_worlds(self):
        worlds = 0
        for n in range(2, 65):
            for rep in range(3):
                sc = sample_scenario(
                    generator(7000 + 10 * n + rep), n=n, k=1, area_side_m=100.0, d=10.0
                )
                assert np.array_equal(all_neighbor_sets(sc), oracle_neighbor_sets(sc)), (n, rep)
                worlds += 1
        assert worlds == 189

    # No distance the pathloss sees may be infinite: with a zero slope or
    # wall field, 0 * inf is NaN and numpy warns.
    @pytest.mark.parametrize("field", [
        "walls_per_meter", "wall_attenuation_db_per_wall", "attenuation_factor"])
    def test_zero_valued_fields_match_the_oracle_without_warning(self, field):
        physical = PhysicalConfig(**{field: 0.0})
        for n in (1, 2, 9, 30):
            sc = sample_scenario(generator(8000 + n), n=n, k=1, area_side_m=100.0, d=10.0,
                                 physical=physical)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                hears = all_neighbor_sets(sc)
            assert np.array_equal(hears, oracle_neighbor_sets(sc)), n

    def test_colocated_aps_rejected(self):
        with pytest.raises(DomainError):
            all_neighbor_sets(pair_world(0.0))


class TestSerialization:
    def test_physical_fields_serialized_by_name(self):
        sc = sample_scenario(generator(1), n=1, k=1, area_side_m=100.0, d=10.0)
        data = json.loads(dumps(sc))
        assert data["physical"]["sensitivity_dbm"] == -82.0
        assert data["ap_positions"][0] == list(sc.ap_positions[0])
