"""World sampling, validation, neighbor discovery, JSON round trips."""

import json
import math

import numpy as np
import pytest

from mlosim import (
    ConfigError,
    DomainError,
    GeometryError,
    PhysicalConfig,
    Scenario,
    sample_scenario,
)
from mlosim.radio import all_neighbor_sets
from mlosim.rng import generator

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
        assert all_neighbor_sets(sc) == (frozenset(),)

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


def oracle_neighbor_sets(sc):
    """Scalar oracle: one AP pair at a time, math.dist and the paper's
    constants written out (20 dBm TX, -82 dBm sensitivity)."""
    out = []
    for i, a in enumerate(sc.ap_positions):
        heard = set()
        for j, b in enumerate(sc.ap_positions):
            if j != i:
                d = math.dist(a, b)
                pathloss = 54.12 + 10 * 2.06067 * math.log10(d) + 5.25 * 0.1467 * d
                if 20.0 - pathloss >= -82.0:
                    heard.add(j)
        out.append(frozenset(heard))
    return tuple(out)


class TestNeighbors:
    def test_close_pair_hear_each_other(self):
        # At 5 m the received power is 20 - 72.374 = -52.374 dBm >= -82.
        assert all_neighbor_sets(pair_world(5.0)) == ({1}, {0})

    def test_distant_pair_do_not(self):
        assert all_neighbor_sets(pair_world(4000.0)) == (set(), set())

    def test_coverage_edge_is_near_25m(self):
        # 20 - PL(r) crosses -82 dBm between 24 and 26 meters.
        assert all_neighbor_sets(pair_world(24.0))[0] == {1}
        assert all_neighbor_sets(pair_world(26.0))[0] == set()

    def test_symmetric_and_irreflexive_on_sampled_worlds(self):
        for seed in range(25):
            sc = sample_scenario(generator(100 + seed), n=7, k=4, area_side_m=100.0, d=10.0)
            sets = all_neighbor_sets(sc)
            for i, nbrs in enumerate(sets):
                assert i not in nbrs
                for j in nbrs:
                    assert i in sets[j]

    def test_index_bounds(self):
        # One set per AP, and only AP indices in them.
        for n in (1, 2, 9, 40):
            sc = sample_scenario(generator(n), n=n, k=1, area_side_m=60.0, d=10.0)
            sets = all_neighbor_sets(sc)
            assert len(sets) == n
            assert all(0 <= j < n for nbrs in sets for j in nbrs)

    def test_matches_scalar_oracle_on_sampled_worlds(self):
        worlds = 0
        for n in range(2, 65):
            for rep in range(3):
                sc = sample_scenario(
                    generator(7000 + 10 * n + rep), n=n, k=1, area_side_m=100.0, d=10.0
                )
                assert all_neighbor_sets(sc) == oracle_neighbor_sets(sc), (n, rep)
                worlds += 1
        assert worlds == 189

    def test_colocated_aps_rejected(self):
        with pytest.raises(DomainError):
            all_neighbor_sets(pair_world(0.0))


class TestSerialization:
    def test_physical_fields_serialized_by_name(self):
        sc = sample_scenario(generator(1), n=1, k=1, area_side_m=100.0, d=10.0)
        data = json.loads(sc.to_json())
        assert data["physical"]["sensitivity_dbm"] == -82.0
        assert data["ap_positions"][0] == list(sc.ap_positions[0])
