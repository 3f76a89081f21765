"""RF arithmetic tests against hand-evaluated oracle values."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlosim import (
    ActivationProfile,
    ConfigError,
    DomainError,
    LinkSet,
    PhysicalConfig,
    Scenario,
    achieved_rate_bps,
)
from mlosim.radio import dbm_to_mw, link_budget_matrix_mw, pathloss_db, rate_kernel

import oracles
from oracles import monotonicity_case, scalar_rate_bps

PHYS = PhysicalConfig()

# Frozen by evaluating L0 + 10*gamma*log10(d) + c*Wbar*d by hand with
# L0=54.12, gamma=2.06067, c=5.25, Wbar=0.1467 (c*Wbar = 0.770175).
PL_1 = 54.890175
PL_10 = 82.42845
PL_20 = 96.33343481164896
PL_100 = 172.3509


def make_world(ap_positions, sta_positions, k=4, area=100.0, d=10.0, physical=PHYS):
    return Scenario(
        area_side_m=area,
        ap_positions=tuple(ap_positions),
        sta_positions=tuple(sta_positions),
        ap_sta_distance_m=d,
        num_links=k,
        physical=physical,
    )


class TestPathloss:
    def test_intercept_plus_wall_term_at_one_meter(self):
        assert pathloss_db(1.0, PHYS) == pytest.approx(PL_1, abs=1e-9)

    def test_reference_distance_ten_meters(self):
        assert pathloss_db(10.0, PHYS) == pytest.approx(PL_10, abs=1e-9)

    def test_hundred_meters(self):
        assert pathloss_db(100.0, PHYS) == pytest.approx(PL_100, abs=1e-9)

    @pytest.mark.parametrize("d", [0.0, -1.0, -0.001])
    def test_nonpositive_distance_rejected(self, d):
        with pytest.raises(DomainError):
            pathloss_db(d, PHYS)

    def test_array_valued(self):
        values = pathloss_db(np.array([[1.0, 10.0], [100.0, 20.0]]), PHYS)
        assert values == pytest.approx(np.array([[PL_1, PL_10], [PL_100, PL_20]]), abs=1e-9)
        with pytest.raises(DomainError):
            pathloss_db(np.array([10.0, 0.0]), PHYS)

    @given(st.floats(min_value=0.01, max_value=5000.0))
    def test_matches_direct_formula(self, d):
        expected = 54.12 + 10 * 2.06067 * math.log10(d) + 5.25 * 0.1467 * d
        assert pathloss_db(d, PHYS) == pytest.approx(expected, rel=1e-12)


def own_signal_dbm(d, physical=PHYS):
    """Power (dBm) a lone STA d meters from its AP receives, per the link budget."""
    world = make_world([(50.0, 50.0)], [(50.0, 50.0 + d)], d=d, physical=physical)
    return 10.0 * math.log10(link_budget_matrix_mw(world)[0, 0])


class TestReceivedPower:
    def test_twenty_dbm_at_ten_meters(self):
        assert own_signal_dbm(10.0) == pytest.approx(-62.42845, abs=1e-9)

    def test_twenty_dbm_at_one_meter(self):
        assert own_signal_dbm(1.0) == pytest.approx(-34.890175, abs=1e-9)

    def test_linearity_in_tx_power(self):
        zero_dbm = PhysicalConfig(tx_power_dbm=0.0)
        assert own_signal_dbm(1.0, zero_dbm) == pytest.approx(-54.890175, abs=1e-9)


class TestUnitConversions:
    @given(st.floats(min_value=-200.0, max_value=100.0))
    @settings(max_examples=1000)
    def test_dbm_roundtrip(self, dbm):
        assert 10.0 * math.log10(dbm_to_mw(dbm)) == pytest.approx(dbm, rel=1e-12, abs=1e-12)


def profile_of(*masks, k=4):
    return ActivationProfile(tuple(LinkSet(int(m), k) for m in masks))


def interfered_links(mask):
    """The links j on which a second AP, active on link j alone, lowers the
    rate of AP 0 under `mask`: the links that bit j of the mask turns on."""
    alone = achieved_rate_bps(make_world([(40.0, 50.0)], [(40.0, 60.0)]), profile_of(mask), 0)
    pair = make_world([(40.0, 50.0), (60.0, 50.0)], [(40.0, 60.0), (60.0, 60.0)])
    return tuple(j for j in range(4)
                 if achieved_rate_bps(pair, profile_of(mask, 1 << j), 0) < alone * (1 - 1e-9))


class TestLinkSet:
    def test_full_mask(self):
        assert interfered_links(0b1111) == (0, 1, 2, 3)

    def test_active_links_order(self):
        assert interfered_links(0b0101) == (0, 2)

    def test_mask_must_fit_width(self):
        with pytest.raises(ConfigError):
            LinkSet(0b100, width=2)

    def test_width_bounds(self):
        with pytest.raises(ConfigError):
            LinkSet(1, width=17)

    def test_profile_rejects_empty_action(self):
        with pytest.raises(ConfigError):
            ActivationProfile((LinkSet(0, 2), LinkSet(1, 2)))

    def test_profile_needs_an_entry(self):
        with pytest.raises(ConfigError, match="at least one AP entry"):
            ActivationProfile(())

    def test_profile_rejects_mixed_widths(self):
        with pytest.raises(ConfigError):
            ActivationProfile((LinkSet(1, 2), LinkSet(1, 3)))


class TestInterference:
    """Interference enters the rates through the link budget's off-diagonal."""

    def test_single_ap_sees_none(self):
        world = make_world([(50.0, 50.0)], [(50.0, 60.0)])
        power = link_budget_matrix_mw(world)
        assert power.shape == (1, 1)
        rates = rate_kernel([power], dbm_to_mw(-95.0), 80e6)(np.ones((1, 4), dtype=bool))
        snr = 10 ** ((20.0 - PL_10) / 10.0) / 10 ** (-95.0 / 10.0)
        assert rates[0] == pytest.approx(4 * 80e6 * math.log2(1.0 + snr), rel=1e-12)

    def test_inactive_link_contributes_nothing(self):
        world = make_world([(40.0, 50.0), (60.0, 50.0)], [(40.0, 60.0), (60.0, 60.0)])
        alone = achieved_rate_bps(
            make_world([(40.0, 50.0)], [(40.0, 60.0)]), profile_of(0b01), 0
        )
        # AP 1 is active only on link 1, so link 0 at STA 0 is clean.
        disjoint = achieved_rate_bps(world, profile_of(0b01, 0b10), 0)
        shared = achieved_rate_bps(world, profile_of(0b01, 0b01), 0)
        assert disjoint == pytest.approx(alone, rel=1e-12)
        assert shared < alone

    def test_known_geometry_value(self):
        # AP 1 exactly 20 m from STA 0: 10**((20 - PL(20)) / 10) mW.
        world = make_world([(40.0, 50.0), (40.0, 80.0)], [(40.0, 60.0), (40.0, 90.0)])
        expected = 10 ** ((20.0 - PL_20) / 10.0)
        assert link_budget_matrix_mw(world)[1, 0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(2.3262507107729524e-08, rel=1e-12)
        # ... and it is exactly the interference the rate sees.
        signal = 10 ** ((20.0 - PL_10) / 10.0)
        by_hand = 80e6 * math.log2(1.0 + signal / (expected + 10 ** (-95.0 / 10.0)))
        rate = achieved_rate_bps(world, profile_of(0b1, 0b1), 0)
        assert rate == pytest.approx(by_hand, rel=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(123)
        noise = dbm_to_mw(-95.0)
        for _ in range(50):
            pts = rng.uniform(0, 90, size=(3, 2))
            stas = pts + [[0, 10.0]] * 3
            world = make_world([tuple(p) for p in pts], [tuple(s) for s in stas])
            active = rng.integers(0, 2, size=(3, 4)).astype(bool)
            perm = rng.permutation(3)
            world_p = make_world([tuple(pts[j]) for j in perm], [tuple(stas[j]) for j in perm])
            power, power_p = link_budget_matrix_mw(world), link_budget_matrix_mw(world_p)
            assert power_p == pytest.approx(power[np.ix_(perm, perm)], rel=1e-12)
            rates = rate_kernel([power], noise, 80e6)(active)
            rates_p = rate_kernel([power_p], noise, 80e6)(active[perm])
            assert rates_p == pytest.approx(rates[perm], rel=1e-12)


class TestStackedWorlds:
    # The engine steps several worlds through one rate kernel on their
    # stacked (S, n, n) budgets, multiplied as (S, 1, n, n). The matmul must
    # see each world's budget through the same transposed view as a lone
    # call: a contiguous copy of it rounds differently from n = 16 on.
    @staticmethod
    def budgets(rng, n, count):
        power = []
        for _ in range(count):
            pts = rng.uniform(0, 90, size=(n, 2))
            world = make_world([tuple(p) for p in pts], [tuple(p + [0.0, 10.0]) for p in pts])
            power.append(link_budget_matrix_mw(world))
        return power

    @pytest.mark.parametrize("n", [16, 64])
    def test_stacked_call_equals_per_world_calls(self, n):
        rng = np.random.default_rng(n)
        noise = dbm_to_mw(-95.0)
        power = self.budgets(rng, n, 3)
        active = rng.random((3, 2, n, 4)) < 0.5
        stacked = rate_kernel([np.stack(power)], noise, 80e6, runs=2)(active.reshape(-1, 4))
        assert stacked.shape == (3 * 2 * n,)
        stacked = stacked.reshape(3, 2, n)
        for w in range(3):
            runs = rate_kernel([power[w]], noise, 80e6, runs=2)(active[w].reshape(-1, 4))
            assert np.array_equal(stacked[w], runs.reshape(2, n))
            for run in range(2):
                alone = rate_kernel([power[w]], noise, 80e6)(active[w, run])
                assert np.array_equal(stacked[w, run], alone)

    # Consecutive stacks of several AP counts share one pass: each world's
    # slice must equal the world alone, with leading axes too.
    def test_stacks_of_several_counts_equal_per_world_calls(self):
        rng = np.random.default_rng(5)
        noise = dbm_to_mw(-95.0)
        counts = (16, 3, 3, 1, 8, 8)
        power = [p for n in counts for p in self.budgets(rng, n, 1)]
        budgets = [power[0], np.stack(power[1:3]), power[3], np.stack(power[4:])]
        active = rng.random((5, 2 * sum(counts), 4)) < 0.5
        rates = rate_kernel(budgets, noise, 80e6, runs=2)(active)
        assert rates.shape == (5, 2 * sum(counts))
        lo = 0
        for n, budget in zip(counts, power):
            for run in range(2):
                alone = rate_kernel([budget], noise, 80e6)(active[:, lo:lo + n])
                assert np.array_equal(rates[:, lo:lo + n], alone)
                lo += n


class TestLinkMonotonicity:
    """The model's link monotonicity, on the independent oracle
    `scalar_rate_bps` over criterion 7's worlds: when AP i activates one
    more link, its own rate never falls, and no other AP's rate rises. So
    activating every link is a selfish agent's dominant action."""

    @staticmethod
    def raised(k, cases=300):
        """(world, masks, raised masks, i): each link that AP i of a drawn
        case has off, switched on in the raised masks."""
        rng = np.random.default_rng(720 + k)
        for _ in range(cases):
            world, masks, i, _ = monotonicity_case(rng, k)
            for link in range(k):
                if not masks[i] >> link & 1:
                    raised = masks.copy()
                    raised[i] |= 1 << link
                    yield world, masks, raised, i

    @classmethod
    def own_rate_falls(cls, k):
        """(cases where AP i's rate fell, cases) over `raised(k)`."""
        falls = [scalar_rate_bps(world, raised, i) < scalar_rate_bps(world, masks, i)
                 for world, masks, raised, i in cls.raised(k)]
        return sum(falls), len(falls)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_own_link_never_lowers_own_rate(self, k):
        falls, cases = self.own_rate_falls(k)
        assert cases > 100 and falls == 0

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_own_link_never_raises_another_rate(self, k):
        cases = 0
        for world, masks, raised, i in self.raised(k):
            for j in range(world.n):
                if j != i:
                    assert scalar_rate_bps(world, raised, j) <= scalar_rate_bps(world, masks, j)
                    cases += 1
        assert cases > 100

    def test_a_self_harming_link_fails_the_own_rate_property(self, monkeypatch):
        # Mutant oracle: each active link subtracts its Shannon term, so an
        # AP's own active link lowers its rate.
        monkeypatch.setattr(oracles, "math", SimpleNamespace(
            dist=math.dist, log10=math.log10, log2=lambda x: -math.log2(x)))
        assert self.own_rate_falls(3)[0] > 0


class TestAchievedRate:
    def test_isolated_single_link(self):
        world = make_world([(50.0, 50.0)], [(50.0, 60.0)])
        profile = ActivationProfile((LinkSet(0b1, 4),))
        # 80 MHz * log2(1 + 10**((20 - PL(10) + 95) / 10)), frozen from the
        # hand chain: 865.6666011 Mbps.
        assert achieved_rate_bps(world, profile, 0) == pytest.approx(
            865666601.1086223, rel=1e-12
        )

    @pytest.mark.parametrize("width", [2, 16])
    def test_profile_width_must_be_the_world_link_count(self, width):
        world = make_world([(40.0, 50.0), (60.0, 50.0)], [(40.0, 60.0), (60.0, 60.0)])
        every_link = 2**width - 1
        with pytest.raises(ConfigError, match=f"{width} link bits, scenario has 4 links"):
            achieved_rate_bps(world, profile_of(every_link, every_link, k=width), 0)

    def test_profile_must_cover_every_ap(self):
        world = make_world([(40.0, 50.0), (60.0, 50.0)], [(40.0, 60.0), (60.0, 60.0)])
        with pytest.raises(ConfigError, match="profile covers 1 APs, scenario has 2"):
            achieved_rate_bps(world, profile_of(0b1), 0)

    @pytest.mark.parametrize("i", [2, -1])
    def test_ap_index_must_be_in_range(self, i):
        world = make_world([(40.0, 50.0), (60.0, 50.0)], [(40.0, 60.0), (60.0, 60.0)])
        with pytest.raises(IndexError, match=f"AP index {i} out of range for n=2"):
            achieved_rate_bps(world, profile_of(0b1, 0b1), i)

    def test_four_identical_links_quadruple_the_rate(self):
        world = make_world([(50.0, 50.0)], [(50.0, 60.0)])
        one = achieved_rate_bps(world, ActivationProfile((LinkSet(0b1, 4),)), 0)
        four = achieved_rate_bps(world, ActivationProfile((LinkSet(0b1111, 4),)), 0)
        assert four == pytest.approx(4 * one, rel=1e-12)

    def test_equal_path_interferer_approaches_bandwidth(self):
        # Interferer at the same distance from STA 0 as its own AP: P == I,
        # so SINR -> 1 and the rate collapses to ~B on the shared link.
        world = make_world(
            [(50.0, 50.0), (50.0, 70.0)], [(50.0, 60.0), (50.0, 80.0)], k=1
        )
        profile = ActivationProfile((LinkSet(0b1, 1), LinkSet(0b1, 1)))
        rate = achieved_rate_bps(world, profile, 0)
        assert rate == pytest.approx(PHYS.bandwidth_hz_per_link, rel=1e-3)

    def test_more_interference_never_helps(self):
        # Activating an extra link at any other AP can only lower rates, on
        # the worlds of criterion 7's generator.
        rng = np.random.default_rng(7)
        cases = 0
        while cases < 1000:
            world, masks, i, j = monotonicity_case(rng)
            off = [link for link in range(3) if not masks[j] >> link & 1]
            if not off:
                continue
            baseline = achieved_rate_bps(world, profile_of(*masks, k=3), i)
            masks[j] |= 1 << off[0]
            louder = achieved_rate_bps(world, profile_of(*masks, k=3), i)
            assert louder <= baseline + 1e-9
            cases += 1

    def test_own_extra_link_never_hurts(self):
        rng = np.random.default_rng(11)
        cases = 0
        while cases < 1000:
            n = int(rng.integers(1, 4))
            pts = rng.uniform(0, 100, size=(n, 2))
            stas = pts + [0, 10.0]
            if np.any(stas > 100) or np.any(stas < 0):
                continue
            masks = rng.integers(1, 8, size=n)
            i = int(rng.integers(n))
            off = [link for link in range(3) if not masks[i] >> link & 1]
            if not off:
                continue
            world = make_world([tuple(p) for p in pts], [tuple(s) for s in stas], k=3)
            baseline = achieved_rate_bps(
                world, ActivationProfile(tuple(LinkSet(int(m), 3) for m in masks)), i
            )
            masks2 = masks.copy()
            masks2[i] |= 1 << off[0]
            richer = achieved_rate_bps(
                world, ActivationProfile(tuple(LinkSet(int(m), 3) for m in masks2)), i
            )
            assert richer >= baseline - 1e-9
            cases += 1
