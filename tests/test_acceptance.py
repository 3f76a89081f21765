"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. The batch criteria are
heavy (hundreds of seconds); scenario tasks are spread over a worker pool
sized to the machine.

Criteria 1 and 2 assert the published comparison targets (strategy
ordering with RL above Random, and per-scheme means within +-40% of the
reported Mbps values at a -95 dBm noise floor). Faithful evaluation of
the stated rate model in this geometry does not produce those targets:
interference here is too mild to crush the fixed scheme by two orders of
magnitude, and time-diversity makes the random scheme outperform the
selfish local learner. The assertions are kept as written rather than
loosened, so those two tests document the discrepancy by failing; the
printed lines carry the measured values.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from mlosim import (
    ActivationProfile,
    ExperimentConfig,
    LinkSet,
    PhysicalConfig,
    Scenario,
    Strategy,
    achieved_rate_bps,
    min_rate_timeseries,
    run_batch,
    run_scenario,
    sample_scenario,
)
from mlosim.agents import Tables, credit
from mlosim.codec import dumps
from mlosim.harness import compute_ecdf, density_sweep, run_seed, scenario_for_index
from mlosim.radio import all_neighbor_sets, pathloss_db
from mlosim.rng import generator
from oracles import max_min_optima

WORKERS = min(8, os.cpu_count() or 1)

PAPER_MEANS_MBPS = {
    Strategy.FEDERATED_RL: 193.212,
    Strategy.LOCAL_RL: 156.204,
    Strategy.RANDOM: 62.952,
    Strategy.FIXED: 1.485,
}

FULL_BATCH_CONFIG = ExperimentConfig(
    num_scenarios=500,
    iterations=2000,
    n_values=(8,),
    k=4,
    master_seed=20240,
    workers=WORKERS,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def full_batch():
    t0 = time.time()
    summary = run_batch(FULL_BATCH_CONFIG)
    return summary, time.time() - t0


@pytest.fixture(scope="module")
def convergence_batch():
    cfg = replace(FULL_BATCH_CONFIG, num_scenarios=50, master_seed=20242)
    return cfg, run_batch(cfg)


@pytest.fixture(scope="module")
def density_summaries():
    cfg = replace(
        FULL_BATCH_CONFIG,
        num_scenarios=100,
        n_values=(2, 4, 8, 12, 16),
        master_seed=20243,
    )
    return density_sweep(cfg)


class TestCriterion1StrategyOrdering:
    def test_full_batch_means(self, full_batch):
        summary, elapsed = full_batch
        means = {
            s: stats.mean_min_rate_bps / 1e6
            for s, stats in summary.per_strategy.items()
        }
        order_ok = (
            means[Strategy.FEDERATED_RL]
            > means[Strategy.LOCAL_RL]
            > means[Strategy.RANDOM]
            > means[Strategy.FIXED]
        )
        frl_margin_ok = means[Strategy.FEDERATED_RL] >= 1.15 * means[Strategy.LOCAL_RL]
        fixed_small_ok = means[Strategy.FIXED] < 0.05 * means[Strategy.FEDERATED_RL]
        bands_ok = {
            s: abs(means[s] - PAPER_MEANS_MBPS[s]) <= 0.40 * PAPER_MEANS_MBPS[s]
            for s in Strategy
        }
        measured = ", ".join(f"{s.value}={means[s]:.1f}" for s in Strategy)
        ok = order_ok and frl_margin_ok and fixed_small_ok and all(bands_ok.values())
        report(
            1,
            ok,
            f"means Mbps: {measured}; order={order_ok}, frl>=1.15rl={frl_margin_ok}, "
            f"fixed<5%frl={fixed_small_ok}, "
            f"bands={{{', '.join(f'{s.value}:{v}' for s, v in bands_ok.items())}}}; "
            f"wall={elapsed:.0f}s workers={WORKERS}",
        )
        assert order_ok, f"required FRL > RL > Random > Fixed, measured {measured}"
        assert frl_margin_ok
        assert fixed_small_ok
        assert all(bands_ok.values()), f"means outside +-40% of published values: {bands_ok}"


class TestCriterion2Convergence:
    def test_running_average_ordering_at_final_iteration(self, convergence_batch):
        cfg, summary = convergence_batch
        # The running average of the worst AP at t=T equals the scenario's
        # min rate, verified explicitly on the first draw below.
        sc = scenario_for_index(cfg, 8, 0)
        res = run_scenario(
            sc, Strategy.FEDERATED_RL, cfg.iterations,
            run_seed(cfg, 8, 0, Strategy.FEDERATED_RL),
        )
        assert min_rate_timeseries(res)[-1] == pytest.approx(
            summary.per_strategy[Strategy.FEDERATED_RL].min_rates_bps[0], rel=1e-12
        )

        values = {s: np.array(summary.per_strategy[s].min_rates_bps) for s in Strategy}
        chain = (
            (values[Strategy.FEDERATED_RL] > values[Strategy.LOCAL_RL])
            & (values[Strategy.LOCAL_RL] > values[Strategy.RANDOM])
            & (values[Strategy.RANDOM] > values[Strategy.FIXED])
        )
        frac = chain.mean()
        links = {
            "frl>rl": (values[Strategy.FEDERATED_RL] > values[Strategy.LOCAL_RL]).mean(),
            "rl>random": (values[Strategy.LOCAL_RL] > values[Strategy.RANDOM]).mean(),
            "random>fixed": (values[Strategy.RANDOM] > values[Strategy.FIXED]).mean(),
        }
        ok = frac >= 0.90
        report(
            2,
            ok,
            f"full ordering in {frac:.0%} of 50 draws (need >=90%); links: "
            + ", ".join(f"{k}={v:.0%}" for k, v in links.items()),
        )
        assert ok, f"ordering held in only {frac:.0%} of draws; per-link {links}"


class TestCriterion3DensityTrend:
    def test_monotone_and_frl_scales(self, density_summaries):
        densities = sorted(density_summaries)
        means = {
            s: [density_summaries[n].per_strategy[s].mean_min_rate_bps for n in densities]
            for s in Strategy
        }
        monotone = {
            s: all(seq[i + 1] <= seq[i] * 1.05 for i in range(len(seq) - 1))
            for s, seq in means.items()
        }
        frl16 = means[Strategy.FEDERATED_RL][-1]
        fixed16 = means[Strategy.FIXED][-1]
        scale_ok = frl16 >= 10.0 * fixed16
        ok = all(monotone.values()) and scale_ok
        monotone_txt = ", ".join(f"{s.value}={m}" for s, m in monotone.items())
        report(
            3,
            ok,
            f"non-increasing: {monotone_txt}; "
            f"frl@16={frl16 / 1e6:.1f} Mbps vs fixed@16={fixed16 / 1e6:.1f} Mbps "
            f"({frl16 / max(fixed16, 1e-9):.1f}x, need >=10x)",
        )
        for s, is_monotone in monotone.items():
            assert is_monotone, f"{s.value} mean min-rate increased by >5% between densities"
        assert scale_ok


class TestCriterion4BruteForceOracle:
    def test_frl_concentrates_on_max_min_optimum(self):
        # Heavily overlapping pair: each STA sits 1 m from the other AP.
        world = Scenario(
            area_side_m=100.0,
            ap_positions=((45.0, 50.0), (56.0, 50.0)),
            sta_positions=((55.0, 50.0), (46.0, 50.0)),
            ap_sta_distance_m=10.0,
            num_links=2,
            physical=PhysicalConfig(),
        )
        _, optima = max_min_optima(world)
        assert optima == {(0b01, 0b10), (0b10, 0b01)}, "oracle sanity check"

        fracs = []
        for seed in range(100):
            res = run_scenario(world, Strategy.FEDERATED_RL, T=2000, seed=seed)
            final = res.action_masks[-200:]
            hits = sum(tuple(row) in optima for row in final.tolist())
            fracs.append(hits / 200)
        mean_mass = float(np.mean(fracs))
        ok = mean_mass >= 0.80
        report(
            4,
            ok,
            f"mean final-200 mass on max-min optima = {mean_mass:.3f} over 100 seeds "
            f"(need >=0.80)",
        )
        assert ok


class TestCriterion5NumericalOracles:
    def test_numerical_unit_checks(self):
        value = pathloss_db(10.0, PhysicalConfig())
        pathloss_ok = abs(value - 82.428) <= 1e-3

        world = Scenario(
            area_side_m=100.0,
            ap_positions=((50.0, 50.0),),
            sta_positions=((50.0, 60.0),),
            ap_sta_distance_m=10.0,
            num_links=4,
            physical=PhysicalConfig(),
        )
        rate = achieved_rate_bps(world, ActivationProfile((LinkSet(0b1, 4),)), 0)
        rate_ok = abs(rate - 865.9e6) <= 0.005 * 865.9e6

        rng = generator(515)
        means_ok = True
        for _ in range(1000):
            rewards = rng.uniform(0.0, 4e9, size=int(rng.integers(1, 60)))
            tables = Tables(1, 1)
            for r in rewards:
                credit(tables, np.array([0]), np.array([r]), tables.flat_means[:1].copy())
            batch = float(rewards.mean())
            if abs(tables.means[0, 0] - batch) > 1e-9 * abs(batch):
                means_ok = False
                break

        ok = pathloss_ok and rate_ok and means_ok
        report(
            5,
            ok,
            f"PL(10)={value:.5f} dB (target 82.428+-1e-3), isolated link "
            f"{rate / 1e6:.2f} Mbps (target 865.9+-0.5%), incremental==batch mean "
            f"over 1000 sequences={means_ok}",
        )
        assert pathloss_ok and rate_ok and means_ok


class TestCriterion6Determinism:
    def test_byte_identical_artifacts(self):
        sc = sample_scenario(generator(606), n=4, k=4, area_side_m=100.0, d=10.0)
        runs = [dumps(run_scenario(sc, Strategy.FEDERATED_RL, T=60, seed=7)) for _ in range(2)]
        run_ok = runs[0] == runs[1]

        cfg = ExperimentConfig(
            num_scenarios=8, iterations=50, n_values=(4,), master_seed=616, workers=1
        )
        serial = dumps(run_batch(cfg))
        pooled = dumps(run_batch(replace(cfg, workers=8)))
        rerun = dumps(run_batch(cfg))
        batch_ok = serial == pooled == rerun
        report(
            6,
            run_ok and batch_ok,
            f"run serialization identical={run_ok}, "
            f"batch identical across reruns and workers 1 vs 8={batch_ok}",
        )
        assert run_ok and batch_ok


class TestCriterion7Invariants:
    def test_invariant_suite(self):
        rng = generator(717)

        # ECDF monotonicity, 1000 random value sets
        for _ in range(1000):
            values = rng.uniform(0, 1e9, size=int(rng.integers(1, 40)))
            points = compute_ecdf(values.tolist())
            fractions = [f for _, f in points]
            assert fractions == sorted(fractions)
            assert fractions[0] == pytest.approx(1 / len(values))
            assert fractions[-1] == pytest.approx(1.0)
            rates = [r for r, _ in points]
            assert rates == sorted(rates)
        ecdf_cases = 1000

        # FRL global reward never above local, checked per (t, ap)
        frl_cases = 0
        for seed in range(4):
            sc = sample_scenario(generator(730 + seed), n=5, k=3, area_side_m=100.0, d=10.0)
            res = run_scenario(sc, Strategy.FEDERATED_RL, T=100, seed=seed)
            assert np.all(res.global_rewards <= res.rates_bps + 1e-9)
            frl_cases += res.T * res.n

        # neighbor symmetry/irreflexivity over 1000 sampled worlds
        for seed in range(1000):
            sc = sample_scenario(generator(5000 + seed), n=5, k=1, area_side_m=100.0, d=10.0)
            sets = all_neighbor_sets(sc)
            for i, nbrs in enumerate(sets):
                assert i not in nbrs
                for j in nbrs:
                    assert i in sets[j]
        neighbor_cases = 1000

        # rate monotonicity when any other AP activates one more link
        mono_cases = 0
        while mono_cases < 1000:
            n = int(rng.integers(2, 5))
            pts = rng.uniform(0, 90, size=(n, 2))
            stas = pts + [0.0, 10.0]
            world = Scenario(
                area_side_m=100.0,
                ap_positions=tuple(map(tuple, pts)),
                sta_positions=tuple(map(tuple, stas)),
                ap_sta_distance_m=10.0,
                num_links=3,
            )
            masks = rng.integers(1, 8, size=n)
            i = int(rng.integers(n))
            j = int((i + 1 + rng.integers(n - 1)) % n)
            off = [link for link in range(3) if not masks[j] >> link & 1]
            if not off:
                continue
            base_profile = ActivationProfile(tuple(LinkSet(int(m), 3) for m in masks))
            masks[j] |= 1 << off[0]
            loud_profile = ActivationProfile(tuple(LinkSet(int(m), 3) for m in masks))
            assert achieved_rate_bps(world, loud_profile, i) <= achieved_rate_bps(
                world, base_profile, i
            ) + 1e-9
            mono_cases += 1

        report(
            7,
            True,
            f"ecdf={ecdf_cases}, frl-dominance={frl_cases}, neighbor-symmetry="
            f"{neighbor_cases}, rate-monotonicity={mono_cases} cases, all held",
        )
