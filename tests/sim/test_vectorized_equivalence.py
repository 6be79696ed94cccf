"""Golden-trajectory equivalence: vectorised loops vs the scalar reference.

The vectorised simulators are only allowed to be *fast*; for a fixed seed
they must reproduce the scalar test oracle (:func:`oracle.reference`)
slot for slot — the same ages, actions, reward breakdowns, backlogs,
latencies, costs, decisions and served counts, compared with exact
equality (no tolerances).  These tests pin that contract at the paper's
scenario shapes and horizons, across cost models, arrival processes,
deadlines, and service batching.
"""

from __future__ import annotations

import pytest

import oracle
from oracle.compare import assert_same_run
from repro.baselines.caching import (
    AlwaysUpdatePolicy,
    NeverUpdatePolicy,
    PeriodicUpdatePolicy,
    RandomUpdatePolicy,
)
from repro.baselines.service import AlwaysServePolicy, CostGreedyPolicy
from repro.core.caching_mdp import MDPCachingPolicy
from repro.core.lyapunov import LyapunovServiceController
from repro.sim.scenario import ScenarioConfig
from repro.sim import CacheSimulator, JointSimulator, ServiceSimulator


def assert_cache_runs_identical(config, make_policy, num_slots=None):
    assert_same_run(
        CacheSimulator(config, make_policy(config)).run(num_slots=num_slots),
        oracle.reference(config, make_policy(config), num_slots=num_slots),
    )


def assert_service_runs_identical(config, make_policy, num_slots=None, **kwargs):
    assert_same_run(
        ServiceSimulator(config, make_policy(config), **kwargs).run(
            num_slots=num_slots
        ),
        oracle.reference(config, make_policy(config), num_slots=num_slots, **kwargs),
    )


def mdp(cfg):
    return MDPCachingPolicy(cfg.build_mdp_config())


class TestCacheSimulatorEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_mdp_policy_fig1a(self, seed):
        config = ScenarioConfig.fig1a(seed=seed).with_overrides(num_slots=80)
        assert_cache_runs_identical(config, mdp)

    def test_exact_mode_small_scenario(self):
        # The small scenario keeps the joint state space under the exact
        # limit, exercising the exact-MDP decision path in both loops.
        config = ScenarioConfig.small(seed=3, num_slots=60)
        assert_cache_runs_identical(config, mdp)

    @pytest.mark.parametrize(
        "make_policy",
        [
            lambda cfg: NeverUpdatePolicy(),
            lambda cfg: AlwaysUpdatePolicy(),
            lambda cfg: PeriodicUpdatePolicy(period=3),
            lambda cfg: RandomUpdatePolicy(rate=0.4, rng=123),
        ],
        ids=["never", "always", "periodic", "random"],
    )
    def test_baseline_policies(self, make_policy):
        config = ScenarioConfig.fig1a(seed=5).with_overrides(num_slots=60)
        assert_cache_runs_identical(config, make_policy)

    def test_fading_cost_model(self):
        # Time-varying costs: the per-slot log-normal gain must hit both
        # loops in the same RNG order.
        config = ScenarioConfig.fig1a(seed=2).with_overrides(
            num_slots=60, cost_model_kind="fading", cost_sigma=0.5
        )
        assert_cache_runs_identical(config, mdp)

    def test_distance_cost_model(self):
        config = ScenarioConfig.fig1a(seed=2).with_overrides(
            num_slots=60, cost_model_kind="distance"
        )
        assert_cache_runs_identical(config, mdp)

    def test_horizon_override(self):
        config = ScenarioConfig.small(seed=9)
        assert_cache_runs_identical(config, mdp, num_slots=25)


class TestServiceSimulatorEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_lyapunov_fig1b(self, seed):
        config = ScenarioConfig.fig1b(seed=seed).with_overrides(num_slots=120)
        assert_service_runs_identical(
            config, lambda cfg: LyapunovServiceController(cfg.tradeoff_v)
        )

    def test_always_serve(self):
        config = ScenarioConfig.fig1b(seed=4).with_overrides(num_slots=100)
        assert_service_runs_identical(config, lambda cfg: AlwaysServePolicy())

    def test_cost_greedy_with_poisson_arrivals(self):
        config = ScenarioConfig.fig1b(seed=4).with_overrides(
            num_slots=100, arrival_kind="poisson", arrival_rate=2.0
        )
        assert_service_runs_identical(
            config, lambda cfg: CostGreedyPolicy(backlog_cap=20.0)
        )

    def test_deadlines_and_service_batch(self):
        # Deadline expiry removes FIFO prefixes; batching serves partial
        # queues — both paths must agree on every departure.
        config = ScenarioConfig.fig1b(seed=6).with_overrides(
            num_slots=100,
            deadline_slots=4,
            arrival_kind="poisson",
            arrival_rate=3.0,
        )
        assert_service_runs_identical(
            config, lambda cfg: LyapunovServiceController(5.0), service_batch=2
        )


class TestJointSimulatorEquivalence:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_mdp_plus_lyapunov(self, seed):
        config = ScenarioConfig.small(seed=seed, num_slots=80, arrival_rate=0.8)

        def policies():
            return (
                MDPCachingPolicy(config.build_mdp_config()),
                LyapunovServiceController(config.tradeoff_v),
            )

        assert_same_run(
            JointSimulator(config, *policies()).run(),
            oracle.reference(config, policies()),
        )

    def test_aoi_guard_blocks_identically_without_updates(self):
        # A never-updating cache stales out and the AoI guard must block
        # service at exactly the same slots in both loops.
        config = ScenarioConfig.small(seed=7).with_overrides(
            num_slots=80, arrival_rate=1.0
        )
        assert_same_run(
            JointSimulator(
                config, NeverUpdatePolicy(), LyapunovServiceController(1.0)
            ).run(),
            oracle.reference(
                config, (NeverUpdatePolicy(), LyapunovServiceController(1.0))
            ),
        )
