"""Tests for the cache, service, and joint simulators (repro.sim)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.caching import AlwaysUpdatePolicy, NeverUpdatePolicy
from repro.baselines.service import AlwaysServePolicy, NeverServePolicy
from repro.core.caching_mdp import MDPCachingPolicy
from repro.core.lyapunov import LyapunovServiceController
from repro.exceptions import ValidationError
from repro.sim.scenario import ScenarioConfig
from repro.sim import CacheSimulator, JointSimulator, ServiceSimulator


class TestCacheSimulator:
    def test_run_length_matches_horizon(self, small_config, mdp_policy):
        result = CacheSimulator(small_config, mdp_policy).run()
        assert result.metrics.num_slots_recorded == small_config.num_slots
        assert result.cumulative_reward.shape == (small_config.num_slots,)

    def test_horizon_override(self, small_config, mdp_policy):
        result = CacheSimulator(small_config, mdp_policy).run(num_slots=7)
        assert result.metrics.num_slots_recorded == 7

    def test_invalid_horizon_rejected(self, small_config, mdp_policy):
        with pytest.raises(ValidationError):
            CacheSimulator(small_config, mdp_policy).run(num_slots=0)

    def test_deterministic_given_seed(self, small_config):
        def run():
            policy = MDPCachingPolicy(small_config.build_mdp_config())
            return CacheSimulator(small_config, policy).run().total_reward

        assert run() == pytest.approx(run())

    def test_different_seeds_differ(self):
        a = ScenarioConfig.small(seed=1)
        b = ScenarioConfig.small(seed=2)
        result_a = CacheSimulator(a, MDPCachingPolicy(a.build_mdp_config())).run()
        result_b = CacheSimulator(b, MDPCachingPolicy(b.build_mdp_config())).run()
        assert result_a.total_reward != pytest.approx(result_b.total_reward)

    def test_never_update_has_zero_cost_and_growing_age(self, small_config):
        result = CacheSimulator(small_config, NeverUpdatePolicy()).run()
        summary = result.metrics.summary()
        assert summary["total_cost"] == 0.0
        assert summary["total_updates"] == 0.0
        # With no updates ages only grow (until the saturation ceiling).
        history = result.metrics.age_matrix_history()
        assert np.all(np.diff(history, axis=0) >= 0)

    def test_always_update_pays_cost_every_slot(self, small_config):
        result = CacheSimulator(small_config, AlwaysUpdatePolicy()).run()
        summary = result.metrics.summary()
        assert summary["total_updates"] == small_config.num_slots * small_config.num_rsus

    def test_mdp_beats_never_update_on_reward(self, small_config):
        mdp = CacheSimulator(
            small_config, MDPCachingPolicy(small_config.build_mdp_config())
        ).run()
        never = CacheSimulator(small_config, NeverUpdatePolicy()).run()
        assert mdp.total_reward > never.total_reward

    def test_mdp_keeps_ages_below_limits_most_of_the_time(self, fig1a_config):
        policy = MDPCachingPolicy(fig1a_config.build_mdp_config())
        result = CacheSimulator(fig1a_config, policy).run()
        assert result.metrics.violation_fraction < 0.10

    def test_summary_contains_policy_name(self, small_config, mdp_policy):
        summary = CacheSimulator(small_config, mdp_policy).run().summary()
        assert summary["policy"] == "mdp"

    def test_actions_recorded_respect_constraint(self, small_config, mdp_policy):
        result = CacheSimulator(small_config, mdp_policy).run()
        actions = result.metrics.action_matrix_history()
        assert np.all(actions.sum(axis=2) <= 1)


class TestServiceSimulator:
    def test_run_length(self, small_config):
        result = ServiceSimulator(small_config, AlwaysServePolicy()).run()
        assert result.metrics.num_slots_recorded == small_config.num_slots

    def test_always_serve_keeps_latency_low(self, fig1b_config):
        result = ServiceSimulator(fig1b_config, AlwaysServePolicy()).run()
        # Requests wait at most one slot under always-serve.
        assert result.metrics.time_average_backlog <= fig1b_config.num_rsus * 2

    def test_never_serve_latency_grows(self, fig1b_config):
        result = ServiceSimulator(fig1b_config, NeverServePolicy()).run()
        latency = result.latency_history
        assert latency[-1] > latency[len(latency) // 2] > 0
        assert not result.metrics.is_stable()

    def test_lyapunov_is_stable_and_cheaper_than_always_serve(self, fig1b_config):
        lyapunov = ServiceSimulator(
            fig1b_config, LyapunovServiceController(fig1b_config.tradeoff_v)
        ).run()
        always = ServiceSimulator(fig1b_config, AlwaysServePolicy()).run()
        assert lyapunov.metrics.is_stable()
        assert lyapunov.time_average_cost <= always.time_average_cost + 1e-9

    def test_deterministic_given_seed(self, fig1b_config):
        def run():
            return ServiceSimulator(
                fig1b_config, LyapunovServiceController(10.0)
            ).run().summary()

        first, second = run(), run()
        assert first["total_cost"] == pytest.approx(second["total_cost"])
        assert first["time_average_backlog"] == pytest.approx(
            second["time_average_backlog"]
        )

    def test_service_batch_limits_throughput(self, small_config):
        config = small_config.with_overrides(arrival_rate=1.0)
        unlimited = ServiceSimulator(config, AlwaysServePolicy()).run()
        limited = ServiceSimulator(config, AlwaysServePolicy(), service_batch=1).run()
        assert limited.metrics.total_served <= unlimited.metrics.total_served

    def test_invalid_service_batch_rejected(self, small_config):
        with pytest.raises(ValidationError):
            ServiceSimulator(small_config, AlwaysServePolicy(), service_batch=0)


class TestJointSimulator:
    def test_both_stages_recorded(self, small_config):
        result = JointSimulator(
            small_config,
            MDPCachingPolicy(small_config.build_mdp_config()),
            LyapunovServiceController(small_config.tradeoff_v),
        ).run()
        assert result.cache_metrics.num_slots_recorded == small_config.num_slots
        assert result.service_metrics.num_slots_recorded == small_config.num_slots

    def test_summary_merges_stages(self, small_config):
        result = JointSimulator(
            small_config,
            MDPCachingPolicy(small_config.build_mdp_config()),
            LyapunovServiceController(small_config.tradeoff_v),
        ).run()
        summary = result.summary()
        assert "cache_total_reward" in summary
        assert "service_total_cost" in summary
        assert summary["caching_policy"] == "mdp"
        assert summary["service_policy"] == "lyapunov"

    def test_active_cache_management_unblocks_service(self, small_config):
        """With no cache updates the AoI guard eventually blocks all service."""
        config = small_config.with_overrides(num_slots=80, arrival_rate=1.0)
        with_mdp = JointSimulator(
            config,
            MDPCachingPolicy(config.build_mdp_config()),
            LyapunovServiceController(1.0),
        ).run()
        without_updates = JointSimulator(
            config,
            NeverUpdatePolicy(),
            LyapunovServiceController(1.0),
        ).run()
        assert (
            with_mdp.service_metrics.total_served
            > without_updates.service_metrics.total_served
        )

    def test_deterministic_given_seed(self, small_config):
        def run():
            return JointSimulator(
                small_config,
                MDPCachingPolicy(small_config.build_mdp_config()),
                LyapunovServiceController(10.0),
            ).run().summary()

        a, b = run(), run()
        assert a["cache_total_reward"] == pytest.approx(b["cache_total_reward"])
        assert a["service_total_cost"] == pytest.approx(b["service_total_cost"])
