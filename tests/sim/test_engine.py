"""Tests for repro.sim.engine (the unified ``simulate`` façade).

Covers kind inference, the private scalar oracle, and bit-identical
results between the per-kind simulator classes and the façade.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.caching_mdp import MDPCachingPolicy
from repro.core.lyapunov import LyapunovServiceController
from repro.exceptions import ConfigurationError
from repro.policies import PolicySpec
from repro.sim import (
    CacheSimulationResult,
    CacheSimulator,
    JointSimulationResult,
    JointSimulator,
    ServiceSimulationResult,
    ServiceSimulator,
    SimulationResult,
    simulate,
)
from repro.sim.engine import _reference
from repro.sim.scenario import ScenarioConfig


@pytest.fixture
def config():
    return ScenarioConfig.small(seed=11, num_slots=40)


class TestKindInference:
    def test_caching_policy_runs_cache_kind(self, config):
        result = simulate(config, "mdp")
        assert isinstance(result, CacheSimulationResult)
        assert type(result).kind == "cache"

    def test_service_policy_runs_service_kind(self, config):
        result = simulate(config, "lyapunov")
        assert isinstance(result, ServiceSimulationResult)

    def test_pair_runs_joint_kind(self, config):
        result = simulate(config, ("mdp", "lyapunov"))
        assert isinstance(result, JointSimulationResult)

    def test_dict_roles(self, config):
        result = simulate(config, {"caching": "mdp", "service": "lyapunov"})
        assert isinstance(result, JointSimulationResult)

    def test_policy_instances_accepted(self, config):
        policy = MDPCachingPolicy(config.build_mdp_config())
        result = simulate(config, policy)
        assert isinstance(result, CacheSimulationResult)

    def test_explicit_kind_mismatch_rejected(self, config):
        with pytest.raises(ConfigurationError, match="kind"):
            simulate(config, "mdp", kind="service")

    def test_wrong_role_in_slot_rejected(self, config):
        with pytest.raises(ConfigurationError, match="caching"):
            simulate(config, ("lyapunov", "mdp"))

    def test_unknown_role_key_rejected(self, config):
        with pytest.raises(ConfigurationError, match="role"):
            simulate(config, {"cache": "mdp"})

    def test_service_batch_rejected_for_cache(self, config):
        with pytest.raises(ConfigurationError, match="service_batch"):
            simulate(config, "mdp", service_batch=2)


class TestShimEquivalence:
    """The per-kind simulator classes stay bit-identical to the façade."""

    def test_cache_simulator_run_matches_simulate(self, config):
        old = CacheSimulator(
            config, MDPCachingPolicy(config.build_mdp_config())
        ).run()
        new = simulate(config, "mdp")
        assert old.summary() == new.summary()
        assert np.array_equal(old.cumulative_reward, new.cumulative_reward)
        assert np.array_equal(
            old.metrics.age_matrix_history(), new.metrics.age_matrix_history()
        )

    def test_cache_reference_matches_simulate_reference(self, config):
        old = _reference(config, MDPCachingPolicy(config.build_mdp_config()))
        new = simulate(config, "mdp")
        assert old.summary() == new.summary()
        assert np.array_equal(old.cumulative_reward, new.cumulative_reward)

    def test_service_simulator_run_matches_simulate(self, config):
        old = ServiceSimulator(
            config, LyapunovServiceController(config.tradeoff_v)
        ).run()
        new = simulate(config, "lyapunov")
        assert old.summary() == new.summary()
        assert np.array_equal(old.latency_history, new.latency_history)

    def test_joint_simulator_run_matches_simulate(self, config):
        old = JointSimulator(
            config,
            MDPCachingPolicy(config.build_mdp_config()),
            LyapunovServiceController(config.tradeoff_v),
        ).run()
        new = simulate(config, ("mdp", "lyapunov"))
        assert old.summary() == new.summary()

    def test_run_batch_matches_simulate_batch(self, config):
        seeds = [2, 5, 9]
        old = CacheSimulator(
            config, MDPCachingPolicy(config.build_mdp_config())
        ).run_batch(seeds)
        new = simulate(config, "mdp", seeds=seeds)
        assert len(old) == len(new) == 3
        for mine, theirs in zip(old, new):
            assert mine.summary() == theirs.summary()
            assert np.array_equal(
                mine.cumulative_reward, theirs.cumulative_reward
            )


class TestModesAgree:
    def test_all_modes_bit_identical(self, config):
        seeds = [3, 8]
        auto = simulate(config, "mdp", seeds=seeds)
        reference = _reference(config, "mdp", seeds=seeds)
        singles = [
            simulate(config.with_overrides(seed=seed), "mdp") for seed in seeds
        ]
        for group in (reference, singles):
            for mine, theirs in zip(auto, group):
                assert mine.summary() == theirs.summary()
                assert np.array_equal(
                    mine.cumulative_reward, theirs.cumulative_reward
                )

    def test_joint_modes_agree(self, config):
        seeds = [1, 4]
        batch = simulate(config, ("mdp", "lyapunov"), seeds=seeds)
        reference = _reference(config, ("mdp", "lyapunov"), seeds=seeds)
        for mine, theirs in zip(batch, reference):
            assert mine.summary() == theirs.summary()

    def test_stochastic_instance_is_replicated_per_seed(self, config):
        # Each seed must start from a pristine copy of a supplied policy
        # instance on every path; sharing one instance would advance its
        # RNG across seeds and break the cross-path contract.
        from repro.baselines.caching import RandomUpdatePolicy

        seeds = [3, 11]
        batch = simulate(config, RandomUpdatePolicy(0.5, rng=7), seeds=seeds)
        reference = _reference(config, RandomUpdatePolicy(0.5, rng=7), seeds=seeds)
        singles = [
            simulate(config.with_overrides(seed=seed), RandomUpdatePolicy(0.5, rng=7))
            for seed in seeds
        ]
        for group in (reference, singles):
            for mine, theirs in zip(batch, group):
                assert mine.summary() == theirs.summary()

    def test_int_seeds_match_runner_derivation(self, config):
        from repro.utils.rng import spawn_run_seeds

        implicit = simulate(config, "mdp", seeds=3)
        explicit = simulate(
            config, "mdp", seeds=spawn_run_seeds(config.seed, 3)
        )
        for mine, theirs in zip(implicit, explicit):
            assert mine.summary() == theirs.summary()
            assert mine.config.seed == theirs.config.seed


class TestResultSurface:
    def test_rows_have_stable_prefix(self, config):
        result = simulate(config, "mdp")
        (row,) = result.rows()
        assert list(row)[:3] == ["kind", "seed", "workload"]
        assert row["kind"] == "cache"
        assert row["workload"] == "stationary"

    def test_to_dict_is_json_serializable(self, config):
        import json

        result = simulate(config, ("mdp", "lyapunov"))
        text = json.dumps(result.to_dict())
        data = json.loads(text)
        assert data["kind"] == "joint"
        assert data["workload"]["name"] == "stationary"
        assert data["summary"]["caching_policy"] == "mdp"

    def test_results_share_the_base_class(self, config):
        for policies in ("mdp", "lyapunov", ("mdp", "lyapunov")):
            assert isinstance(simulate(config, policies), SimulationResult)

    def test_spec_built_policies_with_params(self, config):
        result = simulate(config, PolicySpec.parse("threshold:threshold=0.5"))
        assert result.summary()["policy"] == "threshold"


class TestMultihopDispatch:
    """PR 8: the façade routes on-path policies through the network core."""

    def test_onpath_name_infers_multihop(self, config):
        pytest.importorskip("networkx")
        result = simulate(config, "lce")
        assert type(result).kind == "multihop"

    def test_mixed_role_grid_runs_policy_major(self, config):
        pytest.importorskip("networkx")
        results = simulate(
            config, ["lce", "probcache:t_tw=10", "mdp"], seeds=2
        )
        assert len(results) == 6
        assert [r.policy_name for r in results] == [
            "lce", "lce", "probcache", "probcache", "mdp", "mdp"
        ]
        assert all(type(r).kind == "multihop" for r in results)

    def test_explicit_kind_runs_caching_policy_as_placement(self, config):
        pytest.importorskip("networkx")
        result = simulate(config, "mdp", kind="multihop")
        assert type(result).kind == "multihop"
        assert result.summary()["total_served"] == result.summary()[
            "total_requests"
        ]

    def test_joint_pair_keeps_historical_meaning(self, config):
        result = simulate(config, ("mdp", "lyapunov"))
        assert isinstance(result, JointSimulationResult)

    def test_kind_mismatch_rejected(self, config):
        pytest.importorskip("networkx")
        with pytest.raises(ConfigurationError, match="kind"):
            simulate(config, "lce", kind="cache")

    def test_service_batch_rejected(self, config):
        pytest.importorskip("networkx")
        with pytest.raises(ConfigurationError, match="service_batch"):
            simulate(config, "lce", service_batch=2)

    def test_modes_bit_identical(self, config):
        pytest.importorskip("networkx")
        single = simulate(config, "lcd")
        (batched,) = simulate(config, "lcd", seeds=[config.seed])
        assert single.summary() == batched.summary()

    def test_oracle_has_no_multihop_loop(self, config):
        with pytest.raises(ConfigurationError, match="multihop"):
            _reference(config, "lcd")
