"""Tests for repro.policies (the policy registry and PolicySpec)."""

from __future__ import annotations

import pickle

import pytest

from repro.baselines.caching import ThresholdUpdatePolicy
from repro.core.caching_mdp import MDPCachingPolicy
from repro.core.lyapunov import LyapunovServiceController
from repro.exceptions import ConfigurationError
from repro.policies import (
    PolicySpec,
    available_policies,
    create_policy,
    get_policy_entry,
    list_policies,
    register_policy,
)
from repro.sim.scenario import ScenarioConfig


class TestCatalog:
    EXPECTED_CACHING = {
        "always", "mdp", "myopic", "never", "periodic", "random", "threshold",
    }
    EXPECTED_SERVICE = {
        "always-serve", "backlog-threshold", "cost-greedy",
        "fixed-probability", "lyapunov", "never-serve",
    }

    EXPECTED_ONPATH = {
        "cl4m", "edge", "lcd", "lce", "partition", "probcache",
    }

    def test_every_builtin_policy_is_registered(self):
        assert set(list_policies("caching")) == self.EXPECTED_CACHING
        assert set(list_policies("service")) == self.EXPECTED_SERVICE
        assert set(list_policies("onpath")) == self.EXPECTED_ONPATH
        assert set(list_policies()) == (
            self.EXPECTED_CACHING | self.EXPECTED_SERVICE | self.EXPECTED_ONPATH
        )

    def test_available_policies_have_descriptions(self):
        for name, description in available_policies().items():
            assert description, name

    def test_unknown_name_error_lists_registered(self):
        with pytest.raises(ConfigurationError, match="unknown policy 'nope'"):
            get_policy_entry("nope")
        with pytest.raises(ConfigurationError, match="mdp"):
            PolicySpec("nope")

    def test_bad_role_rejected(self):
        with pytest.raises(ConfigurationError, match="role"):
            list_policies("neither")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):

            @register_policy("mdp", role="caching")
            def duplicate(scenario):  # pragma: no cover - never built
                return None


class TestPolicySpec:
    def test_params_canonicalised_and_order_insensitive(self):
        a = PolicySpec.create("mdp", mode="auto")
        b = PolicySpec("mdp")
        assert a == b
        assert hash(a) == hash(b)
        assert a.params == b.params

    def test_int_coerced_to_float_default(self):
        # threshold's default is the float 0.8, so integer spellings
        # canonicalise to float and the two specs hash equal.
        a = PolicySpec.parse("threshold:threshold=1")
        b = PolicySpec.create("threshold", threshold=1.0)
        assert a == b
        assert hash(a) == hash(b)
        assert isinstance(dict(a.params)["threshold"], float)

    def test_unknown_parameter_error_names_known(self):
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            PolicySpec.parse("threshold:cutoff=0.5")
        with pytest.raises(ConfigurationError, match="threshold"):
            PolicySpec.parse("threshold:cutoff=0.5")

    def test_malformed_parameter_message(self):
        with pytest.raises(ConfigurationError, match="expected k=v"):
            PolicySpec.parse("mdp:mode")

    def test_role_property_and_coerce_role_check(self):
        assert PolicySpec("mdp").role == "caching"
        assert PolicySpec("lyapunov").role == "service"
        with pytest.raises(ConfigurationError, match="caching policy"):
            PolicySpec.coerce("mdp", role="service")

    def test_label_elides_defaults(self):
        assert PolicySpec("mdp").label() == "mdp"
        assert PolicySpec.parse("mdp:mode=factored").label() == "mdp(mode=factored)"

    def test_to_dict_round_trip(self):
        spec = PolicySpec.parse("cost-greedy:backlog_cap=50")
        assert PolicySpec.from_dict(spec.to_dict()) == spec

    def test_picklable(self):
        spec = PolicySpec.parse("mdp:mode=factored")
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestBuild:
    def test_build_mdp_matches_direct_construction(self, small_config):
        built = PolicySpec("mdp").build(small_config)
        direct = MDPCachingPolicy(small_config.build_mdp_config())
        assert isinstance(built, MDPCachingPolicy)
        assert type(built) is type(direct)

    def test_spec_is_a_callable_factory(self, small_config):
        policy = PolicySpec("threshold")(small_config)
        assert isinstance(policy, ThresholdUpdatePolicy)
        assert policy.threshold == 0.8

    def test_lyapunov_defaults_to_scenario_tradeoff(self):
        scenario = ScenarioConfig.small(tradeoff_v=42.0)
        policy = create_policy("lyapunov", scenario)
        assert isinstance(policy, LyapunovServiceController)
        assert policy.tradeoff_v == 42.0

    def test_lyapunov_explicit_tradeoff_wins(self):
        scenario = ScenarioConfig.small(tradeoff_v=42.0)
        policy = create_policy("lyapunov:tradeoff_v=5", scenario)
        assert policy.tradeoff_v == 5.0

    def test_myopic_defaults_to_scenario_weight(self):
        scenario = ScenarioConfig.small(aoi_weight=3.5)
        policy = create_policy("myopic", scenario)
        assert policy.weight == 3.5

    def test_stochastic_policy_is_deterministic_per_scenario(self, small_config):
        a = create_policy("random", small_config)
        b = create_policy("random", small_config)
        draws_a = [a._rng.random() for _ in range(5)]
        draws_b = [b._rng.random() for _ in range(5)]
        assert draws_a == draws_b

    def test_bad_parameter_value_fails_at_build(self, small_config):
        spec = PolicySpec.parse("threshold:threshold=2.0")
        with pytest.raises(Exception):
            spec.build(small_config)


class TestCustomRegistration:
    def test_registered_factory_round_trips_through_spec(self, small_config):
        @register_policy("test-custom", role="caching")
        def build_custom(scenario, *, cutoff: float = 0.5):
            return ThresholdUpdatePolicy(cutoff)

        try:
            spec = PolicySpec.parse("test-custom:cutoff=0.25")
            policy = spec.build(small_config)
            assert policy.threshold == 0.25
            assert "test-custom" in list_policies("caching")
        finally:
            from repro.policies import registry

            registry._REGISTRY.pop("test-custom", None)

    def test_builder_without_defaults_rejected(self):
        with pytest.raises(ConfigurationError, match="no\\s+default"):

            @register_policy("test-bad", role="caching")
            def build_bad(scenario, knob):  # pragma: no cover - never built
                return None
