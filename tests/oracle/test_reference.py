"""The oracle's own contract: simulate()'s argument rules, one seed at a time."""

from __future__ import annotations

import pytest

import oracle
from oracle.compare import assert_same_run
from repro.exceptions import ConfigurationError, ValidationError
from repro.sim.scenario import ScenarioConfig
from repro.utils.rng import spawn_run_seeds

CONFIG = ScenarioConfig.small(seed=5, num_slots=12, arrival_rate=0.8)


@pytest.mark.parametrize(
    "policies", ["periodic", "lyapunov", ("random", "cost-greedy")]
)
def test_seed_lists_run_each_seed_alone(policies):
    seeds = [5, 9]
    batch = oracle.reference(CONFIG, policies, seeds=seeds)
    assert len(batch) == len(seeds)
    for seed, result in zip(seeds, batch):
        assert result.config.seed == seed
        alone = oracle.reference(CONFIG.with_overrides(seed=seed), policies)
        assert_same_run(result, alone)


def test_int_seeds_follow_the_runner_derivation():
    implicit = oracle.reference(CONFIG, "threshold", seeds=2)
    explicit = oracle.reference(CONFIG, "threshold", seeds=spawn_run_seeds(5, 2))
    for got, want in zip(implicit, explicit):
        assert_same_run(got, want)


def test_rejects_what_simulate_rejects():
    with pytest.raises(ConfigurationError, match="multihop"):
        oracle.reference(CONFIG, "lce")
    with pytest.raises(ConfigurationError, match="service_batch"):
        oracle.reference(CONFIG, "periodic", service_batch=2)
    with pytest.raises(ValidationError):
        oracle.reference(CONFIG, "lyapunov", service_batch=0)
    with pytest.raises(ValidationError):
        oracle.reference(CONFIG, "periodic", num_slots=0)
