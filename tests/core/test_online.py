"""Tests for repro.core.online (model-free Q-learning caching policy)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.online import OnlineLearningConfig, QLearningCachingPolicy
from repro.core.policies import CacheObservation
from repro.exceptions import ValidationError
from repro.sim.scenario import ScenarioConfig
from repro.sim import CacheSimulator
from repro.baselines.caching import NeverUpdatePolicy


def make_observation(ages, costs=None, time_slot=0):
    ages = np.asarray(ages, dtype=float)
    if costs is None:
        costs = np.full_like(ages, 0.5)
    return CacheObservation(
        time_slot=time_slot,
        ages=ages,
        max_ages=np.full_like(ages, 6.0),
        popularity=np.full_like(ages, 1.0 / ages.shape[1]),
        update_costs=np.asarray(costs, dtype=float),
    )


class TestOnlineLearningConfig:
    def test_defaults_valid(self):
        OnlineLearningConfig().validate()

    def test_bad_learning_rate_rejected(self):
        with pytest.raises(ValidationError):
            OnlineLearningConfig(learning_rate=0.0).validate()

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValidationError):
            OnlineLearningConfig(epsilon=2.0).validate()

    def test_bad_ceiling_rejected(self):
        with pytest.raises(ValidationError):
            OnlineLearningConfig(age_ceiling=0).validate()


class TestQLearningCachingPolicy:
    def test_actions_respect_constraint(self):
        policy = QLearningCachingPolicy(rng=0)
        actions = policy.decide(make_observation(np.full((3, 4), 5.0)))
        assert actions.shape == (3, 4)
        assert np.all(actions.sum(axis=1) <= 1)

    def test_learning_updates_accumulate(self):
        policy = QLearningCachingPolicy(rng=0)
        observation = make_observation(np.full((2, 2), 3.0))
        policy.decide(observation)
        assert policy.updates_applied == 0  # nothing to learn from yet
        policy.decide(make_observation(np.full((2, 2), 4.0), time_slot=1))
        assert policy.updates_applied == 4  # one update per (rsu, content)

    def test_epsilon_decays(self):
        config = OnlineLearningConfig(epsilon=0.5, epsilon_decay=0.9, min_epsilon=0.01)
        policy = QLearningCachingPolicy(config, rng=0)
        observation = make_observation(np.full((1, 2), 3.0))
        for _ in range(10):
            policy.decide(observation)
        assert policy.epsilon < 0.5
        assert policy.epsilon >= 0.01

    def test_reset_clears_learning(self):
        policy = QLearningCachingPolicy(rng=0)
        policy.decide(make_observation(np.full((1, 2), 3.0)))
        policy.decide(make_observation(np.full((1, 2), 4.0), time_slot=1))
        policy.reset()
        assert policy.updates_applied == 0
        with pytest.raises(ValidationError):
            policy.q_table(0, 0)

    def test_q_table_accessible_after_decide(self):
        policy = QLearningCachingPolicy(rng=0)
        policy.decide(make_observation(np.full((1, 2), 3.0)))
        table = policy.q_table(0, 1)
        assert table.shape == (policy._grid.num_levels, 2)

    def test_topology_change_drops_stale_experience(self):
        policy = QLearningCachingPolicy(rng=0)
        policy.decide(make_observation(np.full((1, 2), 3.0)))
        # Different shape on the next call: must not crash, must not learn.
        policy.decide(make_observation(np.full((2, 3), 3.0), time_slot=1))
        assert policy.updates_applied == 0

    def test_deterministic_given_seed(self):
        def run(seed):
            policy = QLearningCachingPolicy(rng=seed)
            observation = make_observation(np.full((2, 3), 5.0))
            return [policy.decide(observation).tolist() for _ in range(5)]

        assert run(3) == run(3)

    def test_learns_to_refresh_valuable_content(self):
        """After enough interaction, stale cheap-to-update content is refreshed."""
        config = OnlineLearningConfig(
            weight=5.0, epsilon=0.3, epsilon_decay=0.99, learning_rate=0.3
        )
        policy = QLearningCachingPolicy(config, rng=1)
        ages = np.full((1, 2), 1.0)
        for t in range(400):
            observation = make_observation(ages, costs=np.full((1, 2), 0.2), time_slot=t)
            actions = policy.decide(observation)
            ages = np.where(actions > 0, 1.0, np.minimum(ages + 1.0, 12.0))
        # The learned advantage of updating a maximally stale content must be
        # positive once learning has converged.
        table = policy.q_table(0, 0)
        assert table[-1, 1] > table[-1, 0]

    def test_runs_inside_cache_simulator_and_beats_never_update(self):
        config = ScenarioConfig.small(seed=3).with_overrides(num_slots=200)
        learner = QLearningCachingPolicy(
            OnlineLearningConfig(weight=config.aoi_weight), rng=0
        )
        learned = CacheSimulator(config, learner).run()
        never = CacheSimulator(config, NeverUpdatePolicy()).run()
        assert learned.total_reward > never.total_reward
