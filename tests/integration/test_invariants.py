"""Cross-module invariants: conservation and accounting laws of the simulators.

These tests check relationships that must hold between quantities recorded by
*different* modules (workload, queues, caches, reward accounting), so a bug
in any one of them that silently skews an experiment shows up here even if
that module's own unit tests still pass.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.caching import standard_caching_baselines
from repro.baselines.service import AlwaysServePolicy
from repro.core.caching_mdp import MDPCachingPolicy
from repro.core.lyapunov import LyapunovServiceController
from repro.core.reward import UtilityFunction
from repro.sim.scenario import ScenarioConfig
from repro.sim import CacheSimulator, ServiceSimulator


class TestCacheAccountingInvariants:
    """Reward accounting must be consistent with the recorded actions and ages."""

    @pytest.fixture(scope="class")
    def result(self):
        config = ScenarioConfig.fig1a(seed=8).with_overrides(num_slots=150)
        policy = MDPCachingPolicy(config.build_mdp_config())
        return CacheSimulator(config, policy).run()

    def test_total_updates_equals_action_history_sum(self, result):
        actions = result.metrics.action_matrix_history()
        assert result.metrics.total_updates == int(actions.sum())

    def test_cost_equals_updates_times_unit_cost(self, result):
        # The Fig. 1a scenario uses a constant cost model, so Eq. (3) reduces
        # to (number of updates) x (unit cost).
        config = result.config
        expected = result.metrics.total_updates * config.update_cost
        assert result.metrics.reward.total_cost == pytest.approx(expected)

    def test_total_reward_is_weighted_difference(self, result):
        trace = result.metrics.reward
        expected = result.config.aoi_weight * trace.total_aoi_utility - trace.total_cost
        assert trace.total_reward == pytest.approx(expected)

    def test_cumulative_reward_last_equals_total(self, result):
        assert result.cumulative_reward[-1] == pytest.approx(
            result.metrics.reward.total_reward
        )

    def test_recorded_ages_respect_update_resets(self, result):
        """Wherever an update was applied, the recorded age is the refresh age."""
        ages = result.metrics.age_matrix_history()
        actions = result.metrics.action_matrix_history()
        refreshed = ages[actions == 1]
        assert np.all(refreshed == 1.0)

    def test_ages_grow_by_at_most_one_between_slots(self, result):
        ages = result.metrics.age_matrix_history()
        deltas = np.diff(ages, axis=0)
        assert np.all(deltas <= 1.0 + 1e-9)

    def test_every_policy_preserves_accounting(self):
        config = ScenarioConfig.small(seed=4)
        for name, policy in standard_caching_baselines(rng=0).items():
            result = CacheSimulator(config, policy).run(num_slots=40)
            trace = result.metrics.reward
            expected = config.aoi_weight * trace.total_aoi_utility - trace.total_cost
            assert trace.total_reward == pytest.approx(expected), name


class TestServiceConservationInvariants:
    """Requests are conserved: arrived == served + still pending (+ expired)."""

    def _run(self, policy, *, num_slots=200, seed=9, deadline=None):
        config = ScenarioConfig.fig1b(seed=seed).with_overrides(
            num_slots=num_slots, deadline_slots=deadline
        )
        return config, ServiceSimulator(config, policy).run()

    def test_conservation_under_always_serve(self):
        """Under always-serve no request waits more than one slot (a fresh
        arrival has zero accumulated latency, so the policy fires at the
        latest on the following slot and then drains the whole queue).  Each
        request therefore appears in the pre-service backlog snapshot of at
        most two consecutive slots, bounding the backlog history in terms of
        the served total, and no RSU ever holds more than two pending
        requests under the at-most-one-Bernoulli-arrival workload."""
        config, result = self._run(AlwaysServePolicy())
        backlog_history = result.metrics.backlog_history()
        served = result.metrics.total_served
        assert served <= backlog_history.sum() <= 2 * served + 2 * config.num_rsus
        assert np.all(backlog_history <= 2 * config.num_rsus)

    def test_conservation_under_lyapunov(self):
        """Both policies face the identical seeded workload, so the Lyapunov
        policy can never serve more requests than always-serve, and whatever
        it has not served yet is bounded by its own peak backlog plus the
        worst-case arrivals of the final slot."""
        config, result = self._run(LyapunovServiceController(10.0))
        _, always = self._run(AlwaysServePolicy())
        assert result.metrics.total_served <= always.metrics.total_served
        unserved = always.metrics.total_served - result.metrics.total_served
        assert unserved <= result.metrics.peak_backlog + config.num_rsus

    def test_backlog_never_negative(self):
        _, result = self._run(LyapunovServiceController(10.0))
        assert np.all(result.metrics.backlog_history() >= 0)
        assert np.all(result.metrics.latency_history() >= 0)

    def test_costs_only_charged_on_service(self):
        _, result = self._run(LyapunovServiceController(1e12))
        # With an astronomically large V nothing is ever served, so no cost
        # may be charged.
        assert result.metrics.total_served == 0
        assert result.metrics.total_cost == 0.0


class TestRewardFunctionInvariants:
    """Pure-function invariants of the Eq. (1) evaluator."""

    @given(
        ages=st.lists(st.floats(min_value=1.0, max_value=30.0), min_size=1, max_size=6),
        weight=st.floats(min_value=0.0, max_value=10.0),
        cost=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_reward_decomposes_additively_over_contents(self, ages, weight, cost):
        """Eq. (1) over n contents equals the sum of n single-content rewards."""
        n = len(ages)
        max_ages = [20.0] * n
        costs = [cost] * n
        actions = [1 if i % 2 == 0 else 0 for i in range(n)]
        whole = UtilityFunction(max_ages, costs, weight=weight).total(
            [ages], [actions]
        )
        parts = sum(
            UtilityFunction([20.0], [cost], weight=weight).total(
                [[ages[i]]], [[actions[i]]]
            )
            for i in range(n)
        )
        assert whole == pytest.approx(parts)

    @given(
        age=st.floats(min_value=1.0, max_value=30.0),
        weight=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_skip_reward_independent_of_cost(self, age, weight):
        cheap = UtilityFunction([15.0], [0.1], weight=weight).total([[age]], [[0]])
        pricey = UtilityFunction([15.0], [9.9], weight=weight).total([[age]], [[0]])
        assert cheap == pytest.approx(pricey)
