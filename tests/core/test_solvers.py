"""Tests for repro.core.solvers (value iteration and policy iteration)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mdp import TabularMDP
from repro.core.solvers import (
    policy_evaluation,
    policy_iteration,
    value_iteration,
)
from repro.exceptions import SolverError, ValidationError


def two_state_mdp(good_reward: float = 1.0) -> TabularMDP:
    """Two states, two actions; action 1 moves to state 1 which pays off."""
    transitions = np.zeros((2, 2, 2))
    transitions[0, 0, 0] = 1.0
    transitions[0, 1, 1] = 1.0
    transitions[1, 0, 1] = 1.0
    transitions[1, 1, 0] = 1.0
    rewards = np.array([[0.0, 0.0], [good_reward, 0.0]])
    return TabularMDP(transitions, rewards)


def random_mdp(rng: np.random.Generator, num_states: int, num_actions: int) -> TabularMDP:
    """A random dense MDP with rewards in [0, 1]."""
    transitions = rng.random((num_states, num_actions, num_states))
    transitions /= transitions.sum(axis=2, keepdims=True)
    rewards = rng.random((num_states, num_actions))
    return TabularMDP(transitions, rewards)


class TestValueIteration:
    def test_simple_optimal_policy(self):
        result = value_iteration(two_state_mdp(), discount=0.9)
        assert result.converged
        assert result.policy[0] == 1  # move to the rewarding state
        assert result.policy[1] == 0  # stay there

    def test_values_match_geometric_series(self):
        # Staying in state 1 earns 1 per slot, discounted.
        result = value_iteration(two_state_mdp(), discount=0.5, tolerance=1e-12)
        assert result.values[1] == pytest.approx(1.0 / (1.0 - 0.5), rel=1e-6)

    def test_zero_discount_is_myopic(self):
        result = value_iteration(two_state_mdp(), discount=0.0, tolerance=1e-12)
        np.testing.assert_allclose(result.values, [0.0, 1.0])

    def test_warm_start_accepted(self):
        mdp = two_state_mdp()
        cold = value_iteration(mdp, discount=0.9)
        warm = value_iteration(mdp, discount=0.9, initial_values=cold.values)
        assert warm.iterations <= cold.iterations
        np.testing.assert_allclose(warm.values, cold.values, atol=1e-6)

    def test_bad_initial_values_shape_rejected(self):
        with pytest.raises(ValidationError):
            value_iteration(two_state_mdp(), initial_values=np.zeros(5))

    def test_non_convergence_raises(self):
        with pytest.raises(SolverError):
            value_iteration(two_state_mdp(), discount=0.99, max_iterations=2)

    def test_residual_history_monotone_overall(self):
        result = value_iteration(two_state_mdp(), discount=0.9)
        assert result.history[-1] <= result.history[0]

    def test_q_values_consistent_with_values(self):
        result = value_iteration(two_state_mdp(), discount=0.9, tolerance=1e-12)
        np.testing.assert_allclose(
            result.q_values.max(axis=1), result.values, atol=1e-6
        )

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_property_values_bounded_by_reward_over_one_minus_gamma(self, seed):
        rng = np.random.default_rng(seed)
        mdp = random_mdp(rng, 5, 3)
        discount = 0.8
        result = value_iteration(mdp, discount=discount, tolerance=1e-8)
        upper = 1.0 / (1.0 - discount) + 1e-6
        assert np.all(result.values <= upper)
        assert np.all(result.values >= -1e-9)


class TestPolicyEvaluation:
    def test_matches_closed_form(self):
        mdp = two_state_mdp()
        values = policy_evaluation(mdp, np.array([1, 0]), discount=0.5)
        # v(1) = 1 + 0.5 v(1) -> 2 ; v(0) = 0 + 0.5 v(1) -> 1
        np.testing.assert_allclose(values, [1.0, 2.0], atol=1e-9)

    def test_policy_shape_checked(self):
        with pytest.raises(ValidationError):
            policy_evaluation(two_state_mdp(), np.array([0]), discount=0.5)


class TestPolicyIteration:
    def test_agrees_with_value_iteration(self):
        mdp = two_state_mdp()
        vi = value_iteration(mdp, discount=0.9, tolerance=1e-12)
        pi = policy_iteration(mdp, discount=0.9)
        np.testing.assert_array_equal(vi.policy, pi.policy)
        np.testing.assert_allclose(vi.values, pi.values, atol=1e-5)

    def test_converges_flag_set(self):
        result = policy_iteration(two_state_mdp(), discount=0.9)
        assert result.converged
        assert result.residual == 0.0

    def test_initial_policy_respected(self):
        result = policy_iteration(
            two_state_mdp(), discount=0.9, initial_policy=np.array([0, 0])
        )
        assert result.policy[0] == 1

    def test_bad_initial_policy_rejected(self):
        with pytest.raises(ValidationError):
            policy_iteration(two_state_mdp(), initial_policy=np.array([0, 9]))

    @given(seed=st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_property_matches_value_iteration_on_random_mdps(self, seed):
        rng = np.random.default_rng(seed)
        mdp = random_mdp(rng, 6, 3)
        vi = value_iteration(mdp, discount=0.9, tolerance=1e-10)
        pi = policy_iteration(mdp, discount=0.9)
        np.testing.assert_allclose(vi.values, pi.values, atol=1e-4)
