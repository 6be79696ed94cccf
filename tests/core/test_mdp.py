"""Tests for repro.core.mdp (spaces and tabular MDP models)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mdp import (
    DiscreteSpace,
    MDPModel,
    TabularMDP,
    build_tabular,
)
from repro.exceptions import ModelError, ValidationError


def simple_chain(num_states: int = 3, num_actions: int = 2) -> TabularMDP:
    """A small deterministic chain MDP: action 0 stays, action 1 advances."""
    transitions = np.zeros((num_states, num_actions, num_states))
    rewards = np.zeros((num_states, num_actions))
    for s in range(num_states):
        transitions[s, 0, s] = 1.0
        transitions[s, 1, min(s + 1, num_states - 1)] = 1.0
        rewards[s, 1] = 1.0 if s < num_states - 1 else 0.0
    return TabularMDP(transitions, rewards)


class TestDiscreteSpace:
    def test_round_trip(self):
        space = DiscreteSpace(["a", "b", "c"])
        assert space.index("b") == 1
        assert space.element(1) == "b"

    def test_contains(self):
        space = DiscreteSpace([1, 2, 3])
        assert 2 in space
        assert 9 not in space

    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteSpace(["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteSpace([])

    def test_unknown_element_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteSpace(["a"]).index("z")

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteSpace(["a"]).element(3)


class TestTabularMDP:
    def test_shape_properties(self):
        mdp = simple_chain(4, 2)
        assert mdp.num_states == 4
        assert mdp.num_actions == 2

    def test_transition_rows_must_sum_to_one(self):
        transitions = np.zeros((2, 1, 2))
        transitions[0, 0, 0] = 0.5  # missing mass
        transitions[1, 0, 1] = 1.0
        with pytest.raises(ModelError):
            TabularMDP(transitions, np.zeros((2, 1)))

    def test_negative_probability_rejected(self):
        transitions = np.zeros((2, 1, 2))
        transitions[0, 0, 0] = 1.5
        transitions[0, 0, 1] = -0.5
        transitions[1, 0, 1] = 1.0
        with pytest.raises(ModelError):
            TabularMDP(transitions, np.zeros((2, 1)))

    def test_nan_reward_rejected(self):
        mdp_transitions = np.zeros((2, 1, 2))
        mdp_transitions[:, 0, 0] = 1.0
        rewards = np.array([[np.nan], [0.0]])
        with pytest.raises(ModelError):
            TabularMDP(mdp_transitions, rewards)

    def test_bad_shape_rejected(self):
        with pytest.raises(ModelError):
            TabularMDP(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_next_state_reward_converted_to_expectation(self):
        transitions = np.zeros((2, 1, 2))
        transitions[0, 0, 0] = 0.5
        transitions[0, 0, 1] = 0.5
        transitions[1, 0, 1] = 1.0
        rewards = np.zeros((2, 1, 2))
        rewards[0, 0, 0] = 2.0
        rewards[0, 0, 1] = 4.0
        mdp = TabularMDP(transitions, rewards)
        assert mdp.expected_reward(0, 0) == pytest.approx(3.0)

    def test_transition_distribution_sparse(self):
        mdp = simple_chain()
        distribution = mdp.transition_distribution(0, 1)
        assert distribution == {1: 1.0}

    def test_expected_reward_lookup(self):
        mdp = simple_chain()
        assert mdp.expected_reward(0, 1) == pytest.approx(1.0)
        assert mdp.expected_reward(2, 1) == pytest.approx(0.0)

    def test_index_bounds_checked(self):
        mdp = simple_chain()
        with pytest.raises(ValidationError):
            mdp.expected_reward(99, 0)
        with pytest.raises(ValidationError):
            mdp.transition_distribution(0, 99)

    def test_policy_shape_checked(self):
        mdp = simple_chain()
        with pytest.raises(ValidationError):
            mdp.transition_matrix(np.array([0]))

    def test_policy_action_range_checked(self):
        mdp = simple_chain()
        with pytest.raises(ValidationError):
            mdp.policy_reward(np.array([0, 5, 0]))

    def test_induced_chain_is_stochastic(self):
        mdp = simple_chain(4)
        chain = mdp.transition_matrix(np.ones(4, dtype=int))
        np.testing.assert_allclose(chain.sum(axis=1), 1.0)

    def test_state_space_size_mismatch_rejected(self):
        transitions = np.zeros((2, 1, 2))
        transitions[:, 0, 0] = 1.0
        with pytest.raises(ModelError):
            TabularMDP(
                transitions,
                np.zeros((2, 1)),
                state_space=DiscreteSpace([0, 1, 2]),
            )


class _ImplicitModel(MDPModel):
    """Two-state implicit model used to exercise build_tabular."""

    @property
    def num_states(self):
        return 2

    @property
    def num_actions(self):
        return 2

    def transition_distribution(self, state, action):
        return {1 - state: 1.0} if action == 1 else {state: 1.0}

    def expected_reward(self, state, action):
        return 1.0 if (state == 0 and action == 1) else 0.0

    def available_actions(self, state):
        return [0, 1] if state == 0 else [0]


class TestBuildTabular:
    def test_materialises_transitions(self):
        tab = build_tabular(_ImplicitModel())
        assert tab.transition_distribution(0, 1) == {1: 1.0}
        assert tab.expected_reward(0, 1) == pytest.approx(1.0)

    def test_inadmissible_actions_are_penalised_self_loops(self):
        tab = build_tabular(_ImplicitModel())
        assert tab.transition_distribution(1, 1) == {1: 1.0}
        assert tab.expected_reward(1, 1) < tab.expected_reward(1, 0)

    def test_result_passes_validation(self):
        tab = build_tabular(_ImplicitModel())
        np.testing.assert_allclose(tab.transition_tensor.sum(axis=2), 1.0)
