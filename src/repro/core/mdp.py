"""Finite Markov Decision Process toolkit.

The paper formulates RSU cache management as an MDP whose state contains the
AoI of every content and the per-RSU content popularity, whose action is a
binary update decision, and whose reward combines AoI utility with MBS
communication cost (Eqs. 1-3).  This module provides the generic machinery
that the caching MDP (:mod:`repro.core.caching_mdp`) is built on:

* :class:`DiscreteSpace` — enumerable state and action spaces with
  index <-> element conversion.
* :class:`TabularMDP` — an explicit (transition tensor, reward tensor) model
  with validation, expected-reward queries, and sparse-friendly accessors.
* :class:`MDPModel` — an abstract interface for implicitly-defined models
  (the factored caching MDP implements it without materialising tensors).
* :func:`build_tabular` — materialise any :class:`MDPModel` into a
  :class:`TabularMDP` so that the exact solvers in
  :mod:`repro.core.solvers` can be applied.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.exceptions import ModelError, ValidationError


class DiscreteSpace:
    """A finite, ordered collection of hashable elements.

    Elements can be converted to contiguous integer indices and back, which
    is what the tabular solvers operate on.

    Parameters
    ----------
    elements:
        The space's elements, in a fixed order.  Duplicates are rejected.
    name:
        Optional label used in error messages and reprs.
    """

    def __init__(self, elements: Sequence, *, name: str = "space") -> None:
        elements = list(elements)
        if not elements:
            raise ValidationError(f"{name} must contain at least one element")
        self._elements: List = elements
        self._index: Dict = {}
        for position, element in enumerate(elements):
            if element in self._index:
                raise ValidationError(
                    f"{name} contains duplicate element {element!r}"
                )
            self._index[element] = position
        self._name = name

    @property
    def name(self) -> str:
        """Label of this space."""
        return self._name

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator:
        return iter(self._elements)

    def __contains__(self, element) -> bool:
        return element in self._index

    def element(self, index: int) -> object:
        """Return the element at *index*."""
        if not 0 <= index < len(self._elements):
            raise ValidationError(
                f"index {index} out of range for {self._name} of size {len(self)}"
            )
        return self._elements[index]

    def index(self, element) -> int:
        """Return the index of *element*."""
        try:
            return self._index[element]
        except KeyError:
            raise ValidationError(
                f"element {element!r} is not in {self._name}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"DiscreteSpace(name={self._name!r}, size={len(self)})"


class MDPModel(abc.ABC):
    """Abstract interface for a finite MDP.

    Implementations can be explicit (:class:`TabularMDP`) or implicit (the
    factored caching MDP), but must expose enumerable state and action
    spaces, a transition distribution, and an expected reward.
    """

    @property
    @abc.abstractmethod
    def num_states(self) -> int:
        """Number of states."""

    @property
    @abc.abstractmethod
    def num_actions(self) -> int:
        """Number of actions (assumed identical in every state)."""

    @abc.abstractmethod
    def transition_distribution(self, state: int, action: int) -> Dict[int, float]:
        """Return ``{next_state: probability}`` for (*state*, *action*)."""

    @abc.abstractmethod
    def expected_reward(self, state: int, action: int) -> float:
        """Return the expected one-step reward of taking *action* in *state*."""

    def available_actions(self, state: int) -> Sequence[int]:
        """Return the actions admissible in *state* (default: all actions)."""
        return range(self.num_actions)

class TabularMDP(MDPModel):
    """Explicit finite MDP defined by dense transition and reward arrays.

    Parameters
    ----------
    transitions:
        Array of shape ``(num_states, num_actions, num_states)`` whose entry
        ``[s, a, s']`` is ``P(s' | s, a)``.  Every ``(s, a)`` row must sum to
        one.
    rewards:
        Either an array of shape ``(num_states, num_actions)`` holding
        expected rewards ``R(s, a)``, or of shape
        ``(num_states, num_actions, num_states)`` holding next-state
        dependent rewards ``R(s, a, s')`` (converted to expectations using
        the transition probabilities).
    state_space, action_space:
        Optional :class:`DiscreteSpace` labels; plain ``range`` spaces are
        created when omitted.
    """

    def __init__(
        self,
        transitions: np.ndarray,
        rewards: np.ndarray,
        *,
        state_space: Optional[DiscreteSpace] = None,
        action_space: Optional[DiscreteSpace] = None,
        validate: bool = True,
    ) -> None:
        transitions = np.asarray(transitions, dtype=float)
        rewards = np.asarray(rewards, dtype=float)
        if transitions.ndim != 3 or transitions.shape[0] != transitions.shape[2]:
            raise ModelError(
                "transitions must have shape (num_states, num_actions, num_states), "
                f"got {transitions.shape}"
            )
        num_states, num_actions, _ = transitions.shape
        if rewards.shape == (num_states, num_actions, num_states):
            expected = np.einsum("sax,sax->sa", transitions, rewards)
            rewards = expected
        elif rewards.shape != (num_states, num_actions):
            raise ModelError(
                "rewards must have shape (num_states, num_actions) or "
                "(num_states, num_actions, num_states), got "
                f"{rewards.shape}"
            )
        if validate:
            self._validate(transitions, rewards)
        self._transitions = transitions
        self._rewards = rewards
        self._state_space = state_space or DiscreteSpace(
            list(range(num_states)), name="states"
        )
        self._action_space = action_space or DiscreteSpace(
            list(range(num_actions)), name="actions"
        )
        if len(self._state_space) != num_states:
            raise ModelError(
                f"state_space size {len(self._state_space)} does not match "
                f"transition tensor ({num_states} states)"
            )
        if len(self._action_space) != num_actions:
            raise ModelError(
                f"action_space size {len(self._action_space)} does not match "
                f"transition tensor ({num_actions} actions)"
            )

    @staticmethod
    def _validate(transitions: np.ndarray, rewards: np.ndarray) -> None:
        if not np.all(np.isfinite(transitions)):
            raise ModelError("transition probabilities must be finite")
        if np.any(transitions < -1e-12):
            raise ModelError("transition probabilities must be non-negative")
        row_sums = transitions.sum(axis=2)
        if not np.allclose(row_sums, 1.0, atol=1e-6):
            bad = np.argwhere(~np.isclose(row_sums, 1.0, atol=1e-6))
            state, action = bad[0]
            raise ModelError(
                f"transition probabilities for state {state}, action {action} "
                f"sum to {row_sums[state, action]:.6f}, expected 1"
            )
        if not np.all(np.isfinite(rewards)):
            raise ModelError("rewards must be finite")

    # ------------------------------------------------------------------
    # MDPModel interface
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return self._transitions.shape[0]

    @property
    def num_actions(self) -> int:
        return self._transitions.shape[1]

    @property
    def state_space(self) -> DiscreteSpace:
        """The labelled state space."""
        return self._state_space

    @property
    def action_space(self) -> DiscreteSpace:
        """The labelled action space."""
        return self._action_space

    @property
    def transition_tensor(self) -> np.ndarray:
        """Copy of the full ``(S, A, S)`` transition tensor."""
        return self._transitions.copy()

    @property
    def reward_matrix(self) -> np.ndarray:
        """Copy of the ``(S, A)`` expected-reward matrix."""
        return self._rewards.copy()

    def transition_distribution(self, state: int, action: int) -> Dict[int, float]:
        self._check_indices(state, action)
        row = self._transitions[state, action]
        nonzero = np.flatnonzero(row > 0)
        return {int(s): float(row[s]) for s in nonzero}

    def expected_reward(self, state: int, action: int) -> float:
        self._check_indices(state, action)
        return float(self._rewards[state, action])

    # ------------------------------------------------------------------
    # Convenience queries
    # ------------------------------------------------------------------
    def transition_matrix(self, policy: np.ndarray) -> np.ndarray:
        """Return the ``(S, S)`` Markov chain induced by a deterministic *policy*."""
        policy = self._check_policy(policy)
        return self._transitions[np.arange(self.num_states), policy, :]

    def policy_reward(self, policy: np.ndarray) -> np.ndarray:
        """Return the per-state expected reward under a deterministic *policy*."""
        policy = self._check_policy(policy)
        return self._rewards[np.arange(self.num_states), policy]

    def _check_indices(self, state: int, action: int) -> None:
        if not 0 <= state < self.num_states:
            raise ValidationError(
                f"state index {state} out of range [0, {self.num_states})"
            )
        if not 0 <= action < self.num_actions:
            raise ValidationError(
                f"action index {action} out of range [0, {self.num_actions})"
            )

    def _check_policy(self, policy: np.ndarray) -> np.ndarray:
        policy = np.asarray(policy, dtype=int)
        if policy.shape != (self.num_states,):
            raise ValidationError(
                f"policy must have shape ({self.num_states},), got {policy.shape}"
            )
        if np.any(policy < 0) or np.any(policy >= self.num_actions):
            raise ValidationError("policy contains out-of-range action indices")
        return policy

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"TabularMDP(num_states={self.num_states}, num_actions={self.num_actions})"


def build_tabular(model: MDPModel, *, validate: bool = True) -> TabularMDP:
    """Materialise an implicit :class:`MDPModel` into a :class:`TabularMDP`.

    This enumerates every ``(state, action)`` pair of *model*, so it is only
    appropriate for models whose state space fits in memory — which is the
    regime the paper's per-RSU factored MDP is designed to stay in.
    """
    num_states = model.num_states
    num_actions = model.num_actions
    transitions = np.zeros((num_states, num_actions, num_states), dtype=float)
    rewards = np.zeros((num_states, num_actions), dtype=float)
    for state in range(num_states):
        admissible = set(int(a) for a in model.available_actions(state))
        for action in range(num_actions):
            if action in admissible:
                distribution = model.transition_distribution(state, action)
                for next_state, probability in distribution.items():
                    transitions[state, action, next_state] = probability
                rewards[state, action] = model.expected_reward(state, action)
            else:
                # Inadmissible actions are modelled as self-loops with a large
                # penalty so that no optimal policy ever selects them.
                transitions[state, action, state] = 1.0
                rewards[state, action] = -np.inf
    # Replace the -inf penalties with a finite value well below the reward
    # range so solvers remain numerically stable.
    finite = rewards[np.isfinite(rewards)]
    floor = (finite.min() - 1.0) * 10.0 - 1.0 if finite.size else -1e9
    rewards[~np.isfinite(rewards)] = floor
    return TabularMDP(transitions, rewards, validate=validate)
