"""Dynamic-programming solvers for finite MDPs.

The paper's cache-management stage computes an update policy that maximises
the discounted sum of the utility in Eq. (1).  This module provides the
standard exact solvers used for that purpose:

* :func:`value_iteration` — Bellman-backup iteration with a sup-norm
  convergence certificate.
* :func:`policy_iteration` — Howard's policy iteration with exact linear
  policy evaluation.
* :func:`policy_evaluation` — evaluate a fixed deterministic policy.

All solvers operate on the :class:`~repro.core.mdp.TabularMDP` explicit
representation; implicit models should first be materialised with
:func:`repro.core.mdp.build_tabular`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.mdp import MDPModel, TabularMDP, build_tabular
from repro.exceptions import SolverError, ValidationError
from repro.utils.validation import check_in_range, check_positive, check_positive_int


@dataclass
class SolverResult:
    """Outcome of an exact MDP solver.

    Attributes
    ----------
    values:
        Optimal (or evaluated) state values, shape ``(num_states,)``.
    policy:
        Greedy deterministic policy, shape ``(num_states,)`` of action indices.
    q_values:
        State-action values, shape ``(num_states, num_actions)``.
    iterations:
        Number of sweeps performed.
    converged:
        Whether the convergence criterion was met before the iteration cap.
    residual:
        Final sup-norm residual (value iteration) or number of policy changes
        in the last improvement step (policy iteration).
    history:
        Per-iteration residuals, useful for convergence diagnostics.
    """

    values: np.ndarray
    policy: np.ndarray
    q_values: np.ndarray
    iterations: int
    converged: bool
    residual: float
    history: List[float] = field(default_factory=list)


def _as_tabular(model: MDPModel) -> TabularMDP:
    if isinstance(model, TabularMDP):
        return model
    return build_tabular(model)


def _q_from_values(mdp: TabularMDP, values: np.ndarray, discount: float) -> np.ndarray:
    transitions = mdp.transition_tensor
    rewards = mdp.reward_matrix
    return rewards + discount * np.einsum("sax,x->sa", transitions, values)


class _SparseModel:
    """Sparse (CSR-like) compilation of an implicit :class:`MDPModel`.

    Materialising an implicit model into a dense ``(S, A, S)`` tensor costs
    ``O(S^2 A)`` memory, which is prohibitive for the joint per-RSU caching
    MDPs (tens of thousands of states).  Their transition structure is very
    sparse — typically one successor per ``(state, action)`` — so this helper
    enumerates the model once into flat successor/probability arrays and
    evaluates Bellman backups with vectorised segment sums.
    """

    def __init__(self, model: MDPModel) -> None:
        num_states = model.num_states
        num_actions = model.num_actions
        rewards = np.zeros((num_states, num_actions), dtype=float)
        next_states: List[int] = []
        probabilities: List[float] = []
        row_ptr = np.zeros(num_states * num_actions + 1, dtype=np.int64)
        entry = 0
        penalty_pairs: List[tuple] = []
        for state in range(num_states):
            admissible = set(int(a) for a in model.available_actions(state))
            for action in range(num_actions):
                row = state * num_actions + action
                if action in admissible:
                    distribution = model.transition_distribution(state, action)
                    rewards[state, action] = model.expected_reward(state, action)
                    for next_state, probability in distribution.items():
                        next_states.append(int(next_state))
                        probabilities.append(float(probability))
                        entry += 1
                else:
                    # Inadmissible action: harmless self-loop, penalised below
                    # once the finite reward range is known.
                    next_states.append(state)
                    probabilities.append(1.0)
                    penalty_pairs.append((state, action))
                    entry += 1
                row_ptr[row + 1] = entry
        if penalty_pairs:
            finite_floor = float(rewards.min())
            penalty = (finite_floor - 1.0) * 10.0 - 1.0
            for state, action in penalty_pairs:
                rewards[state, action] = penalty
        self.num_states = num_states
        self.num_actions = num_actions
        self.rewards = rewards
        self.row_ptr = row_ptr
        self.next_states = np.asarray(next_states, dtype=np.int64)
        self.probabilities = np.asarray(probabilities, dtype=float)

    def q_from_values(self, values: np.ndarray, discount: float) -> np.ndarray:
        """Return the Q matrix ``R + discount * P V`` for the given values."""
        contributions = self.probabilities * values[self.next_states]
        expected = np.add.reduceat(contributions, self.row_ptr[:-1])
        # reduceat on an empty trailing segment would be wrong, but every
        # (state, action) row has at least one successor by construction.
        return self.rewards + discount * expected.reshape(
            self.num_states, self.num_actions
        )


def value_iteration(
    model: MDPModel,
    *,
    discount: float = 0.95,
    tolerance: float = 1e-8,
    max_iterations: int = 10_000,
    initial_values: Optional[np.ndarray] = None,
) -> SolverResult:
    """Solve *model* by value iteration.

    Parameters
    ----------
    model:
        The MDP to solve.  Explicit :class:`~repro.core.mdp.TabularMDP`
        instances use a dense backup; implicit models are compiled into a
        sparse successor representation, so large-but-sparse models (such as
        the joint per-RSU caching MDP) never materialise an ``(S, A, S)``
        tensor.
    discount:
        Discount factor in ``[0, 1)``.
    tolerance:
        Convergence threshold on the sup-norm Bellman residual.  The returned
        values are within ``tolerance * discount / (1 - discount)`` of the
        optimal values.
    max_iterations:
        Hard cap on the number of sweeps.
    initial_values:
        Optional warm-start value vector.

    Raises
    ------
    SolverError
        If the iteration cap is reached without convergence.
    """
    discount = check_in_range(discount, "discount", 0.0, 1.0, inclusive=False) \
        if discount not in (0.0,) else 0.0
    tolerance = check_positive(tolerance, "tolerance")
    max_iterations = check_positive_int(max_iterations, "max_iterations")
    if isinstance(model, TabularMDP):
        num_states = model.num_states
        backup = lambda values: _q_from_values(model, values, discount)  # noqa: E731
    else:
        sparse = _SparseModel(model)
        num_states = sparse.num_states
        backup = lambda values: sparse.q_from_values(values, discount)  # noqa: E731

    if initial_values is None:
        values = np.zeros(num_states, dtype=float)
    else:
        values = np.asarray(initial_values, dtype=float).copy()
        if values.shape != (num_states,):
            raise ValidationError(
                f"initial_values must have shape ({num_states},), got {values.shape}"
            )

    history: List[float] = []
    converged = False
    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        q_values = backup(values)
        new_values = q_values.max(axis=1)
        residual = float(np.max(np.abs(new_values - values)))
        history.append(residual)
        values = new_values
        if residual <= tolerance:
            converged = True
            break

    if not converged:
        raise SolverError(
            f"value iteration did not converge within {max_iterations} iterations "
            f"(residual {residual:.3e} > tolerance {tolerance:.3e})"
        )

    q_values = backup(values)
    policy = np.asarray(q_values.argmax(axis=1), dtype=int)
    return SolverResult(
        values=values,
        policy=policy,
        q_values=q_values,
        iterations=iterations,
        converged=converged,
        residual=residual,
        history=history,
    )


def policy_evaluation(
    model: MDPModel,
    policy: np.ndarray,
    *,
    discount: float = 0.95,
) -> np.ndarray:
    """Return the exact value function of a deterministic *policy*.

    Solves the linear system ``(I - discount * P_pi) v = r_pi`` directly, so
    the result is exact up to floating point (no iterative error).
    """
    discount = check_in_range(discount, "discount", 0.0, 1.0, inclusive=False) \
        if discount not in (0.0,) else 0.0
    mdp = _as_tabular(model)
    policy = np.asarray(policy, dtype=int)
    if policy.shape != (mdp.num_states,):
        raise ValidationError(
            f"policy must have shape ({mdp.num_states},), got {policy.shape}"
        )
    transition = mdp.transition_matrix(policy)
    reward = mdp.policy_reward(policy)
    identity = np.eye(mdp.num_states)
    try:
        values = np.linalg.solve(identity - discount * transition, reward)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - singular only if discount=1
        raise SolverError(f"policy evaluation failed: {exc}") from exc
    return values


def policy_iteration(
    model: MDPModel,
    *,
    discount: float = 0.95,
    max_iterations: int = 1_000,
    initial_policy: Optional[np.ndarray] = None,
) -> SolverResult:
    """Solve *model* by Howard's policy iteration.

    Each iteration evaluates the current policy exactly and then improves it
    greedily; the algorithm terminates when the policy is stable, which for a
    finite MDP happens after finitely many iterations and yields an optimal
    policy.
    """
    max_iterations = check_positive_int(max_iterations, "max_iterations")
    mdp = _as_tabular(model)

    if initial_policy is None:
        policy = np.zeros(mdp.num_states, dtype=int)
    else:
        policy = np.asarray(initial_policy, dtype=int).copy()
        if policy.shape != (mdp.num_states,):
            raise ValidationError(
                f"initial_policy must have shape ({mdp.num_states},), got {policy.shape}"
            )
        if np.any(policy < 0) or np.any(policy >= mdp.num_actions):
            raise ValidationError("initial_policy contains out-of-range actions")

    history: List[float] = []
    converged = False
    changes = mdp.num_states
    values = np.zeros(mdp.num_states, dtype=float)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        values = policy_evaluation(mdp, policy, discount=discount)
        q_values = _q_from_values(mdp, values, discount)
        greedy = np.asarray(q_values.argmax(axis=1), dtype=int)
        # Keep the incumbent action when it is already greedy to guarantee
        # termination (avoids cycling between equally-good actions).
        incumbent_is_greedy = np.isclose(
            q_values[np.arange(mdp.num_states), policy],
            q_values.max(axis=1),
            atol=1e-12,
            rtol=0.0,
        )
        new_policy = np.where(incumbent_is_greedy, policy, greedy)
        changes = int(np.count_nonzero(new_policy != policy))
        history.append(float(changes))
        policy = new_policy
        if changes == 0:
            converged = True
            break

    if not converged:
        raise SolverError(
            f"policy iteration did not converge within {max_iterations} iterations "
            f"({changes} policy changes in the last sweep)"
        )

    q_values = _q_from_values(mdp, values, discount)
    return SolverResult(
        values=values,
        policy=policy,
        q_values=q_values,
        iterations=iterations,
        converged=converged,
        residual=float(changes),
        history=history,
    )
