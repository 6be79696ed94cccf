"""The paper's cache-management MDP and the policies derived from it.

The MBS's decision problem (Section II-B of the paper) is: given the ages of
every content cached at every RSU and each RSU's content population, choose
which content (at most one per RSU per slot) to refresh so as to maximise
the discounted sum of the total utility ``U(t) = w*U_AoI(t) - U_cost(t)``.

Because the reward of Eq. (1) is additive across RSUs and the "one update
per RSU per slot" constraint couples only contents *within* an RSU, the
global MDP factorises exactly into independent per-RSU MDPs.  This module
exposes both granularities:

* :class:`RSUCachingMDP` — the exact per-RSU MDP over the joint (discretised)
  ages of that RSU's cached contents.  Solvable exactly for the paper-scale
  instances (5 contents per RSU with single-digit age ceilings).
* :class:`ContentUpdateMDP` — the single-content relaxation (state = one age
  counter, action = update / skip).  Its optimal Q-values provide per-content
  update *advantages* that scale to arbitrarily many contents.
* :class:`MDPCachingPolicy` — the deployable controller: it selects, for each
  RSU, the content with the largest positive Q-advantage (exact per-RSU
  solution when the joint state space is small enough, per-content
  decomposition otherwise), respecting the one-update-per-slot constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mdp import MDPModel
from repro.core.policies import CacheObservation, CachingPolicy
from repro.core.reward import UtilityFunction
from repro.core.solve_cache import global_solve_cache, solve_key
from repro.core.solvers import SolverResult, value_iteration
from repro.exceptions import (
    ConfigurationError,
    ModelError,
    SolverError,
    ValidationError,
)
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_positive_int,
)


class AgeGrid:
    """Discretisation of an AoI counter onto the integer grid ``1 .. ceiling``.

    The MDP solvers need finite state spaces; ages are therefore clamped to
    integer slots saturating at *ceiling*.  The grid also converts between
    continuous simulator ages and MDP state indices.
    """

    def __init__(self, ceiling: int) -> None:
        self._ceiling = check_positive_int(ceiling, "ceiling")

    @property
    def ceiling(self) -> int:
        """Largest representable age."""
        return self._ceiling

    @property
    def num_levels(self) -> int:
        """Number of representable age levels (ages 1..ceiling)."""
        return self._ceiling

    def index_of(self, age: float) -> int:
        """Return the 0-based grid index of *age* (clamped to the grid)."""
        if not np.isfinite(age) or age < 0:
            raise ValidationError(f"age must be finite and >= 0, got {age}")
        clamped = int(min(max(round(age), 1), self._ceiling))
        return clamped - 1

    def age_of(self, index: int) -> int:
        """Return the age represented by grid *index*."""
        if not 0 <= index < self._ceiling:
            raise ValidationError(
                f"index {index} out of range [0, {self._ceiling})"
            )
        return index + 1

    def next_age(self, age: int) -> int:
        """Return the age after one slot without an update (saturating)."""
        return min(int(age) + 1, self._ceiling)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"AgeGrid(ceiling={self._ceiling})"


@dataclass(frozen=True)
class CachingMDPConfig:
    """Static parameters of the cache-management MDP.

    Attributes
    ----------
    weight:
        AoI weight ``w`` of Eq. (1).
    discount:
        Discount factor used when solving for the long-run policy.
    age_ceiling:
        Saturation age of the discretised AoI state.  ``None`` derives it per
        content as ``ceil(2 * A_max)`` capped at *max_age_ceiling*.
    max_age_ceiling:
        Upper bound on any derived ceiling, keeping exact per-RSU state
        spaces tractable.
    refresh_age:
        Age of a freshly pushed copy.
    violation_penalty:
        Penalty subtracted from the reward for every content whose
        post-action age exceeds its ``A_max``.  The paper treats the maximum
        AoI as a requirement ("each content is updated before the AoI value
        exceeds the maximum A_max_h"); this Lagrangian-style penalty encodes
        that requirement in the reward so the solved policy honours it even
        when the raw Eq. (1) trade-off alone would let a rarely requested
        content go stale.  Set it to 0 to optimise the unconstrained Eq. (1).
    """

    weight: float = 1.0
    discount: float = 0.9
    age_ceiling: Optional[int] = None
    max_age_ceiling: int = 12
    refresh_age: float = 1.0
    violation_penalty: float = 10.0

    def validate(self) -> "CachingMDPConfig":
        """Validate all fields and return ``self``."""
        check_non_negative(self.weight, "weight")
        check_in_range(self.discount, "discount", 0.0, 1.0, inclusive=False)
        if self.age_ceiling is not None:
            check_positive_int(self.age_ceiling, "age_ceiling")
        check_positive_int(self.max_age_ceiling, "max_age_ceiling")
        check_positive(self.refresh_age, "refresh_age")
        check_non_negative(self.violation_penalty, "violation_penalty")
        return self

    def ceiling_for(self, max_age: float) -> int:
        """Return the discretisation ceiling to use for a content with *max_age*."""
        return int(self.ceilings(max_age))

    def ceilings(self, max_ages) -> np.ndarray:
        """The discretisation ceilings of contents with *max_ages*, element-wise.

        ``age_ceiling`` when set, else ``ceil(2 * A_max)`` clamped to
        ``[2, max_age_ceiling]``; an integer array of *max_ages*' shape.
        """
        max_ages = np.asarray(max_ages, dtype=float)
        if self.age_ceiling is not None:
            return np.full(max_ages.shape, int(self.age_ceiling))
        derived = np.minimum(np.ceil(2.0 * max_ages), self.max_age_ceiling)
        return np.maximum(derived, 2).astype(int)


class ContentUpdateMDP(MDPModel):
    """Single-content update MDP.

    State: the (discretised) age of one cached copy.  Action 0 = skip,
    action 1 = refresh.  The age evolves deterministically: it increases by
    one each slot unless refreshed, in which case it restarts from the
    refresh age.  The reward is the single-content slice of Eq. (1):
    ``w * (A_max / A(x)) * p - C * x``.

    This is the factored building block the scalable controller uses — its
    optimal Q-function yields, for every current age, the *advantage* of
    updating versus skipping, which ranks contents within an RSU.
    """

    def __init__(
        self,
        *,
        max_age: float,
        popularity: float,
        update_cost: float,
        config: Optional[CachingMDPConfig] = None,
    ) -> None:
        self._config = (config or CachingMDPConfig()).validate()
        self._max_age = check_positive(max_age, "max_age")
        self._popularity = check_non_negative(popularity, "popularity")
        self._update_cost = check_non_negative(update_cost, "update_cost")
        self._grid = AgeGrid(self._config.ceiling_for(max_age))

    @property
    def grid(self) -> AgeGrid:
        """The age discretisation grid."""
        return self._grid

    @property
    def max_age(self) -> float:
        """Maximum tolerable age of the content."""
        return self._max_age

    @property
    def popularity(self) -> float:
        """Content-population weight ``p`` of the content."""
        return self._popularity

    @property
    def update_cost(self) -> float:
        """Transfer cost ``C`` charged when the content is refreshed."""
        return self._update_cost

    @property
    def num_states(self) -> int:
        return self._grid.num_levels

    @property
    def num_actions(self) -> int:
        return 2

    def transition_distribution(self, state: int, action: int) -> Dict[int, float]:
        age = self._grid.age_of(state)
        if action == 1:
            next_age = self._grid.next_age(int(round(self._config.refresh_age)))
        elif action == 0:
            next_age = self._grid.next_age(age)
        else:
            raise ValidationError(f"action must be 0 or 1, got {action}")
        return {self._grid.index_of(next_age): 1.0}

    def expected_reward(self, state: int, action: int) -> float:
        age = self._grid.age_of(state)
        if action == 1:
            post_age = self._config.refresh_age
            cost = self._update_cost
        elif action == 0:
            post_age = float(age)
            cost = 0.0
        else:
            raise ValidationError(f"action must be 0 or 1, got {action}")
        aoi_utility = (self._max_age / max(post_age, 1.0)) * self._popularity
        reward = self._config.weight * aoi_utility - cost
        if post_age > self._max_age:
            reward -= self._config.violation_penalty
        return reward

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"ContentUpdateMDP(max_age={self._max_age:g}, popularity={self._popularity:g}, "
            f"update_cost={self._update_cost:g}, ceiling={self._grid.ceiling})"
        )


class RSUCachingMDP(MDPModel):
    """Exact per-RSU cache-management MDP.

    State: the joint (discretised) ages of the RSU's cached contents.
    Action: index ``0`` means "no update this slot"; action ``h+1`` refreshes
    the RSU's ``h``-th content.  Rewards follow Eq. (1) restricted to this
    RSU.  Ages advance deterministically, so the transition model is a
    deterministic function of (state, action).

    The joint state space has ``prod_h ceiling_h`` states, so this exact
    formulation is appropriate for paper-scale RSUs (a handful of contents
    with single-digit ceilings); larger instances should use the factored
    :class:`ContentUpdateMDP` decomposition via :class:`MDPCachingPolicy`.
    """

    def __init__(
        self,
        *,
        max_ages: Sequence[float],
        popularity: Sequence[float],
        update_costs: Sequence[float],
        config: Optional[CachingMDPConfig] = None,
        max_states: int = 200_000,
    ) -> None:
        self._config = (config or CachingMDPConfig()).validate()
        max_ages = np.asarray(max_ages, dtype=float)
        popularity = np.asarray(popularity, dtype=float)
        update_costs = np.asarray(update_costs, dtype=float)
        if max_ages.ndim != 1 or max_ages.size == 0:
            raise ConfigurationError("max_ages must be a non-empty 1-D sequence")
        if popularity.shape != max_ages.shape or update_costs.shape != max_ages.shape:
            raise ConfigurationError(
                "max_ages, popularity, and update_costs must have the same length"
            )
        if np.any(max_ages <= 0):
            raise ConfigurationError("max_ages must be > 0")
        if np.any(popularity < 0) or np.any(update_costs < 0):
            raise ConfigurationError("popularity and update_costs must be >= 0")
        self._max_ages = max_ages
        self._popularity = popularity
        self._update_costs = update_costs
        self._grids = [AgeGrid(self._config.ceiling_for(a)) for a in max_ages]
        self._shape = tuple(grid.num_levels for grid in self._grids)
        num_states = int(np.prod(self._shape))
        if num_states > max_states:
            raise ConfigurationError(
                f"joint state space has {num_states} states, exceeding max_states="
                f"{max_states}; lower age_ceiling or use the factored controller"
            )
        self._num_states = num_states
        self._utility = UtilityFunction(
            max_ages,
            update_costs,
            weight=self._config.weight,
            refresh_age=self._config.refresh_age,
        )

    @property
    def config(self) -> CachingMDPConfig:
        """The MDP configuration."""
        return self._config

    @property
    def num_contents(self) -> int:
        """Number of contents cached at this RSU."""
        return int(self._max_ages.size)

    @property
    def num_states(self) -> int:
        return self._num_states

    @property
    def num_actions(self) -> int:
        # Action 0 = no update; action h+1 = update content h.
        return self.num_contents + 1

    # ------------------------------------------------------------------
    # State encoding
    # ------------------------------------------------------------------
    def encode_ages(self, ages: Sequence[float]) -> int:
        """Return the state index for continuous per-content *ages*."""
        ages = np.asarray(ages, dtype=float)
        if ages.shape != self._max_ages.shape:
            raise ValidationError(
                f"ages must have shape {self._max_ages.shape}, got {ages.shape}"
            )
        indices = tuple(
            grid.index_of(age) for grid, age in zip(self._grids, ages)
        )
        return int(np.ravel_multi_index(indices, self._shape))

    def decode_state(self, state: int) -> np.ndarray:
        """Return the per-content ages encoded by state index *state*."""
        if not 0 <= state < self._num_states:
            raise ValidationError(
                f"state {state} out of range [0, {self._num_states})"
            )
        indices = np.unravel_index(state, self._shape)
        return np.asarray(
            [grid.age_of(int(i)) for grid, i in zip(self._grids, indices)],
            dtype=float,
        )

    def action_vector(self, action: int) -> np.ndarray:
        """Return the binary per-content update vector of MDP *action*."""
        if not 0 <= action < self.num_actions:
            raise ValidationError(
                f"action {action} out of range [0, {self.num_actions})"
            )
        vector = np.zeros(self.num_contents, dtype=int)
        if action > 0:
            vector[action - 1] = 1
        return vector

    # ------------------------------------------------------------------
    # MDPModel interface
    # ------------------------------------------------------------------
    def transition_distribution(self, state: int, action: int) -> Dict[int, float]:
        ages = self.decode_state(state)
        updates = self.action_vector(action)
        next_ages = []
        for grid, age, updated in zip(self._grids, ages, updates):
            if updated:
                next_ages.append(grid.next_age(int(round(self._config.refresh_age))))
            else:
                next_ages.append(grid.next_age(int(age)))
        next_state = self.encode_ages(np.asarray(next_ages, dtype=float))
        return {next_state: 1.0}

    def expected_reward(self, state: int, action: int) -> float:
        ages = self.decode_state(state)
        updates = self.action_vector(action)
        breakdown = self._utility.evaluate(
            ages[np.newaxis, :],
            updates[np.newaxis, :],
            self._popularity[np.newaxis, :],
        )
        post_ages = np.where(updates > 0, self._config.refresh_age, ages)
        violations = int(np.count_nonzero(post_ages > self._max_ages))
        return breakdown.total - self._config.violation_penalty * violations

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"RSUCachingMDP(num_contents={self.num_contents}, "
            f"num_states={self.num_states})"
        )


@dataclass
class _SolvedRSUModel:
    """Optimal policy of one :class:`RSUCachingMDP` (internal cache)."""

    mdp: RSUCachingMDP
    result: SolverResult

    def decide(self, ages: np.ndarray) -> np.ndarray:
        """Return the binary update vector prescribed for continuous *ages*."""
        state = self.mdp.encode_ages(ages)
        action = int(self.result.policy[state])
        return self.mdp.action_vector(action)


class MDPCachingPolicy(CachingPolicy):
    """The paper's MDP-based cache-update controller.

    Two operating modes share one public interface:

    * ``mode="exact"`` — solve each RSU's joint :class:`RSUCachingMDP` by
      value iteration and act with the resulting optimal policy.  Exact but
      exponential in the number of contents per RSU.
    * ``mode="factored"`` — solve one :class:`ContentUpdateMDP` per (RSU,
      content), and each slot refresh the content with the largest strictly
      positive Q-advantage, which respects the one-update-per-RSU constraint
      while scaling linearly.
    * ``mode="auto"`` (default) — exact when the joint space of each RSU has
      at most *exact_state_limit* states, factored otherwise.

    The models are solved lazily on the first :meth:`decide` call (they need
    the observation's popularity and cost parameters) and re-solved whenever
    those parameters change.

    Parameters
    ----------
    config:
        MDP configuration (weight ``w``, discount, age discretisation).
    mode:
        ``"exact"``, ``"factored"``, or ``"auto"``.
    exact_state_limit:
        Joint-state-space threshold for the automatic mode.
    memo_limit:
        FIFO bound on the memo of solved single-content models (default
        4096).
    use_solve_cache:
        Whether exact per-RSU solves go through the process-wide
        :mod:`~repro.core.solve_cache` (memory, and disk unless disabled).
        Single-content solves are cheaper than a cache lookup and never use
        it.
    """

    name = "mdp"

    #: Default cap on memoised single-content solutions; see
    #: _content_q_values and the ``memo_limit`` parameter.
    _SOLUTION_MEMO_LIMIT = 4096

    def __init__(
        self,
        config: Optional[CachingMDPConfig] = None,
        *,
        mode: str = "auto",
        exact_state_limit: int = 2_000,
        memo_limit: Optional[int] = None,
        use_solve_cache: bool = True,
    ) -> None:
        if mode not in ("exact", "factored", "auto"):
            raise ConfigurationError(
                f"mode must be 'exact', 'factored', or 'auto', got {mode!r}"
            )
        self._config = (config or CachingMDPConfig()).validate()
        self._mode = mode
        self._exact_state_limit = check_positive_int(
            exact_state_limit, "exact_state_limit"
        )
        self._memo_limit = check_positive_int(
            memo_limit if memo_limit is not None else self._SOLUTION_MEMO_LIMIT,
            "memo_limit",
        )
        self._use_solve_cache = bool(use_solve_cache)
        self._memo_hits = 0
        self._memo_misses = 0
        self._rebuild_count = 0
        self._rsu_models: Dict[int, _SolvedRSUModel] = {}
        # Whether each RSU runs the factored controller (else exact).
        self._factored: Optional[np.ndarray] = None
        self._signature = _Signature()
        # Memo of solved single-content MDPs keyed by their defining
        # parameters.  Catalogs draw integer maximum ages from a narrow
        # range, so large systems contain many (RSU, content) pairs with
        # identical (max_age, popularity, cost) triples — solving each
        # distinct triple once collapses the model-building cost from
        # O(num_rsus * contents_per_rsu) value iterations to a handful.
        # Solutions are pure functions of the key, so the memo survives
        # :meth:`reset` without affecting results.
        # Values are the solved Q-tables, one row per grid age.
        self._solution_memo: Dict[Tuple[float, float, float], np.ndarray] = {}
        # Per-(RSU, content) advantage lookup table over the age grid,
        # rebuilt with the models: entry [k, h, i] is Q(update) - Q(skip)
        # at discretised age i + 1 of the k-th factored RSU (exact RSUs
        # have no rows; None when no RSU runs factored).  The factored
        # decision then becomes a single vectorised gather + argmax
        # instead of a per-content loop.
        self._advantage_table: Optional[np.ndarray] = None
        self._grid_ceilings: Optional[np.ndarray] = None

    @property
    def config(self) -> CachingMDPConfig:
        """The MDP configuration in use."""
        return self._config

    @property
    def mode(self) -> str:
        """The requested operating mode."""
        return self._mode

    @property
    def memo_limit(self) -> int:
        """FIFO bound on the per-instance solved-model memo."""
        return self._memo_limit

    @property
    def memo_stats(self) -> Dict[str, int]:
        """Hit/miss counters of the per-instance solved-model memo.

        A hit means a requested single-content model was served without any
        solver work; misses count the models the stacked content-update
        solve computed.  Single-content models never touch the shared
        solve cache, which serves only exact per-RSU solves.
        """
        return {
            "hits": self._memo_hits,
            "misses": self._memo_misses,
            "size": len(self._solution_memo),
            "limit": self._memo_limit,
        }

    def reset(self) -> None:
        """Drop all solved models (they will be rebuilt on the next decide).

        The parameter-keyed solution memo is kept: re-solving an identical
        single-content MDP yields the identical Q-table, so reusing it
        changes nothing but the rebuild cost.
        """
        self._rsu_models.clear()
        self._factored = None
        self._signature = _Signature()
        self._advantage_table = None
        self._grid_ceilings = None

    # ------------------------------------------------------------------
    # CachingPolicy interface
    # ------------------------------------------------------------------
    def decide(self, observation: CacheObservation) -> np.ndarray:
        self._ensure_models(observation)
        ages = np.asarray(observation.ages, dtype=float)
        if np.any(ages < 0) or not np.all(np.isfinite(ages)):
            raise ValidationError("ages must be finite and >= 0")
        actions = np.zeros(
            (observation.num_rsus, observation.contents_per_rsu), dtype=int
        )
        rows = np.flatnonzero(self._factored)
        if rows.size:
            actions[rows] = _factored_decisions(
                self._advantage_table, self._grid_ceilings, ages[rows]
            )
        for rsu in np.flatnonzero(~self._factored):
            actions[rsu] = self._rsu_models[rsu].decide(ages[rsu])
        return self.validate_actions(actions, observation)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ensure_models(self, observation: CacheObservation) -> None:
        """Solve the models for the observation's parameters, unless current."""
        max_ages = np.asarray(observation.max_ages, dtype=float)
        popularity = np.asarray(observation.popularity, dtype=float)
        costs = np.asarray(observation.update_costs, dtype=float)
        params = (max_ages[np.newaxis], popularity[np.newaxis], costs[np.newaxis])
        moved = self._signature.moved(params)
        if moved is None:
            return
        if moved[0]:
            self._rebuild_count += 1
            self._rsu_models.clear()
            self._factored = self._factored_rows(max_ages)
            rows = np.flatnonzero(self._factored)
            self._advantage_table = self._grid_ceilings = None
            if rows.size:
                self._advantage_table, self._grid_ceilings = _advantage_tables(
                    self, max_ages[rows], popularity[rows], costs[rows]
                )
            for rsu in np.flatnonzero(~self._factored):
                self._build_rsu_model(rsu, max_ages[rsu], popularity[rsu], costs[rsu])
        self._signature.record(params)

    def _factored_rows(self, max_ages: np.ndarray) -> np.ndarray:
        """Whether each RSU — each row of *max_ages* — runs the factored controller.

        ``mode="auto"`` picks it when the RSU's joint state space, the
        product of its contents' grid ceilings
        (:meth:`CachingMDPConfig.ceilings`), exceeds
        *exact_state_limit*.
        """
        if self._mode != "auto":
            return np.full(max_ages.shape[:-1], self._mode == "factored")
        ceilings = self._config.ceilings(max_ages)
        # Products of Python ints: np.prod in int64 would overflow for a few
        # dozen contents and silently go negative, mis-selecting the exact
        # mode on exactly the instances it cannot handle.
        joint = np.prod(ceilings.astype(object), axis=-1)
        return joint > self._exact_state_limit

    def _content_q_values(
        self, keys: Sequence[Tuple[float, float, float]]
    ) -> List[np.ndarray]:
        """The optimal Q-tables of distinct ``(max_age, popularity, cost)`` keys.

        Each key is served from the memo; the misses are solved together by
        :func:`_solve_content_keys` and inserted in key order.  Counters and
        memo order are those of resolving the keys one at a time: the memo
        evicts, before each later lookup, what the earlier misses'
        insertions would have evicted.
        """
        memo = self._solution_memo
        q_values: List[Optional[np.ndarray]] = [None] * len(keys)
        misses: List[int] = []
        for row, key in enumerate(keys):
            solved = memo.get(key)
            if solved is not None:
                self._memo_hits += 1
                q_values[row] = solved
                continue
            self._memo_misses += 1
            check_positive(key[0], "max_age")
            check_non_negative(key[1], "popularity")
            check_non_negative(key[2], "update_cost")
            # Inserting this key (after the solve) evicts the memo's oldest
            # entry once it is full; drop that entry before the next lookup.
            # Once the memo is empty, the evictions fall on earlier misses
            # and happen at insertion.
            if memo and len(memo) + len(misses) >= self._memo_limit:
                memo.pop(next(iter(memo)))
            misses.append(row)
        results = _solve_content_keys([keys[row] for row in misses], self._config)
        for row, result in zip(misses, results):
            q_values[row] = result.q_values
            # Bound the memo: time-varying costs mint fresh keys every
            # re-solve, and an uncapped memo would grow for the whole run.
            # FIFO eviction keeps the static-cost fast path (few recurring
            # keys) intact.
            if len(memo) >= self._memo_limit:
                memo.pop(next(iter(memo)))
            memo[keys[row]] = q_values[row]
        return q_values

    def _config_key_fields(self) -> Dict[str, object]:
        config = self._config
        return {
            "weight": config.weight,
            "discount": config.discount,
            "age_ceiling": config.age_ceiling,
            "max_age_ceiling": config.max_age_ceiling,
            "refresh_age": config.refresh_age,
            "violation_penalty": config.violation_penalty,
        }

    def _build_rsu_model(
        self,
        rsu: int,
        max_ages: np.ndarray,
        popularity: np.ndarray,
        costs: np.ndarray,
    ) -> None:
        mdp = RSUCachingMDP(
            max_ages=max_ages,
            popularity=popularity,
            update_costs=costs,
            config=self._config,
            max_states=self._exact_state_limit,
        )
        result = None
        cache_key = None
        if self._use_solve_cache:
            cache_key = solve_key(
                "rsu-joint",
                max_ages=max_ages,
                popularity=popularity,
                update_costs=costs,
                tolerance=1e-7,
                **self._config_key_fields(),
            )
            result = global_solve_cache().get(cache_key)
        if result is None:
            result = value_iteration(
                mdp, discount=self._config.discount, tolerance=1e-7
            )
            if cache_key is not None:
                # Time-varying costs mint fresh keys every rebuild; only the
                # first two rebuilds persist, so the disk holds keys that can
                # recur across runs.
                global_solve_cache().put(
                    cache_key, result, persist=self._rebuild_count <= 2
                )
        self._rsu_models[rsu] = _SolvedRSUModel(mdp=mdp, result=result)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"MDPCachingPolicy(mode={self._mode!r}, weight={self._config.weight:g})"


class BatchedCacheDecider:
    """One vectorised decide across a batch of per-seed MDP caching policies.

    The seed-batched simulator keeps one :class:`MDPCachingPolicy` per seed
    but wants a single tensor operation per slot.  This helper builds one
    ``(S, num_rsus, contents_per_rsu, levels)`` advantage table for the
    whole batch — each seed's rows are exactly the ones its own policy
    would solve for its parameters, so results stay bit-identical to
    per-seed execution — and runs the gather + argmax of
    :meth:`MDPCachingPolicy.decide` along a leading seed axis.

    Only the all-factored case batches; if any policy selects the exact
    per-RSU mode for any RSU, :meth:`prepare` reports ``False`` and the
    caller falls back to per-seed decisions.
    """

    def __init__(self, policies: Sequence[MDPCachingPolicy]) -> None:
        if not policies:
            raise ValidationError("policies must be non-empty")
        self._policies = list(policies)
        self._signature = _Signature()
        # The per-seed parameters the tables were solved for.
        self._solved: Tuple[np.ndarray, ...] = ()
        self._tables: Optional[np.ndarray] = None
        self._ceilings: Optional[np.ndarray] = None

    @staticmethod
    def supports(policies: Sequence) -> bool:
        """Whether every policy is a plain :class:`MDPCachingPolicy` of one config.

        Subclasses may override ``decide``, so only exact instances are
        eligible for the stacked fast path; one shared MDP configuration
        lets the batch solve each distinct content model once.
        """
        return (
            bool(policies)
            and all(type(policy) is MDPCachingPolicy for policy in policies)
            and len({policy.config for policy in policies}) == 1
        )

    def prepare(
        self,
        max_ages: np.ndarray,
        popularity: np.ndarray,
        update_costs: np.ndarray,
    ) -> bool:
        """Build the advantage tables for the given ``(S, R, C)`` parameter tensors.

        Resolves the distinct ``(max_age, popularity, cost)`` keys of the
        whole batch once — through the first policy's memo, then one
        stacked value-iteration pass over all the keys still missing — and
        fills the stacked table with one gather.  Like its own policy, a
        seed keeps its tables while its parameters stay within 1e-9 of the
        last ones.  Returns
        ``True`` when every seed's every RSU runs the factored controller
        (the stacked tables are then current), ``False`` when the caller
        must fall back to per-seed ``decide`` calls.
        """
        params = tuple(
            np.asarray(array, dtype=float)
            for array in (max_ages, popularity, update_costs)
        )
        moved = self._signature.moved(params)
        if moved is None:
            return True
        for s, policy in enumerate(self._policies):
            if not policy._factored_rows(params[0][s]).all():
                return False
        if moved.any():
            if moved.all():
                self._solved = tuple(array.copy() for array in params)
            else:
                for solved, new in zip(self._solved, params):
                    solved[moved] = new[moved]
            self._tables, self._ceilings = _advantage_tables(
                self._policies[0], *self._solved
            )
        self._signature.record(params)
        return True

    def decide(self, ages: np.ndarray) -> np.ndarray:
        """Return the stacked ``(S, R, C)`` update decisions for *ages*.

        Bit-identical to calling each policy's ``decide`` on its own seed's
        ages matrix: the rounding, clamping, gather, argmax, and positive-
        advantage threshold are the same operations applied along one extra
        axis.
        """
        if self._tables is None:
            raise ModelError("prepare() must succeed before decide()")
        ages = np.asarray(ages, dtype=float)
        if np.any(ages < 0) or not np.all(np.isfinite(ages)):
            raise ValidationError("ages must be finite and >= 0")
        return _factored_decisions(self._tables, self._ceilings, ages)


def _factored_decisions(
    tables: np.ndarray, ceilings: np.ndarray, ages: np.ndarray
) -> np.ndarray:
    """The factored controller's binary updates for *ages* (``(..., C)``).

    Each content's age is rounded (``np.rint``, the half-to-even rounding
    of :meth:`AgeGrid.index_of`) and clamped to its grid ceiling, its
    advantage is gathered from *tables* (``(..., C, levels)``), and every
    row refreshes its content of largest advantage if that advantage is
    positive.  One gather and one argmax serve any number of leading axes.
    """
    indices = (np.clip(np.rint(ages), 1.0, ceilings) - 1.0).astype(int)
    advantages = np.take_along_axis(tables, indices[..., np.newaxis], axis=-1)[..., 0]
    best = np.argmax(advantages, axis=-1)
    best_advantage = np.take_along_axis(advantages, best[..., np.newaxis], axis=-1)
    rows = np.nonzero(best_advantage[..., 0] > 1e-12)
    actions = np.zeros(ages.shape, dtype=int)
    actions[rows + (best[rows],)] = 1
    return actions


class _Signature:
    """The parameters models were last made current for; sub-1e-9 jitter
    (the historical signature granularity) does not pay for a re-solve."""

    def __init__(self) -> None:
        self._params: Optional[Tuple[np.ndarray, ...]] = None

    def moved(self, params: Tuple[np.ndarray, ...]) -> Optional[np.ndarray]:
        """Per leading-axis row of *params*, whether it moved past 1e-9.

        Returns ``None`` when *params* equal the recorded ones exactly, and
        all-``True`` when none are recorded or their shape differs.
        """
        previous = self._params
        if previous is not None and all(
            np.array_equal(new, old) for new, old in zip(params, previous)
        ):
            return None
        rows = len(params[0])
        if previous is None or previous[0].shape != params[0].shape:
            return np.ones(rows, dtype=bool)
        moved = np.zeros(rows, dtype=bool)
        for new, old in zip(params, previous):
            changed = np.round(new, 9) != np.round(old, 9)
            moved |= changed.reshape(rows, -1).any(axis=1)
        return moved

    def record(self, params: Tuple[np.ndarray, ...]) -> None:
        """Keep a copy of *params*, the models now being current for them."""
        self._params = tuple(np.array(array, dtype=float) for array in params)


def _advantage_tables(
    policy: MDPCachingPolicy,
    max_ages: np.ndarray,
    popularity: np.ndarray,
    costs: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Advantage rows and grid ceilings for every cell of the parameter arrays.

    Resolves each distinct ``(max_age, popularity, cost)`` key once through
    *policy* (:meth:`MDPCachingPolicy._content_q_values`: the memo, then
    one stacked solve of every key still missing), then gathers:
    entry ``[..., i]`` of the table is ``Q(update) - Q(skip)`` at
    discretised age ``i + 1``, and the ceilings array holds each cell's
    grid ceiling.  Lookups clamp to a cell's own ceiling, so the padding
    past a shorter grid is never read; it repeats the saturated value to
    keep the table self-consistent.
    """
    keys = np.stack((max_ages, popularity, costs), axis=-1).reshape(-1, 3)
    # The distinct rows of keys, like np.unique(keys, axis=0), but by
    # 1-D uniques: inverse numbers the distinct prefixes of the rows, one
    # column at a time (sorting whole rows is several times slower).
    inverse = np.zeros(len(keys), dtype=np.intp)
    for column in keys.T:
        values, codes = np.unique(column, return_inverse=True)
        # The inverse's shape differs across numpy 2.0.x releases; flatten it.
        prefixes = inverse * values.size + codes.reshape(-1)
        inverse = np.unique(prefixes, return_inverse=True)[1].reshape(-1)
    first = np.empty(inverse.max() + 1, dtype=np.intp)
    first[inverse] = np.arange(len(keys))
    q_tables = policy._content_q_values([tuple(key) for key in keys[first].tolist()])
    # A content MDP has one state per grid age: its ceiling.
    levels = max(len(q_values) for q_values in q_tables)
    table = np.empty((len(q_tables), levels))
    ceilings = np.empty(len(q_tables))
    for row, q_values in enumerate(q_tables):
        diff = q_values[:, 1] - q_values[:, 0]
        table[row, : diff.size] = diff
        table[row, diff.size :] = diff[-1]
        ceilings[row] = diff.size
    inverse = inverse.reshape(max_ages.shape)
    return table[inverse], ceilings[inverse]


#: Convergence settings of every content-update solve.
_CONTENT_TOLERANCE = 1e-9
_CONTENT_MAX_ITERATIONS = 10_000

#: Keys per stacked pass.  A pass keeps one residual per key per sweep for
#: the histories, so this bounds its memory when convergence is slow.
_CONTENT_BLOCK = 512


def _solve_content_keys(
    keys: Sequence[Tuple[float, float, float]], config: CachingMDPConfig
) -> List[SolverResult]:
    """Solve the :class:`ContentUpdateMDP` of each ``(max_age, popularity, cost)`` key.

    Every result — values, policy, Q-values, iterations, residual and
    history — is bit-identical to ``value_iteration(ContentUpdateMDP(...),
    discount=config.discount, tolerance=1e-9)`` of its key, but the keys are
    swept together: padded to the largest grid with zero-reward self-loops,
    one Bellman backup ``Q = R + discount * V[successor]`` over all keys per
    sweep, and a key stops updating (and recording history) once it has
    converged.  The same :class:`SolverError` is raised if a key
    does not converge within 10,000 sweeps.
    """
    results: List[SolverResult] = []
    for start in range(0, len(keys), _CONTENT_BLOCK):
        block = keys[start : start + _CONTENT_BLOCK]
        results.extend(_solve_content_block(block, config))
    return results


def _solve_content_block(
    keys: Sequence[Tuple[float, float, float]], config: CachingMDPConfig
) -> List[SolverResult]:
    """One stacked value-iteration pass of :func:`_solve_content_keys`.

    Tables are laid out ``(action, state, key)``, so the per-state maximum
    and the per-key residual are elementwise operations across keys.
    """
    if not keys:
        return []
    max_age, popularity, cost = np.array(keys, dtype=float).T
    ceilings = config.ceilings(max_age)
    num_keys, levels = len(keys), int(ceilings.max())
    states = np.arange(levels)[:, np.newaxis]
    padded = states >= ceilings
    # Successor grid indices (AgeGrid.index_of of the next age): a skip ages
    # the copy by one slot, a refresh restarts it from the rounded refresh
    # age; padded states loop on themselves.
    successors = np.stack(
        np.broadcast_arrays(
            np.minimum(states + 1, ceilings - 1),
            np.minimum(int(round(config.refresh_age)) + 1, ceilings) - 1,
        )
    )
    successors = np.where(padded, states, successors)
    # Flat indices into the (state, key) value matrix: one gather per sweep.
    successors = successors * num_keys + np.arange(num_keys)
    # ContentUpdateMDP.expected_reward, operation for operation.
    post_age = np.stack(np.broadcast_arrays(states + 1.0, config.refresh_age))
    charged = np.stack((np.zeros(num_keys), cost))[:, np.newaxis]
    utility = (max_age / np.maximum(post_age, 1.0)) * popularity
    rewards = config.weight * utility - charged
    rewards = np.where(
        post_age > max_age, rewards - config.violation_penalty, rewards
    )
    rewards = np.where(padded, 0.0, rewards)

    discount = config.discount
    values = np.zeros((levels, num_keys))
    active = np.ones(num_keys, dtype=bool)
    iterations = np.zeros(num_keys, dtype=int)
    residuals: List[np.ndarray] = []
    for sweep in range(1, _CONTENT_MAX_ITERATIONS + 1):
        q_values = rewards + discount * values.take(successors)
        new_values = np.maximum(q_values[0], q_values[1])
        residual = np.abs(new_values - values).max(axis=0)
        residuals.append(residual)
        np.copyto(values, new_values, where=active)
        done = active & (residual <= _CONTENT_TOLERANCE)
        iterations[done] = sweep
        active &= ~done
        if not active.any():
            break
    else:
        residual = residuals[-1][np.flatnonzero(active)[0]]
        raise SolverError(
            f"value iteration did not converge within {_CONTENT_MAX_ITERATIONS} "
            f"iterations (residual {residual:.3e} > tolerance "
            f"{_CONTENT_TOLERANCE:.3e})"
        )

    q_values = rewards + discount * values.take(successors)
    policy = q_values.argmax(axis=0)
    history = np.array(residuals)
    results = []
    for key, (size, sweeps) in enumerate(zip(ceilings.tolist(), iterations.tolist())):
        results.append(
            SolverResult(
                values=values[:size, key].copy(),
                policy=policy[:size, key].astype(int),
                q_values=q_values[:, :size, key].T.copy(),
                iterations=sweeps,
                converged=True,
                residual=float(history[sweeps - 1, key]),
                history=history[:sweeps, key].tolist(),
            )
        )
    return results
