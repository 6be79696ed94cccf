"""Stage-1 simulator: MBS cache management over the RSU caches.

Stage 1 has one vectorised per-slot body, :class:`_BatchedCacheStage`,
driven slot by slot along a seed axis by :class:`CacheStepper` (and, with
stage 2 after it, by the joint kind's stepper) through the shared slot
loop of :class:`~repro.sim.system._StagedStepper`:
:meth:`CacheSimulator.run` and cache sessions run it with one seed,
:meth:`CacheSimulator.run_batch` with every seed at once.  Per slot it
makes the policy decision, does the element-wise reward math, and records
the slot of every seed into the collectors in one
:meth:`~repro.sim.metrics.CacheMetrics.record_stacked_slot` call.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.caching_mdp import BatchedCacheDecider
from repro.core.policies import CachingPolicy
from repro.sim.metrics import CacheMetrics
from repro.sim.results import CacheSimulationResult
from repro.sim.scenario import ScenarioConfig
from repro.sim.system import (
    SystemState,
    _policy_name,
    _Simulator,
    _StagedStepper,
)

def _cache_metrics_per_seed(stepper: _StagedStepper) -> List[CacheMetrics]:
    """One stage-1 collector per seed of *stepper*."""
    return [
        CacheMetrics(
            state.config.num_rsus,
            state.config.contents_per_rsu,
            state.max_ages,
            mode=stepper.metrics_mode,
            expected_slots=stepper.expected_slots,
        )
        for state in stepper.states
    ]


class _BatchedCacheStage:
    """Seed-axis tensor execution of the stage-1 (cache management) loop.

    Stacks the per-seed ages, parameter, and cost matrices into
    ``(num_seeds, num_rsus, contents_per_rsu)`` tensors and replays the
    vectorised per-run loop along the leading seed axis: the element-wise
    updates are the identical float operations, and the per-seed reward
    reductions run over the same contiguous buffers, so every seed's
    trajectory is bit-identical to its own per-run execution (pinned by
    tests/sim/test_batch_equivalence.py).

    Policies decide through :class:`~repro.core.caching_mdp.BatchedCacheDecider`
    when every seed runs the factored MDP controller — one stacked gather +
    argmax per slot — and fall back to per-seed ``decide`` calls (identical
    results, per-run speed) for exact-mode or non-MDP policies.
    """

    def __init__(self, states: List[SystemState], policies: List) -> None:
        self.states = states
        self.policies = policies
        self.ages = np.stack([state.ages for state in states])
        self.max_ages = np.stack([state.max_ages for state in states])
        self.popularity = np.stack([state.popularity for state in states])
        self.ceilings = np.stack([state.cache_ceilings for state in states])
        self.weight = states[0].config.aoi_weight
        self.time_varying = states[0].update_cost_model.time_varying
        self._decider = (
            BatchedCacheDecider(policies)
            if BatchedCacheDecider.supports(policies)
            else None
        )
        self._batched = self._decider is not None
        self._costs: Optional[np.ndarray] = None
        # Persistent element-wise scratch tensors: the per-slot math reuses
        # them instead of allocating fresh (S, R, C) temporaries every slot.
        self._post = np.empty_like(self.ages)
        self._scratch = np.empty_like(self.ages)
        self._cost_scratch = np.empty_like(self.ages)

    def slot_costs(self, time_slot: int) -> np.ndarray:
        """Stacked per-seed update costs for *time_slot* (cached when static)."""
        if self._costs is None or self.time_varying:
            # Copying first leaves holes between the cached matrices that the
            # per-slot temporaries of the per-seed decide path reuse; at the
            # heap top glibc would trim and re-fault them every slot.
            self._costs = np.stack(
                [state.update_costs_vector(time_slot).copy() for state in self.states]
            )
        return self._costs

    def decide(self, time_slot: int, costs: np.ndarray) -> np.ndarray:
        """Stacked update decisions of every seed's policy for this slot."""
        if self._batched and (time_slot == 0 or self.time_varying):
            # Static parameters only need ensuring once: later slots would
            # hit the policy's exact-equality fast path and change nothing.
            self._batched = self._decider.prepare(
                self.max_ages, self.popularity, costs
            )
        if self._batched:
            return self._decider.decide(self.ages)
        per_seed = []
        for s, state in enumerate(self.states):
            # The static parameter matrices are never mutated, so aliasing
            # them is safe even for policies that retain observations; the
            # ages tensor *is* recycled in place across slots, so each
            # seed's slice is copied out.
            observation = state.observation_vector(time_slot, self.ages[s].copy())
            actions = self.policies[s].decide(observation)
            per_seed.append(CachingPolicy.validate_actions(actions, observation))
        return np.stack(per_seed)

    def step(self, time_slot: int, metrics: List[CacheMetrics]):
        """Run one slot: decide, account the Eq. (1) reward, apply updates.

        Records the slot into each seed's collector in *metrics* and returns
        the per-seed ``(aoi_utility, update_cost, reward)`` arrays.
        """
        costs = self.slot_costs(time_slot)
        actions = self.decide(time_slot, costs)
        num_seeds = len(self.states)
        # Batched twin of UtilityFunction.evaluate: identical element-wise
        # expressions (bit for bit), reduced per seed over the same
        # contiguous layout — written into the persistent scratch tensors
        # so the per-slot loop allocates nothing of O(grid) size.
        post_ages = self._post
        np.copyto(post_ages, self.ages)
        post_ages[actions > 0] = 1.0
        scratch = self._scratch
        np.maximum(post_ages, 1.0, out=scratch)
        np.divide(self.max_ages, scratch, out=scratch)
        np.multiply(scratch, self.popularity, out=scratch)
        aoi_totals = scratch.reshape(num_seeds, -1).sum(axis=1)
        np.multiply(actions, costs, out=self._cost_scratch)
        cost_totals = self._cost_scratch.reshape(num_seeds, -1).sum(axis=1)
        totals = self.weight * aoi_totals - cost_totals
        # Swap buffers: the outgoing ages tensor becomes next slot's scratch.
        self._post = self.ages
        self.ages = post_ages
        CacheMetrics.record_stacked_slot(
            metrics, time_slot, post_ages, actions, self.max_ages,
            aoi_totals, cost_totals, totals,
        )
        return aoi_totals, cost_totals, totals

    def advance(self) -> None:
        """Age every cached copy by one slot.

        In place: every same-slot consumer (collectors, the joint service
        stage's AoI guard) has already read — or copied — the post-update
        ages by the time the loop advances.
        """
        np.add(self.ages, 1.0, out=self.ages)
        np.minimum(self.ages, self.ceilings, out=self.ages)


class CacheStepper(_StagedStepper):
    """Resumable slot-by-slot execution of the stage-1 loop along a seed axis.

    Carries one run per ``(config, policy)`` pair (``S >= 1``) through
    :class:`_BatchedCacheStage` with one metrics collector per seed, in the
    shared slot loop of :class:`~repro.sim.system._StagedStepper`.
    It is the only vectorised stage-1 body: :meth:`CacheSimulator.run`
    (``S = 1``), :meth:`CacheSimulator.run_batch`, and cache sessions all
    drive it.  Taking configs rather than seeds, it also runs a scenario
    with ``seed=None``.  Stage 1 consumes no request arrivals, so the
    ``batches`` argument of ``step`` is accepted (for a uniform stepper
    surface) and ignored.
    """

    kind = "cache"

    def __init__(
        self,
        configs: Sequence[ScenarioConfig],
        policies: Sequence[CachingPolicy],
        *,
        metrics: str = "full",
        expected_slots: Optional[int] = None,
    ) -> None:
        super().__init__(configs, metrics=metrics, expected_slots=expected_slots)
        self.policies = list(policies)
        self.metrics = self.cache_metrics = _cache_metrics_per_seed(self)
        for policy in self.policies:
            policy.reset()
        self._cache_stage = _BatchedCacheStage(self.states, self.policies)

    def results(self) -> List[CacheSimulationResult]:
        """The runs so far, one result per seed."""
        return [
            CacheSimulationResult(
                config=config,
                policy_name=_policy_name(policy),
                metrics=metric,
                catalog=state.catalog,
                topology=state.topology,
            )
            for config, policy, metric, state in zip(
                self.configs, self.policies, self.metrics, self.states
            )
        ]


class CacheSimulator(_Simulator):
    """Stage-1 simulator: MBS cache management over the RSU caches.

    Parameters
    ----------
    config:
        The scenario to simulate.
    policy:
        The caching policy the MBS uses (the paper's
        :class:`~repro.core.caching_mdp.MDPCachingPolicy` or any baseline).
    metrics:
        Metric collection mode, ``"full"`` (default) or ``"summary"`` —
        see :mod:`repro.sim.metrics`.  ``summary()`` / ``rows()`` output is
        byte-identical; ``"summary"`` keeps memory flat in the grid size.
    """

    _stepper_class = CacheStepper

    def __init__(
        self,
        config: ScenarioConfig,
        policy: CachingPolicy,
        *,
        metrics: str = "full",
    ) -> None:
        super().__init__(config, (policy,), metrics=metrics)

    @property
    def policy(self) -> CachingPolicy:
        """The caching policy under evaluation."""
        return self._policies[0]
