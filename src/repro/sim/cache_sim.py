"""Stage-1 simulator: MBS cache management over the RSU caches.

Split out of the monolithic ``repro.sim.simulator`` behind the
:func:`repro.sim.engine.simulate` façade; the class surface and every
trajectory are unchanged (pinned by the golden-trajectory and
batch-equivalence suites).

Stage 1 has one vectorised per-slot body, :class:`_BatchedCacheStage`,
driven slot by slot along a seed axis by :class:`CacheStepper`:
:meth:`CacheSimulator.run` and cache sessions run it with one seed,
:meth:`CacheSimulator.run_batch` with every seed at once.  It emits
metrics in blocks of ``block_size`` slots (slot-blocked recording):
per-slot work is the policy decision plus the element-wise reward math,
while the metric bookkeeping — history writes, reward-trace appends,
aggregate reductions — lands in one ``record_block`` call per block.
Blocked emission is byte-identical to per-slot recording; the scalar
``reference=True`` loop still records slot by slot.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.caching_mdp import BatchedCacheDecider
from repro.core.policies import CachingPolicy
from repro.core.reward import UtilityFunction
from repro.net.channel import LinkBudget
from repro.sim.metrics import CacheMetrics
from repro.sim.results import CacheSimulationResult
from repro.sim.scenario import ScenarioConfig
from repro.sim.system import (
    SystemState,
    _expand_batch_policies,
    _policy_name,
    _SeedStepper,
    _Simulator,
)

class _CacheBlockRecorder:
    """Stages per-slot cache metrics and flushes K-slot blocks.

    Full-mode collectors receive the staged age/action matrices (:meth:`add`)
    through :meth:`CacheMetrics.record_block`; summary-mode collectors
    receive only per-slot scalar aggregates (:meth:`add_aggregates`) through
    :meth:`CacheMetrics.record_block_aggregates`, so no matrix ever needs
    staging.  Either way the recorded metrics are byte-identical to
    per-slot :meth:`CacheMetrics.record_slot` calls.
    """

    def __init__(self, metrics: CacheMetrics, shape, block_size: int) -> None:
        self._metrics = metrics
        self.full = metrics.mode == "full"
        block = max(1, int(block_size))
        self._aoi = np.zeros(block)
        self._costs = np.zeros(block)
        self._totals = np.zeros(block)
        self._fill = 0
        self._start = 0
        if self.full:
            self._ages = np.zeros((block, *shape))
            self._actions = np.zeros((block, *shape), dtype=int)
        else:
            self._age_sums = np.zeros(block)
            self._updates = np.zeros(block, dtype=np.int64)
            self._violations = np.zeros(block, dtype=np.int64)

    def _stage(self, time_slot, aoi, cost, total) -> int:
        fill = self._fill
        if fill == 0:
            self._start = time_slot
        self._aoi[fill] = aoi
        self._costs[fill] = cost
        self._totals[fill] = total
        return fill

    def _commit(self, fill: int) -> None:
        self._fill = fill + 1
        if self._fill == self._aoi.shape[0]:
            self.flush()

    def add(self, time_slot, ages, actions, aoi, cost, total) -> None:
        """Stage one slot (post-update ages, actions, reward components).

        Full mode only; summary mode stages :meth:`add_aggregates`.
        """
        fill = self._stage(time_slot, aoi, cost, total)
        self._ages[fill] = ages
        self._actions[fill] = actions
        self._commit(fill)

    def add_aggregates(
        self, time_slot, aoi, cost, total, age_sum, updates, violations
    ) -> None:
        """Stage one slot from pre-reduced aggregates (summary mode only)."""
        fill = self._stage(time_slot, aoi, cost, total)
        self._age_sums[fill] = age_sum
        self._updates[fill] = updates
        self._violations[fill] = violations
        self._commit(fill)

    def flush(self) -> None:
        """Emit the staged slots to the collector."""
        fill = self._fill
        if not fill:
            return
        if self.full:
            self._metrics.record_block(
                self._start,
                self._ages[:fill],
                self._actions[:fill],
                self._aoi[:fill],
                self._costs[:fill],
                self._totals[:fill],
            )
        else:
            self._metrics.record_block_aggregates(
                self._aoi[:fill],
                self._costs[:fill],
                self._totals[:fill],
                self._age_sums[:fill],
                int(self._updates[:fill].sum()),
                int(self._violations[:fill].sum()),
            )
        self._fill = 0


def _cache_metrics(state: SystemState, mode: str, num_slots: int) -> CacheMetrics:
    """A stage-1 collector sized for *state*'s grid and *num_slots* slots."""
    config = state.config
    return CacheMetrics(
        config.num_rsus,
        config.contents_per_rsu,
        state.max_ages,
        mode=mode,
        expected_slots=num_slots,
    )


def _cache_recorders(states, metrics, block: int) -> List[_CacheBlockRecorder]:
    """One staged recorder per seed's stage-1 collector."""
    config = states[0].config
    shape = (config.num_rsus, config.contents_per_rsu)
    return [_CacheBlockRecorder(metric, shape, block) for metric in metrics]


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
        self.ages = np.stack([state.ages_matrix() for state in states])
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
            self._costs = np.stack(
                [state.update_costs_vector(time_slot) for state in self.states]
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
            observation = state.observation_vector(
                time_slot, self.ages[s].copy(), copy=False
            )
            actions = self.policies[s].decide(observation)
            per_seed.append(CachingPolicy.validate_actions(actions, observation))
        return np.stack(per_seed)

    def step(self, time_slot: int, recorders: List[_CacheBlockRecorder]):
        """Run one slot: decide, account the Eq. (1) reward, apply updates.

        Returns the per-seed ``(aoi_utility, update_cost, reward)`` arrays.
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
        if recorders and not recorders[0].full:
            # Summary-mode fast path: reduce every seed's slot in one pass
            # over the stacked tensors (identical per-row reductions to the
            # per-seed record_slot calls) and stage scalars only.
            age_sums = post_ages.reshape(num_seeds, -1).sum(axis=1)
            updates = actions.reshape(num_seeds, -1).sum(axis=1)
            violations = (post_ages > self.max_ages).reshape(num_seeds, -1).sum(axis=1)
            for s, recorder in enumerate(recorders):
                recorder.add_aggregates(
                    time_slot,
                    aoi_totals[s],
                    cost_totals[s],
                    totals[s],
                    age_sums[s],
                    int(updates[s]),
                    int(violations[s]),
                )
        else:
            for s, recorder in enumerate(recorders):
                recorder.add(
                    time_slot,
                    post_ages[s],
                    actions[s],
                    aoi_totals[s],
                    cost_totals[s],
                    totals[s],
                )
        return aoi_totals, cost_totals, totals

    def advance(self, time_slot: int) -> None:
        """Age every cached copy by one slot and regenerate the MBS copies.

        In place: every same-slot consumer (recorders, the joint service
        stage's AoI guard) has already read — or copied — the post-update
        ages by the time the loop advances.
        """
        np.add(self.ages, 1.0, out=self.ages)
        np.minimum(self.ages, self.ceilings, out=self.ages)
        for state in self.states:
            state.mbs_store.tick(time_slot + 1)


class CacheStepper(_SeedStepper):
    """Resumable slot-by-slot execution of the stage-1 loop along a seed axis.

    Carries one run per ``(config, policy)`` pair (``S >= 1``) through
    :class:`_BatchedCacheStage` with one staged metrics recorder per seed.
    It is the only vectorised stage-1 body: :meth:`CacheSimulator.run`
    (``S = 1``), :meth:`CacheSimulator.run_batch`, and cache sessions all
    drive it.  Taking configs rather than seeds, it also runs a scenario
    with ``seed=None``.  Stage 1 consumes no request arrivals, so the
    ``batches`` argument is accepted (for a uniform stepper surface) and
    ignored.
    """

    kind = "cache"

    def __init__(
        self,
        configs: Sequence[ScenarioConfig],
        policies: Sequence[CachingPolicy],
        *,
        metrics: str = "full",
        block_size: Optional[int] = None,
        expected_slots: Optional[int] = None,
    ) -> None:
        super().__init__(
            configs, metrics=metrics, block_size=block_size,
            expected_slots=expected_slots,
        )
        self.policies = list(policies)
        self.metrics = [
            _cache_metrics(state, self.metrics_mode, self.expected_slots)
            for state in self.states
        ]
        for policy in self.policies:
            policy.reset()
        self._stage = _BatchedCacheStage(self.states, self.policies)
        self._recorders = _cache_recorders(self.states, self.metrics, self.block)

    def step(self, batches=None) -> List[dict]:
        """Advance one slot; returns each seed's reward components."""
        t = self.time_slot
        aoi, cost, reward = self._stage.step(t, self._recorders)
        self._stage.advance(t)
        self.time_slot = t + 1
        return [
            {"aoi_utility": float(a), "update_cost": float(c), "reward": float(r)}
            for a, c, r in zip(aoi, cost, reward)
        ]

    def results(self) -> List[CacheSimulationResult]:
        """The runs so far, one result per seed (flushes staged blocks)."""
        for recorder in self._recorders:
            recorder.flush()
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
    reference:
        When ``True``, run the original scalar per-(RSU, content) loop; the
        default runs the vectorised loop, which produces bit-for-bit
        identical trajectories (see tests/sim/test_vectorized_equivalence.py)
        at a fraction of the per-slot cost.
    metrics:
        Metric collection mode, ``"full"`` (default) or ``"summary"`` —
        see :mod:`repro.sim.metrics`.  ``summary()`` / ``rows()`` output is
        byte-identical; ``"summary"`` keeps memory flat in the grid size.
    block_size:
        Slots staged per metrics flush in the vectorised loops (default
        :data:`~repro.sim.metrics.DEFAULT_BLOCK_SLOTS`); byte-identical for
        any value.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        policy: CachingPolicy,
        *,
        reference: bool = False,
        metrics: str = "full",
        block_size: Optional[int] = None,
    ) -> None:
        super().__init__(
            config, reference=reference, metrics=metrics, block_size=block_size
        )
        self._policy = policy

    @property
    def policy(self) -> CachingPolicy:
        """The caching policy under evaluation."""
        return self._policy

    def _stepper(
        self, num_slots: Optional[int], configs=None, policies=None
    ) -> CacheStepper:
        """A stepper over *configs* (default: this scenario and policy)."""
        return CacheStepper(
            configs or [self._config],
            policies or [self._policy],
            metrics=self._metrics_mode,
            block_size=self._block_size,
            expected_slots=num_slots,
        )

    def run(self, *, num_slots: Optional[int] = None) -> CacheSimulationResult:
        """Run the simulation and return the recorded result."""
        num_slots = self._num_slots(num_slots)
        if self._reference:
            state = SystemState(self._config)
            metrics = _cache_metrics(state, self._metrics_mode, num_slots)
            self._policy.reset()
            self._run_reference(state, metrics, num_slots)
            return CacheSimulationResult(
                config=self._config,
                policy_name=_policy_name(self._policy),
                metrics=metrics,
                catalog=state.catalog,
                topology=state.topology,
            )
        return self._stepper(num_slots).drive(num_slots)[0]

    def run_batch(
        self,
        seeds: Sequence[int],
        *,
        policies: Optional[Sequence[CachingPolicy]] = None,
        num_slots: Optional[int] = None,
    ) -> List[CacheSimulationResult]:
        """Run one simulation per seed through a single seed-batched loop.

        Equivalent — bit for bit — to calling :meth:`run` once per seed on
        ``config.with_overrides(seed=seed)``, but the hot loop carries all
        seeds through ``(num_seeds, num_rsus, contents_per_rsu)`` tensors, so
        one vectorised slot replaces ``len(seeds)`` separate ones.

        Parameters
        ----------
        seeds:
            Master scenario seeds, one per run.
        policies:
            Optional per-seed policy instances (e.g. factory-built); omitted,
            each run gets a deep copy of the simulator's policy, exactly as
            the per-run path would.
        num_slots:
            Optional horizon override shared by every run.
        """
        num_slots = self._num_slots(num_slots)
        seeds = [int(seed) for seed in seeds]
        policies = _expand_batch_policies(seeds, policies, self._policy)
        configs = self._seed_configs(seeds)
        if self._reference:
            # The scalar loop has no tensor twin; replay it per seed.
            return [
                CacheSimulator(
                    config,
                    policy,
                    reference=True,
                    metrics=self._metrics_mode,
                    block_size=self._block_size,
                ).run(num_slots=num_slots)
                for config, policy in zip(configs, policies)
            ]
        return self._stepper(num_slots, configs, policies).drive(num_slots)

    def _run_reference(
        self, state: SystemState, metrics: CacheMetrics, num_slots: int
    ) -> None:
        """The original scalar loop: one Python iteration per (RSU, slot)."""
        mbs_budget = LinkBudget()

        for t in range(num_slots):
            observation = state.observation(t)
            actions = self._policy.decide(observation)
            actions = CachingPolicy.validate_actions(actions, observation)
            costs = observation.update_costs
            breakdown = UtilityFunction(
                state.max_ages, costs, weight=self._config.aoi_weight
            ).evaluate(observation.ages, actions, state.popularity)
            # Apply the chosen updates to the caches.
            for k, rsu in enumerate(state.topology.rsus):
                for slot, content_id in enumerate(rsu.covered_regions):
                    if actions[k, slot]:
                        state.caches[k].apply_update(content_id)
                        mbs_budget.charge(costs[k, slot])
            metrics.record_slot(t, state.ages_matrix(), actions, breakdown)
            # Advance time: cached copies age by one slot, the MBS regenerates.
            for cache in state.caches:
                cache.tick(1)
            state.mbs_store.tick(t + 1)
