"""Full two-stage simulator coupling cache management and content service.

The coupled loop has one vectorised per-slot body, :class:`JointStepper`,
which runs along a seed axis: :meth:`JointSimulator.run` and joint
sessions drive it with one seed, :meth:`JointSimulator.run_batch` with
every seed at once.  Both stages record every slot straight into their
collectors through the same bodies as the per-slot reference accounting
(see :mod:`repro.sim.cache_sim` and :mod:`repro.sim.service_sim`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.policies import CachingPolicy, ServicePolicy
from repro.core.reward import UtilityFunction
from repro.net.queueing import RequestQueue
from repro.sim.cache_sim import _BatchedCacheStage, _cache_metrics
from repro.sim.results import JointSimulationResult
from repro.sim.scenario import ScenarioConfig
# _enqueue_batches and _vector_service_slot run inside _ServiceStage (in
# repro.sim.service_sim), not here; they stay importable from this module
# because the benchmark's per-layer tracer (perfbench/tracing.py) patches
# them on both simulator modules.
from repro.sim.service_sim import (  # noqa: F401
    _enqueue_batches,
    _reference_service_slot,
    _seed_horizons,
    _service_metrics,
    _ServiceStage,
    _vector_service_slot,
)
from repro.sim.system import (
    SystemState,
    _expand_batch_policies,
    _policy_name,
    _SeedStepper,
    _Simulator,
    cache_ages,
)

class JointStepper(_SeedStepper):
    """Resumable slot-by-slot execution of the coupled loop along a seed axis.

    Carries one run per ``(config, caching policy, service policy)``
    triple (``S >= 1``): stage 1 runs on the stacked ages tensor of
    :class:`~repro.sim.cache_sim._BatchedCacheStage`, and stage 2
    (:class:`~repro.sim.service_sim._ServiceStage`) reads each seed's live
    post-update (pre-tick) slice of it, preserving the AoI-guard coupling.
    It is the only vectorised two-stage body: :meth:`JointSimulator.run`
    (``S = 1``, per-slot workload draws), :meth:`JointSimulator.run_batch`
    (precomputed horizons), and joint sessions (explicit batches) all
    drive it.
    """

    kind = "joint"

    def __init__(
        self,
        configs: Sequence[ScenarioConfig],
        caching_policies: Sequence[CachingPolicy],
        service_policies: Sequence[ServicePolicy],
        *,
        service_batch: Optional[int] = None,
        metrics: str = "full",
        expected_slots: Optional[int] = None,
    ) -> None:
        super().__init__(configs, metrics=metrics, expected_slots=expected_slots)
        self.caching_policies = list(caching_policies)
        self.service_policies = list(service_policies)
        mode, expected = self.metrics_mode, self.expected_slots
        self.cache_metrics = [
            _cache_metrics(state, mode, expected) for state in self.states
        ]
        self.service_metrics = [
            _service_metrics(config, mode, expected) for config in self.configs
        ]
        for policy in self.caching_policies:
            policy.reset()
        self._cache_stage = _BatchedCacheStage(self.states, self.caching_policies)
        self._service_stage = _ServiceStage(
            self.states, self.service_policies, self.service_metrics, service_batch
        )

    def step(self, batches=None) -> List[dict]:
        """Advance one slot; returns each seed's per-slot aggregates of both stages."""
        t = self.time_slot
        stage = self._cache_stage
        # ---- Stage 1: cache management (seed-batched) --------------------
        aoi, cost, reward = stage.step(t, self.cache_metrics)
        # ---- Stage 2: content service, AoI guard on live ages ------------
        served = self._service_stage.step(t, batches, stage.ages)
        # ---- Advance time ------------------------------------------------
        stage.advance(t)
        self.time_slot = t + 1
        return [
            {
                "aoi_utility": float(a),
                "update_cost": float(c),
                "reward": float(r),
                **service,
            }
            for a, c, r, service in zip(aoi, cost, reward, served)
        ]

    def results(self) -> List[JointSimulationResult]:
        """The runs so far, one result per seed."""
        return [
            JointSimulationResult(
                config=config,
                caching_policy_name=_policy_name(caching_policy),
                service_policy_name=_policy_name(service_policy),
                cache_metrics=cache_metric,
                service_metrics=service_metric,
            )
            for config, caching_policy, service_policy, cache_metric, service_metric
            in zip(
                self.configs, self.caching_policies, self.service_policies,
                self.cache_metrics, self.service_metrics,
            )
        ]


class JointSimulator(_Simulator):
    """Full two-stage simulator coupling cache management and content service.

    Per slot the MBS first applies the caching policy (refreshing cached
    copies and accruing the Eq. (1) reward), then every RSU applies the
    service policy to its request queue with the AoI-validity guard reading
    the *current* cache ages — so a stale cache blocks service until the MBS
    refreshes it, which is exactly the interplay the paper's two-stage design
    argues for.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        caching_policy: CachingPolicy,
        service_policy: ServicePolicy,
        *,
        service_batch: Optional[int] = None,
        metrics: str = "full",
    ) -> None:
        super().__init__(config, service_batch=service_batch, metrics=metrics)
        self._caching_policy = caching_policy
        self._service_policy = service_policy

    def _stepper(
        self,
        num_slots: Optional[int],
        configs=None,
        caching_policies=None,
        service_policies=None,
    ) -> JointStepper:
        """A stepper over *configs* (default: this scenario and policies)."""
        return JointStepper(
            configs or [self._config],
            caching_policies or [self._caching_policy],
            service_policies or [self._service_policy],
            service_batch=self._service_batch,
            metrics=self._metrics_mode,
            expected_slots=num_slots,
        )

    def run(self, *, num_slots: Optional[int] = None) -> JointSimulationResult:
        """Run the coupled simulation and return both stages' metrics."""
        num_slots = self._num_slots(num_slots)
        return self._stepper(num_slots).drive(num_slots)[0]

    def run_batch(
        self,
        seeds: Sequence[int],
        *,
        caching_policies: Optional[Sequence[CachingPolicy]] = None,
        service_policies: Optional[Sequence[ServicePolicy]] = None,
        num_slots: Optional[int] = None,
        horizons: Optional[Sequence] = None,
    ) -> List[JointSimulationResult]:
        """Run one coupled simulation per seed through one seed-axis stepper.

        Stage 1 (cache management) runs on the stacked
        ``(num_seeds, num_rsus, contents_per_rsu)`` ages tensor exactly like
        :meth:`CacheSimulator.run_batch`; stage 2 reads each seed's live
        post-update slice of that tensor, preserving the AoI-guard coupling.
        Bit-identical to per-seed :meth:`run` calls.  *horizons* optionally
        supplies per-seed precomputed arrival tensors (see
        :meth:`ServiceSimulator.run_batch`).
        """
        num_slots = self._num_slots(num_slots)
        seeds = [int(seed) for seed in seeds]
        caching_policies = _expand_batch_policies(
            seeds, caching_policies, self._caching_policy
        )
        service_policies = _expand_batch_policies(
            seeds, service_policies, self._service_policy
        )
        configs = self._seed_configs(seeds)
        stepper = self._stepper(
            num_slots, configs, caching_policies, service_policies
        )
        return stepper.drive(num_slots, _seed_horizons(stepper, horizons, num_slots))

    def _run_reference(
        self, num_slots: Optional[int] = None
    ) -> JointSimulationResult:
        """The original scalar two-stage loop.

        The private test oracle behind ``repro.sim.engine._reference``.
        """
        num_slots = self._num_slots(num_slots)
        state = SystemState(self._config)
        caches = state.reference_caches()
        cache_metrics = _cache_metrics(state, self._metrics_mode, num_slots)
        service_metrics = _service_metrics(self._config, self._metrics_mode, num_slots)
        self._caching_policy.reset()
        self._service_policy.reset()
        queues = [RequestQueue(rsu.rsu_id) for rsu in state.topology.rsus]

        for t in range(num_slots):
            # ---- Stage 1: cache management -------------------------------
            observation = state.observation(t, caches)
            actions = self._caching_policy.decide(observation)
            actions = CachingPolicy.validate_actions(actions, observation)
            costs = observation.update_costs
            breakdown = UtilityFunction(
                state.max_ages, costs, weight=self._config.aoi_weight
            ).evaluate(observation.ages, actions, state.popularity)
            for k, rsu in enumerate(state.topology.rsus):
                for slot, content_id in enumerate(rsu.covered_regions):
                    if actions[k, slot]:
                        caches[k].apply_update(content_id)
            cache_metrics.record_slot(t, cache_ages(caches), actions, breakdown)

            # ---- Stage 2: content service ---------------------------------
            _reference_service_slot(
                state, caches, queues, self._service_policy, self._service_batch,
                service_metrics, t,
                deadline_slots=self._config.deadline_slots,
            )

            # ---- Advance time ---------------------------------------------
            for cache in caches:
                cache.tick(1)
            state.mbs_store.tick(t + 1)
        return JointSimulationResult(
            config=self._config,
            caching_policy_name=_policy_name(self._caching_policy),
            service_policy_name=_policy_name(self._service_policy),
            cache_metrics=cache_metrics,
            service_metrics=service_metrics,
        )
