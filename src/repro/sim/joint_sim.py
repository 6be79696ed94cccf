"""Full two-stage simulator coupling cache management and content service.

The joint kind is stage 1 followed by stage 2 in one slot: its stepper,
:class:`JointStepper`, sets up both stages and runs them in the slot loop
the cache and service kinds share (:class:`~repro.sim.system._StagedStepper`),
along a seed axis: :meth:`JointSimulator.run` and joint sessions drive it
with one seed, :meth:`JointSimulator.run_batch` with every seed at once.
Both stages record every slot straight into their collectors (see
:mod:`repro.sim.cache_sim` and :mod:`repro.sim.service_sim`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.policies import CachingPolicy, ServicePolicy
from repro.sim.cache_sim import _BatchedCacheStage, _cache_metrics_per_seed
from repro.sim.results import JointSimulationResult
from repro.sim.scenario import ScenarioConfig
# _enqueue_batches and _vector_service_slot run inside _ServiceStage (in
# repro.sim.service_sim), not here; they stay importable from this module
# because the benchmark's per-layer tracer (perfbench/tracing.py) patches
# them on both simulator modules.
from repro.sim.service_sim import (  # noqa: F401
    _enqueue_batches,
    _service_metrics_per_seed,
    _ServiceStage,
    _vector_service_slot,
)
from repro.sim.system import _policy_name, _Simulator, _StagedStepper

class JointStepper(_StagedStepper):
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
        self.cache_metrics = _cache_metrics_per_seed(self)
        self.service_metrics = _service_metrics_per_seed(self)
        for policy in self.caching_policies:
            policy.reset()
        self._cache_stage = _BatchedCacheStage(self.states, self.caching_policies)
        self._service_stage = _ServiceStage(
            self.states, self.service_policies, self.service_metrics, service_batch
        )

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

    _stepper_class = JointStepper

    def __init__(
        self,
        config: ScenarioConfig,
        caching_policy: CachingPolicy,
        service_policy: ServicePolicy,
        *,
        service_batch: Optional[int] = None,
        metrics: str = "full",
    ) -> None:
        super().__init__(
            config,
            (caching_policy, service_policy),
            service_batch=service_batch,
            metrics=metrics,
        )

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

        The shared ``run_batch`` body of
        :class:`~repro.sim.system._Simulator`, with the per-seed policies
        named per role: bit-identical to per-seed :meth:`run` calls.
        """
        return super().run_batch(
            seeds,
            policies=(caching_policies, service_policies),
            num_slots=num_slots,
            horizons=horizons,
        )
