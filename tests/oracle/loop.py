"""One staged reference loop for the cache, service and joint kinds.

The scalar transcription of the paper's two-stage scheme, run seed by
seed over the per-RSU object model of :mod:`oracle.objects`.  Per slot it
follows the package's one slot loop
(:class:`repro.sim.system._StagedStepper`):

1. stage 1, if the kind has a caching policy: the MBS observes every
   (RSU, content) item, the policy decides, the Eq. (1) reward is
   accounted and the chosen copies are refreshed;
2. stage 2, if the kind has a service policy: the slot's requests join
   their RSU's queue, and each RSU expires, observes, decides (Eq. (5))
   and serves, one queue after another;
3. the cached copies age by one slot (only when stage 1 ran: the service
   kind assumes cache management keeps its copies as they started);
4. the MBS regenerates its copies.

Every execution path of the package must reproduce :func:`reference`
byte for byte.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np

from repro.core.policies import CacheObservation, CachingPolicy, ServiceObservation
from repro.core.reward import UtilityFunction
from repro.exceptions import ConfigurationError
from repro.sim.engine import (
    KINDS,
    _materialize,
    _normalize_seeds,
    _replicate,
    _resolve_kind,
)
from repro.sim.metrics import CacheMetrics, ServiceMetrics
from repro.sim.results import (
    CacheSimulationResult,
    JointSimulationResult,
    ServiceSimulationResult,
)
from repro.sim.scenario import ScenarioConfig
from repro.sim.system import SystemState
from repro.utils.validation import check_positive_int

from oracle.objects import RequestQueue, RSUCache


def reference(
    scenario: ScenarioConfig,
    policies: Any,
    *,
    seeds: Any = None,
    num_slots: Optional[int] = None,
    service_batch: Optional[int] = None,
    metrics: str = "full",
) -> Any:
    """The scalar reference loop over *scenario*: the test oracle.

    Takes the arguments of :func:`repro.sim.engine.simulate` (less
    ``kind`` and ``store``) and resolves policies and seeds exactly as it
    does, but runs each seed through :func:`run_one`, one after another,
    and writes nothing to any store.  The multihop kind has no scalar
    loop.
    """
    kind, runs, _ = _resolve_kind(
        policies, kind=None, metrics=metrics, service_batch=service_batch, noun="runs"
    )
    if kind == "multihop":
        raise ConfigurationError("the multihop kind has no scalar reference loop")
    if service_batch is not None:
        check_positive_int(service_batch, "service_batch")
    (run_policies,) = runs
    if seeds is None:
        scenarios = [scenario]
        per_seed = [[_materialize(policy, scenario) for policy in run_policies]]
    else:
        scenarios = [
            scenario.with_overrides(seed=seed)
            for seed in _normalize_seeds(seeds, scenario)
        ]
        per_seed = zip(*(_replicate(policy, scenarios) for policy in run_policies))
    results = [
        run_one(
            kind,
            config,
            seed_policies,
            num_slots=num_slots,
            service_batch=service_batch,
            metrics=metrics,
        )
        for config, seed_policies in zip(scenarios, per_seed)
    ]
    return results[0] if seeds is None else results


def run_one(
    kind: str,
    config: ScenarioConfig,
    policies: Sequence[Any],
    *,
    num_slots: Optional[int],
    service_batch: Optional[int],
    metrics: str,
) -> Any:
    """One run of *kind* on *config*, one policy per role of the kind."""
    num_slots = check_positive_int(
        num_slots if num_slots is not None else config.num_slots, "num_slots"
    )
    roles = dict(zip(KINDS[kind].roles, policies))
    caching, service = roles.get("caching"), roles.get("service")
    state = SystemState(config)
    caches = reference_caches(state)
    queues = [RequestQueue(rsu.rsu_id) for rsu in state.topology.rsus]
    sizing = {"mode": metrics, "expected_slots": num_slots}
    cache_metrics = CacheMetrics(
        config.num_rsus, config.contents_per_rsu, state.max_ages, **sizing
    )
    service_metrics = ServiceMetrics(config.num_rsus, **sizing)
    for policy in policies:
        policy.reset()

    for t in range(num_slots):
        if caching is not None:
            _cache_stage(state, caches, caching, cache_metrics, t)
        if service is not None:
            _service_stage(
                state, caches, queues, service, service_batch, service_metrics, t
            )
        if caching is not None:
            for cache in caches:
                cache.tick(1)
        state.mbs_store.tick(t + 1)

    names = [getattr(policy, "name", type(policy).__name__) for policy in policies]
    if kind == "cache":
        return CacheSimulationResult(
            config, *names, cache_metrics, state.catalog, state.topology
        )
    if kind == "service":
        return ServiceSimulationResult(config, *names, service_metrics)
    return JointSimulationResult(config, *names, cache_metrics, service_metrics)


def reference_caches(state: SystemState) -> List[RSUCache]:
    """One cache object per RSU of *state*, at the state's initial ages."""
    return [
        RSUCache(
            rsu.rsu_id, rsu.covered_regions, state.catalog, initial_ages=state.ages[k]
        )
        for k, rsu in enumerate(state.topology.rsus)
    ]


def cache_ages(caches: Sequence[RSUCache]) -> np.ndarray:
    """The ages of *caches* as a ``(num_rsus, contents_per_rsu)`` matrix."""
    return np.stack([cache.ages for cache in caches])


def observation(
    state: SystemState, time_slot: int, caches: Sequence[RSUCache]
) -> CacheObservation:
    """The MDP observation of *time_slot*, read item by item.

    Ages come from *caches*, and every parameter from the per-content
    catalog descriptors, workload populations and cost-model calls rather
    than from the state's matrices.
    """
    shape = state.max_ages.shape
    max_ages, popularity, costs, mbs_ages = (np.zeros(shape) for _ in range(4))
    for k, rsu in enumerate(state.topology.rsus):
        distance = state.topology.mbs_distance(k)
        population = state.workload.content_population(rsu.rsu_id)
        for slot, content_id in enumerate(rsu.covered_regions):
            content = state.catalog[content_id]
            max_ages[k, slot] = content.max_age
            popularity[k, slot] = population[content_id]
            costs[k, slot] = state.update_cost_model.cost(
                distance=distance, size=content.size, time_slot=time_slot
            )
            mbs_ages[k, slot] = state.mbs_store.age_of(content_id)
    return CacheObservation(
        time_slot=time_slot,
        ages=cache_ages(caches),
        max_ages=max_ages,
        popularity=popularity,
        update_costs=costs,
        mbs_ages=mbs_ages,
    )


def _cache_stage(
    state: SystemState,
    caches: List[RSUCache],
    policy: CachingPolicy,
    metrics: CacheMetrics,
    t: int,
) -> None:
    """Stage 1 of slot *t*: observe, decide, account the reward, refresh."""
    observed = observation(state, t, caches)
    actions = CachingPolicy.validate_actions(policy.decide(observed), observed)
    breakdown = UtilityFunction(
        state.max_ages, observed.update_costs, weight=state.config.aoi_weight
    ).evaluate(observed.ages, actions, state.popularity)
    for k, rsu in enumerate(state.topology.rsus):
        for slot, content_id in enumerate(rsu.covered_regions):
            if actions[k, slot]:
                caches[k].apply_update(content_id)
    metrics.record_slot(t, cache_ages(caches), actions, breakdown)


def _service_stage(
    state: SystemState,
    caches: List[RSUCache],
    queues: List[RequestQueue],
    policy: Any,
    service_batch: Optional[int],
    metrics: ServiceMetrics,
    t: int,
) -> None:
    """Stage 2 of slot *t*: enqueue the slot's requests, then per RSU
    expire, observe, decide and serve."""
    for request in state.workload.generate_slot(
        t, deadline_slots=state.config.deadline_slots
    ):
        queues[request.rsu_id].enqueue(request)

    rows = []
    for k, queue in enumerate(queues):
        queue.expire(t)
        latency = float(queue.total_waiting(t))
        backlog = float(queue.backlog)
        cost = state.service_cost_model.cost(
            distance=0.5 * state.topology.region_length, size=1.0, time_slot=t
        )
        head = queue.head()
        head_age = head_max = slack = None
        if head is not None:
            cache = caches[k]
            if cache.holds(head.content_id):
                head_age = cache.age_of(head.content_id)
                head_max = state.catalog[head.content_id].max_age
            if head.deadline is not None:
                slack = float(head.deadline - t)
        serve = policy.decide(
            ServiceObservation(
                time_slot=t,
                rsu_id=k,
                queue_backlog=latency,
                service_cost=cost,
                departure=latency,
                head_content_age=head_age,
                head_content_max_age=head_max,
                head_deadline_slack=slack,
            )
        ) and not queue.is_empty
        served = []
        if serve:
            batch = queue.backlog if service_batch is None else service_batch
            served = queue.serve(t, min(batch, queue.backlog))
        spent = cost * len(served) if serve else 0.0
        rows.append((backlog, latency, spent, bool(serve), len(served)))
    # Per-RSU backlogs, latencies, costs, decisions and served counts.
    metrics.record_slot(*(list(column) for column in zip(*rows)))
