"""Multihop simulator: graph-routed requests over the network core.

The ``multihop`` scenario kind generalises the paper's single-RSU caching
model: requests enter at their receiver RSU and, on a miss, route over the
:class:`~repro.net.model.NetworkModel` graph toward neighbour RSUs and then
the origin (the MBS), with per-hop latency accounting and strategy-chosen
cache placement along the delivery path.

All three policy roles run through this one simulator, so the Icarus
on-path family and the paper's controllers compare on one grid:

* **onpath** strategies (``lce``, ``lcd``, ``probcache``, ``partition``,
  ``cl4m``, ``edge``) decide placement per delivery; the degenerate
  ``edge`` + star configuration reproduces the single-RSU model exactly
  (pinned by the golden equivalence tests).
* **caching** policies (``mdp``, ``myopic``, …) keep the legacy static
  placement — each RSU holds its covered contents — and decide per-slot
  MBS refreshes through the standard
  :class:`~repro.core.policies.CacheObservation`; misses route to the
  origin *without* inserting copies, so the cache state stays exactly the
  policy's.
* **service** policies (``lyapunov``, …) gate per-RSU request queues: a
  deferred queue accrues waiting latency, a served queue routes each
  request edge-style (receiver-only placement).

There is a single execution path and no scalar reference loop: the
per-request graph walk has no tensor twin to check against one.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.policies import CachingPolicy, ServiceObservation, ServicePolicy
from repro.exceptions import ConfigurationError
from repro.net.controller import NetworkController, SessionResult
from repro.net.model import NetworkModel
from repro.net.view import NetworkView
from repro.policies.onpath import EdgeCaching, OnPathStrategy
from repro.sim.metrics import MultihopMetrics, check_metrics_mode
from repro.sim.results import MultihopSimulationResult
from repro.sim.scenario import ScenarioConfig
from repro.sim.system import SystemState, _expand_batch_policies, _Simulator

MultihopPolicy = Union[OnPathStrategy, CachingPolicy, ServicePolicy]


def _policy_role(policy: MultihopPolicy) -> str:
    if isinstance(policy, OnPathStrategy):
        return "onpath"
    if isinstance(policy, CachingPolicy):
        return "caching"
    if isinstance(policy, ServicePolicy):
        return "service"
    raise ConfigurationError(
        "a multihop policy must be an OnPathStrategy, CachingPolicy, or "
        f"ServicePolicy instance; got {type(policy).__name__}"
    )


def _warm_network_caches(
    config: ScenarioConfig, state: SystemState, network: NetworkModel, role: str
) -> None:
    """Seed the network caches with the legacy warm placement.

    Each RSU node starts holding its covered contents at the exact ages
    the :class:`~repro.sim.system.SystemState` drew (randomised when
    ``random_initial_ages``) — the same starting state every legacy
    simulator sees.
    """
    if role == "caching" and (
        network.cache_capacity < config.contents_per_rsu
    ):
        raise ConfigurationError(
            "caching-role multihop runs keep the legacy static placement "
            f"and need cache_capacity >= contents_per_rsu "
            f"({config.contents_per_rsu}), got {network.cache_capacity}"
        )
    for k, (contents, ages) in enumerate(zip(state.content_ids, state.ages)):
        node_cache = network.cache(k)
        for content_id, age in zip(contents.tolist(), ages.tolist()):
            node_cache.put(content_id, age=age)


class MultihopStepper:
    """Resumable one-slot-at-a-time execution of the multihop loop.

    Construction replays exactly what :meth:`MultihopSimulator.run` builds
    up front (network graph, warm caches, view/controller, role dispatch);
    :meth:`step` then runs one slot of the role-specific body, so driving
    a stepper to the horizon is byte-identical to ``run()`` — which is now
    a thin driver over this class.  ``batches=None`` draws the slot's
    requests from the scenario workload; a live session passes explicit
    ``(receiver, content_ids)`` batches instead.
    """

    kind = "multihop"

    def __init__(
        self,
        config: ScenarioConfig,
        policy: MultihopPolicy,
        *,
        metrics: str = "full",
        expected_slots: Optional[int] = None,
    ) -> None:
        expected = int(
            expected_slots if expected_slots is not None else config.num_slots
        )
        self.config = config
        self.policy = policy
        self.role = _policy_role(policy)
        self.state = SystemState(config)
        self.network = NetworkModel(
            self.state.topology,
            kind=config.topology_kind,
            cost_model=self.state.service_cost_model,
            cache_capacity=config.cache_capacity,
            hop_delay=config.hop_delay,
        )
        _warm_network_caches(config, self.state, self.network, self.role)
        self.view = NetworkView(self.network)
        self.controller = NetworkController(self.network)
        # Per-content freshness bounds as a list: the per-request reads
        # are scalar.
        self._max_ages = self.state.catalog.max_ages.tolist()
        self.metrics = MultihopMetrics(
            mode=check_metrics_mode(metrics), expected_slots=expected
        )
        policy_reset = getattr(policy, "reset", None)
        if callable(policy_reset):
            policy_reset()
        if self.role == "onpath":
            policy.attach(self.view, self.controller)
            self._step_slot = self._step_onpath
        elif self.role == "caching":
            self._content_ids = self.state.content_ids
            self._step_slot = self._step_caching
        else:
            self._queues: List[deque] = [deque() for _ in range(config.num_rsus)]
            self._edge = EdgeCaching()
            self._edge.attach(self.view, self.controller)
            self._origin = self.view.origin
            self._step_slot = self._step_service
        self.time_slot = 0

    def step(self, batches=None) -> dict:
        """Advance one slot; returns the slot's routing aggregates."""
        t = self.time_slot
        if batches is None:
            batches = self.state.workload.generate_slot_contents(t)
        row = self._step_slot(t, batches)
        self.controller.tick(1)
        self.state.mbs_store.tick(t + 1)
        self.time_slot = t + 1
        return row

    def _route(
        self, strategy: OnPathStrategy, t: int, receiver: int, content_id
    ) -> SessionResult:
        content_id = int(content_id)
        return strategy.process_request(
            t, receiver, content_id, max_age=self._max_ages[content_id]
        )

    def _route_static(self, t: int, receiver: int, content_id) -> SessionResult:
        """Route a request over static caches without inserting copies.

        Used by caching-role runs: serve at the first node on the route
        with a fresh-enough copy and account the delivery leg back, but
        never place a copy, so the cache state remains exactly what the
        caching policy dictates.
        """
        content_id = int(content_id)
        controller = self.controller
        route = self.view.route(receiver)
        controller.start_session(
            t, receiver, content_id, max_age=self._max_ages[content_id]
        )
        controller.forward_request_path(route, controller.find_content(route))
        controller.forward_content_path()
        return controller.end_session()

    def _step_onpath(self, t: int, batches) -> dict:
        strategy = self.policy
        sessions: List[SessionResult] = []
        for receiver, contents in batches:
            for content_id in contents:
                sessions.append(self._route(strategy, t, receiver, content_id))
        hits = sum(1 for s in sessions if s.hit)
        latency = float(sum(s.latency for s in sessions))
        hops = sum(s.hops for s in sessions)
        self.metrics.record_slot(
            requests=len(sessions),
            served=len(sessions),
            hits=hits,
            latency=latency,
            hops=hops,
            sessions=sessions,
        )
        return {
            "requests": float(len(sessions)),
            "served": float(len(sessions)),
            "hits": float(hits),
            "latency": latency,
            "hops": float(hops),
        }

    def _step_caching(self, t: int, batches) -> dict:
        """Static placement + MDP-style refreshes, with on-path routing.

        The cache state each slot is exactly what the caching policy
        dictates: requests never insert or evict copies (a fetched copy is
        consumed by the requester, not cached), so the age trajectories
        match the legacy stage-1 simulator slot for slot.
        """
        state = self.state
        policy = self.policy
        network = self.network
        controller = self.controller
        content_ids = self._content_ids
        num_rsus, per_rsu = content_ids.shape
        # 1. The MBS decides and pushes refreshes (stage-1 semantics).
        ages = np.empty((num_rsus, per_rsu), dtype=float)
        for k in range(num_rsus):
            node_cache = network.cache(k)
            for slot in range(per_rsu):
                ages[k, slot] = node_cache.age_of(content_ids[k, slot])
        observation = state.observation_vector(t, ages)
        actions = policy.decide(observation)
        actions = CachingPolicy.validate_actions(actions, observation)
        costs = observation.update_costs
        updates = 0
        update_cost = 0.0
        for k in range(num_rsus):
            for slot in range(per_rsu):
                if actions[k, slot]:
                    controller.refresh_content(
                        k, content_ids[k, slot], age=1.0
                    )
                    updates += 1
                    update_cost += float(costs[k, slot])
        # 2. Requests route over the refreshed caches.
        sessions: List[SessionResult] = []
        for receiver, contents in batches:
            for content_id in contents:
                sessions.append(self._route_static(t, receiver, content_id))
        hits = sum(1 for s in sessions if s.hit)
        latency = float(sum(s.latency for s in sessions))
        hops = sum(s.hops for s in sessions)
        self.metrics.record_slot(
            requests=len(sessions),
            served=len(sessions),
            hits=hits,
            latency=latency,
            hops=hops,
            updates=updates,
            update_cost=update_cost,
            sessions=sessions,
        )
        return {
            "requests": float(len(sessions)),
            "served": float(len(sessions)),
            "hits": float(hits),
            "latency": latency,
            "hops": float(hops),
            "updates": float(updates),
            "update_cost": update_cost,
        }

    def _step_service(self, t: int, batches) -> dict:
        """Per-RSU queues gated by the service policy, edge-style routing.

        Mirrors the stage-2 simulator's observation conventions: the
        ``queue_backlog``/``departure`` fields carry the queue's total
        waiting time, and a ``True`` decision drains the whole queue.
        """
        policy = self.policy
        view = self.view
        queues = self._queues
        arrivals = 0
        for receiver, contents in batches:
            for content_id in contents:
                queues[receiver].append((t, int(content_id)))
                arrivals += 1
        served = 0
        hits = 0
        latency = 0.0
        waiting = 0.0
        hops = 0
        sessions: List[SessionResult] = []
        for k in range(self.config.num_rsus):
            queue = queues[k]
            total_waiting = float(sum(t - issue for issue, _ in queue))
            head_age = head_max = None
            if queue:
                _, head_content = queue[0]
                age = view.cache_age(k, head_content)
                if age is not None:
                    head_age = float(age)
                    head_max = self._max_ages[head_content]
            observation = ServiceObservation(
                time_slot=t,
                rsu_id=k,
                queue_backlog=total_waiting,
                service_cost=2.0 * view.path_delay(k, self._origin),
                departure=total_waiting,
                head_content_age=head_age,
                head_content_max_age=head_max,
            )
            serve = policy.decide(observation) and bool(queue)
            if not serve:
                continue
            while queue:
                issue_slot, content_id = queue.popleft()
                session = self._route(self._edge, t, k, content_id)
                sessions.append(session)
                served += 1
                hits += int(session.hit)
                latency += session.latency
                waiting += float(t - issue_slot)
                hops += session.hops
        self.metrics.record_slot(
            requests=arrivals,
            served=served,
            hits=hits,
            latency=latency,
            waiting=waiting,
            hops=hops,
            sessions=sessions,
        )
        return {
            "requests": float(arrivals),
            "served": float(served),
            "hits": float(hits),
            "latency": latency,
            "hops": float(hops),
            "waiting": waiting,
        }

    def result(self) -> MultihopSimulationResult:
        """The run so far, wrapped exactly like :meth:`MultihopSimulator.run`."""
        return MultihopSimulationResult(
            config=self.config,
            policy_name=getattr(self.policy, "name", type(self.policy).__name__),
            metrics=self.metrics,
            catalog=self.state.catalog,
            topology=self.state.topology,
        )


class MultihopSimulator(_Simulator):
    """Simulator for the ``multihop`` scenario kind.

    Parameters
    ----------
    config:
        The scenario to simulate; ``topology_kind``, ``cache_capacity``,
        and ``hop_delay`` shape the network graph.
    policy:
        An on-path strategy, a caching policy, or a service policy (see
        the module docstring for how each role is driven).
    metrics:
        ``"full"`` additionally keeps per-session routing records;
        ``"summary"`` keeps per-slot aggregates only.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        policy: MultihopPolicy,
        *,
        metrics: str = "full",
    ) -> None:
        super().__init__(config, metrics=metrics)
        # The role is resolved lazily (in run()): batch callers construct
        # the simulator with a placeholder policy and pass the per-seed
        # instances to run_batch(policies=...), like the other simulators.
        self._policy = policy

    @property
    def policy(self) -> MultihopPolicy:
        """The policy under evaluation."""
        return self._policy

    @property
    def role(self) -> str:
        """``"onpath"``, ``"caching"``, or ``"service"``."""
        return _policy_role(self._policy)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, *, num_slots: Optional[int] = None) -> MultihopSimulationResult:
        """Run the simulation and return the recorded result."""
        num_slots = self._num_slots(num_slots)
        stepper = MultihopStepper(
            self._config,
            self._policy,
            metrics=self._metrics_mode,
            expected_slots=num_slots,
        )
        for _ in range(num_slots):
            stepper.step()
        return stepper.result()

    def run_batch(
        self,
        seeds: Sequence[int],
        *,
        policies: Optional[Sequence[MultihopPolicy]] = None,
        num_slots: Optional[int] = None,
    ) -> List[MultihopSimulationResult]:
        """Run one simulation per seed (the per-request loop has no tensor
        twin, so this is an exact per-seed replay — trivially bit-identical
        to per-run execution)."""
        num_slots = self._num_slots(num_slots)
        seeds = [int(seed) for seed in seeds]
        policies = _expand_batch_policies(seeds, policies, self._policy)
        return [
            MultihopSimulator(config, policy, metrics=self._metrics_mode).run(
                num_slots=num_slots
            )
            for config, policy in zip(self._seed_configs(seeds), policies)
        ]
