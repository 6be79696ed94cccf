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

Like the other kinds, the loop is one seed-axis stepper,
:class:`MultihopStepper`: ``run()`` drives it with one seed, ``run_batch``
with every seed at once, each seed routing over its own network.  There is
no scalar reference loop: the per-request graph walk has no tensor twin to
check against one.
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
from repro.sim.metrics import MultihopMetrics
from repro.sim.results import MultihopSimulationResult
from repro.sim.scenario import ScenarioConfig
from repro.sim.system import SystemState, _policy_name, _SeedStepper, _Simulator

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


class _SeedNetwork:
    """One seed's network and the slot body of its policy's role.

    Owns what the multihop loop keeps per run: the network graph with its
    warm caches, the read-only view and the controller the policy routes
    through, and the role state (per-RSU queues for service policies).
    Each seed gets its own, so no cache, controller or policy instance is
    shared between seeds — the Icarus strategies attach to one view and
    controller per network.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        state: SystemState,
        policy: MultihopPolicy,
        metrics: MultihopMetrics,
    ) -> None:
        self.config = config
        self.state = state
        self.policy = policy
        self.metrics = metrics
        role = _policy_role(policy)
        self.network = NetworkModel(
            state.topology,
            kind=config.topology_kind,
            cost_model=state.service_cost_model,
            cache_capacity=config.cache_capacity,
            hop_delay=config.hop_delay,
        )
        _warm_network_caches(config, state, self.network, role)
        self.view = NetworkView(self.network)
        self.controller = NetworkController(self.network)
        # Per-content freshness bounds as a list: the per-request reads
        # are scalar.
        self._max_ages = state.catalog.max_ages.tolist()
        policy_reset = getattr(policy, "reset", None)
        if callable(policy_reset):
            policy_reset()
        # The role's slot body is kept unbound: a bound method would tie
        # the seed's network into a reference cycle, which outlives the run
        # until a full garbage collection.
        if role == "onpath":
            policy.attach(self.view, self.controller)
            self._step_slot = _SeedNetwork._step_onpath
        elif role == "caching":
            self._step_slot = _SeedNetwork._step_caching
        else:
            self._queues: List[deque] = [deque() for _ in range(config.num_rsus)]
            self._edge = EdgeCaching()
            self._edge.attach(self.view, self.controller)
            self._origin = self.view.origin
            self._step_slot = _SeedNetwork._step_service

    def step(self, t: int, batches) -> dict:
        """Run slot *t* on *batches*, then age the caches; returns its row."""
        row = self._step_slot(self, t, batches)
        self.controller.tick(1)
        self.state.mbs_store.tick(t + 1)
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
        content_ids = state.content_ids
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


class MultihopStepper(_SeedStepper):
    """Resumable slot-by-slot execution of the multihop loop along a seed axis.

    Carries one run per ``(config, policy)`` pair (``S >= 1``); each seed
    routes over its own :class:`_SeedNetwork`, built from its
    :class:`~repro.sim.system.SystemState`.  The per-request graph walk has
    no tensor twin, so a slot walks the seeds one after another.  It is the
    only multihop body: :meth:`MultihopSimulator.run` (``S = 1``),
    :meth:`MultihopSimulator.run_batch` and multihop sessions (explicit
    batches) all drive it.  ``batches=None`` draws each seed's slot from its
    own workload.
    """

    kind = "multihop"

    def __init__(
        self,
        configs: Sequence[ScenarioConfig],
        policies: Sequence[MultihopPolicy],
        *,
        metrics: str = "full",
        expected_slots: Optional[int] = None,
    ) -> None:
        super().__init__(configs, metrics=metrics, expected_slots=expected_slots)
        self.policies = list(policies)
        self.metrics = [
            MultihopMetrics(mode=self.metrics_mode, expected_slots=self.expected_slots)
            for _ in self.states
        ]
        self.runs = [
            _SeedNetwork(config, state, policy, metric)
            for config, state, policy, metric in zip(
                self.configs, self.states, self.policies, self.metrics
            )
        ]

    def step(self, batches=None) -> List[dict]:
        """Advance one slot; returns each seed's routing aggregates."""
        t = self.time_slot
        if batches is None:
            batches = [
                state.workload.generate_slot_contents(t) for state in self.states
            ]
        rows = [
            run.step(t, seed_batches)
            for run, seed_batches in zip(self.runs, batches)
        ]
        self.time_slot = t + 1
        return rows

    def results(self) -> List[MultihopSimulationResult]:
        """The runs so far, one result per seed."""
        return [
            MultihopSimulationResult(
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
        # The role is resolved by the stepper: batch callers construct the
        # simulator with a placeholder policy and pass the per-seed
        # instances to run_batch(policies=...), like the other simulators.
        self._policy = policy

    @property
    def policy(self) -> MultihopPolicy:
        """The policy under evaluation."""
        return self._policy

    def _stepper(
        self, num_slots: Optional[int], configs=None, policies=None
    ) -> MultihopStepper:
        """A stepper over *configs* (default: this scenario and policy)."""
        return MultihopStepper(
            configs or [self._config],
            policies or [self._policy],
            metrics=self._metrics_mode,
            expected_slots=num_slots,
        )
