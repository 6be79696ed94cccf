"""Stage-2 simulator: per-RSU service decisions over the request queues.

:class:`_ServiceStage` — the array queues of ``S`` seeds x ``R`` RSUs and
the whole-slot kernel :func:`_vector_service_slot` — is the one vectorised
stage-2 body, shared by :class:`ServiceStepper` and the joint simulator's
stepper.  The kernel evaluates Eq. (5) once per slot over the ``(S, R)``
grid (:class:`~repro.core.lyapunov.BatchedServiceDecider`); any other
service policy is asked per RSU, reading the same array queues.

:meth:`ServiceSimulator.run` drives the stepper with one seed and draws
arrivals slot by slot; ``run_batch`` (the shared body of
:class:`~repro.sim.system._Simulator`) drives it with every seed at once
over the precomputed :class:`~repro.net.requests.WorkloadHorizon` arrival
tensors of :meth:`_ServiceStage.arrival_replay` (optionally supplied by
the caller — e.g. shipped through shared memory by the parallel runner).
Every slot is recorded through
:meth:`~repro.sim.metrics.ServiceMetrics.record_slot`, the same body the
per-slot reference accounting uses, so all paths are byte-identical.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.lyapunov import BatchedServiceDecider
from repro.core.policies import ServiceObservation, ServicePolicy
from repro.exceptions import ValidationError
from repro.net.cache import RSUCache
from repro.net.queueing import RequestQueue
from repro.sim.metrics import ServiceMetrics
from repro.sim.results import ServiceSimulationResult
from repro.sim.scenario import ScenarioConfig
from repro.sim.system import (
    SystemState,
    _policy_name,
    _Simulator,
    _StagedStepper,
)

#: Initial per-queue capacity of :class:`_VectorQueues` (doubled on demand).
_INITIAL_WIDTH = 16


class _SlotArrivals(NamedTuple):
    """One slot's requests across all seeds, in arrival order.

    ``queue_ids[i]`` is request ``i``'s queue, ``seed * num_rsus + rsu_id``.
    """

    queue_ids: np.ndarray
    content_ids: np.ndarray


def _pack_batches(per_seed_batches: Sequence, num_rsus: int) -> _SlotArrivals:
    """Flatten one ``(rsu_id, content_ids)`` batch list per seed."""
    queues: List[int] = []
    sizes: List[int] = []
    chunks: List[np.ndarray] = []
    for seed, batches in enumerate(per_seed_batches):
        for rsu_id, content_ids in batches:
            if not 0 <= rsu_id < num_rsus:
                raise ValidationError(f"rsu_id {rsu_id} out of range [0, {num_rsus})")
            queues.append(seed * num_rsus + rsu_id)
            sizes.append(content_ids.size)
            chunks.append(content_ids)
    if not chunks:
        empty = np.zeros(0, dtype=np.int64)
        return _SlotArrivals(empty, empty)
    return _SlotArrivals(
        np.repeat(np.asarray(queues, dtype=np.int64), sizes),
        np.concatenate(chunks).astype(np.int64, copy=False),
    )


class _HorizonReplay:
    """Per-seed precomputed horizons merged into one slot-major stream.

    Calling it with a slot returns that slot's :class:`_SlotArrivals` as
    two array slices — the replay a batch run feeds its stepper instead of
    per-seed ``(rsu_id, content_ids)`` batch lists.
    """

    def __init__(self, horizons: Sequence, num_rsus: int, num_slots: int) -> None:
        num_seeds = len(horizons)
        queue_ids, content_ids, keys = [], [], []
        for seed, horizon in enumerate(horizons):
            if horizon.num_slots < num_slots:
                raise ValidationError(
                    f"horizon of seed {seed} holds {horizon.num_slots} slots, "
                    f"fewer than the {num_slots} to run"
                )
            queue_ids.append(
                np.repeat(horizon.batch_rsus + seed * num_rsus, np.diff(horizon.batch_ptr))
            )
            content_ids.append(horizon.content_ids)
            per_slot = np.diff(horizon.batch_ptr[horizon.slot_ptr])
            keys.append(np.repeat(np.arange(horizon.num_slots) * num_seeds + seed, per_slot))
        key = np.concatenate(keys)
        order = np.argsort(key, kind="stable")
        self._queue_ids = np.concatenate(queue_ids).astype(np.int64)[order]
        self._content_ids = np.concatenate(content_ids).astype(np.int64)[order]
        self._slot_ptr = np.searchsorted(
            key[order], np.arange(num_slots + 1) * num_seeds
        ).tolist()

    def __call__(self, time_slot: int) -> _SlotArrivals:
        start, stop = self._slot_ptr[time_slot], self._slot_ptr[time_slot + 1]
        return _SlotArrivals(
            self._queue_ids[start:stop], self._content_ids[start:stop]
        )


class _VectorQueues:
    """Array FIFO request queues of ``S`` seeds x ``R`` RSUs.

    Queue ``seed * R + rsu`` is one row of two growable int64 arrays: the
    requested content ids and the running prefix sums of the requests'
    issue slots (a request's issue slot is the difference of two
    consecutive sums), with a head and a tail counter per row.  The
    per-slot latency ``sum_i (t - issue_i)`` is the exact integer
    ``t * pending - issue_sum`` — the identity with
    :meth:`~repro.net.queueing.RequestQueue.total_waiting`.  Deadlines are
    monotone in issue time, so expiry only ever removes a prefix: the queues
    keep each of the last ``deadline + 1`` slots' tails and move every head
    past the tail of the slot that has just expired.  Steppers enqueue and
    expire once per slot, in slot order.  Rows are shifted back to their
    heads — and the arrays doubled while a queue needs over half their
    width — only when an enqueue would overrun them, so the width stays
    within a small multiple of the longest queue.
    """

    def __init__(
        self, num_seeds: int, num_rsus: int, deadline_slots: Optional[int]
    ) -> None:
        size = num_seeds * num_rsus
        self._rows = np.arange(size)
        self._contents = np.zeros((size, _INITIAL_WIDTH), dtype=np.int64)
        self._issue_sums = np.zeros((size, _INITIAL_WIDTH + 1), dtype=np.int64)
        self.head = np.zeros(size, dtype=np.int64)
        self.tail = np.zeros(size, dtype=np.int64)
        #: Requests enqueued per queue by the last :meth:`enqueue`.
        self.arrived = np.zeros(size, dtype=np.int64)
        self._expiry_tails = (
            None
            if deadline_slots is None
            else np.zeros((deadline_slots + 1, size), dtype=np.int64)
        )

    def enqueue(self, time_slot: int, arrivals: _SlotArrivals) -> int:
        """Append one slot's requests; return how many were enqueued."""
        queue_ids, content_ids = arrivals
        counts = np.bincount(queue_ids, minlength=self._rows.size)
        self.arrived = counts
        total = int(queue_ids.size)
        if not total:
            return 0
        if total > 1 and np.any(queue_ids[1:] < queue_ids[:-1]):
            order = np.argsort(queue_ids, kind="stable")
            queue_ids, content_ids = queue_ids[order], content_ids[order]
        if int((self.tail + counts).max()) > self._contents.shape[1]:
            self._make_room(int((self.tail - self.head + counts).max()))
        # Position of each request within its queue's run of this slot.
        rank = np.arange(1, total + 1) - (np.cumsum(counts) - counts)[queue_ids]
        tails = self.tail[queue_ids]
        self._contents[queue_ids, tails + rank - 1] = content_ids
        self._issue_sums[queue_ids, tails + rank] = (
            self._issue_sums[queue_ids, tails] + time_slot * rank
        )
        self.tail += counts
        return total

    def _make_room(self, needed: int) -> None:
        """Shift every row back to its head, doubling the width if *needed*."""
        width = self._contents.shape[1]
        new_width = width
        while new_width < 2 * needed:
            new_width *= 2
        head = self.head[:, np.newaxis]
        columns = np.arange(new_width + 1)
        self._contents = np.take_along_axis(
            self._contents, np.minimum(head + columns[:-1], width - 1), axis=1
        )
        self._issue_sums = np.take_along_axis(
            self._issue_sums, np.minimum(head + columns, width), axis=1
        ) - self._issue_sums[self._rows, self.head][:, np.newaxis]
        if self._expiry_tails is not None:
            self._expiry_tails -= self.head
        self.tail -= self.head
        self.head[:] = 0

    def expire(self, time_slot: int) -> None:
        """Drop the requests whose deadline has passed by *time_slot*."""
        if self._expiry_tails is None:
            return
        # The ring slot still holds the tails after slot
        # ``time_slot - deadline - 1``: every request up to them has an issue
        # slot below the cutoff ``time_slot - deadline``.
        tails = self._expiry_tails[time_slot % len(self._expiry_tails)]
        np.maximum(self.head, tails, out=self.head)
        tails[:] = self.tail

    def pending(self) -> np.ndarray:
        """Pending requests per queue."""
        return self.tail - self.head

    def issue_sums(self) -> np.ndarray:
        """Sum of the pending requests' issue slots per queue."""
        return (
            self._issue_sums[self._rows, self.tail]
            - self._issue_sums[self._rows, self.head]
        )

    def head_contents(self) -> np.ndarray:
        """Content id of each queue's oldest request (garbage where empty)."""
        width = self._contents.shape[1]
        return self._contents[self._rows, np.minimum(self.head, width - 1)]

    def head_issues(self) -> np.ndarray:
        """Issue slot of each queue's oldest request (garbage where empty)."""
        width = self._contents.shape[1]
        after = np.minimum(self.head + 1, width)
        return (
            self._issue_sums[self._rows, after]
            - self._issue_sums[self._rows, self.head]
        )

    def serve(self, counts: np.ndarray) -> None:
        """Serve the *counts* oldest pending requests of each queue."""
        self.head += counts


def _vector_service_slot(
    stage: "_ServiceStage", time_slot: int, costs: List[float], ages: np.ndarray
) -> List[tuple]:
    """One slot of stage 2 across all ``S`` seeds x ``R`` RSUs.

    Called by :class:`_ServiceStage` after the slot's arrivals are enqueued,
    with each seed's service cost and the ``(S, R, C)`` cache ages — the
    service kind's frozen ages or the joint kind's live stage-1 tensor:
    expire, account latency/backlog, gather each head content's age for the
    AoI guard, decide (:class:`~repro.core.lyapunov.BatchedServiceDecider`,
    or the per-RSU fallback), serve, and record each seed's row into its
    collector.  Returns each seed's ``(backlog, latency, cost, served)``
    totals across RSUs (as summed by the collector) so incremental steppers
    can report per-slot aggregates.
    """
    queues = stage.queues
    shape = stage.shape
    queues.expire(time_slot)
    pending = queues.pending()
    latency = (time_slot * pending - queues.issue_sums()).astype(float).reshape(shape)
    cells = stage.cell_base + stage.content_slot[
        stage.seed_rows, queues.head_contents()
    ]
    head_age = ages.reshape(-1)[cells].reshape(shape)
    head_max = stage.max_ages[cells].reshape(shape)
    has_head = (pending > 0).reshape(shape)
    if stage.decider is not None:
        # The check ServiceObservation makes on the fallback path.
        for cost in costs:
            if cost < 0:
                raise ValidationError(f"service_cost must be >= 0, got {cost}")
        stale = ~(head_age <= head_max)
        serve = stage.decider.decide(np.asarray(costs), latency, latency, stale)
    else:
        serve = _policy_decisions(
            stage, time_slot, costs, latency, head_age, head_max, has_head
        )
    serve &= has_head
    batch = pending if stage.service_batch is None else np.minimum(
        pending, stage.service_batch
    )
    served = np.where(serve.reshape(-1), batch, 0)
    queues.serve(served)
    served = served.astype(float).reshape(shape)
    spent = np.multiply(
        np.asarray(costs)[:, np.newaxis], served, out=np.zeros(shape), where=serve
    )
    backlog = pending.astype(float).reshape(shape)
    decisions = serve.astype(float)
    return [
        metrics.record_slot(
            backlog[seed], latency[seed], spent[seed], decisions[seed], served[seed]
        )
        for seed, metrics in enumerate(stage.metrics)
    ]


def _policy_decisions(
    stage: "_ServiceStage",
    time_slot: int,
    costs: List[float],
    latency: np.ndarray,
    head_age: np.ndarray,
    head_max: np.ndarray,
    has_head: np.ndarray,
) -> np.ndarray:
    """Ask each seed's policy per RSU, over observations of the array queues.

    The fallback of :func:`_vector_service_slot` for policies the batched
    decider does not cover; seeds and RSUs are visited in order, so a
    stateful policy sees the same call sequence as a per-seed run.
    """
    deadline = stage.deadline_slots
    slack = (
        None
        if deadline is None
        else (stage.queues.head_issues() + (deadline - time_slot))
        .reshape(stage.shape)
        .tolist()
    )
    # Plain floats, not np.float64: ServiceObservation's freshness property
    # must return the bool singletons the AoI guard compares against by
    # identity.
    latency, head_age, head_max = latency.tolist(), head_age.tolist(), head_max.tolist()
    has_head = has_head.tolist()
    serve = np.zeros(stage.shape, dtype=bool)
    for seed, policy in enumerate(stage.policies):
        for k in range(stage.shape[1]):
            head = has_head[seed][k]
            serve[seed, k] = bool(
                policy.decide(
                    ServiceObservation(
                        time_slot=time_slot,
                        rsu_id=k,
                        queue_backlog=latency[seed][k],
                        service_cost=costs[seed],
                        departure=latency[seed][k],
                        head_content_age=head_age[seed][k] if head else None,
                        head_content_max_age=head_max[seed][k] if head else None,
                        head_deadline_slack=(
                            float(slack[seed][k]) if head and slack is not None else None
                        ),
                    )
                )
            )
    return serve


def _enqueue_batches(queues: _VectorQueues, time_slot: int, arrivals: _SlotArrivals) -> int:
    """Enqueue one slot's arrivals of every seed.

    The single enqueue path of the vectorised stage-2 body (service and
    joint kinds); returns the number of requests enqueued.
    """
    return queues.enqueue(time_slot, arrivals)


def _reference_service_slot(
    state: SystemState,
    caches: List[RSUCache],
    queues: List[RequestQueue],
    policy: ServicePolicy,
    service_batch: Optional[int],
    metrics: ServiceMetrics,
    time_slot: int,
    *,
    deadline_slots: Optional[int],
) -> None:
    """One slot of the scalar stage-2 reference loop.

    The single source of truth for per-slot request sampling and per-RSU
    scalar service accounting, shared by ``ServiceSimulator._run_reference``
    and ``JointSimulator._run_reference`` (which previously carried
    duplicated copies of this body).  *caches* are the run's per-RSU
    cache objects (:meth:`SystemState.reference_caches`).
    """
    t = time_slot
    requests = state.workload.generate_slot(
        t, deadline_slots=deadline_slots
    )
    for request in requests:
        queues[request.rsu_id].enqueue(request)

    backlogs, latencies, costs, decisions, served_counts = ([], [], [], [], [])
    for k, queue in enumerate(queues):
        queue.expire(t)
        latency = float(queue.total_waiting(t))
        backlog = float(queue.backlog)
        distance = 0.5 * state.topology.region_length
        cost = state.service_cost_model.cost(
            distance=distance, size=1.0, time_slot=t
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
        observation = ServiceObservation(
            time_slot=t,
            rsu_id=k,
            queue_backlog=latency,
            service_cost=cost,
            departure=latency,
            head_content_age=head_age,
            head_content_max_age=head_max,
            head_deadline_slack=slack,
        )
        serve = policy.decide(observation) and not queue.is_empty
        served = []
        spent = 0.0
        if serve:
            batch = (
                queue.backlog
                if service_batch is None
                else min(service_batch, queue.backlog)
            )
            served = queue.serve(t, batch)
            spent = cost * len(served)
        backlogs.append(backlog)
        latencies.append(latency)
        costs.append(spent)
        decisions.append(bool(serve))
        served_counts.append(len(served))
    metrics.record_slot(backlogs, latencies, costs, decisions, served_counts)


class _ServiceStage:
    """Stage 2 for ``S`` seeds: one slot of service over all RSUs per call.

    Owns the ``(S, R)`` array queues and the per-seed collectors, and picks
    the decision path once: the stacked Eq. (5) kernel when every policy is
    a plain :class:`~repro.core.lyapunov.LyapunovServiceController`, per-RSU
    ``decide`` calls otherwise.  Shared by :class:`ServiceStepper` (frozen
    cache ages) and :class:`~repro.sim.joint_sim.JointStepper` (the live
    stage-1 ages tensor), so both kinds run the one stage-2 body,
    :func:`_vector_service_slot`.
    """

    def __init__(
        self,
        states: List[SystemState],
        policies: List[ServicePolicy],
        metrics: List[ServiceMetrics],
        service_batch: Optional[int],
    ) -> None:
        config = states[0].config
        num_seeds, num_rsus = len(states), config.num_rsus
        self.states = states
        self.policies = policies
        for policy in policies:
            policy.reset()
        self.decider = (
            BatchedServiceDecider(policies)
            if BatchedServiceDecider.supports(policies)
            else None
        )
        self.metrics = metrics
        self.service_batch = service_batch
        self.deadline_slots = config.deadline_slots
        self.shape = (num_seeds, num_rsus)
        self.queues = _VectorQueues(num_seeds, num_rsus, config.deadline_slots)
        self._distances = [0.5 * state.topology.region_length for state in states]
        # Gather tables of the AoI guard: queue ``q`` of seed ``s`` reads its
        # head content's cache slot from ``content_slot[s]`` and its age at
        # flat cell ``q * C + slot`` of the ``(S, R, C)`` ages.
        self.seed_rows = np.repeat(np.arange(num_seeds), num_rsus)
        self.cell_base = np.arange(num_seeds * num_rsus) * config.contents_per_rsu
        self.content_slot = np.stack([state.content_slot for state in states])
        self.max_ages = np.stack([state.max_ages for state in states]).reshape(-1)

    def arrival_replay(
        self, horizons: Optional[Sequence], num_slots: int
    ) -> _HorizonReplay:
        """The arrival replay of a batch run, from validated or generated horizons.

        The batch hot loop replays precomputed tensors and never calls back
        into the workload models (the tensors either arrive from the
        dispatching runner or are generated here, identically).
        """
        if horizons is None:
            horizons = [state.workload.generate_horizon(num_slots) for state in self.states]
        elif len(horizons) != len(self.states):
            raise ValidationError(
                f"got {len(horizons)} precomputed horizons for "
                f"{len(self.states)} seeds"
            )
        return _HorizonReplay(horizons, self.shape[1], num_slots)

    def step(self, time_slot: int, batches, ages: np.ndarray) -> List[dict]:
        """Enqueue and serve one slot of every seed; *ages* is ``(S, R, C)``.

        *batches* is ``None`` (each seed draws from its own workload), one
        ``(rsu_id, content_ids)`` batch list per seed, or the slot's
        :class:`_SlotArrivals` from a :class:`_HorizonReplay`.
        """
        if batches is None:
            batches = [
                state.workload.generate_slot_contents(time_slot) for state in self.states
            ]
        if not isinstance(batches, _SlotArrivals):
            batches = _pack_batches(batches, self.shape[1])
        _enqueue_batches(self.queues, time_slot, batches)
        arrivals = self.queues.arrived.reshape(self.shape).sum(axis=1).tolist()
        costs = [
            state.service_cost_model.cost(
                distance=distance, size=1.0, time_slot=time_slot
            )
            for state, distance in zip(self.states, self._distances)
        ]
        totals = _vector_service_slot(self, time_slot, costs, ages)
        return [
            {
                "arrivals": float(arrived),
                "backlog": backlog,
                "latency": latency,
                "cost": spent,
                "served": served,
            }
            for arrived, (backlog, latency, spent, served) in zip(arrivals, totals)
        ]


def _service_metrics_per_seed(stepper: _StagedStepper) -> List[ServiceMetrics]:
    """One stage-2 collector per seed of *stepper*."""
    return [
        _service_metrics(config, stepper.metrics_mode, stepper.expected_slots)
        for config in stepper.configs
    ]


def _service_metrics(config: ScenarioConfig, mode: str, num_slots: int) -> ServiceMetrics:
    """A stage-2 collector sized for *config*'s RSUs and *num_slots* slots."""
    return ServiceMetrics(config.num_rsus, mode=mode, expected_slots=num_slots)


class ServiceStepper(_StagedStepper):
    """Resumable slot-by-slot execution of the stage-2 loop along a seed axis.

    Carries one run per ``(config, policy)`` pair (``S >= 1``) through
    :class:`_ServiceStage` with the cache ages frozen at their initial
    values, in the shared slot loop of
    :class:`~repro.sim.system._StagedStepper`.  It is the only vectorised
    stage-2 body: :meth:`ServiceSimulator.run` (``S = 1``, per-slot
    workload draws), ``run_batch`` (precomputed horizons), and service
    sessions (explicit batches) all drive it.
    """

    kind = "service"

    def __init__(
        self,
        configs: Sequence[ScenarioConfig],
        policies: Sequence[ServicePolicy],
        *,
        service_batch: Optional[int] = None,
        metrics: str = "full",
        expected_slots: Optional[int] = None,
    ) -> None:
        super().__init__(configs, metrics=metrics, expected_slots=expected_slots)
        self.policies = list(policies)
        self.metrics = _service_metrics_per_seed(self)
        self._service_stage = _ServiceStage(
            self.states, self.policies, self.metrics, service_batch
        )
        self._frozen_ages = np.stack([state.ages for state in self.states])

    def results(self) -> List[ServiceSimulationResult]:
        """The runs so far, one result per seed."""
        return [
            ServiceSimulationResult(
                config=config, policy_name=_policy_name(policy), metrics=metric
            )
            for config, policy, metric in zip(
                self.configs, self.policies, self.metrics
            )
        ]


class ServiceSimulator(_Simulator):
    """Stage-2 simulator: per-RSU service decisions over the request queues.

    Each RSU runs its own instance of the service policy (a fresh copy is not
    required because policies are either stateless or record only global
    statistics); the queue backlog follows the latency interpretation of
    Fig. 1b — the accumulated waiting time of the pending requests.

    Parameters
    ----------
    config:
        The scenario to simulate.
    policy:
        The service policy each RSU applies (the paper's
        :class:`~repro.core.lyapunov.LyapunovServiceController` or a baseline).
    service_batch:
        Optional per-slot service batch limit.
    metrics:
        Metric collection mode, ``"full"`` (default) or ``"summary"`` —
        see :mod:`repro.sim.metrics`.
    """

    _stepper_class = ServiceStepper

    def __init__(
        self,
        config: ScenarioConfig,
        policy: ServicePolicy,
        *,
        service_batch: Optional[int] = None,
        metrics: str = "full",
    ) -> None:
        super().__init__(
            config, (policy,), service_batch=service_batch, metrics=metrics
        )

    @property
    def policy(self) -> ServicePolicy:
        """The service policy under evaluation."""
        return self._policies[0]

    def _run_reference(
        self, num_slots: Optional[int] = None
    ) -> ServiceSimulationResult:
        """The original per-request object loop.

        The private test oracle behind ``repro.sim.engine._reference``.
        """
        num_slots = self._num_slots(num_slots)
        state = SystemState(self._config)
        caches = state.reference_caches()
        metrics = _service_metrics(self._config, self._metrics_mode, num_slots)
        policy = self.policy
        policy.reset()
        queues = [RequestQueue(rsu.rsu_id) for rsu in state.topology.rsus]

        for t in range(num_slots):
            _reference_service_slot(
                state, caches, queues, policy, self._service_batch, metrics, t,
                deadline_slots=self._config.deadline_slots,
            )
            # The stage-2-only simulator assumes cache management (stage 1)
            # keeps cached copies valid, so cache ages are not advanced here;
            # the coupled behaviour is exercised by JointSimulator.
            state.mbs_store.tick(t + 1)
        return ServiceSimulationResult(
            config=self._config,
            policy_name=_policy_name(policy),
            metrics=metrics,
        )
