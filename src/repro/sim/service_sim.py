"""Stage-2 simulator: per-RSU service decisions over the request queues.

Split out of the monolithic ``repro.sim.simulator`` behind the
:func:`repro.sim.engine.simulate` façade; the class surface and every
trajectory are unchanged (pinned by the golden-trajectory and
batch-equivalence suites).  :class:`_ServiceStage` — the vector queues,
staged recorders and :func:`_vector_service_slot` of ``S`` seeds — is the
one vectorised stage-2 body, shared by :class:`ServiceStepper` and the
joint simulator's stepper.

:meth:`ServiceSimulator.run` drives the stepper with one seed and draws
arrivals slot by slot; :meth:`ServiceSimulator.run_batch` drives it with
every seed at once over precomputed
:class:`~repro.net.requests.WorkloadHorizon` arrival tensors (optionally
supplied by the caller — e.g. shipped through shared memory by the
parallel runner).  Metrics are emitted in ``block_size``-slot blocks; all
of it is byte-identical to the per-slot reference accounting.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.policies import ServiceObservation, ServicePolicy
from repro.exceptions import ValidationError
from repro.net.queueing import RequestQueue
from repro.sim.metrics import ServiceMetrics
from repro.sim.results import ServiceSimulationResult
from repro.sim.scenario import ScenarioConfig
from repro.sim.system import (
    SystemState,
    _expand_batch_policies,
    _policy_name,
    _SeedStepper,
    _Simulator,
)

class _VectorQueues:
    """Flat-array FIFO queues powering the vectorised service loops.

    Each RSU's pending requests are two parallel Python lists (issue slots
    and content ids) with a head pointer, plus O(1) aggregates (pending
    count and sum of issue slots) so the per-slot latency
    ``sum_i (t - issue_i)`` is ``t * pending - issue_sum`` — an integer
    identity with :meth:`~repro.net.queueing.RequestQueue.total_waiting`.
    Deadlines are monotone in issue time, so expiry only ever removes a
    prefix.  No per-request objects are allocated.
    """

    def __init__(self, num_rsus: int, deadline_slots: Optional[int]) -> None:
        self._deadline_slots = deadline_slots
        self._issues: List[List[int]] = [[] for _ in range(num_rsus)]
        self._contents: List[List[int]] = [[] for _ in range(num_rsus)]
        self._head = [0] * num_rsus
        self.pending = [0] * num_rsus
        self._issue_sum = [0] * num_rsus

    def enqueue(self, rsu: int, time_slot: int, content_ids: np.ndarray) -> None:
        count = int(content_ids.size)
        self._issues[rsu].extend([time_slot] * count)
        self._contents[rsu].extend(int(h) for h in content_ids)
        self.pending[rsu] += count
        self._issue_sum[rsu] += time_slot * count

    def expire(self, rsu: int, time_slot: int) -> None:
        if self._deadline_slots is None:
            return
        cutoff = time_slot - self._deadline_slots
        issues, head = self._issues[rsu], self._head[rsu]
        while self.pending[rsu] and issues[head] < cutoff:
            self._issue_sum[rsu] -= issues[head]
            self.pending[rsu] -= 1
            head += 1
        self._head[rsu] = head
        self._compact(rsu)

    def total_waiting(self, rsu: int, time_slot: int) -> int:
        return time_slot * self.pending[rsu] - self._issue_sum[rsu]

    def head(self, rsu: int) -> Optional[Tuple[int, int]]:
        """Return ``(content_id, issue_slot)`` of the oldest pending request."""
        if not self.pending[rsu]:
            return None
        head = self._head[rsu]
        return self._contents[rsu][head], self._issues[rsu][head]

    def head_deadline_slack(self, rsu: int, time_slot: int) -> Optional[float]:
        if self._deadline_slots is None:
            return None
        entry = self.head(rsu)
        if entry is None:
            return None
        return float(entry[1] + self._deadline_slots - time_slot)

    def serve(self, rsu: int, count: int) -> int:
        """Serve the *count* oldest pending requests; return how many departed."""
        count = min(count, self.pending[rsu])
        if count <= 0:
            return 0
        head = self._head[rsu]
        self._issue_sum[rsu] -= sum(self._issues[rsu][head : head + count])
        self.pending[rsu] -= count
        self._head[rsu] = head + count
        self._compact(rsu)
        return count

    def _compact(self, rsu: int) -> None:
        head = self._head[rsu]
        if head > 1024 and head * 2 > len(self._issues[rsu]):
            self._issues[rsu] = self._issues[rsu][head:]
            self._contents[rsu] = self._contents[rsu][head:]
            self._head[rsu] = 0


class _ServiceBlockRecorder:
    """Stages per-(slot, RSU) service metrics and flushes K-slot blocks.

    The per-RSU loop writes straight into preallocated ``(block, num_rsus)``
    rows (no per-slot list building or array conversion); every *block*
    slots one :meth:`ServiceMetrics.record_block` call lands the staged
    values — byte-identical to per-slot :meth:`ServiceMetrics.record_slot`.
    """

    def __init__(self, metrics: ServiceMetrics, num_rsus: int, block_size: int) -> None:
        self._metrics = metrics
        block = max(1, int(block_size))
        shape = (block, int(num_rsus))
        self.backlogs = np.zeros(shape)
        self.latencies = np.zeros(shape)
        self.costs = np.zeros(shape)
        self.decisions = np.zeros(shape)
        self.served = np.zeros(shape)
        self._fill = 0

    def begin_slot(self) -> int:
        """Return the staging row index of the next slot."""
        return self._fill

    def end_slot(self) -> None:
        """Commit the current staging row; flush when the block is full."""
        self._fill += 1
        if self._fill == self.backlogs.shape[0]:
            self.flush()

    def flush(self) -> None:
        """Emit the staged slots to the collector."""
        fill = self._fill
        if not fill:
            return
        self._metrics.record_block(
            self.backlogs[:fill],
            self.latencies[:fill],
            self.costs[:fill],
            self.decisions[:fill],
            self.served[:fill],
        )
        self._fill = 0


def _vector_service_slot(
    state: SystemState,
    queues: _VectorQueues,
    policy: ServicePolicy,
    service_batch: Optional[int],
    recorder: _ServiceBlockRecorder,
    time_slot: int,
    cost: float,
    ages: np.ndarray,
) -> Tuple[float, float, float, float]:
    """One slot of the vectorised stage-2 loop across all RSUs of one seed.

    Called by :class:`_ServiceStage` with the service kind's frozen *ages*
    or the joint kind's live stage-1 ages matrix: expire, account
    latency/backlog, build the per-RSU observation with the AoI-guard head
    lookup, apply the policy decision, and stage the slot on *recorder*.
    Returns the slot's ``(backlog, latency, cost, served)`` totals across
    RSUs so incremental steppers can report per-slot aggregates.
    """
    row = recorder.begin_slot()
    backlogs = recorder.backlogs[row]
    latencies = recorder.latencies[row]
    spent_costs = recorder.costs[row]
    decisions = recorder.decisions[row]
    served_counts = recorder.served[row]
    for k in range(state.config.num_rsus):
        queues.expire(k, time_slot)
        latency = float(queues.total_waiting(k, time_slot))
        backlog = float(queues.pending[k])
        head = queues.head(k)
        head_age = head_max = None
        if head is not None:
            slot = state.content_slot[head[0]]
            # Plain floats, not np.float64: ServiceObservation's freshness
            # property must return the bool singletons the AoI guard
            # compares against by identity.
            head_age = float(ages[k, slot])
            head_max = float(state.max_ages[k, slot])
        observation = ServiceObservation(
            time_slot=time_slot,
            rsu_id=k,
            queue_backlog=latency,
            service_cost=cost,
            departure=latency,
            head_content_age=head_age,
            head_content_max_age=head_max,
            head_deadline_slack=queues.head_deadline_slack(k, time_slot),
        )
        serve = policy.decide(observation) and queues.pending[k] > 0
        served = 0
        spent = 0.0
        if serve:
            batch = (
                queues.pending[k]
                if service_batch is None
                else min(service_batch, queues.pending[k])
            )
            served = queues.serve(k, batch)
            spent = cost * served
        backlogs[k] = backlog
        latencies[k] = latency
        spent_costs[k] = spent
        decisions[k] = float(bool(serve))
        served_counts[k] = served
    totals = (
        float(np.sum(backlogs)),
        float(np.sum(latencies)),
        float(np.sum(spent_costs)),
        float(np.sum(served_counts)),
    )
    recorder.end_slot()
    return totals


def _enqueue_batches(queues: _VectorQueues, time_slot: int, batches) -> int:
    """Enqueue one slot's ``(rsu_id, content_ids)`` arrival batches.

    The single enqueue path of the vectorised stage-2 body (service and
    joint kinds); returns the number of requests enqueued.
    """
    total = 0
    for rsu_id, content_ids in batches:
        queues.enqueue(rsu_id, time_slot, content_ids)
        total += int(content_ids.size)
    return total


def _reference_service_slot(
    state: SystemState,
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
    duplicated copies of this body).
    """
    t = time_slot
    requests = state.request_generator.generate_slot(
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
            cache = state.caches[k]
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


def _seed_horizons(stepper, horizons: Optional[Sequence], num_slots: int) -> Sequence:
    """Per-seed arrival tensors for a batch run: validated or generated.

    The batch hot loop replays precomputed tensors and never calls back
    into the workload models (the tensors either arrive from the
    dispatching runner or are generated here, identically).
    """
    if horizons is None:
        return [state.workload.generate_horizon(num_slots) for state in stepper.states]
    if len(horizons) != len(stepper.states):
        raise ValidationError(
            f"got {len(horizons)} precomputed horizons for "
            f"{len(stepper.states)} seeds"
        )
    return horizons


class _ServiceStage:
    """Stage 2 for ``S`` seeds: one slot of per-RSU service per call.

    Owns each seed's vector queues and staged metrics recorder.  Shared by
    :class:`ServiceStepper` (frozen cache ages) and
    :class:`~repro.sim.joint_sim.JointStepper` (the live stage-1 ages
    tensor), so both kinds run the one stage-2 body,
    :func:`_vector_service_slot`.
    """

    def __init__(
        self,
        states: List[SystemState],
        policies: List[ServicePolicy],
        metrics: List[ServiceMetrics],
        service_batch: Optional[int],
        block: int,
    ) -> None:
        config = states[0].config
        self.states = states
        self.policies = policies
        for policy in policies:
            policy.reset()
        self._service_batch = service_batch
        self._queues = [
            _VectorQueues(config.num_rsus, config.deadline_slots) for _ in states
        ]
        self._distances = [0.5 * state.topology.region_length for state in states]
        self._recorders = [
            _ServiceBlockRecorder(metric, config.num_rsus, block) for metric in metrics
        ]

    def step(self, time_slot: int, batches, ages: np.ndarray) -> List[dict]:
        """Enqueue and serve one slot per seed; *ages* is ``(S, R, C)``."""
        slot = []
        for s, state in enumerate(self.states):
            arrivals = _enqueue_batches(
                self._queues[s],
                time_slot,
                state.workload.generate_slot_contents(time_slot)
                if batches is None
                else batches[s],
            )
            cost = state.service_cost_model.cost(
                distance=self._distances[s], size=1.0, time_slot=time_slot
            )
            backlog, latency, spent, served = _vector_service_slot(
                state, self._queues[s], self.policies[s], self._service_batch,
                self._recorders[s], time_slot, cost, ages[s],
            )
            slot.append(
                {
                    "arrivals": float(arrivals),
                    "backlog": backlog,
                    "latency": latency,
                    "cost": spent,
                    "served": served,
                }
            )
        return slot

    def flush(self) -> None:
        for recorder in self._recorders:
            recorder.flush()


def _service_metrics(config: ScenarioConfig, mode: str, num_slots: int) -> ServiceMetrics:
    """A stage-2 collector sized for *config*'s RSUs and *num_slots* slots."""
    return ServiceMetrics(config.num_rsus, mode=mode, expected_slots=num_slots)


class ServiceStepper(_SeedStepper):
    """Resumable slot-by-slot execution of the stage-2 loop along a seed axis.

    Carries one run per ``(config, policy)`` pair (``S >= 1``) through
    :class:`_ServiceStage` with the cache ages frozen at their initial
    values.  It is the only vectorised stage-2 body:
    :meth:`ServiceSimulator.run` (``S = 1``, per-slot workload draws),
    :meth:`ServiceSimulator.run_batch` (precomputed horizons), and service
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
        block_size: Optional[int] = None,
        expected_slots: Optional[int] = None,
    ) -> None:
        super().__init__(
            configs, metrics=metrics, block_size=block_size,
            expected_slots=expected_slots,
        )
        self.policies = list(policies)
        self.metrics = [
            _service_metrics(config, self.metrics_mode, self.expected_slots)
            for config in self.configs
        ]
        self._stage = _ServiceStage(
            self.states, self.policies, self.metrics, service_batch, self.block
        )
        self._static_ages = np.stack([state.ages_matrix() for state in self.states])

    def step(self, batches=None) -> List[dict]:
        """Advance one slot; returns each seed's aggregate service metrics."""
        t = self.time_slot
        slot = self._stage.step(t, batches, self._static_ages)
        for state in self.states:
            state.mbs_store.tick(t + 1)
        self.time_slot = t + 1
        return slot

    def results(self) -> List[ServiceSimulationResult]:
        """The runs so far, one result per seed (flushes staged blocks)."""
        self._stage.flush()
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
    reference:
        Run the original scalar per-request loop instead of the vectorised one.
    metrics:
        Metric collection mode, ``"full"`` (default) or ``"summary"`` —
        see :mod:`repro.sim.metrics`.
    block_size:
        Slots staged per metrics flush in the vectorised loops.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        policy: ServicePolicy,
        *,
        service_batch: Optional[int] = None,
        reference: bool = False,
        metrics: str = "full",
        block_size: Optional[int] = None,
    ) -> None:
        super().__init__(
            config,
            service_batch=service_batch,
            reference=reference,
            metrics=metrics,
            block_size=block_size,
        )
        self._policy = policy

    @property
    def policy(self) -> ServicePolicy:
        """The service policy under evaluation."""
        return self._policy

    def _stepper(
        self, num_slots: Optional[int], configs=None, policies=None
    ) -> ServiceStepper:
        """A stepper over *configs* (default: this scenario and policy)."""
        return ServiceStepper(
            configs or [self._config],
            policies or [self._policy],
            service_batch=self._service_batch,
            metrics=self._metrics_mode,
            block_size=self._block_size,
            expected_slots=num_slots,
        )

    def run(self, *, num_slots: Optional[int] = None) -> ServiceSimulationResult:
        """Run the simulation and return the recorded result."""
        num_slots = self._num_slots(num_slots)
        if self._reference:
            state = SystemState(self._config)
            metrics = _service_metrics(self._config, self._metrics_mode, num_slots)
            self._policy.reset()
            self._run_reference(state, metrics, num_slots)
            return ServiceSimulationResult(
                config=self._config,
                policy_name=_policy_name(self._policy),
                metrics=metrics,
            )
        return self._stepper(num_slots).drive(num_slots)[0]

    def run_batch(
        self,
        seeds: Sequence[int],
        *,
        policies: Optional[Sequence[ServicePolicy]] = None,
        num_slots: Optional[int] = None,
        horizons: Optional[Sequence] = None,
    ) -> List[ServiceSimulationResult]:
        """Run one simulation per seed through one seed-axis stepper.

        Bit-identical to per-seed :meth:`run` calls.  The stage-2 per-slot
        work is per-RSU queue bookkeeping and policy calls, so the seeds
        are interleaved slot by slot rather than folded into tensors.

        Parameters
        ----------
        horizons:
            Optional per-seed precomputed
            :class:`~repro.net.requests.WorkloadHorizon` arrival tensors
            (e.g. attached from shared memory by the parallel runner).
            Must match what ``generate_horizon`` would produce for each
            seed; omitted, the horizons are generated here.  Ignored by the
            scalar ``reference=True`` replay, which draws per slot.
        """
        num_slots = self._num_slots(num_slots)
        seeds = [int(seed) for seed in seeds]
        policies = _expand_batch_policies(seeds, policies, self._policy)
        configs = self._seed_configs(seeds)
        if self._reference:
            return [
                ServiceSimulator(
                    config,
                    policy,
                    service_batch=self._service_batch,
                    reference=True,
                    metrics=self._metrics_mode,
                    block_size=self._block_size,
                ).run(num_slots=num_slots)
                for config, policy in zip(configs, policies)
            ]
        stepper = self._stepper(num_slots, configs, policies)
        return stepper.drive(num_slots, _seed_horizons(stepper, horizons, num_slots))

    def _run_reference(
        self, state: SystemState, metrics: ServiceMetrics, num_slots: int
    ) -> None:
        """The original per-request object loop."""
        queues = [RequestQueue(rsu.rsu_id) for rsu in state.topology.rsus]

        for t in range(num_slots):
            _reference_service_slot(
                state, queues, self._policy, self._service_batch, metrics, t,
                deadline_slots=self._config.deadline_slots,
            )
            # The stage-2-only simulator assumes cache management (stage 1)
            # keeps cached copies valid, so cache ages are not advanced here;
            # the coupled behaviour is exercised by JointSimulator.
            state.mbs_store.tick(t + 1)
