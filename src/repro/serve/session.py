"""Incremental simulation sessions: drive any kind one slot at a time.

:func:`open_session` resolves a ``(scenario, policies)`` pair into the
same seed-axis stepper the batch :func:`~repro.sim.engine.simulate` loops
run on — :class:`~repro.sim.cache_sim.CacheStepper`,
:class:`~repro.sim.service_sim.ServiceStepper`,
:class:`~repro.sim.joint_sim.JointStepper` or
:class:`~repro.sim.multihop_sim.MultihopStepper`, with one seed — and
wraps it in a :class:`SimulationSession`::

    session = open_session(scenario, ("mdp", "lyapunov"))
    for slot_requests in live_feed:          # [(rsu_id, content_id), ...]
        result = session.step(slot_requests)  # SlotResult per slot
    final = session.close()                   # a SimulationResult

Because the steppers *are* the vectorised per-slot bodies, a session
stepped over a trace's per-slot record groups produces byte-identical
``summary()`` / ``rows()`` output to an offline ``simulate()`` over the
same trace — pinned by the step-equivalence suite.

Two driving styles are supported:

* :meth:`SimulationSession.step` — synchronous, one call per slot, with
  either an explicit request list or the scenario workload's own draw.
* :meth:`SimulationSession.feed` — timestamped records in arrival order
  (the trace/wire format).  A slot is executed once a record for a later
  slot arrives (slot-boundary batching); records for already-executed
  slots are dropped and counted in ``late``.  The pending buffer is
  bounded by ``max_pending`` with drop-oldest backpressure, counted in
  ``dropped`` — so a session fed faster than it drains degrades by
  shedding the stalest requests instead of growing without bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exceptions import ConfigurationError, SimulationError, ValidationError
from repro.sim.engine import (
    PolicyLike,
    _materialize,
    _resolve_kind,
    _simulator,
)
from repro.sim.results import SimulationResult
from repro.sim.scenario import ScenarioConfig
from repro.workloads.codec import group_record_batches

__all__ = ["DEFAULT_MAX_PENDING", "SimulationSession", "SlotResult", "open_session"]

#: Default bound on buffered (not yet executed) requests per session.
DEFAULT_MAX_PENDING = 65536

#: A request record: ``(rsu_id, content_id)``, ``(t, rsu_id, content_id)``,
#: or a dict with ``rsu``/``content`` (and optionally ``t``) keys.
RecordLike = Union[Sequence[int], Dict[str, int]]


@dataclass(frozen=True)
class SlotResult:
    """One executed slot: its index, applied request count, and metrics.

    ``metrics`` is the stepper's per-slot aggregate dict (e.g. ``reward``
    for cache sessions, ``latency``/``served`` for service sessions).
    """

    time_slot: int
    requests: int
    metrics: Dict[str, float]


def _normalize_pair(record: RecordLike) -> Tuple[int, int]:
    """Coerce a request record into an ``(rsu_id, content_id)`` pair."""
    if isinstance(record, dict):
        try:
            return int(record["rsu"]), int(record["content"])
        except (KeyError, TypeError, ValueError) as error:
            raise ValidationError(
                f"request record {record!r} needs integer 'rsu' and "
                "'content' fields"
            ) from error
    try:
        items = tuple(record)
        if len(items) == 2:
            return int(items[0]), int(items[1])
        if len(items) == 3:
            return int(items[1]), int(items[2])
    except (TypeError, ValueError) as error:
        raise ValidationError(f"malformed request record {record!r}") from error
    raise ValidationError(
        f"request record {record!r} must be (rsu, content) or (t, rsu, content)"
    )


def _normalize_timestamped(record: RecordLike) -> Tuple[int, int, int]:
    """Coerce a fed record into an ``(t, rsu_id, content_id)`` triple."""
    if isinstance(record, dict):
        try:
            return int(record["t"]), int(record["rsu"]), int(record["content"])
        except (KeyError, TypeError, ValueError) as error:
            raise ValidationError(
                f"fed record {record!r} needs integer 't', 'rsu', and "
                "'content' fields"
            ) from error
    try:
        items = tuple(record)
        if len(items) == 3:
            return int(items[0]), int(items[1]), int(items[2])
    except (TypeError, ValueError) as error:
        raise ValidationError(f"malformed fed record {record!r}") from error
    raise ValidationError(
        f"fed record {record!r} must be (time_slot, rsu, content)"
    )


def open_session(
    scenario: ScenarioConfig,
    policies: Union[PolicyLike, Sequence[PolicyLike], Dict[str, PolicyLike]],
    *,
    kind: Optional[str] = None,
    metrics: str = "summary",
    service_batch: Optional[int] = None,
    max_pending: int = DEFAULT_MAX_PENDING,
) -> "SimulationSession":
    """Open an incremental session on *scenario* under *policies*.

    Accepts the same ``policies`` shapes and kind inference as
    :func:`~repro.sim.engine.simulate`: a single policy (kind from its
    role), a ``(caching, service)`` pair / role dict for the joint kind,
    or an on-path strategy for multihop.  ``metrics`` defaults to
    ``"summary"`` — sessions are open-ended, so the memory-flat collector
    is the natural choice; pass ``"full"`` to keep per-slot trajectories.
    """
    kind, runs, _ = _resolve_kind(
        policies,
        kind=kind,
        metrics=metrics,
        service_batch=service_batch,
        noun="sessions",
    )
    if len(runs) != 1:
        raise ConfigurationError(f"a {kind} session takes exactly one policy")
    ((policy, service_policy),) = runs
    simulator = _simulator(
        kind,
        scenario,
        _materialize(policy, scenario),
        _materialize(service_policy, scenario),
        service_batch=service_batch,
        metrics=metrics,
    )
    return SimulationSession(simulator._stepper(None), max_pending=max_pending)


class SimulationSession:
    """A resumable simulation over a one-seed seed-axis stepper.

    Construct through :func:`open_session`.  The session owns a stepper
    (which owns the :class:`~repro.sim.system.SystemState`, policies, and
    streaming metrics) carrying exactly one seed, a bounded buffer of
    fed-but-unexecuted requests, and the ingest counters surfaced by
    :meth:`snapshot`.
    """

    def __init__(self, stepper: Any, *, max_pending: int = DEFAULT_MAX_PENDING) -> None:
        if not isinstance(max_pending, int) or isinstance(max_pending, bool):
            raise ValidationError(
                f"max_pending must be a positive integer, got {max_pending!r}"
            )
        if max_pending <= 0:
            raise ValidationError(
                f"max_pending must be a positive integer, got {max_pending!r}"
            )
        self._stepper = stepper
        self._max_pending = max_pending
        # A session fed by rsu/content records validates them against the
        # topology's content placement, exactly like a trace file replay.
        state = stepper.states[0]
        self._rsu_contents: Dict[int, set] = {
            rsu.rsu_id: {int(c) for c in rsu.covered_regions}
            for rsu in state.topology.rsus
        }
        self._pending: Dict[int, Deque[Tuple[int, int]]] = {}
        self._pending_count = 0
        self._requests = 0
        self._dropped = 0
        self._late = 0
        self._externally_driven = False
        self._closed = False

    # ------------------------------------------------------------------
    # Introspection

    @property
    def kind(self) -> str:
        """The session's simulation kind (``cache``/``service``/...)."""
        return self._stepper.kind

    @property
    def time_slot(self) -> int:
        """The next slot to execute (number of slots executed so far)."""
        return self._stepper.time_slot

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def requests(self) -> int:
        """Externally supplied requests applied to the engine so far."""
        return self._requests

    @property
    def pending(self) -> int:
        """Fed requests buffered but not yet executed."""
        return self._pending_count

    @property
    def dropped(self) -> int:
        """Requests shed by drop-oldest backpressure."""
        return self._dropped

    @property
    def late(self) -> int:
        """Fed records discarded because their slot had already run."""
        return self._late

    # ------------------------------------------------------------------
    # Driving

    def step(self, requests: Optional[Iterable[RecordLike]] = None) -> SlotResult:
        """Execute the next slot and return its :class:`SlotResult`.

        ``requests=None`` draws the slot's arrivals from the scenario's
        own workload — unless the session has already been driven by
        external records, in which case an omitted argument means an
        empty slot (an externally driven session never mixes in synthetic
        arrivals).  Pass an explicit list (possibly empty) of records to
        apply; any records previously :meth:`feed`-buffered for this slot
        are merged in front.
        """
        self._ensure_open()
        t = self.time_slot
        pairs = list(self._pending.pop(t, ()))
        if pairs:
            self._pending_count -= len(pairs)
        if requests is None:
            if not self._externally_driven and not pairs:
                metrics = self._stepper.step(None)[0]
                return SlotResult(time_slot=t, requests=0, metrics=metrics)
        else:
            self._externally_driven = True
            for record in requests:
                pair = _normalize_pair(record)
                self._check_pair(*pair)
                pairs.append(pair)
        self._requests += len(pairs)
        metrics = self._stepper.step([group_record_batches(pairs)])[0]
        return SlotResult(time_slot=t, requests=len(pairs), metrics=metrics)

    def feed(self, records: Iterable[RecordLike]) -> List[SlotResult]:
        """Ingest timestamped records; returns the slots they completed.

        Records arrive in roughly increasing slot order (the trace wire
        format).  A record for slot ``t`` executes every earlier pending
        slot first (slot-boundary batching: seeing slot ``t`` proves all
        slots before it are complete) and is then buffered until a later
        slot — or :meth:`close` — flushes it.  Records for already
        executed slots are dropped and counted in ``late``; overflow
        beyond ``max_pending`` drops the oldest buffered request and
        counts it in ``dropped``.
        """
        self._ensure_open()
        completed: List[SlotResult] = []
        for record in records:
            t, rsu_id, content_id = _normalize_timestamped(record)
            if t < 0:
                raise ValidationError(f"time_slot must be >= 0, got {t}")
            self._check_pair(rsu_id, content_id)
            if t < self.time_slot:
                self._late += 1
                continue
            self._externally_driven = True
            while self.time_slot < t:
                completed.append(self._step_pending())
            bucket = self._pending.setdefault(t, deque())
            bucket.append((rsu_id, content_id))
            self._pending_count += 1
            if self._pending_count > self._max_pending:
                self._drop_oldest()
        return completed

    def snapshot(self) -> Dict[str, Any]:
        """A consistent point-in-time view of the session.

        Returns the ingest counters plus the run-so-far ``summary()`` of
        the underlying result; the collectors are current after every
        executed slot.
        """
        self._ensure_open()
        summary = self._stepper.results()[0].summary()
        if self.kind == "joint":
            policy: Any = {
                "caching": summary["caching_policy"],
                "service": summary["service_policy"],
            }
        else:
            policy = summary["policy"]
        return {
            "kind": self.kind,
            "time_slot": self.time_slot,
            "policy": policy,
            "requests": self._requests,
            "pending": self._pending_count,
            "dropped": self._dropped,
            "late": self._late,
            "summary": summary,
        }

    def close(self, num_slots: Optional[int] = None) -> SimulationResult:
        """Flush pending slots and return the final simulation result.

        Every buffered record is applied (executing any empty slots in
        between), then — when *num_slots* is given — the session is
        padded with empty (externally driven) or workload-drawn slots up
        to that horizon, so a fed trace with silent trailing slots closes
        to the same result as an offline run over the full horizon.
        """
        self._ensure_open()
        while self._pending:
            self._step_pending()
        if num_slots is not None:
            while self.time_slot < num_slots:
                self._stepper.step([[]] if self._externally_driven else None)
        self._closed = True
        return self._stepper.results()[0]

    # ------------------------------------------------------------------
    # Internals

    def _ensure_open(self) -> None:
        if self._closed:
            raise SimulationError("session is closed")

    def _check_pair(self, rsu_id: int, content_id: int) -> None:
        contents = self._rsu_contents.get(rsu_id)
        if contents is None:
            raise ValidationError(f"unknown rsu_id {rsu_id}")
        if content_id not in contents:
            raise ValidationError(
                f"content {content_id} is not cached by RSU {rsu_id}"
            )

    def _step_pending(self) -> SlotResult:
        """Execute the current slot from the pending buffer (maybe empty)."""
        t = self.time_slot
        bucket = self._pending.pop(t, None)
        pairs = list(bucket) if bucket else []
        if pairs:
            self._pending_count -= len(pairs)
        self._requests += len(pairs)
        metrics = self._stepper.step([group_record_batches(pairs)])[0]
        return SlotResult(time_slot=t, requests=len(pairs), metrics=metrics)

    def _drop_oldest(self) -> None:
        """Shed the stalest buffered request (drop-oldest backpressure)."""
        oldest = min(self._pending)
        bucket = self._pending[oldest]
        bucket.popleft()
        if not bucket:
            del self._pending[oldest]
        self._pending_count -= 1
        self._dropped += 1
