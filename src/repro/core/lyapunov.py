"""Lyapunov-based content-service control (Section II-C, Eqs. 4-5).

Each RSU must decide, slot by slot, whether to spend communication resources
serving its queued UV requests now or to defer.  The paper formulates this
as a time-average cost minimisation

``min  lim (1/T) sum_t C(alpha[t])``                                 (Eq. 4)

subject to queue stability (``lim (1/T) sum_t Q[t] < inf``) and AoI validity
of the served contents (``sum_h A(alpha[t]) <= A_max_h``).  Lyapunov
drift-plus-penalty turns this into the per-slot rule

``alpha*[t] = argmin_{alpha in S} [ V * C(alpha[t]) - Q[t] * b(alpha[t]) ]``  (Eq. 5)

which this module implements as :class:`LyapunovServiceController` (with
:class:`BatchedServiceDecider`, the same rule over a whole seeds x RSUs
grid per slot), together with the drift-plus-penalty bookkeeping
(:class:`DriftPenaltyRecord`) of :func:`run_backlog_simulation`, the
harness of the extreme-case experiment (E3) and the V-sweep ablation (E5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.core.policies import ServiceObservation, ServicePolicy
from repro.exceptions import ConfigurationError, ValidationError
from repro.net.queueing import BacklogQueue
from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class ServiceDecision:
    """Full record of one Eq. (5) evaluation.

    Attributes
    ----------
    serve:
        The chosen action ``alpha*[t]`` (``True`` = serve now).
    objective_serve:
        Value of ``V*C - Q*b`` for the serve action.
    objective_defer:
        Value of ``V*C - Q*b`` for the defer action (both terms are zero
        because deferring neither spends cost nor drains the queue).
    queue_backlog:
        The backlog Q[t] used in the evaluation.
    cost:
        The service cost C(alpha[t]) used in the evaluation.
    departure:
        The departure b(alpha[t]) used in the evaluation.
    blocked_by_aoi:
        ``True`` when the controller wanted to serve but the cached content
        violated its AoI validity constraint, forcing a defer.
    """

    serve: bool
    objective_serve: float
    objective_defer: float
    queue_backlog: float
    cost: float
    departure: float
    blocked_by_aoi: bool = False


@dataclass
class DriftPenaltyRecord:
    """Time series of the drift-plus-penalty terms over a run.

    Useful for verifying the [O(1/V), O(V)] trade-off: as V grows the
    time-average cost approaches its optimum at the price of a linearly
    growing time-average backlog.
    """

    costs: List[float] = field(default_factory=list)
    backlogs: List[float] = field(default_factory=list)
    decisions: List[bool] = field(default_factory=list)

    def record(self, *, cost: float, backlog: float, served: bool) -> None:
        """Append one slot's cost, backlog, and decision."""
        self.costs.append(float(cost))
        self.backlogs.append(float(backlog))
        self.decisions.append(bool(served))

    @property
    def time_average_cost(self) -> float:
        """Time-average cost ``(1/T) sum_t C(alpha[t])`` (the Eq. 4 objective)."""
        if not self.costs:
            return float("nan")
        return float(np.mean(self.costs))

    @property
    def time_average_backlog(self) -> float:
        """Time-average backlog ``(1/T) sum_t Q[t]``."""
        if not self.backlogs:
            return float("nan")
        return float(np.mean(self.backlogs))

    @property
    def service_rate(self) -> float:
        """Fraction of slots in which the RSU decided to serve."""
        if not self.decisions:
            return float("nan")
        return float(np.mean(self.decisions))

    def __len__(self) -> int:
        return len(self.costs)


class LyapunovServiceController(ServicePolicy):
    """Drift-plus-penalty service policy implementing Eq. (5).

    Each slot the controller compares the drift-plus-penalty objective of the
    two admissible decisions:

    * **serve** — pays ``V * C(alpha[t])`` in penalty but reduces the queue by
      ``Q[t] * b(alpha[t])`` worth of weighted drift;
    * **defer** — pays nothing and drains nothing.

    and picks the smaller.  The AoI-validity constraint of Eq. (4) is
    enforced as a hard guard: when *enforce_aoi_validity* is set and the
    head-of-line request's cached content is older than its ``A_max``, the
    controller refuses to serve stale data (the cache-management stage is
    responsible for refreshing it), recording the decision as blocked.

    The two extreme cases called out in the paper fall out directly:
    ``Q[t] = 0`` makes the serve objective ``V*C > 0`` so the controller
    defers (pure cost minimisation), while ``Q[t] -> inf`` makes the
    ``-Q[t]*b`` term dominate so the controller always serves.

    Parameters
    ----------
    tradeoff_v:
        The Lyapunov trade-off coefficient ``V >= 0``.  Larger values weight
        cost saving over queue draining.
    enforce_aoi_validity:
        Whether to apply the AoI-validity guard described above.
    tie_breaker:
        Decision when the two objectives are exactly equal; the default
        ``"serve"`` keeps the queue from idling under zero cost.
    """

    name = "lyapunov"

    def __init__(
        self,
        tradeoff_v: float = 10.0,
        *,
        enforce_aoi_validity: bool = True,
        tie_breaker: str = "serve",
    ) -> None:
        self._v = check_non_negative(tradeoff_v, "tradeoff_v")
        if tie_breaker not in ("serve", "defer"):
            raise ConfigurationError(
                f"tie_breaker must be 'serve' or 'defer', got {tie_breaker!r}"
            )
        self._enforce_aoi = bool(enforce_aoi_validity)
        self._tie_breaker = tie_breaker

    @property
    def tradeoff_v(self) -> float:
        """The trade-off coefficient ``V``."""
        return self._v

    @property
    def enforce_aoi_validity(self) -> bool:
        """Whether the AoI-validity guard is active."""
        return self._enforce_aoi

    # ------------------------------------------------------------------
    # Decision logic
    # ------------------------------------------------------------------
    def evaluate(self, observation: ServiceObservation) -> ServiceDecision:
        """Evaluate Eq. (5) for *observation* and return the full record."""
        backlog = float(observation.queue_backlog)
        cost = float(observation.service_cost)
        departure = float(observation.departure)
        objective_serve = self._v * cost - backlog * departure
        objective_defer = 0.0

        if objective_serve < objective_defer:
            serve = True
        elif objective_serve > objective_defer:
            serve = False
        else:
            serve = self._tie_breaker == "serve"

        blocked = False
        if serve and self._enforce_aoi:
            fresh = observation.head_content_is_fresh
            if fresh is False:
                serve = False
                blocked = True

        return ServiceDecision(
            serve=serve,
            objective_serve=objective_serve,
            objective_defer=objective_defer,
            queue_backlog=backlog,
            cost=cost,
            departure=departure,
            blocked_by_aoi=blocked,
        )

    def decide(self, observation: ServiceObservation) -> bool:
        return self.evaluate(observation).serve

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"LyapunovServiceController(tradeoff_v={self._v:g}, "
            f"enforce_aoi_validity={self._enforce_aoi})"
        )


class BatchedServiceDecider:
    """One vectorised Eq. (5) decide across per-seed Lyapunov controllers.

    The seed-batched stage-2 simulator keeps one
    :class:`LyapunovServiceController` per seed but evaluates the rule once
    per slot over the whole ``(S, R)`` grid of (seed, RSU) queues, with the
    controllers' ``V``, tie-breaker and AoI-guard settings stacked along the
    seed axis.  Bit-identical to each controller's :meth:`~LyapunovServiceController.decide`
    on the matching :class:`~repro.core.policies.ServiceObservation`.
    """

    def __init__(self, policies: Sequence[LyapunovServiceController]) -> None:
        if not policies:
            raise ValidationError("policies must be non-empty")
        self._v = np.array([policy.tradeoff_v for policy in policies], dtype=float)
        self._tie_serve = np.array(
            [[policy._tie_breaker == "serve"] for policy in policies]
        )
        self._enforce_aoi = np.array(
            [[policy.enforce_aoi_validity] for policy in policies]
        )

    @staticmethod
    def supports(policies: Sequence) -> bool:
        """Whether every policy is a plain :class:`LyapunovServiceController`.

        Subclasses may override ``decide``, so only exact instances are
        eligible for the stacked fast path.
        """
        return bool(policies) and all(
            type(policy) is LyapunovServiceController for policy in policies
        )

    def decide(
        self,
        costs: np.ndarray,
        backlogs: np.ndarray,
        departures: np.ndarray,
        stale: np.ndarray,
    ) -> np.ndarray:
        """Return the ``(S, R)`` serve mask of Eq. (5).

        *costs* holds each seed's per-slot service cost ``C`` (shape
        ``(S,)``), *backlogs* and *departures* the per-queue ``Q`` and ``b``,
        and *stale* marks the queues whose head content is older than its
        ``A_max`` (the AoI guard blocks those where it is enforced).  Ties —
        and NaN objectives, which compare neither way — follow the
        tie-breaker, exactly as in :meth:`LyapunovServiceController.evaluate`.
        """
        objective = (self._v * costs)[:, np.newaxis] - backlogs * departures
        serve = (objective < 0) | (self._tie_serve & ~(objective > 0))
        return serve & ~(self._enforce_aoi & stale)


@dataclass(frozen=True)
class LyapunovRunResult:
    """Outcome of :func:`run_backlog_simulation` for one controller."""

    record: DriftPenaltyRecord
    backlog_history: np.ndarray
    stable: bool

    @property
    def time_average_cost(self) -> float:
        """Time-average cost of the run."""
        return self.record.time_average_cost

    @property
    def time_average_backlog(self) -> float:
        """Time-average backlog of the run."""
        return self.record.time_average_backlog


def run_backlog_simulation(
    controller: ServicePolicy,
    *,
    num_slots: int,
    arrival_fn,
    cost_fn,
    departure: float = 1.0,
    initial_backlog: float = 0.0,
    rsu_id: int = 0,
) -> LyapunovRunResult:
    """Drive a scalar :class:`~repro.net.queueing.BacklogQueue` with *controller*.

    This is the theory-level harness used by the Lyapunov experiments (E3 and
    E5): arrivals and costs are supplied as callables of the slot index so
    the experiments can use deterministic, random, or adversarial sequences
    without involving the full vehicular simulator.

    Parameters
    ----------
    controller:
        Any :class:`~repro.core.policies.ServicePolicy`.
    num_slots:
        Number of slots to simulate.
    arrival_fn:
        ``arrival_fn(t) -> float`` work arriving in slot ``t``.
    cost_fn:
        ``cost_fn(t) -> float`` cost of serving in slot ``t``.
    departure:
        Work removed per served slot (``b(alpha[t])`` when serving).
    initial_backlog:
        Starting backlog Q[0].
    rsu_id:
        RSU id recorded in the observations (cosmetic).
    """
    if num_slots <= 0:
        raise ValidationError(f"num_slots must be > 0, got {num_slots}")
    check_non_negative(departure, "departure")
    queue = BacklogQueue(initial_backlog=initial_backlog)
    record = DriftPenaltyRecord()
    controller.reset()
    for t in range(int(num_slots)):
        cost = float(cost_fn(t))
        arrivals = float(arrival_fn(t))
        observation = ServiceObservation(
            time_slot=t,
            rsu_id=rsu_id,
            queue_backlog=queue.backlog,
            service_cost=cost,
            departure=departure,
        )
        serve = controller.decide(observation)
        record.record(
            cost=cost if serve else 0.0, backlog=queue.backlog, served=serve
        )
        queue.step(arrivals, departure if serve else 0.0)
    return LyapunovRunResult(
        record=record,
        backlog_history=queue.history,
        stable=queue.is_stable(),
    )
