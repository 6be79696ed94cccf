"""Baseline content-service policies.

Fig. 1b compares the proposed Lyapunov-based service decision against "the
other two algorithms".  The natural reference points — and the two extreme
behaviours Eq. (5) interpolates between — are:

* :class:`AlwaysServePolicy` — serve whenever anything is queued.  Minimal
  latency, maximal communication cost.
* :class:`CostGreedyPolicy` — never serve unless forced by a trigger
  (deadline about to expire or a backlog cap).  Minimal cost, unstable or
  deadline-violating queue.

Additional baselines round out the comparison:

* :class:`FixedProbabilityPolicy` — serve with a fixed coin-flip probability,
  the memoryless middle ground.
* :class:`BacklogThresholdPolicy` — serve whenever the backlog exceeds a
  fixed threshold (a static approximation of the Lyapunov rule that ignores
  the per-slot cost).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.policies import (
    ServiceObservation,
    ServicePolicy,
    StatelessServicePolicy,
)
from repro.policies.registry import register_policy
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_non_negative, check_probability


@register_policy("always-serve", role="service")
class AlwaysServePolicy(StatelessServicePolicy):
    """Serve in every slot in which at least one request is pending."""

    name = "always-serve"

    def decide(self, observation: ServiceObservation) -> bool:
        return observation.queue_backlog > 0


@register_policy("never-serve", role="service")
class NeverServePolicy(StatelessServicePolicy):
    """Never serve (degenerate lower bound on cost; the queue grows forever)."""

    name = "never-serve"

    def decide(self, observation: ServiceObservation) -> bool:
        return False


@register_policy("cost-greedy", role="service")
class CostGreedyPolicy(ServicePolicy):
    """Defer as long as possible; serve only when a hard trigger fires.

    Triggers:

    * the head-of-line request's deadline slack has dropped to
      *deadline_slack* slots or fewer, or
    * the backlog has reached *backlog_cap* (``None`` disables the cap).

    With both triggers disabled this degenerates to :class:`NeverServePolicy`.
    """

    name = "cost-greedy"

    def __init__(
        self,
        *,
        deadline_slack: float = 1.0,
        backlog_cap: Optional[float] = None,
    ) -> None:
        self._deadline_slack = check_non_negative(deadline_slack, "deadline_slack")
        if backlog_cap is not None:
            backlog_cap = check_non_negative(backlog_cap, "backlog_cap")
        self._backlog_cap = backlog_cap

    @property
    def deadline_slack(self) -> float:
        """Slack (in slots) at which an impending deadline forces service."""
        return self._deadline_slack

    @property
    def backlog_cap(self) -> Optional[float]:
        """Backlog level that forces service, or ``None``."""
        return self._backlog_cap

    def reset(self) -> None:  # pragma: no cover - stateless
        return None

    def decide(self, observation: ServiceObservation) -> bool:
        if observation.queue_backlog <= 0:
            return False
        if (
            observation.head_deadline_slack is not None
            and observation.head_deadline_slack <= self._deadline_slack
        ):
            return True
        if (
            self._backlog_cap is not None
            and observation.queue_backlog >= self._backlog_cap
        ):
            return True
        return False


class FixedProbabilityPolicy(ServicePolicy):
    """Serve pending requests with a fixed probability each slot."""

    name = "fixed-probability"

    def __init__(self, probability: float = 0.5, *, rng: RandomSource = None) -> None:
        self._probability = check_probability(probability, "probability")
        self._rng = ensure_rng(rng)

    @property
    def probability(self) -> float:
        """Per-slot service probability."""
        return self._probability

    def reset(self) -> None:  # pragma: no cover - rng state intentionally kept
        return None

    def decide(self, observation: ServiceObservation) -> bool:
        if observation.queue_backlog <= 0:
            return False
        return bool(self._rng.random() < self._probability)


@register_policy("backlog-threshold", role="service")
class BacklogThresholdPolicy(StatelessServicePolicy):
    """Serve whenever the backlog exceeds a fixed threshold.

    This is the cost-oblivious static counterpart of the Lyapunov rule: it
    drains the queue whenever it is "long enough" regardless of how expensive
    the current slot is, so it cannot exploit cheap slots the way Eq. (5) does.
    """

    name = "backlog-threshold"

    def __init__(self, threshold: float = 5.0) -> None:
        self._threshold = check_non_negative(threshold, "threshold")

    @property
    def threshold(self) -> float:
        """Backlog level above which the RSU serves."""
        return self._threshold

    def decide(self, observation: ServiceObservation) -> bool:
        return observation.queue_backlog > self._threshold


def standard_service_baselines(
    *,
    rng: RandomSource = None,
    backlog_cap: Optional[float] = 50.0,
) -> Dict[str, ServicePolicy]:
    """Return the standard set of baseline service policies keyed by name.

    ``always-serve`` and ``cost-greedy`` are the two comparison algorithms of
    Fig. 1b; the others support the extended comparisons.
    """
    return {
        "always-serve": AlwaysServePolicy(),
        "cost-greedy": CostGreedyPolicy(backlog_cap=backlog_cap),
        "fixed-probability": FixedProbabilityPolicy(0.5, rng=rng),
        "backlog-threshold": BacklogThresholdPolicy(threshold=5.0),
    }
