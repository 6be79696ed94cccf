"""Policy interfaces shared by the MDP controllers and the baselines.

Two decision problems exist in the paper, so two policy interfaces exist
here:

* :class:`CachingPolicy` — decides, for one decision epoch, which cached
  content (if any) each RSU should have refreshed by the MBS.  Its input is a
  :class:`CacheObservation` snapshot of the whole system.
* :class:`ServicePolicy` — decides, for one RSU and one slot, whether to
  serve its pending UV requests now or defer.  Its input is a
  :class:`ServiceObservation` of that RSU's queue and link cost.

Keeping both interfaces minimal (one ``decide`` method over a frozen
observation) lets the simulator treat the paper's controllers and every
baseline identically, which is what makes the Fig. 1a / Fig. 1b comparisons
meaningful.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ValidationError


@dataclass(frozen=True)
class CacheObservation:
    """Snapshot of the cache-management state at one decision epoch.

    Attributes
    ----------
    time_slot:
        Current slot index.
    ages:
        Matrix of shape ``(num_rsus, contents_per_rsu)`` with the current age
        of every cached copy.
    max_ages:
        Matrix of the same shape with the per-copy maximum tolerable ages.
    popularity:
        Matrix of the same shape with the content-population weights
        ``p_{k,h}(t)``.
    update_costs:
        Matrix of the same shape with the MBS->RSU transfer costs
        ``C_{k,h}`` for the current slot.
    mbs_ages:
        Ages of the MBS's own copies, shape ``(num_rsus, contents_per_rsu)``
        (all ones under the paper's assumption of per-slot regeneration).
    """

    time_slot: int
    ages: np.ndarray
    max_ages: np.ndarray
    popularity: np.ndarray
    update_costs: np.ndarray
    mbs_ages: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        ages = np.asarray(self.ages, dtype=float)
        if ages.ndim != 2:
            raise ValidationError(
                f"ages must be 2-D (num_rsus, contents_per_rsu), got shape {ages.shape}"
            )
        for name in ("max_ages", "popularity", "update_costs"):
            other = np.asarray(getattr(self, name), dtype=float)
            if other.shape != ages.shape:
                raise ValidationError(
                    f"{name} shape {other.shape} does not match ages shape {ages.shape}"
                )
        if self.mbs_ages is not None:
            mbs = np.asarray(self.mbs_ages, dtype=float)
            if mbs.shape != ages.shape:
                raise ValidationError(
                    f"mbs_ages shape {mbs.shape} does not match ages shape {ages.shape}"
                )
        if self.time_slot < 0:
            raise ValidationError(f"time_slot must be >= 0, got {self.time_slot}")

    @property
    def num_rsus(self) -> int:
        """Number of RSUs observed."""
        return int(np.asarray(self.ages).shape[0])

    @property
    def contents_per_rsu(self) -> int:
        """Number of cached contents per RSU."""
        return int(np.asarray(self.ages).shape[1])


class CachingPolicy(abc.ABC):
    """Decides which cached contents the MBS refreshes this epoch.

    Implementations return a binary matrix ``x`` of shape
    ``(num_rsus, contents_per_rsu)`` with at most one 1 per row, matching the
    paper's constraint that "each RSU has several contents and only one
    content is updated at a time".
    """

    #: Human-readable name used in experiment reports.
    name: str = "caching-policy"

    @abc.abstractmethod
    def decide(self, observation: CacheObservation) -> np.ndarray:
        """Return the binary update-decision matrix for *observation*."""

    def reset(self) -> None:
        """Clear any internal state before a new simulation run."""

    @staticmethod
    def validate_actions(actions: np.ndarray, observation: CacheObservation) -> np.ndarray:
        """Check that *actions* is binary, correctly shaped, and one-per-RSU."""
        actions = np.asarray(actions, dtype=int)
        expected_shape = (observation.num_rsus, observation.contents_per_rsu)
        if actions.shape != expected_shape:
            raise ValidationError(
                f"actions shape {actions.shape} does not match observation shape "
                f"{expected_shape}"
            )
        # Integer actions are binary iff min >= 0 and max <= 1; the range
        # reductions allocate no boolean temporaries, which matters in the
        # per-slot hot loops at production grid sizes.
        if actions.size and (actions.min() < 0 or actions.max() > 1):
            raise ValidationError("actions must be binary (0 or 1)")
        per_rsu = actions.sum(axis=1)
        if np.any(per_rsu > 1):
            offending = int(np.argmax(per_rsu > 1))
            raise ValidationError(
                f"RSU {offending} updates {int(per_rsu[offending])} contents in one "
                "slot; the model allows at most one"
            )
        return actions


@dataclass(frozen=True)
class ServiceObservation:
    """Snapshot of one RSU's service state at one slot.

    Attributes
    ----------
    time_slot:
        Current slot index.
    rsu_id:
        The deciding RSU.
    queue_backlog:
        The latency queue Q[t] (accumulated waiting or pending count).
    service_cost:
        Communication cost ``C(alpha[t])`` of serving now.
    departure:
        Work ``b(alpha[t])`` removed from the queue if the RSU serves now.
    head_content_age:
        Age of the cached copy of the head-of-line request's content, or
        ``None`` when the queue is empty.
    head_content_max_age:
        Maximum tolerable age of that content, or ``None``.
    head_deadline_slack:
        Slots remaining before the head request's deadline (``None`` when it
        has no deadline or the queue is empty).
    """

    time_slot: int
    rsu_id: int
    queue_backlog: float
    service_cost: float
    departure: float
    head_content_age: Optional[float] = None
    head_content_max_age: Optional[float] = None
    head_deadline_slack: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time_slot < 0:
            raise ValidationError(f"time_slot must be >= 0, got {self.time_slot}")
        if self.queue_backlog < 0:
            raise ValidationError(
                f"queue_backlog must be >= 0, got {self.queue_backlog}"
            )
        if self.service_cost < 0:
            raise ValidationError(
                f"service_cost must be >= 0, got {self.service_cost}"
            )
        if self.departure < 0:
            raise ValidationError(f"departure must be >= 0, got {self.departure}")

    @property
    def head_content_is_fresh(self) -> Optional[bool]:
        """Whether the head-of-line request's cached content is within A_max."""
        if self.head_content_age is None or self.head_content_max_age is None:
            return None
        # Plain bool, not np.bool_: callers guard with identity checks
        # (``fresh is False``) which numpy scalars would silently dodge.
        return bool(self.head_content_age <= self.head_content_max_age)


class ServicePolicy(abc.ABC):
    """Decides whether one RSU serves its pending requests in this slot."""

    #: Human-readable name used in experiment reports.
    name: str = "service-policy"

    @abc.abstractmethod
    def decide(self, observation: ServiceObservation) -> bool:
        """Return ``True`` to serve in this slot, ``False`` to defer."""

    def reset(self) -> None:
        """Clear any internal state before a new simulation run."""


class StatelessCachingPolicy(CachingPolicy):
    """Convenience base for caching policies with no internal state."""

    def reset(self) -> None:  # pragma: no cover - trivially empty
        return None


class StatelessServicePolicy(ServicePolicy):
    """Convenience base for service policies with no internal state."""

    def reset(self) -> None:  # pragma: no cover - trivially empty
        return None
