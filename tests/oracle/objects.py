"""The oracle's object model: one cache object and one request queue per RSU.

:class:`RSUCache` holds one RSU's fixed content set and ages each copy
through :class:`~repro.core.aoi.AoIVector`; :class:`RequestQueue` holds
one RSU's pending :class:`~repro.net.requests.Request` objects in FIFO
order.  The package simulates with ``(seeds, RSUs, contents)`` arrays
instead; the scalar reference loop (:mod:`oracle.loop`) walks these
objects item by item, so a fast path that agrees with it agrees with a
transcription written one RSU, one content and one request at a time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence

import numpy as np

from repro.core.aoi import AoIVector
from repro.exceptions import CacheError, ReproError, ValidationError
from repro.net.content import ContentCatalog
from repro.net.requests import Request


class QueueError(ReproError):
    """A request-queue operation was invalid (wrong RSU, negative service count)."""


class RSUCache:
    """The cache of one RSU.

    Parameters
    ----------
    rsu_id:
        Identifier of the owning RSU.
    content_ids:
        Ids of the contents this RSU caches (the regions it covers).
    catalog:
        Content catalog, providing per-content maximum ages.
    initial_ages:
        Optional starting ages (defaults to all fresh).  The paper's
        evaluation draws them at random (see
        :class:`~repro.sim.system.SystemState`).
    age_ceiling:
        Saturation value for ages; defaults to twice the largest ``A_max``
        among the cached contents.
    """

    def __init__(
        self,
        rsu_id: int,
        content_ids: Sequence[int],
        catalog: ContentCatalog,
        *,
        initial_ages: Optional[Sequence[float]] = None,
        age_ceiling: Optional[float] = None,
    ) -> None:
        content_ids = [int(h) for h in content_ids]
        if not content_ids:
            raise CacheError(f"RSU {rsu_id} cache must hold at least one content")
        if len(set(content_ids)) != len(content_ids):
            raise CacheError(f"RSU {rsu_id} cache has duplicate content ids")
        self._rsu_id = int(rsu_id)
        self._aoi = AoIVector(
            [catalog[h].max_age for h in content_ids],
            initial_ages=initial_ages,
            ceiling=age_ceiling,
        )
        self._content_to_slot = {h: i for i, h in enumerate(content_ids)}

    @property
    def capacity(self) -> int:
        """Number of cache slots (== number of covered regions)."""
        return len(self._content_to_slot)

    @property
    def ages(self) -> np.ndarray:
        """Current ages of the cached copies, in slot order."""
        return self._aoi.ages

    @property
    def age_ceiling(self) -> float:
        """Saturation value of the cache's age counters."""
        return self._aoi.ceiling

    @property
    def violations(self) -> np.ndarray:
        """Boolean mask of cached copies exceeding their maximum age."""
        return self._aoi.violations

    def holds(self, content_id: int) -> bool:
        """Whether this cache holds a copy of *content_id*."""
        return content_id in self._content_to_slot

    def age_of(self, content_id: int) -> float:
        """Return the age of the cached copy of *content_id*."""
        return float(self._aoi[self.slot_of(content_id)])

    def slot_of(self, content_id: int) -> int:
        """Return the cache-slot index of *content_id*."""
        try:
            return self._content_to_slot[int(content_id)]
        except KeyError:
            raise CacheError(
                f"RSU {self._rsu_id} does not cache content {content_id}"
            ) from None

    def tick(self, slots: int = 1) -> None:
        """Age every cached copy by *slots*."""
        self._aoi.tick(slots)

    def apply_update(self, content_id: int, *, delivered_age: float = 1.0) -> None:
        """Apply an MBS-pushed refresh of *content_id*."""
        self._aoi.refresh(self.slot_of(content_id), delivered_age)


@dataclass(frozen=True)
class ServedRequest:
    """Outcome record of one served (or expired) request."""

    request: Request
    served_at: int
    waiting_slots: int
    expired: bool = False


class RequestQueue:
    """FIFO queue of pending content requests at one RSU.

    Parameters
    ----------
    rsu_id:
        Identifier of the owning RSU.
    max_length:
        Optional admission cap; arrivals beyond it are dropped.
    """

    def __init__(self, rsu_id: int, *, max_length: Optional[int] = None) -> None:
        if max_length is not None and max_length < 1:
            raise ValidationError(f"max_length must be >= 1, got {max_length}")
        self._rsu_id = int(rsu_id)
        self._max_length = max_length
        self._pending: Deque[Request] = deque()

    @property
    def backlog(self) -> int:
        """Number of pending requests (the queue length Q[t])."""
        return len(self._pending)

    @property
    def is_empty(self) -> bool:
        """Whether no request is pending."""
        return not self._pending

    def head(self) -> Optional[Request]:
        """The oldest pending request, or ``None``."""
        return self._pending[0] if self._pending else None

    def total_waiting(self, time_slot: int) -> int:
        """Total waiting time accumulated by the pending requests.

        This is the latency interpretation of Q[t] used by Fig. 1b: the sum
        over pending requests of the slots each has waited so far.
        """
        if time_slot < 0:
            raise ValidationError(f"time_slot must be >= 0, got {time_slot}")
        return int(sum(time_slot - request.time_slot for request in self._pending))

    def enqueue(self, request: Request) -> bool:
        """Admit *request*; return ``False`` if it was dropped (queue full)."""
        if request.rsu_id != self._rsu_id:
            raise QueueError(
                f"request targets RSU {request.rsu_id}, queue belongs to RSU {self._rsu_id}"
            )
        if self._max_length is not None and len(self._pending) >= self._max_length:
            return False
        self._pending.append(request)
        return True

    def serve(self, time_slot: int, count: int = 1) -> List[ServedRequest]:
        """Serve up to *count* requests FIFO and return their records."""
        if count < 0:
            raise QueueError(f"service count must be >= 0, got {count}")
        if time_slot < 0:
            raise ValidationError(f"time_slot must be >= 0, got {time_slot}")
        served = min(count, len(self._pending))
        return [
            _record(self._pending.popleft(), time_slot, expired=False)
            for _ in range(served)
        ]

    def expire(self, time_slot: int) -> List[ServedRequest]:
        """Remove pending requests whose deadline has passed."""
        if time_slot < 0:
            raise ValidationError(f"time_slot must be >= 0, got {time_slot}")
        kept: Deque[Request] = deque()
        expired: List[Request] = []
        for request in self._pending:
            late = request.deadline is not None and request.deadline < time_slot
            (expired if late else kept).append(request)
        self._pending = kept
        return [_record(request, time_slot, expired=True) for request in expired]

    def clear(self) -> None:
        """Drop all pending requests without recording them as served."""
        self._pending.clear()


def _record(request: Request, time_slot: int, *, expired: bool) -> ServedRequest:
    return ServedRequest(
        request=request,
        served_at=int(time_slot),
        waiting_slots=int(time_slot - request.time_slot),
        expired=expired,
    )
