"""Per-RSU service queues.

The Lyapunov stage of the paper trades the UV latency queue ``Q[t]`` against
the RSU communication cost ``C(alpha[t])``.  Two queue abstractions support
that stage and its evaluation:

* :class:`RequestQueue` — a FIFO of concrete :class:`~repro.net.requests.Request`
  objects with waiting-time accounting, deadline expiry, and departure
  counting.  This is what the full simulator uses.
* :class:`BacklogQueue` — a scalar backlog following the canonical Lyapunov
  queue recursion ``Q[t+1] = max(Q[t] - b[t], 0) + a[t]``.  This is what the
  theory-level experiments (extreme cases of Eq. 5, V sweeps) use, because
  it matches the paper's notation exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

import numpy as np

from repro.exceptions import QueueError, ValidationError
from repro.net.requests import Request
from repro.utils.validation import check_non_negative


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

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def rsu_id(self) -> int:
        """Identifier of the owning RSU."""
        return self._rsu_id

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def backlog(self) -> int:
        """Number of pending requests (the queue length Q[t])."""
        return len(self._pending)

    @property
    def is_empty(self) -> bool:
        """Whether no request is pending."""
        return not self._pending

    @property
    def pending(self) -> List[Request]:
        """The pending requests in FIFO order."""
        return list(self._pending)

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

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
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
        records: List[ServedRequest] = []
        for _ in range(count):
            if not self._pending:
                break
            request = self._pending.popleft()
            record = ServedRequest(
                request=request,
                served_at=int(time_slot),
                waiting_slots=int(time_slot - request.time_slot),
                expired=False,
            )
            records.append(record)
        return records

    def expire(self, time_slot: int) -> List[ServedRequest]:
        """Remove pending requests whose deadline has passed."""
        if time_slot < 0:
            raise ValidationError(f"time_slot must be >= 0, got {time_slot}")
        kept: Deque[Request] = deque()
        expired: List[ServedRequest] = []
        for request in self._pending:
            if request.deadline is not None and request.deadline < time_slot:
                record = ServedRequest(
                    request=request,
                    served_at=int(time_slot),
                    waiting_slots=int(time_slot - request.time_slot),
                    expired=True,
                )
                expired.append(record)
            else:
                kept.append(request)
        self._pending = kept
        return expired

    def clear(self) -> None:
        """Drop all pending requests without recording them as served."""
        self._pending.clear()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"RequestQueue(rsu_id={self._rsu_id}, backlog={self.backlog})"


class BacklogQueue:
    """Scalar backlog queue following ``Q[t+1] = max(Q[t] - b[t], 0) + a[t]``.

    This is the queue of the paper's Eq. (4)-(5): arrivals ``a[t]`` model
    work entering the RSU (accumulated waiting time or request load) and the
    departure ``b(alpha[t])`` models the service delivered when the RSU
    decides to transmit.  The class records its own sample path so that
    time-average backlog — the quantity the stability constraint bounds —
    can be reported directly.
    """

    def __init__(self, *, initial_backlog: float = 0.0) -> None:
        self._backlog = check_non_negative(initial_backlog, "initial_backlog")
        self._history: List[float] = [self._backlog]

    @property
    def backlog(self) -> float:
        """Current backlog Q[t]."""
        return self._backlog

    @property
    def history(self) -> np.ndarray:
        """Backlog sample path including the initial value."""
        return np.asarray(self._history, dtype=float)

    def step(self, arrivals: float, departures: float) -> float:
        """Apply one slot of the queue recursion and return the new backlog.

        The offered *departures* are truncated by the available backlog, per
        the ``max(Q - b, 0)`` dynamics.
        """
        arrivals = check_non_negative(arrivals, "arrivals")
        departures = check_non_negative(departures, "departures")
        self._backlog = max(self._backlog - departures, 0.0) + arrivals
        self._history.append(self._backlog)
        return self._backlog

    def is_stable(self, *, threshold: Optional[float] = None) -> bool:
        """Heuristic stability check on the recorded sample path.

        A queue satisfying the paper's stability constraint has a bounded
        time-average backlog; empirically we check that the average over the
        second half of the path does not exceed *threshold* (default: twice
        the average over the first half plus one, which tolerates transients
        but flags linear growth).
        """
        history = self.history
        if history.size < 4:
            return True
        half = history.size // 2
        first, second = history[:half], history[half:]
        if threshold is None:
            threshold = 2.0 * float(first.mean()) + 1.0
        return float(second.mean()) <= threshold

    def reset(self, *, initial_backlog: float = 0.0) -> None:
        """Reset the queue to *initial_backlog* and clear the history."""
        self._backlog = check_non_negative(initial_backlog, "initial_backlog")
        self._history = [self._backlog]

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"BacklogQueue(backlog={self._backlog:g}, steps={len(self._history) - 1})"
