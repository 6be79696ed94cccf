"""The scalar Lyapunov queue of the paper's Eq. (4)-(5).

The Lyapunov stage of the paper trades the UV latency queue ``Q[t]`` against
the RSU communication cost ``C(alpha[t])``.  :class:`BacklogQueue` is a
scalar backlog following the canonical queue recursion
``Q[t+1] = max(Q[t] - b[t], 0) + a[t]``; the theory-level experiments
(extreme cases of Eq. 5, V sweeps) use it because it matches the paper's
notation exactly.  The simulators keep their request queues as arrays
(:mod:`repro.sim.service_sim`).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.utils.validation import check_non_negative


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
