"""Metric collection for simulation runs.

The simulators in :mod:`repro.sim` are deliberately thin loops; everything
the experiments need to report — AoI sample paths, per-slot reward
breakdowns, cumulative reward, queue backlogs, service costs — is recorded
by the collectors in this module, which the figure-regeneration code then
reads.

The collectors are array-backed: per-slot values land in preallocated
(growable) numpy buffers rather than Python lists, and the headline
reductions (``total_reward``, ``mean_age``, ...) are computed from those
buffers when read.  Each collector has one recording body, called once
per slot by the vectorised stages (and by the scalar test oracle), so a
collector is current after every step.  The cache collector's body,
:meth:`CacheMetrics.record_stacked_slot`, takes one slot of ``S`` seeds'
runs stacked along a leading seed axis and reduces it in one pass;
:meth:`CacheMetrics.record_slot` is its one-seed form.

Every collector runs in one of two modes (:data:`METRICS_MODES`):

* ``"full"`` (the default) — keep everything, including the per-slot age /
  action matrices and per-RSU service histories.  Memory grows as
  ``O(num_slots * num_rsus * contents_per_rsu)``.
* ``"summary"`` — keep only the per-slot scalar aggregates that feed
  ``summary()`` / ``rows()`` and the headline traces (cumulative reward,
  total backlog / latency / cost per slot).  Memory is flat in the grid
  size and a few dozen bytes per slot, so long-horizon, large-grid runs
  stay cheap.  ``summary()`` / ``rows()`` are byte-identical to ``"full"``
  because both modes reduce the *same* per-slot aggregate buffers with the
  same numpy expressions; only the matrix-history accessors
  (``age_matrix_history``, ``age_trace``, per-RSU histories, ...) become
  unavailable and raise :class:`~repro.exceptions.SimulationError`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.aoi import AoIProcess
from repro.core.reward import RewardBreakdown
from repro.exceptions import SimulationError, ValidationError

#: Metric collection modes accepted by the collectors, the simulators, and
#: :func:`repro.sim.engine.simulate`.
METRICS_MODES = ("full", "summary")

_INITIAL_CAPACITY = 64


def check_metrics_mode(mode: str) -> str:
    """Validate a metrics mode string and return it."""
    if mode not in METRICS_MODES:
        raise ValidationError(
            f"metrics mode must be one of {METRICS_MODES}, got {mode!r}"
        )
    return mode


class _SlotBuffer:
    """Growable preallocated array with one row per recorded slot.

    Appending is an index assignment into spare capacity (amortised O(1),
    no per-append allocation).  When the caller knows the horizon up front
    it can preallocate exactly and never regrow.
    """

    __slots__ = ("_data", "_size", "_row_shape", "_dtype")

    def __init__(
        self,
        row_shape: Tuple[int, ...] = (),
        dtype=float,
        capacity: Optional[int] = None,
    ) -> None:
        self._row_shape = tuple(row_shape)
        self._dtype = dtype
        initial = _INITIAL_CAPACITY if capacity is None else max(int(capacity), 1)
        self._data = np.zeros((initial, *self._row_shape), dtype=dtype)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def append(self, row) -> None:
        if self._size == self._data.shape[0]:
            grown = np.zeros((2 * self._size, *self._row_shape), dtype=self._dtype)
            grown[: self._size] = self._data
            self._data = grown
        self._data[self._size] = row
        self._size += 1

    @property
    def array(self) -> np.ndarray:
        """View of the filled prefix (do not mutate)."""
        return self._data[: self._size]


#: Chunk length of the canonical streaming sum.  Reductions fold per-slot
#: values in consecutive chunks of this length, so a streaming accumulator
#: and a deferred fold over a kept buffer produce the identical float —
#: and any horizon up to one chunk reduces exactly like a plain ``np.sum``.
STREAM_CHUNK = 1024


def _chunked_sum(values: np.ndarray) -> float:
    """The canonical fold: sequential sum of per-chunk ``np.sum`` partials."""
    total = 0.0
    for start in range(0, values.size, STREAM_CHUNK):
        total += float(np.sum(values[start : start + STREAM_CHUNK]))
    return total


class _StreamingSum:
    """O(1)-memory accumulator reproducing :func:`_chunked_sum` bit for bit.

    Values fill a fixed staging chunk; every full chunk folds into the
    running total exactly where the deferred fold would split, so the sum
    is a pure function of the value sequence — identical to the deferred
    fold over the same values kept in a buffer.
    """

    __slots__ = ("_staging", "_fill", "_total", "count")

    def __init__(self) -> None:
        self._staging = np.zeros(STREAM_CHUNK)
        self._fill = 0
        self._total = 0.0
        self.count = 0

    def push(self, value: float) -> None:
        self._staging[self._fill] = value
        self._fill += 1
        self.count += 1
        if self._fill == STREAM_CHUNK:
            self._total += float(np.sum(self._staging))
            self._fill = 0

    @property
    def total(self) -> float:
        return self._total + float(np.sum(self._staging[: self._fill]))


class RewardTrace:
    """Per-slot reward components of the cache-management stage (Eq. 1).

    Array-backed: in ``mode="full"`` the per-slot scalars live in growable
    numpy buffers and every reduction property is computed from the backing
    arrays when read.  In ``mode="summary"`` only the per-slot *totals* are
    kept (they power the Fig. 1a cumulative-reward trace); the cost and AoI
    components stream through the canonical chunked accumulator, whose
    reductions are byte-identical to the full mode's deferred folds.
    """

    def __init__(
        self, expected_slots: Optional[int] = None, *, mode: str = "full"
    ) -> None:
        self._mode = check_metrics_mode(mode)
        self._totals = _SlotBuffer(capacity=expected_slots)
        if self._mode == "full":
            self._aoi = _SlotBuffer(capacity=expected_slots)
            self._costs = _SlotBuffer(capacity=expected_slots)
            self._aoi_stream = self._cost_stream = None
        else:
            self._aoi = self._costs = None
            self._aoi_stream = _StreamingSum()
            self._cost_stream = _StreamingSum()

    @property
    def mode(self) -> str:
        """The collection mode, ``"full"`` or ``"summary"``."""
        return self._mode

    def _require_full(self, what: str) -> None:
        if self._mode != "full":
            raise SimulationError(
                f"{what} needs the full per-slot components; this trace "
                "runs in metrics='summary' mode (re-run with "
                "metrics='full')"
            )

    def record(self, breakdown: RewardBreakdown) -> None:
        """Append one slot's reward breakdown."""
        self._append(breakdown.aoi_utility, breakdown.cost, breakdown.total)

    def _append(self, aoi_utility: float, cost: float, total: float) -> None:
        """The recording body: one slot's Eq. (2), Eq. (3) and Eq. (1) values."""
        self._totals.append(total)
        if self._mode == "full":
            self._aoi.append(aoi_utility)
            self._costs.append(cost)
        else:
            self._aoi_stream.push(aoi_utility)
            self._cost_stream.push(cost)

    def __len__(self) -> int:
        return len(self._totals)

    # ------------------------------------------------------------------
    # Per-slot views (list-typed for comparison convenience in tests)
    # ------------------------------------------------------------------
    @property
    def aoi_utilities(self) -> List[float]:
        """Per-slot AoI utilities (Eq. 2) as a list (``mode="full"``)."""
        self._require_full("aoi_utilities")
        return self._aoi.array.tolist()

    @property
    def costs(self) -> List[float]:
        """Per-slot MBS costs (Eq. 3) as a list (``mode="full"``)."""
        self._require_full("costs")
        return self._costs.array.tolist()

    @property
    def totals(self) -> List[float]:
        """Per-slot total utilities (Eq. 1) as a list."""
        return self._totals.array.tolist()

    # ------------------------------------------------------------------
    # Reductions (byte-identical across modes)
    # ------------------------------------------------------------------
    @property
    def cumulative_reward(self) -> np.ndarray:
        """Running sum of the total utility — the rising curve of Fig. 1a.

        A fresh array on every read, so callers may mutate it freely.
        """
        return np.cumsum(self._totals.array)

    @property
    def total_reward(self) -> float:
        """Sum of the per-slot total utilities."""
        return float(np.sum(self._totals.array))

    @property
    def total_cost(self) -> float:
        """Sum of the per-slot MBS costs (Eq. 3 accumulated)."""
        if self._mode == "full":
            return _chunked_sum(self._costs.array)
        return self._cost_stream.total

    @property
    def total_aoi_utility(self) -> float:
        """Sum of the per-slot AoI utilities (Eq. 2 accumulated)."""
        if self._mode == "full":
            return _chunked_sum(self._aoi.array)
        return self._aoi_stream.total

    @property
    def mean_reward(self) -> float:
        """Average per-slot total utility."""
        if not len(self._totals):
            return float("nan")
        return float(np.mean(self._totals.array))


class CacheMetrics:
    """Collector for the cache-management stage.

    In ``mode="full"`` it records, per slot, the full AoI matrix, the
    chosen action matrix, and the reward breakdown; per-(RSU, content)
    :class:`AoIProcess` traces are materialised on demand by
    :meth:`age_trace`.  In ``mode="summary"`` only the per-slot scalar
    aggregates survive — ``summary()`` output is byte-identical, memory is
    flat in the grid size.

    Parameters
    ----------
    num_rsus, contents_per_rsu:
        Grid shape of the recorded matrices.
    max_ages:
        Per-(RSU, content) ``A_max`` matrix (for the violation metric).
    mode:
        ``"full"`` or ``"summary"`` (see the module docstring).
    expected_slots:
        Optional horizon hint; buffers preallocate exactly and never regrow.
    """

    def __init__(
        self,
        num_rsus: int,
        contents_per_rsu: int,
        max_ages: np.ndarray,
        *,
        mode: str = "full",
        expected_slots: Optional[int] = None,
    ) -> None:
        max_ages = np.asarray(max_ages, dtype=float)
        if max_ages.shape != (num_rsus, contents_per_rsu):
            raise ValidationError(
                f"max_ages must have shape ({num_rsus}, {contents_per_rsu}), "
                f"got {max_ages.shape}"
            )
        self._mode = check_metrics_mode(mode)
        self._num_rsus = int(num_rsus)
        self._contents_per_rsu = int(contents_per_rsu)
        self._max_ages = max_ages.copy()
        self.reward = RewardTrace(expected_slots, mode=self._mode)
        self._slots = 0
        self._total_updates = 0
        self._violations = 0
        if self._mode == "full":
            shape = (self._num_rsus, self._contents_per_rsu)
            self._age_history = _SlotBuffer(shape, float, expected_slots)
            self._action_history = _SlotBuffer(shape, int, expected_slots)
            self._slot_times = _SlotBuffer((), int, expected_slots)
            self._age_sums = _SlotBuffer(capacity=expected_slots)
            self._age_sum_stream = None
        else:
            self._age_history = None
            self._action_history = None
            self._slot_times = None
            self._age_sums = None
            self._age_sum_stream = _StreamingSum()

    @property
    def mode(self) -> str:
        """The collection mode, ``"full"`` or ``"summary"``."""
        return self._mode

    @property
    def num_slots_recorded(self) -> int:
        """Number of slots recorded so far."""
        return self._slots

    def _require_full(self, what: str) -> None:
        if self._mode != "full":
            raise SimulationError(
                f"{what} needs the full per-slot history; this collector "
                "runs in metrics='summary' mode (re-run with "
                "metrics='full')"
            )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_slot(
        self,
        time_slot: int,
        ages: np.ndarray,
        actions: np.ndarray,
        breakdown: RewardBreakdown,
    ) -> None:
        """Record one decision epoch of the cache-management stage."""
        ages = np.asarray(ages, dtype=float)
        actions = np.asarray(actions, dtype=int)
        expected = (self._num_rsus, self._contents_per_rsu)
        if ages.shape != expected or actions.shape != expected:
            raise ValidationError(
                f"ages/actions must have shape {expected}, got {ages.shape} / "
                f"{actions.shape}"
            )
        CacheMetrics.record_stacked_slot(
            [self],
            time_slot,
            ages[np.newaxis],
            actions[np.newaxis],
            self._max_ages[np.newaxis],
            [breakdown.aoi_utility],
            [breakdown.cost],
            [breakdown.total],
        )

    @staticmethod
    def record_stacked_slot(
        collectors: Sequence["CacheMetrics"],
        time_slot: int,
        ages: np.ndarray,
        actions: np.ndarray,
        max_ages: np.ndarray,
        aoi_utilities: Sequence[float],
        costs: Sequence[float],
        totals: Sequence[float],
    ) -> None:
        """Record one decision epoch of ``S`` runs, one collector per run.

        The recording body of every stage-1 loop.  *ages* (post-update),
        *actions* and *max_ages* are ``(S, num_rsus, contents_per_rsu)``
        stacks whose ``s``-th slice belongs to ``collectors[s]``; the Eq. (1)
        components are length-``S``.  Age sums, update counts and ``A_max``
        violations reduce across the seed axis in one pass; each row reduces
        exactly as a one-seed :meth:`record_slot` would, so the recorded
        metrics do not depend on ``S``.
        """
        num_seeds = ages.shape[0]
        age_sums = ages.reshape(num_seeds, -1).sum(axis=1)
        updates = actions.reshape(num_seeds, -1).sum(axis=1)
        violations = (ages > max_ages).reshape(num_seeds, -1).sum(axis=1)
        for s, collector in enumerate(collectors):
            collector._total_updates += int(updates[s])
            collector._violations += int(violations[s])
            if collector._mode == "full":
                collector._age_sums.append(age_sums[s])
                collector._age_history.append(ages[s])
                collector._action_history.append(actions[s])
                collector._slot_times.append(time_slot)
            else:
                collector._age_sum_stream.push(age_sums[s])
            collector._slots += 1
            collector.reward._append(aoi_utilities[s], costs[s], totals[s])

    # ------------------------------------------------------------------
    # Post-run accessors
    # ------------------------------------------------------------------
    def age_trace(self, rsu: int, content_slot: int) -> AoIProcess:
        """Return the AoI sample path of one cached copy.

        Traces are materialised on demand from the recorded age history (the
        per-slot hot loop only appends matrices), so asking for a trace is
        cheap relative to the run but not free — cache the result if you
        need it repeatedly.  Needs ``mode="full"``.
        """
        self._require_full("age_trace")
        k, h = int(rsu), int(content_slot)
        if not (0 <= k < self._num_rsus and 0 <= h < self._contents_per_rsu):
            raise ValidationError(
                f"no trace for RSU {rsu}, content slot {content_slot}"
            )
        process = AoIProcess(
            float(self._max_ages[k, h]), label=f"rsu{k}-content{h}"
        )
        ages = self._age_history.array[:, k, h]
        for time_slot, age in zip(self._slot_times.array, ages):
            process.record(int(time_slot), float(age))
        return process

    def age_matrix_history(self) -> np.ndarray:
        """Return the full age history, shape ``(num_slots, num_rsus, contents)``.

        A fresh copy, as before the array-backed rewrite — mutating it never
        touches the recorded data.
        """
        self._require_full("age_matrix_history")
        return self._age_history.array.copy()

    def action_matrix_history(self) -> np.ndarray:
        """Return the full action history, same shape as the age history."""
        self._require_full("action_matrix_history")
        return self._action_history.array.copy()

    @property
    def total_updates(self) -> int:
        """Total number of MBS-pushed updates over the run."""
        return self._total_updates

    @property
    def mean_age(self) -> float:
        """Mean age across all cached copies and all slots."""
        if self._slots == 0:
            return float("nan")
        samples = self._slots * self._num_rsus * self._contents_per_rsu
        age_total = (
            _chunked_sum(self._age_sums.array)
            if self._mode == "full"
            else self._age_sum_stream.total
        )
        return age_total / samples

    @property
    def violation_fraction(self) -> float:
        """Fraction of (slot, RSU, content) samples exceeding their ``A_max``."""
        if self._slots == 0:
            return float("nan")
        samples = self._slots * self._num_rsus * self._contents_per_rsu
        return self._violations / samples

    def summary(self) -> Dict[str, float]:
        """Return the headline metrics of the run as a dictionary.

        Identical — byte for byte — whether the collector runs in
        ``"full"`` or ``"summary"`` mode and whichever loop recorded it:
        every entry reduces the same per-slot aggregates.
        """
        return {
            "num_slots": float(self._slots),
            "total_reward": self.reward.total_reward,
            "mean_reward": self.reward.mean_reward,
            "total_cost": self.reward.total_cost,
            "total_aoi_utility": self.reward.total_aoi_utility,
            "total_updates": float(self.total_updates),
            "mean_age": self.mean_age,
            "violation_fraction": self.violation_fraction,
        }


class ServiceMetrics:
    """Collector for the content-service stage (one entry per RSU per slot).

    ``mode="full"`` keeps the per-RSU histories; ``mode="summary"`` keeps
    only the per-slot totals (summed over RSUs) that feed ``summary()`` and
    the Fig. 1b latency trace, so memory is flat in the number of RSUs.
    """

    def __init__(
        self,
        num_rsus: int,
        *,
        mode: str = "full",
        expected_slots: Optional[int] = None,
    ) -> None:
        if num_rsus <= 0:
            raise ValidationError(f"num_rsus must be > 0, got {num_rsus}")
        self._mode = check_metrics_mode(mode)
        self._num_rsus = int(num_rsus)
        self._slots = 0
        self._backlog_sums = _SlotBuffer(capacity=expected_slots)
        self._latency_sums = _SlotBuffer(capacity=expected_slots)
        self._cost_sums = _SlotBuffer(capacity=expected_slots)
        self._total_served = 0
        self._serve_decisions = 0
        if self._mode == "full":
            row = (self._num_rsus,)
            self._backlogs = _SlotBuffer(row, float, expected_slots)
            self._latencies = _SlotBuffer(row, float, expected_slots)
            self._costs = _SlotBuffer(row, float, expected_slots)
            self._decisions = _SlotBuffer(row, float, expected_slots)
            self._served_counts = _SlotBuffer(row, float, expected_slots)
        else:
            self._backlogs = self._latencies = self._costs = None
            self._decisions = self._served_counts = None

    @property
    def mode(self) -> str:
        """The collection mode, ``"full"`` or ``"summary"``."""
        return self._mode

    @property
    def num_slots_recorded(self) -> int:
        """Number of slots recorded so far."""
        return self._slots

    def _require_full(self, what: str) -> None:
        if self._mode != "full":
            raise SimulationError(
                f"{what} needs the full per-RSU history; this collector "
                "runs in metrics='summary' mode (re-run with "
                "metrics='full')"
            )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_slot(
        self,
        backlogs: Sequence[float],
        latencies: Sequence[float],
        costs: Sequence[float],
        decisions: Sequence[bool],
        served_counts: Sequence[int],
    ) -> Tuple[float, float, float, float]:
        """Record one slot of the service stage across all RSUs.

        Returns the slot's ``(backlog, latency, cost, served)`` totals
        across RSUs — the sums the collector keeps — so callers reporting
        per-slot aggregates need not sum the rows again.
        """
        arrays = []
        for name, values in (
            ("backlogs", backlogs),
            ("latencies", latencies),
            ("costs", costs),
            ("decisions", decisions),
            ("served_counts", served_counts),
        ):
            arr = np.asarray(values, dtype=float)
            if arr.shape != (self._num_rsus,):
                raise ValidationError(
                    f"{name} must have shape ({self._num_rsus},), got {arr.shape}"
                )
            arrays.append(arr)
        backlog = float(arrays[0].sum())
        latency = float(arrays[1].sum())
        cost = float(arrays[2].sum())
        served = float(arrays[4].sum())
        self._backlog_sums.append(backlog)
        self._latency_sums.append(latency)
        self._cost_sums.append(cost)
        self._serve_decisions += int(np.count_nonzero(arrays[3]))
        self._total_served += int(served)
        if self._mode == "full":
            self._backlogs.append(arrays[0])
            self._latencies.append(arrays[1])
            self._costs.append(arrays[2])
            self._decisions.append(arrays[3])
            self._served_counts.append(arrays[4])
        self._slots += 1
        return backlog, latency, cost, served

    # ------------------------------------------------------------------
    # Post-run accessors
    # ------------------------------------------------------------------
    def backlog_history(self, rsu: Optional[int] = None) -> np.ndarray:
        """Backlog Q[t] per slot, for one RSU or summed over all RSUs."""
        return self._history(self._backlogs, self._backlog_sums, rsu, "backlog_history")

    def latency_history(self, rsu: Optional[int] = None) -> np.ndarray:
        """Accumulated waiting time per slot (the Fig. 1b latency curve)."""
        return self._history(self._latencies, self._latency_sums, rsu, "latency_history")

    def cost_history(self, rsu: Optional[int] = None) -> np.ndarray:
        """Service cost spent per slot."""
        return self._history(self._costs, self._cost_sums, rsu, "cost_history")

    def _history(
        self,
        store: Optional[_SlotBuffer],
        sums: _SlotBuffer,
        rsu: Optional[int],
        what: str,
    ) -> np.ndarray:
        if self._slots == 0:
            return np.zeros(0)
        if rsu is None:
            return sums.array.copy()
        self._require_full(f"{what}(rsu=...)")
        if not 0 <= rsu < self._num_rsus:
            raise ValidationError(f"rsu {rsu} out of range [0, {self._num_rsus})")
        return store.array[:, rsu].copy()

    @property
    def total_cost(self) -> float:
        """Total service cost across RSUs and slots."""
        return float(np.sum(self._cost_sums.array))

    @property
    def time_average_cost(self) -> float:
        """Time-average service cost (the Eq. 4 objective, summed over RSUs)."""
        if self._slots == 0:
            return float("nan")
        return float(np.mean(self._cost_sums.array))

    @property
    def time_average_backlog(self) -> float:
        """Time-average total backlog across RSUs."""
        if self._slots == 0:
            return float("nan")
        return float(np.mean(self._backlog_sums.array))

    @property
    def peak_backlog(self) -> float:
        """Peak total backlog across RSUs."""
        if self._slots == 0:
            return float("nan")
        return float(np.max(self._backlog_sums.array))

    @property
    def total_served(self) -> int:
        """Total number of requests served across RSUs and slots."""
        return self._total_served

    @property
    def service_rate(self) -> float:
        """Fraction of (RSU, slot) pairs in which the RSU decided to serve."""
        if self._slots == 0:
            return float("nan")
        return self._serve_decisions / (self._slots * self._num_rsus)

    def is_stable(self) -> bool:
        """Heuristic stability check on the total-backlog sample path."""
        history = self._backlog_sums.array
        if history.size < 4:
            return True
        half = history.size // 2
        first, second = history[:half], history[half:]
        return float(second.mean()) <= 2.0 * float(first.mean()) + 1.0

    def summary(self) -> Dict[str, float]:
        """Return the headline metrics of the run as a dictionary.

        Identical — byte for byte — across both collection modes (see
        :meth:`CacheMetrics.summary`).
        """
        return {
            "num_slots": float(self._slots),
            "total_cost": self.total_cost,
            "time_average_cost": self.time_average_cost,
            "time_average_backlog": self.time_average_backlog,
            "peak_backlog": self.peak_backlog,
            "total_served": float(self.total_served),
            "service_rate": self.service_rate,
            "stable": float(self.is_stable()),
        }


class MultihopMetrics:
    """Collector for multihop runs: per-slot request/hit/latency/hop totals.

    One :meth:`record_slot` call per slot aggregates every session routed in
    that slot.  ``mode="full"`` additionally keeps the per-session
    :class:`~repro.net.controller.SessionResult` records (hop sequences,
    serving nodes) that the routing property tests and analysis notebooks
    consume; ``mode="summary"`` keeps only the per-slot aggregates, so
    memory stays flat in request volume.
    """

    def __init__(
        self,
        *,
        mode: str = "full",
        expected_slots: Optional[int] = None,
    ) -> None:
        self._mode = check_metrics_mode(mode)
        self._slots = 0
        self._requests = _SlotBuffer(dtype=np.int64, capacity=expected_slots)
        self._served = _SlotBuffer(dtype=np.int64, capacity=expected_slots)
        self._hits = _SlotBuffer(dtype=np.int64, capacity=expected_slots)
        self._latency = _SlotBuffer(capacity=expected_slots)
        self._waiting = _SlotBuffer(capacity=expected_slots)
        self._hops = _SlotBuffer(dtype=np.int64, capacity=expected_slots)
        self._updates = _SlotBuffer(dtype=np.int64, capacity=expected_slots)
        self._update_cost = _SlotBuffer(capacity=expected_slots)
        self._sessions: Optional[List] = [] if self._mode == "full" else None

    @property
    def mode(self) -> str:
        """The collection mode this collector runs in."""
        return self._mode

    def record_slot(
        self,
        *,
        requests: int,
        served: int,
        hits: int,
        latency: float,
        hops: int,
        waiting: float = 0.0,
        updates: int = 0,
        update_cost: float = 0.0,
        sessions: Sequence = (),
    ) -> None:
        """Record one slot's aggregates (and, in full mode, its sessions)."""
        self._slots += 1
        self._requests.append(requests)
        self._served.append(served)
        self._hits.append(hits)
        self._latency.append(latency)
        self._waiting.append(waiting)
        self._hops.append(hops)
        self._updates.append(updates)
        self._update_cost.append(update_cost)
        if self._sessions is not None:
            self._sessions.extend(sessions)

    def sessions(self) -> List:
        """Per-request session records (full mode only)."""
        if self._sessions is None:
            raise SimulationError(
                "per-session records are only collected in metrics='full' mode"
            )
        return list(self._sessions)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        """Number of recorded slots."""
        return self._slots

    @property
    def total_requests(self) -> int:
        """Requests issued over the run."""
        return int(self._requests.array.sum())

    @property
    def total_served(self) -> int:
        """Requests actually routed over the run (== issued except when a
        service-role policy defers some past the horizon)."""
        return int(self._served.array.sum())

    @property
    def total_hits(self) -> int:
        """Requests served from an RSU cache rather than the origin."""
        return int(self._hits.array.sum())

    @property
    def total_latency(self) -> float:
        """Sum of per-hop link delays over every routed request."""
        return float(_chunked_sum(self._latency.array))

    @property
    def total_waiting(self) -> float:
        """Total queue-wait slots accumulated before routing."""
        return float(_chunked_sum(self._waiting.array))

    @property
    def total_hops(self) -> int:
        """Links traversed over the run (request + delivery legs)."""
        return int(self._hops.array.sum())

    @property
    def total_updates(self) -> int:
        """MBS-pushed cache refreshes (caching-role policies only)."""
        return int(self._updates.array.sum())

    @property
    def total_update_cost(self) -> float:
        """Backhaul cost of those refreshes."""
        return float(_chunked_sum(self._update_cost.array))

    @property
    def hit_ratio(self) -> float:
        """Fraction of routed requests served from an RSU cache."""
        served = self.total_served
        if served == 0:
            return float("nan")
        return self.total_hits / served

    @property
    def mean_latency(self) -> float:
        """Mean network latency per routed request."""
        served = self.total_served
        if served == 0:
            return float("nan")
        return self.total_latency / served

    @property
    def mean_hops(self) -> float:
        """Mean links traversed per routed request."""
        served = self.total_served
        if served == 0:
            return float("nan")
        return self.total_hops / served

    @property
    def mean_hop_latency(self) -> float:
        """Mean delay per traversed link (0 when every hit was local)."""
        hops = self.total_hops
        if hops == 0:
            return 0.0
        return self.total_latency / hops

    def latency_history(self) -> np.ndarray:
        """Cumulative network + waiting latency per slot (the run's trace)."""
        return np.cumsum(self._latency.array + self._waiting.array)

    def summary(self) -> Dict[str, float]:
        """Return the headline metrics of the run as a dictionary."""
        return {
            "num_slots": float(self._slots),
            "total_requests": float(self.total_requests),
            "total_served": float(self.total_served),
            "hit_ratio": self.hit_ratio,
            "total_latency": self.total_latency,
            "mean_latency": self.mean_latency,
            "mean_hops": self.mean_hops,
            "mean_hop_latency": self.mean_hop_latency,
            "total_waiting": self.total_waiting,
            "total_updates": float(self.total_updates),
            "total_update_cost": self.total_update_cost,
        }
