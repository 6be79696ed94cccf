"""The built-in synthetic workload models.

Four registered request processes cover the paper's stationary setup and
the three classic non-stationary regimes of the caching literature (the
Icarus simulator ships the same family):

* ``stationary`` — the paper's workload, byte-identical to the historical
  :class:`~repro.net.requests.RequestGenerator` behaviour.
* ``drift`` — slow popularity churn: every ``period`` slots each RSU's
  content weights take a log-normal random-walk step and requests follow
  the re-ranked distribution.
* ``flash-crowd`` — sudden bursts: per slot each RSU starts a burst with
  probability ``burst_prob``; for ``duration`` slots a single random
  content absorbs ``concentration`` of the request mass.
* ``shot-noise`` — content lifetimes: contents "go live" as a Bernoulli
  event process, stay ``boost``-times hotter for an exponentially
  distributed lifetime, then decay back to the base popularity.

All models draw evolution variates from the same workload RNG stream as
the arrival/choice draws, once per slot in topology order, so the RNG
consumption is a pure function of the slot index — the property that keeps
the scalar, vectorised, and seed-batched simulator loops bit-identical.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.net.content import ContentCatalog
from repro.net.requests import ArrivalProcess
from repro.net.topology import RoadTopology
from repro.utils.rng import RandomSource
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_positive_int,
    check_probability,
)
from repro.workloads.base import WorkloadModel
from repro.workloads.registry import register_workload

__all__ = [
    "StationaryWorkload",
    "DriftWorkload",
    "FlashCrowdWorkload",
    "ShotNoiseWorkload",
]

#: Weights are logged before random-walking; clip zeros to this floor.
_LOG_FLOOR = 1e-12


@register_workload("stationary")
class StationaryWorkload(WorkloadModel):
    """The paper's stationary workload (fixed per-RSU popularity)."""

    PARAM_DEFAULTS: Dict[str, Any] = {}


@register_workload("drift")
class DriftWorkload(WorkloadModel):
    """Popularity churn: a log-space random walk re-ranks weights every ``period`` slots."""

    PARAM_DEFAULTS: Dict[str, Any] = {"period": 50, "step": 0.5}

    @classmethod
    def normalize_params(cls, params: Dict[str, Any]) -> Dict[str, Any]:
        merged = super().normalize_params(params)
        check_positive_int(merged["period"], "workload 'drift' period")
        check_positive(merged["step"], "workload 'drift' step")
        return merged

    def __init__(
        self,
        topology: RoadTopology,
        catalog: ContentCatalog,
        *,
        arrivals: Optional[ArrivalProcess] = None,
        zipf_exponent: Optional[float] = None,
        rng: RandomSource = None,
        period: int = 50,
        step: float = 0.5,
    ) -> None:
        super().__init__(
            topology,
            catalog,
            arrivals=arrivals,
            zipf_exponent=zipf_exponent,
            rng=rng,
        )
        params = self.normalize_params({"period": period, "step": step})
        self._period = int(params["period"])
        self._step = float(params["step"])
        self._log_weights: Dict[int, np.ndarray] = {
            rsu_id: np.log(np.maximum(weights, _LOG_FLOOR))
            for rsu_id, weights in self._base_popularity.items()
        }
        self._evolved: Dict[int, np.ndarray] = {
            rsu_id: weights.copy()
            for rsu_id, weights in self._base_popularity.items()
        }

    def _evolve(self, time_slot: int) -> None:
        if time_slot == 0 or time_slot % self._period:
            return
        for rsu in self._topology.rsus:
            log_weights = self._log_weights[rsu.rsu_id]
            log_weights += self._rng.normal(0.0, self._step, size=log_weights.size)
            # Subtract the max before exponentiating for numerical range;
            # the normalisation cancels the shift.
            shifted = np.exp(log_weights - log_weights.max())
            self._evolved[rsu.rsu_id] = self._normalized(shifted)

    def _weights(self, rsu_id: int, time_slot: int) -> np.ndarray:
        return self._evolved[rsu_id]


@register_workload("flash-crowd")
class FlashCrowdWorkload(WorkloadModel):
    """Poisson bursts that concentrate request mass on one hot content per RSU."""

    PARAM_DEFAULTS: Dict[str, Any] = {
        "burst_prob": 0.02,
        "duration": 20,
        "concentration": 0.8,
    }

    @classmethod
    def normalize_params(cls, params: Dict[str, Any]) -> Dict[str, Any]:
        merged = super().normalize_params(params)
        check_probability(merged["burst_prob"], "workload 'flash-crowd' burst_prob")
        check_positive_int(merged["duration"], "workload 'flash-crowd' duration")
        check_in_range(
            merged["concentration"],
            "workload 'flash-crowd' concentration",
            0.0,
            1.0,
        )
        return merged

    def __init__(
        self,
        topology: RoadTopology,
        catalog: ContentCatalog,
        *,
        arrivals: Optional[ArrivalProcess] = None,
        zipf_exponent: Optional[float] = None,
        rng: RandomSource = None,
        burst_prob: float = 0.02,
        duration: int = 20,
        concentration: float = 0.8,
    ) -> None:
        super().__init__(
            topology,
            catalog,
            arrivals=arrivals,
            zipf_exponent=zipf_exponent,
            rng=rng,
        )
        params = self.normalize_params(
            {
                "burst_prob": burst_prob,
                "duration": duration,
                "concentration": concentration,
            }
        )
        self._burst_prob = float(params["burst_prob"])
        self._duration = int(params["duration"])
        self._concentration = float(params["concentration"])
        self._burst_end: Dict[int, int] = {
            rsu.rsu_id: -1 for rsu in self._topology.rsus
        }
        self._evolved: Dict[int, np.ndarray] = {
            rsu_id: weights.copy()
            for rsu_id, weights in self._base_popularity.items()
        }

    def hot_content(self, rsu_id: int) -> Optional[int]:
        """Content id of the RSU's active burst, or ``None``."""
        rsu_id = self._check_rsu(rsu_id)
        # The cursor sits one past the last generated slot; a burst is
        # active there while burst_end covers that slot.
        if self._burst_end[rsu_id] < self._cursor - 1:
            return None
        weights = self._evolved[rsu_id]
        return int(self._local_content_arrays[rsu_id][int(np.argmax(weights))])

    def _evolve(self, time_slot: int) -> None:
        random = self._uniform()
        burst_end = self._burst_end
        for rsu_id, end in burst_end.items():
            if 0 <= end < time_slot:
                burst_end[rsu_id] = -1
                self._evolved[rsu_id] = self._base_popularity[rsu_id].copy()
            # One uniform draw per RSU per slot regardless of the outcome,
            # so RNG consumption never depends on the burst state.
            if random() < self._burst_prob:
                base = self._base_popularity[rsu_id]
                hot = int(self._rng.integers(base.size))
                spiked = (1.0 - self._concentration) * base
                spiked[hot] += self._concentration
                self._evolved[rsu_id] = self._normalized(spiked)
                burst_end[rsu_id] = time_slot + self._duration - 1

    def _weights(self, rsu_id: int, time_slot: int) -> np.ndarray:
        return self._evolved[rsu_id]


@register_workload("shot-noise")
class ShotNoiseWorkload(WorkloadModel):
    """Icarus-style content lifetimes: contents activate, stay hot, then decay."""

    PARAM_DEFAULTS: Dict[str, Any] = {
        "event_rate": 0.05,
        "mean_lifetime": 25.0,
        "boost": 8.0,
    }

    @classmethod
    def normalize_params(cls, params: Dict[str, Any]) -> Dict[str, Any]:
        merged = super().normalize_params(params)
        check_probability(merged["event_rate"], "workload 'shot-noise' event_rate")
        check_positive(
            merged["mean_lifetime"], "workload 'shot-noise' mean_lifetime"
        )
        boost = merged["boost"]
        check_positive(boost, "workload 'shot-noise' boost")
        if boost < 1.0:
            raise ConfigurationError(
                f"workload 'shot-noise' boost must be >= 1, got {boost}"
            )
        return merged

    def __init__(
        self,
        topology: RoadTopology,
        catalog: ContentCatalog,
        *,
        arrivals: Optional[ArrivalProcess] = None,
        zipf_exponent: Optional[float] = None,
        rng: RandomSource = None,
        event_rate: float = 0.05,
        mean_lifetime: float = 25.0,
        boost: float = 8.0,
    ) -> None:
        super().__init__(
            topology,
            catalog,
            arrivals=arrivals,
            zipf_exponent=zipf_exponent,
            rng=rng,
        )
        params = self.normalize_params(
            {
                "event_rate": event_rate,
                "mean_lifetime": mean_lifetime,
                "boost": boost,
            }
        )
        self._event_rate = float(params["event_rate"])
        self._mean_lifetime = float(params["mean_lifetime"])
        self._boost = float(params["boost"])
        # Per-RSU state as rows (topology order) of one matrix each, so a
        # slot re-weighs every RSU whose shots changed in one array pass.
        self._rsu_ids = [rsu.rsu_id for rsu in self._topology.rsus]
        self._base_rows = np.stack(
            [self._base_popularity[rsu_id] for rsu_id in self._rsu_ids]
        )
        self._expiries = np.zeros(self._base_rows.shape)
        self._expiry: Dict[int, np.ndarray] = dict(zip(self._rsu_ids, self._expiries))
        self._next_change = np.full(len(self._rsu_ids), np.inf)
        self._evolved: Dict[int, np.ndarray] = {
            rsu_id: weights.copy()
            for rsu_id, weights in self._base_popularity.items()
        }

    def active_contents(self, rsu_id: int) -> np.ndarray:
        """Content ids of the RSU's currently-live shots."""
        rsu_id = self._check_rsu(rsu_id)
        mask = self._expiry[rsu_id] > self._cursor - 1
        return self._local_content_arrays[rsu_id][mask]

    def _evolve(self, time_slot: int) -> None:
        random = self._uniform()
        expiries, next_change = self._expiries, self._next_change
        for row in range(len(next_change)):
            # One uniform draw per RSU per slot regardless of the outcome.
            if random() < self._event_rate:
                index = int(self._rng.integers(expiries.shape[1]))
                lifetime = float(self._rng.exponential(self._mean_lifetime))
                expiries[row, index] = max(
                    expiries[row, index], time_slot + 1.0 + lifetime
                )
                next_change[row] = time_slot  # re-weigh it below
        # Re-weigh the RSUs with a new or an expired shot.
        rows = (next_change <= time_slot).nonzero()[0]
        if not rows.size:
            return
        expiry = expiries.take(rows, axis=0)
        active = expiry > time_slot
        changes = np.minimum.reduce(expiry, axis=1, where=active, initial=np.inf)
        next_change[rows] = changes
        # The base weights times boost where a shot is live, renormalised
        # row by row: the same sums and quotients as _normalized on each row
        # (the weights are non-negative and sum to at least 1).
        weights = self._base_rows.take(rows, axis=0)
        weights[active] *= self._boost
        weights /= np.add.reduce(weights, axis=1, keepdims=True)
        for weights_row, row, change in zip(weights, rows.tolist(), changes.tolist()):
            rsu_id = self._rsu_ids[row]
            self._evolved[rsu_id] = (
                weights_row if change < np.inf else self._base_popularity[rsu_id].copy()
            )

    def _weights(self, rsu_id: int, time_slot: int) -> np.ndarray:
        return self._evolved[rsu_id]
