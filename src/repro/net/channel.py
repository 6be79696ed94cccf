"""Communication-cost models.

Two links matter in the paper's system:

* **MBS -> RSU** backhaul, used when the MBS pushes a fresh content version
  into an RSU cache.  Its cost ``C_{k,h}(x_{k,h}(t))`` is the negative term of
  the MDP reward (Eq. 3); frequent updates keep AoI low but inflate this cost.
* **RSU -> UV** access link, used when an RSU serves a queued request.  Its
  cost ``C(alpha[t])`` is the penalty term of the Lyapunov objective (Eq. 4).

The paper does not fix a particular cost function, so this module provides a
small family of models sharing one interface: a constant per-transfer cost,
a distance/size-proportional cost, and a time-varying fading cost whose
per-slot fluctuation exercises the "rapidly changing road environment" the
scheme is supposed to adapt to.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError, ValidationError
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_non_negative, check_positive


class CostModel(abc.ABC):
    """Cost of one content transfer over a link, possibly time-varying."""

    #: Whether :meth:`cost` may depend on *time_slot*.  Models declaring
    #: ``False`` let the simulators compute their cost matrices once per run
    #: instead of once per slot.  The conservative default is ``True`` so an
    #: unknown subclass is never silently frozen at its t=0 costs; the
    #: built-in static models opt out explicitly.
    time_varying: bool = True

    @abc.abstractmethod
    def cost(self, *, distance: float = 0.0, size: float = 1.0, time_slot: int = 0) -> float:
        """Return the cost of transferring *size* units over *distance* metres."""

    def advance(self, time_slot: int) -> None:
        """Advance any internal time-varying state to *time_slot*.

        Stateless models ignore this; the fading model resamples its
        per-slot channel gain here so that repeated :meth:`cost` queries
        within one slot are consistent.
        """

    def cost_array(
        self,
        *,
        distances: Sequence,
        sizes: Sequence,
        time_slot: int = 0,
    ) -> np.ndarray:
        """Vectorised :meth:`cost` over broadcastable *distances*/*sizes* arrays.

        The built-in models override this with pure numpy expressions that
        reproduce the per-element :meth:`cost` values bit for bit (same
        float64 operations in the same order), which is what lets the
        vectorised simulators stay golden-trajectory-equivalent to the
        scalar reference loop.  Custom subclasses inherit this element-wise
        fallback and remain correct, just not fast.
        """
        distances_arr, sizes_arr = np.broadcast_arrays(
            np.asarray(distances, dtype=float), np.asarray(sizes, dtype=float)
        )
        out = np.empty(distances_arr.shape, dtype=float)
        flat = out.reshape(-1)
        for i, (distance, size) in enumerate(
            zip(distances_arr.reshape(-1), sizes_arr.reshape(-1))
        ):
            flat[i] = self.cost(
                distance=float(distance), size=float(size), time_slot=time_slot
            )
        return out


class ConstantCostModel(CostModel):
    """A fixed cost per transfer, independent of distance, size, and time.

    This is the simplest instantiation of Eq. (3): every cache update costs
    the same amount of backhaul resources.
    """

    time_varying = False

    def __init__(self, unit_cost: float = 1.0) -> None:
        self._unit_cost = check_non_negative(unit_cost, "unit_cost")

    @property
    def unit_cost(self) -> float:
        """The fixed per-transfer cost."""
        return self._unit_cost

    def cost(self, *, distance: float = 0.0, size: float = 1.0, time_slot: int = 0) -> float:
        check_non_negative(distance, "distance")
        check_positive(size, "size")
        return self._unit_cost

    def cost_array(
        self, *, distances: Sequence, sizes: Sequence, time_slot: int = 0
    ) -> np.ndarray:
        distances_arr, sizes_arr = np.broadcast_arrays(
            np.asarray(distances, dtype=float), np.asarray(sizes, dtype=float)
        )
        if np.any(distances_arr < 0):
            raise ValidationError("distances must be >= 0")
        if np.any(sizes_arr <= 0):
            raise ValidationError("sizes must be > 0")
        return np.full(distances_arr.shape, self._unit_cost, dtype=float)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"ConstantCostModel(unit_cost={self._unit_cost:g})"


class DistanceCostModel(CostModel):
    """Cost proportional to file size and affine in link distance.

    ``cost = size * (base + slope * distance)``.  A far-away RSU costs more
    backhaul resources to update than one next to the MBS, which makes the
    MDP policy spatially selective.
    """

    time_varying = False

    def __init__(self, *, base: float = 1.0, slope: float = 0.001) -> None:
        self._base = check_non_negative(base, "base")
        self._slope = check_non_negative(slope, "slope")
        if self._base == 0.0 and self._slope == 0.0:
            raise ConfigurationError("base and slope cannot both be zero")

    @property
    def base(self) -> float:
        """Distance-independent cost component per unit size."""
        return self._base

    @property
    def slope(self) -> float:
        """Additional cost per metre per unit size."""
        return self._slope

    def cost(self, *, distance: float = 0.0, size: float = 1.0, time_slot: int = 0) -> float:
        check_non_negative(distance, "distance")
        check_positive(size, "size")
        return float(size) * (self._base + self._slope * float(distance))

    def cost_array(
        self, *, distances: Sequence, sizes: Sequence, time_slot: int = 0
    ) -> np.ndarray:
        distances_arr, sizes_arr = np.broadcast_arrays(
            np.asarray(distances, dtype=float), np.asarray(sizes, dtype=float)
        )
        if np.any(distances_arr < 0):
            raise ValidationError("distances must be >= 0")
        if np.any(sizes_arr <= 0):
            raise ValidationError("sizes must be > 0")
        return sizes_arr * (self._base + self._slope * distances_arr)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"DistanceCostModel(base={self._base:g}, slope={self._slope:g})"


class FadingCostModel(CostModel):
    """Time-varying cost driven by a per-slot log-normal channel fluctuation.

    ``cost(t) = size * (base + slope * distance) * gain(t)`` where ``gain(t)``
    is redrawn each slot from a log-normal distribution with unit median.
    This models the rapidly changing wireless environment: the same transfer
    is cheap in a good slot and expensive in a bad one, so both the MDP
    policy and the Lyapunov controller face genuinely stochastic costs.

    Parameters
    ----------
    base, slope:
        Same meaning as :class:`DistanceCostModel`.
    sigma:
        Standard deviation of the underlying normal; larger values give
        burstier costs.
    rng:
        Seed or generator driving the per-slot gains.
    """

    time_varying = True

    def __init__(
        self,
        *,
        base: float = 1.0,
        slope: float = 0.001,
        sigma: float = 0.25,
        rng: RandomSource = None,
    ) -> None:
        self._static = DistanceCostModel(base=base, slope=slope)
        self._sigma = check_non_negative(sigma, "sigma")
        self._rng = ensure_rng(rng)
        self._current_slot = -1
        self._gain = 1.0

    @property
    def sigma(self) -> float:
        """Standard deviation of the log-gain."""
        return self._sigma

    def advance(self, time_slot: int) -> None:
        if time_slot < 0:
            raise ValidationError(f"time_slot must be >= 0, got {time_slot}")
        if time_slot != self._current_slot:
            self._current_slot = int(time_slot)
            self._gain = float(np.exp(self._rng.normal(0.0, self._sigma)))

    def cost(self, *, distance: float = 0.0, size: float = 1.0, time_slot: int = 0) -> float:
        self.advance(time_slot)
        return self._static.cost(distance=distance, size=size) * self._gain

    def cost_array(
        self, *, distances: Sequence, sizes: Sequence, time_slot: int = 0
    ) -> np.ndarray:
        self.advance(time_slot)
        return (
            self._static.cost_array(distances=distances, sizes=sizes) * self._gain
        )

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"FadingCostModel(base={self._static.base:g}, slope={self._static.slope:g}, "
            f"sigma={self._sigma:g})"
        )

