"""User-vehicle (UV) mobility models.

The paper's UVs are "ad-hoc smart connected vehicles [that] move in one
direction and request the RSU for the contents what they need".  For the
service stage the only mobility-relevant quantity is how long a UV remains
inside an RSU's coverage (its *dwell time*), because a queued request must be
served before the UV leaves.  This module provides:

* :class:`Vehicle` — position/speed state of one UV.
* :class:`UniformSpeedMobility` — constant-speed one-directional motion.
* :class:`RandomSpeedMobility` — per-vehicle speeds drawn from a range, with
  optional per-slot jitter (modelling stop-and-go traffic).
* :class:`VehicleFleet` — manages arrivals of new vehicles at the road start
  (Bernoulli per slot) and removes vehicles that exit the road.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ValidationError
from repro.net.topology import RoadTopology
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_non_negative, check_positive, check_probability


@dataclass
class Vehicle:
    """State of one user vehicle.

    Attributes
    ----------
    vehicle_id:
        Unique identifier assigned by the fleet.
    position:
        Current position along the road in metres.
    speed:
        Current speed in metres per slot.
    entered_at:
        Slot index at which the vehicle entered the road.
    """

    vehicle_id: int
    position: float
    speed: float
    entered_at: int = 0

    def __post_init__(self) -> None:
        check_non_negative(self.position, "position")
        check_positive(self.speed, "speed")
        if self.entered_at < 0:
            raise ValidationError(f"entered_at must be >= 0, got {self.entered_at}")

    def advance(self, slots: int = 1) -> float:
        """Move the vehicle forward by *slots* slots and return the new position."""
        if slots < 0:
            raise ValidationError(f"slots must be >= 0, got {slots}")
        self.position += self.speed * slots
        return self.position


class MobilityModel(abc.ABC):
    """Generates initial speeds and per-slot speed updates for vehicles."""

    @abc.abstractmethod
    def initial_speed(self, rng: np.random.Generator) -> float:
        """Draw the entry speed of a newly arrived vehicle."""

    def update_speed(self, vehicle: Vehicle, rng: np.random.Generator) -> float:
        """Return the vehicle's speed for the next slot (default: unchanged)."""
        return vehicle.speed


class UniformSpeedMobility(MobilityModel):
    """Every vehicle moves at the same constant speed."""

    def __init__(self, speed: float = 20.0) -> None:
        self._speed = check_positive(speed, "speed")

    @property
    def speed(self) -> float:
        """The common vehicle speed in metres per slot."""
        return self._speed

    def initial_speed(self, rng: np.random.Generator) -> float:
        return self._speed

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"UniformSpeedMobility(speed={self._speed:g})"


class RandomSpeedMobility(MobilityModel):
    """Per-vehicle speeds drawn uniformly from a range, with optional jitter.

    Parameters
    ----------
    min_speed, max_speed:
        Range of entry speeds in metres per slot.
    jitter:
        Standard deviation of a zero-mean Gaussian perturbation applied to
        the speed every slot (clipped back into the range), modelling
        stop-and-go traffic conditions.
    """

    def __init__(
        self,
        *,
        min_speed: float = 10.0,
        max_speed: float = 30.0,
        jitter: float = 0.0,
    ) -> None:
        self._min_speed = check_positive(min_speed, "min_speed")
        self._max_speed = check_positive(max_speed, "max_speed")
        if self._max_speed < self._min_speed:
            raise ConfigurationError(
                f"max_speed ({max_speed}) must be >= min_speed ({min_speed})"
            )
        self._jitter = check_non_negative(jitter, "jitter")

    @property
    def min_speed(self) -> float:
        """Lower bound of the entry speed range."""
        return self._min_speed

    @property
    def max_speed(self) -> float:
        """Upper bound of the entry speed range."""
        return self._max_speed

    @property
    def jitter(self) -> float:
        """Per-slot speed perturbation standard deviation."""
        return self._jitter

    def initial_speed(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self._min_speed, self._max_speed))

    def update_speed(self, vehicle: Vehicle, rng: np.random.Generator) -> float:
        if self._jitter == 0.0:
            return vehicle.speed
        perturbed = vehicle.speed + rng.normal(0.0, self._jitter)
        return float(np.clip(perturbed, self._min_speed, self._max_speed))

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"RandomSpeedMobility(min_speed={self._min_speed:g}, "
            f"max_speed={self._max_speed:g}, jitter={self._jitter:g})"
        )


class VehicleFleet:
    """The population of vehicles currently on the road.

    New vehicles arrive at the road start with probability *arrival_rate*
    per slot (at most one arrival per slot, Bernoulli), move according to the
    mobility model, and leave the fleet once they pass the end of the road.

    Parameters
    ----------
    topology:
        Road geometry used to detect exits and answer coverage queries.
    mobility:
        Speed model for arriving vehicles.
    arrival_rate:
        Per-slot probability that a new vehicle enters the road.
    initial_vehicles:
        Number of vehicles placed uniformly at random on the road at t=0.
    rng:
        Seed or generator for arrivals, placements, and speed updates.
    """

    def __init__(
        self,
        topology: RoadTopology,
        mobility: MobilityModel,
        *,
        arrival_rate: float = 0.5,
        initial_vehicles: int = 0,
        rng: RandomSource = None,
    ) -> None:
        self._topology = topology
        self._mobility = mobility
        self._arrival_rate = check_probability(arrival_rate, "arrival_rate")
        if initial_vehicles < 0:
            raise ValidationError(
                f"initial_vehicles must be >= 0, got {initial_vehicles}"
            )
        self._rng = ensure_rng(rng)
        self._id_counter = itertools.count()
        self._vehicles: Dict[int, Vehicle] = {}
        self._total_arrived = 0
        self._total_departed = 0
        for _ in range(int(initial_vehicles)):
            self._admit(
                position=float(self._rng.uniform(0.0, topology.road_length)),
                time_slot=0,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._vehicles)

    def __iter__(self) -> Iterator[Vehicle]:
        return iter(list(self._vehicles.values()))

    @property
    def vehicles(self) -> List[Vehicle]:
        """All vehicles currently on the road."""
        return list(self._vehicles.values())

    @property
    def total_arrived(self) -> int:
        """Total number of vehicles that ever entered the road."""
        return self._total_arrived

    @property
    def total_departed(self) -> int:
        """Total number of vehicles that have left the road."""
        return self._total_departed

    def vehicle(self, vehicle_id: int) -> Vehicle:
        """Return the vehicle with the given id."""
        try:
            return self._vehicles[vehicle_id]
        except KeyError:
            raise ValidationError(f"unknown vehicle id {vehicle_id}") from None

    def vehicles_in_rsu(self, rsu_id: int) -> List[Vehicle]:
        """Return the vehicles currently inside RSU *rsu_id*'s coverage."""
        rsu = self._topology.rsu(rsu_id)
        return [v for v in self._vehicles.values() if rsu.covers(v.position)]

    def rsu_of(self, vehicle_id: int) -> Optional[int]:
        """Return the id of the RSU covering the vehicle, or ``None``."""
        vehicle = self.vehicle(vehicle_id)
        rsu = self._topology.rsu_at(vehicle.position)
        return None if rsu is None else rsu.rsu_id

    def expected_dwell_slots(self, vehicle_id: int) -> float:
        """Slots until the vehicle leaves its current RSU coverage.

        Used by deadline-aware service policies: a request from a vehicle
        about to exit coverage must be served soon or not at all.
        """
        vehicle = self.vehicle(vehicle_id)
        rsu = self._topology.rsu_at(vehicle.position)
        if rsu is None:
            return 0.0
        remaining = rsu.coverage_end - vehicle.position
        return float(remaining / vehicle.speed)

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def step(self, time_slot: int) -> Tuple[List[Vehicle], List[Vehicle]]:
        """Advance every vehicle by one slot.

        Returns ``(arrived, departed)``: the vehicles that entered the road
        during this slot and those that left it.
        """
        departed: List[Vehicle] = []
        for vehicle in list(self._vehicles.values()):
            vehicle.speed = self._mobility.update_speed(vehicle, self._rng)
            vehicle.advance(1)
            if vehicle.position >= self._topology.road_length:
                departed.append(vehicle)
                del self._vehicles[vehicle.vehicle_id]
                self._total_departed += 1
        arrived: List[Vehicle] = []
        if self._rng.random() < self._arrival_rate:
            arrived.append(self._admit(position=0.0, time_slot=time_slot))
        return arrived, departed

    def _admit(self, *, position: float, time_slot: int) -> Vehicle:
        vehicle = Vehicle(
            vehicle_id=next(self._id_counter),
            position=position,
            speed=self._mobility.initial_speed(self._rng),
            entered_at=int(time_slot),
        )
        self._vehicles[vehicle.vehicle_id] = vehicle
        self._total_arrived += 1
        return vehicle

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"VehicleFleet(active={len(self)}, arrived={self._total_arrived})"
