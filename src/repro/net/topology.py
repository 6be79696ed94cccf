"""Road topology: regions, road-side units (RSUs), and the macro base station.

The paper's reference network model is a straight road divided into ``L``
regions; ``N_R`` RSUs are placed at regular intervals, each covering ``L'``
contiguous regions, and a single MBS at the centre of the road observes all
RSU cache states and pushes content updates.  This module builds that
geometry and computes the MBS-to-RSU distances that the channel cost model
depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ValidationError
from repro.utils.validation import check_index, check_positive, check_positive_int


@dataclass(frozen=True)
class Region:
    """One region of the road.

    Attributes
    ----------
    region_id:
        Index of the region along the road, starting at 0.
    start, end:
        The interval ``[start, end)`` of road positions the region spans, in
        metres.
    """

    region_id: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.region_id < 0:
            raise ValidationError(f"region_id must be >= 0, got {self.region_id}")
        if not self.end > self.start:
            raise ValidationError(
                f"region end ({self.end}) must be > start ({self.start})"
            )


@dataclass(frozen=True)
class RSU:
    """A road-side unit: a cache-equipped service point covering some regions.

    Attributes
    ----------
    rsu_id:
        Index of the RSU, starting at 0 from the start of the road.
    position:
        Position of the RSU along the road, in metres.
    covered_regions:
        Indices of the regions this RSU covers (and therefore caches).
    coverage_start, coverage_end:
        Road interval ``[coverage_start, coverage_end)`` served by this RSU.
    """

    rsu_id: int
    position: float
    covered_regions: Tuple[int, ...]
    coverage_start: float
    coverage_end: float

    def __post_init__(self) -> None:
        if self.rsu_id < 0:
            raise ValidationError(f"rsu_id must be >= 0, got {self.rsu_id}")
        if not self.covered_regions:
            raise ValidationError(f"RSU {self.rsu_id} must cover at least one region")
        if not self.coverage_end > self.coverage_start:
            raise ValidationError(
                f"coverage_end ({self.coverage_end}) must be > coverage_start "
                f"({self.coverage_start})"
            )


@dataclass(frozen=True)
class MacroBaseStation:
    """The macro base station at the centre of the road.

    The MBS holds the freshest version of every content, observes every RSU
    cache, and decides which cached copies to refresh each slot.
    """

    position: float
    num_contents: int

    def __post_init__(self) -> None:
        if self.num_contents <= 0:
            raise ValidationError(
                f"num_contents must be > 0, got {self.num_contents}"
            )


class RoadTopology:
    """Straight-road topology with evenly spaced RSUs and a central MBS.

    Parameters
    ----------
    num_regions:
        Number of regions ``L`` the road is divided into.
    num_rsus:
        Number of RSUs ``N_R`` distributed along the road.  ``num_regions``
        must be divisible by ``num_rsus`` so that every RSU covers the same
        number ``L' = L / N_R`` of contiguous regions, matching the paper's
        "RSUs which cover L' regions are distributed at specific distance
        intervals".
    region_length:
        Length of each region in metres.
    """

    def __init__(
        self,
        num_regions: int,
        num_rsus: int,
        *,
        region_length: float = 100.0,
    ) -> None:
        num_regions = check_positive_int(num_regions, "num_regions")
        num_rsus = check_positive_int(num_rsus, "num_rsus")
        region_length = check_positive(region_length, "region_length")
        if num_regions % num_rsus != 0:
            raise ConfigurationError(
                f"num_regions ({num_regions}) must be divisible by num_rsus "
                f"({num_rsus}) so every RSU covers the same number of regions"
            )
        self._region_length = float(region_length)
        self._regions: List[Region] = [
            Region(
                region_id=i,
                start=i * region_length,
                end=(i + 1) * region_length,
            )
            for i in range(num_regions)
        ]
        regions_per_rsu = num_regions // num_rsus
        self._rsus: List[RSU] = []
        for k in range(num_rsus):
            covered = tuple(range(k * regions_per_rsu, (k + 1) * regions_per_rsu))
            start = self._regions[covered[0]].start
            end = self._regions[covered[-1]].end
            self._rsus.append(
                RSU(
                    rsu_id=k,
                    position=0.5 * (start + end),
                    covered_regions=covered,
                    coverage_start=start,
                    coverage_end=end,
                )
            )
        self._positions = np.asarray([rsu.position for rsu in self._rsus])
        self._rsu_contents = np.asarray(
            [rsu.covered_regions for rsu in self._rsus], dtype=int
        )
        self._rsu_contents.flags.writeable = False
        self._mbs = MacroBaseStation(
            position=0.5 * num_regions * region_length,
            num_contents=num_regions,
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_regions(self) -> int:
        """Number of road regions ``L``."""
        return len(self._regions)

    @property
    def num_rsus(self) -> int:
        """Number of RSUs ``N_R``."""
        return len(self._rsus)

    @property
    def regions_per_rsu(self) -> int:
        """Number of regions ``L'`` covered by each RSU."""
        return self.num_regions // self.num_rsus

    @property
    def road_length(self) -> float:
        """Total road length in metres."""
        return self.num_regions * self._region_length

    @property
    def region_length(self) -> float:
        """Length of each region in metres."""
        return self._region_length

    @property
    def rsus(self) -> List[RSU]:
        """All RSUs, ordered along the road."""
        return list(self._rsus)

    @property
    def mbs(self) -> MacroBaseStation:
        """The macro base station."""
        return self._mbs

    def rsu(self, rsu_id: int) -> RSU:
        """Return the RSU with index *rsu_id*."""
        check_index(rsu_id, self.num_rsus, label="rsu id")
        return self._rsus[rsu_id]

    def mbs_distance(self, rsu_id: int) -> float:
        """Return the distance in metres between the MBS and RSU *rsu_id*."""
        return abs(self.rsu(rsu_id).position - self._mbs.position)

    def mbs_distances(self) -> np.ndarray:
        """Return the MBS-to-RSU distances for all RSUs."""
        return np.abs(self._positions - self._mbs.position)

    @property
    def rsu_contents(self) -> np.ndarray:
        """``(num_rsus, regions_per_rsu)`` content ids each RSU caches (read-only).

        Row ``k`` is RSU ``k``'s :attr:`RSU.covered_regions`.
        """
        return self._rsu_contents

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"RoadTopology(num_regions={self.num_regions}, num_rsus={self.num_rsus}, "
            f"road_length={self.road_length:g}m)"
        )
