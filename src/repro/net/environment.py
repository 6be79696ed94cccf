"""Time-varying road-environment dynamics.

The paper motivates its adaptive controllers with "rapidly changed road
environment and user mobility": the traffic condition of each region — and
therefore how valuable fresh information about it is — changes over time.
This module models that explicitly:

* :class:`RegionState` — a discrete traffic condition (free flow, dense,
  congested, incident) with an urgency weight.
* :class:`RegionStateProcess` — an independent Markov chain per region over
  those conditions, advanced once per slot.
* :class:`DynamicPopularityModel` — turns the current region states into
  time-varying content-population weights ``p_{k,h}(t)`` (congested regions
  are requested more and deserve fresher caches).
* :class:`DynamicContentRequirements` — optionally tightens a content's
  effective maximum AoI while its region is in an urgent state.

These components are deliberately independent of the simulator so they can
be composed into custom experiments (see ``examples/dynamic_environment.py``)
without changing the paper-faithful static scenarios used for Fig. 1a/1b.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, ValidationError
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_index, check_positive, check_probability_vector


class RegionState(enum.IntEnum):
    """Traffic condition of one road region."""

    FREE_FLOW = 0
    DENSE = 1
    CONGESTED = 2
    INCIDENT = 3


#: Relative request urgency of each traffic condition: congested and incident
#: regions generate far more information demand than free-flowing ones.
DEFAULT_URGENCY = {
    RegionState.FREE_FLOW: 1.0,
    RegionState.DENSE: 2.0,
    RegionState.CONGESTED: 4.0,
    RegionState.INCIDENT: 8.0,
}

#: Default per-slot transition matrix over (free flow, dense, congested,
#: incident).  Conditions are sticky but incidents eventually clear.
DEFAULT_TRANSITIONS = np.array(
    [
        [0.90, 0.08, 0.015, 0.005],
        [0.10, 0.80, 0.085, 0.015],
        [0.02, 0.15, 0.80, 0.03],
        [0.05, 0.10, 0.25, 0.60],
    ]
)


class RegionStateProcess:
    """Independent per-region Markov chains over traffic conditions.

    Parameters
    ----------
    num_regions:
        Number of road regions (one chain each).
    transition_matrix:
        Row-stochastic ``(4, 4)`` matrix over :class:`RegionState`; defaults
        to :data:`DEFAULT_TRANSITIONS`.
    initial_states:
        Optional initial condition per region; defaults to all free-flow.
    rng:
        Seed or generator driving the chains.
    """

    def __init__(
        self,
        num_regions: int,
        *,
        transition_matrix: Optional[np.ndarray] = None,
        initial_states: Optional[Sequence[RegionState]] = None,
        rng: RandomSource = None,
    ) -> None:
        if num_regions <= 0:
            raise ValidationError(f"num_regions must be > 0, got {num_regions}")
        matrix = (
            DEFAULT_TRANSITIONS.copy()
            if transition_matrix is None
            else np.asarray(transition_matrix, dtype=float)
        )
        if matrix.shape != (len(RegionState), len(RegionState)):
            raise ConfigurationError(
                f"transition_matrix must have shape "
                f"({len(RegionState)}, {len(RegionState)}), got {matrix.shape}"
            )
        for row_index in range(matrix.shape[0]):
            check_probability_vector(matrix[row_index], f"transition row {row_index}")
        self._matrix = matrix
        self._rng = ensure_rng(rng)
        if initial_states is None:
            states = [RegionState.FREE_FLOW] * num_regions
        else:
            states = [RegionState(state) for state in initial_states]
            if len(states) != num_regions:
                raise ConfigurationError(
                    f"initial_states has {len(states)} entries for "
                    f"{num_regions} regions"
                )
        self._states: List[RegionState] = list(states)
        self._history: List[List[RegionState]] = [list(states)]

    @property
    def num_regions(self) -> int:
        """Number of regions being tracked."""
        return len(self._states)

    @property
    def states(self) -> List[RegionState]:
        """Current condition of every region."""
        return list(self._states)

    @property
    def transition_matrix(self) -> np.ndarray:
        """Copy of the per-slot transition matrix."""
        return self._matrix.copy()

    def state_of(self, region: int) -> RegionState:
        """Return the current condition of *region*."""
        check_index(region, self.num_regions, label="region")
        return self._states[region]

    def step(self) -> List[RegionState]:
        """Advance every region's chain by one slot and return the new states."""
        new_states: List[RegionState] = []
        for state in self._states:
            row = self._matrix[int(state)]
            new_states.append(RegionState(int(self._rng.choice(len(row), p=row))))
        self._states = new_states
        self._history.append(list(new_states))
        return self.states

    def run(self, slots: int) -> np.ndarray:
        """Advance *slots* slots and return the full state history as an array."""
        if slots < 0:
            raise ValidationError(f"slots must be >= 0, got {slots}")
        for _ in range(int(slots)):
            self.step()
        return self.history()

    def history(self) -> np.ndarray:
        """State history, shape ``(num_recorded_slots, num_regions)``."""
        return np.asarray(
            [[int(state) for state in states] for states in self._history], dtype=int
        )

    def occupancy(self) -> Dict[RegionState, float]:
        """Fraction of (slot, region) samples spent in each condition."""
        history = self.history()
        total = history.size
        return {
            state: float(np.count_nonzero(history == int(state)) / total)
            for state in RegionState
        }

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"RegionStateProcess(num_regions={self.num_regions})"


class DynamicPopularityModel:
    """Content-population weights driven by the current region states.

    The weight of content ``h`` at RSU ``k`` is proportional to the urgency
    of the condition of the region content ``h`` describes, renormalised over
    the RSU's cached contents.  Feeding these weights into
    :class:`~repro.core.policies.CacheObservation.popularity` makes the MDP
    controller chase the regions that currently matter, which is the
    "adaptively controls ... depending on rapidly changing road environments"
    behaviour the paper's contribution statement describes.

    Parameters
    ----------
    process:
        The region-state process supplying current conditions.
    urgency:
        Mapping from :class:`RegionState` to a positive weight; defaults to
        :data:`DEFAULT_URGENCY`.
    """

    def __init__(
        self,
        process: RegionStateProcess,
        *,
        urgency: Optional[Dict[RegionState, float]] = None,
    ) -> None:
        self._process = process
        table = dict(DEFAULT_URGENCY if urgency is None else urgency)
        for state in RegionState:
            if state not in table:
                raise ConfigurationError(f"urgency table is missing {state!r}")
            check_positive(table[state], f"urgency[{state.name}]")
        self._urgency = table

    @property
    def process(self) -> RegionStateProcess:
        """The underlying region-state process."""
        return self._process

    def urgency_of(self, region: int) -> float:
        """Current urgency weight of *region*."""
        return self._urgency[self._process.state_of(region)]

    def popularity_for(self, content_regions: Sequence[int]) -> np.ndarray:
        """Return normalised popularity over the given contents' regions."""
        regions = list(content_regions)
        if not regions:
            raise ValidationError("content_regions must be non-empty")
        weights = np.asarray([self.urgency_of(region) for region in regions])
        return weights / weights.sum()

    def popularity_matrix(self, rsu_regions: Sequence[Sequence[int]]) -> np.ndarray:
        """Return the full ``(num_rsus, contents_per_rsu)`` popularity matrix."""
        rows = [self.popularity_for(regions) for regions in rsu_regions]
        lengths = {len(row) for row in rows}
        if len(lengths) != 1:
            raise ConfigurationError(
                "all RSUs must cache the same number of contents, got lengths "
                f"{sorted(lengths)}"
            )
        return np.stack(rows)


class DynamicContentRequirements:
    """Tightens a content's effective maximum AoI while its region is urgent.

    In an incident, stale information is worse than useless, so the effective
    ``A_max`` of the affected region's content shrinks by *tightening* per
    urgency level above free flow (floored at *min_max_age*).
    """

    def __init__(
        self,
        process: RegionStateProcess,
        base_max_ages: Sequence[float],
        *,
        tightening: float = 0.25,
        min_max_age: float = 2.0,
    ) -> None:
        base = np.asarray(base_max_ages, dtype=float)
        if base.ndim != 1 or base.size != process.num_regions:
            raise ConfigurationError(
                f"base_max_ages must have one entry per region "
                f"({process.num_regions}), got shape {base.shape}"
            )
        if np.any(base <= 0):
            raise ConfigurationError("base_max_ages must be > 0")
        if not 0.0 <= tightening < 1.0:
            raise ConfigurationError(
                f"tightening must be in [0, 1), got {tightening}"
            )
        self._process = process
        self._base = base
        self._tightening = float(tightening)
        self._min_max_age = check_positive(min_max_age, "min_max_age")

    def effective_max_age(self, region: int) -> float:
        """Current effective maximum AoI of *region*'s content."""
        level = int(self._process.state_of(region))
        factor = (1.0 - self._tightening) ** level
        return float(max(self._base[region] * factor, self._min_max_age))

    def effective_max_ages(self) -> np.ndarray:
        """Current effective maximum AoI of every region's content."""
        return np.asarray(
            [self.effective_max_age(region) for region in range(self._process.num_regions)]
        )
