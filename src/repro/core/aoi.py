"""Age-of-Information (AoI) primitives.

The Age of Information of a piece of content is the time elapsed since the
most recently *received* version of that content was *generated* at its
source (Kaul et al., SECON 2011).  In the paper's system model every region
of the road produces one content stream; the macro base station (MBS) always
holds the freshest version, while road-side units (RSUs) hold possibly stale
copies whose age grows by one every time slot until the MBS pushes an update.

This module provides:

* :class:`AoICounter` — the age of a single cached copy, with saturation at a
  configurable ceiling so state spaces stay finite.
* :class:`AoIVector` — a vectorised collection of counters (one per content)
  used by the RSU caches and by the MDP state encoding.
* :class:`AoIProcess` — a recorded AoI sample path, used by the metric
  collectors and the figure reproduction code.
* :func:`aoi_utility` — the per-content AoI utility term
  ``A_max / A`` used by the paper's reward (Eq. 2).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_positive


def aoi_utility(age: float, max_age: float) -> float:
    """Return the AoI utility ``A_max / A`` of a single cached content.

    The paper's Eq. (2) rewards fresh content proportionally to the ratio of
    the content's maximum tolerable age ``A_max`` to its current age ``A``:
    a just-refreshed content (age 1) earns ``A_max`` while a content at its
    age limit earns exactly 1.  Ages are clamped below at one slot because an
    update delivered in slot *t* is observed at age 1 in slot *t*.

    Parameters
    ----------
    age:
        Current age of the cached copy, in slots.  Values below 1 are treated
        as 1.
    max_age:
        The content's maximum tolerable age ``A_max`` (strictly positive).
    """
    max_age = check_positive(max_age, "max_age")
    if not np.isfinite(age):
        raise ValidationError(f"age must be finite, got {age}")
    effective_age = max(float(age), 1.0)
    return max_age / effective_age


class AoICounter:
    """Age of a single cached content copy.

    The counter starts at *initial_age*, increases by one per :meth:`tick`,
    and resets to *reset_age* (default 1) on :meth:`refresh`.  Ages saturate
    at *ceiling* so that an MDP built on top of the counter has a finite
    state space; the saturation value is also the natural encoding of
    "too stale to be useful".

    Parameters
    ----------
    max_age:
        The content's maximum tolerable age ``A_max``.
    initial_age:
        Age at construction time (defaults to 1, i.e. freshly delivered).
    ceiling:
        Saturation value.  Defaults to ``2 * max_age`` which leaves room to
        observe violations without letting the age grow without bound.
    reset_age:
        Value the counter takes immediately after a refresh.  The paper's
        model delivers updates within the slot they are decided, so the
        default is 1.
    """

    __slots__ = ("_age", "_max_age", "_ceiling", "_reset_age")

    def __init__(
        self,
        max_age: float,
        *,
        initial_age: float = 1.0,
        ceiling: Optional[float] = None,
        reset_age: float = 1.0,
    ) -> None:
        self._max_age = check_positive(max_age, "max_age")
        if ceiling is None:
            ceiling = 2.0 * self._max_age
        self._ceiling = check_positive(ceiling, "ceiling")
        if self._ceiling < self._max_age:
            raise ValidationError(
                f"ceiling ({self._ceiling}) must be >= max_age ({self._max_age})"
            )
        self._reset_age = check_positive(reset_age, "reset_age")
        if initial_age < self._reset_age:
            raise ValidationError(
                f"initial_age ({initial_age}) must be >= reset_age ({self._reset_age})"
            )
        self._age = min(float(initial_age), self._ceiling)

    @property
    def age(self) -> float:
        """Current age in slots."""
        return self._age

    @property
    def max_age(self) -> float:
        """The content's maximum tolerable age ``A_max``."""
        return self._max_age

    @property
    def ceiling(self) -> float:
        """Saturation value of the counter."""
        return self._ceiling

    def tick(self, slots: int = 1) -> float:
        """Advance time by *slots* and return the new (saturated) age."""
        if slots < 0:
            raise ValidationError(f"slots must be non-negative, got {slots}")
        self._age = min(self._age + float(slots), self._ceiling)
        return self._age

    def refresh(self, age_at_delivery: Optional[float] = None) -> float:
        """Reset the counter after an update and return the new age.

        Parameters
        ----------
        age_at_delivery:
            Age of the delivered version at the moment it is cached.  When
            the MBS pushes the content it just generated, this is the default
            *reset_age*; when the delivered version is itself already old
            (for example relayed through another cache) the caller can pass
            the inherited age.
        """
        if age_at_delivery is None:
            age_at_delivery = self._reset_age
        if age_at_delivery < self._reset_age:
            raise ValidationError(
                f"age_at_delivery ({age_at_delivery}) must be >= reset_age "
                f"({self._reset_age})"
            )
        self._age = min(float(age_at_delivery), self._ceiling)
        return self._age

    def copy(self) -> "AoICounter":
        """Return an independent copy of this counter."""
        clone = AoICounter(
            self._max_age,
            initial_age=max(self._age, self._reset_age),
            ceiling=self._ceiling,
            reset_age=self._reset_age,
        )
        clone._age = self._age
        return clone

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"AoICounter(age={self._age:g}, max_age={self._max_age:g}, "
            f"ceiling={self._ceiling:g})"
        )


class AoIVector:
    """Vector of AoI counters, one per content.

    This is the representation used by an RSU cache (ages of all of its
    cached contents) and by the MBS view of the system (ages of every
    content at every RSU).  All operations are vectorised with numpy.

    Parameters
    ----------
    max_ages:
        Per-content maximum tolerable ages ``A_max_h``.
    initial_ages:
        Per-content starting ages; defaults to all ones.
    ceiling:
        Common saturation value; defaults to twice the largest ``A_max``.
    """

    def __init__(
        self,
        max_ages: Sequence[float],
        *,
        initial_ages: Optional[Sequence[float]] = None,
        ceiling: Optional[float] = None,
    ) -> None:
        max_arr = np.asarray(max_ages, dtype=float)
        if max_arr.ndim != 1 or max_arr.size == 0:
            raise ValidationError("max_ages must be a non-empty 1-D sequence")
        if np.any(max_arr <= 0) or not np.all(np.isfinite(max_arr)):
            raise ValidationError("max_ages must be finite and > 0")
        self._max_ages = max_arr.copy()
        if ceiling is None:
            ceiling = 2.0 * float(max_arr.max())
        self._ceiling = check_positive(ceiling, "ceiling")
        if self._ceiling < float(max_arr.max()):
            raise ValidationError("ceiling must be >= max(max_ages)")
        self._ages = np.minimum(np.ones_like(max_arr), self._ceiling)
        if initial_ages is not None:
            self.set_ages(initial_ages)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._ages.size)

    def __iter__(self) -> Iterator[float]:
        return iter(self._ages.tolist())

    def __getitem__(self, index: int) -> float:
        return float(self._ages[index])

    @property
    def ages(self) -> np.ndarray:
        """Copy of the per-content ages."""
        return self._ages.copy()

    @property
    def max_ages(self) -> np.ndarray:
        """Copy of the per-content maximum tolerable ages."""
        return self._max_ages.copy()

    @property
    def ceiling(self) -> float:
        """Common saturation value."""
        return self._ceiling

    @property
    def utilities(self) -> np.ndarray:
        """Per-content AoI utilities ``A_max_h / A_h`` (Eq. 2 terms)."""
        return self._max_ages / np.maximum(self._ages, 1.0)

    @property
    def violations(self) -> np.ndarray:
        """Boolean mask of contents whose age exceeds their ``A_max``."""
        return self._ages > self._max_ages

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def tick(self, slots: int = 1) -> np.ndarray:
        """Advance all ages by *slots*, saturating at the ceiling."""
        if slots < 0:
            raise ValidationError(f"slots must be non-negative, got {slots}")
        self._ages = np.minimum(self._ages + float(slots), self._ceiling)
        return self.ages

    def refresh(self, index: int, age_at_delivery: float = 1.0) -> None:
        """Reset the age of content *index* after an update."""
        if not 0 <= index < self._ages.size:
            raise ValidationError(
                f"content index {index} out of range [0, {self._ages.size})"
            )
        if age_at_delivery < 1.0 or not np.isfinite(age_at_delivery):
            raise ValidationError(
                f"age_at_delivery must be finite and >= 1, got {age_at_delivery}"
            )
        self._ages[index] = min(float(age_at_delivery), self._ceiling)

    def refresh_all(self, age_at_delivery: float = 1.0) -> None:
        """Reset every age in one vectorised assignment."""
        if age_at_delivery < 1.0 or not np.isfinite(age_at_delivery):
            raise ValidationError(
                f"age_at_delivery must be finite and >= 1, got {age_at_delivery}"
            )
        self._ages.fill(min(float(age_at_delivery), self._ceiling))

    def set_ages(self, ages: Sequence[float]) -> None:
        """Overwrite all ages, saturating at the ceiling."""
        arr = np.asarray(ages, dtype=float)
        if arr.shape != self._ages.shape:
            raise ValidationError(
                f"ages shape {arr.shape} does not match vector shape {self._ages.shape}"
            )
        if np.any(arr < 1.0) or not np.all(np.isfinite(arr)):
            raise ValidationError("ages must be finite and >= 1")
        self._ages = np.minimum(arr.copy(), self._ceiling)

    def copy(self) -> "AoIVector":
        """Return an independent copy of this vector."""
        return AoIVector(
            self._max_ages,
            initial_ages=self._ages,
            ceiling=self._ceiling,
        )

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"AoIVector(ages={self._ages.tolist()})"


class AoIProcess:
    """A recorded AoI sample path for one content at one cache.

    The process records ``(t, age)`` samples appended by the simulator's
    metric collector.
    """

    def __init__(self, max_age: float, *, label: str = "") -> None:
        self._max_age = check_positive(max_age, "max_age")
        self._label = str(label)
        self._times: List[int] = []
        self._ages: List[float] = []

    @property
    def label(self) -> str:
        """Human-readable label of the tracked content (for figures)."""
        return self._label

    @property
    def max_age(self) -> float:
        """Maximum tolerable age of the tracked content."""
        return self._max_age

    @property
    def ages(self) -> np.ndarray:
        """Recorded ages, in time order."""
        return np.asarray(self._ages, dtype=float)

    def __len__(self) -> int:
        return len(self._times)

    def record(self, time_slot: int, age: float) -> None:
        """Append one ``(t, age)`` sample.

        Samples must be appended in non-decreasing time order.
        """
        if self._times and time_slot < self._times[-1]:
            raise ValidationError(
                f"samples must be time-ordered; got t={time_slot} after t={self._times[-1]}"
            )
        if age < 0 or not np.isfinite(age):
            raise ValidationError(f"age must be finite and >= 0, got {age}")
        self._times.append(int(time_slot))
        self._ages.append(float(age))

    def extend(self, samples: Iterable[Tuple[int, float]]) -> None:
        """Append several ``(t, age)`` samples."""
        for time_slot, age in samples:
            self.record(time_slot, age)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"AoIProcess(label={self._label!r}, samples={len(self)}, "
            f"max_age={self._max_age:g})"
        )
