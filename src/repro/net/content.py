"""Content catalog for the road environment.

Every region of the road produces one content stream (a description of that
region's traffic condition).  All contents share the same file size but have
heterogeneous maximum tolerable ages ``A_max_h`` — a region with a volatile
traffic condition needs fresher information than a quiet one.  The catalog
is the single source of truth for content identity, maximum ages, and
popularity, and is shared by the MBS, the RSU caches, and the MDP model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, ValidationError
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import (
    check_positive,
    check_positive_int,
    check_probability_vector,
)


@dataclass(frozen=True)
class ContentDescriptor:
    """Static description of one content (one road region's information).

    Attributes
    ----------
    content_id:
        Global content index, equal to the region index it describes.
    region:
        Index of the road region this content describes.
    max_age:
        Maximum tolerable age ``A_max_h`` in slots.
    size:
        File size in arbitrary units; the paper assumes all sizes are equal.
    label:
        Human-readable name used in traces and figures.
    """

    content_id: int
    region: int
    max_age: float
    size: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        # Inline checks: catalogs build one descriptor per content, so at
        # production grid sizes (thousands of contents per scenario seed)
        # the generic checker call chain is measurable scenario-setup cost.
        if self.content_id < 0:
            raise ValidationError(f"content_id must be >= 0, got {self.content_id}")
        if self.region < 0:
            raise ValidationError(f"region must be >= 0, got {self.region}")
        if type(self.max_age) is not float or not 0 < self.max_age < float("inf"):
            check_positive(self.max_age, "max_age")
        if type(self.size) is not float or not 0 < self.size < float("inf"):
            check_positive(self.size, "size")


class ContentCatalog:
    """The set of all contents in the system, indexed by content id.

    Parameters
    ----------
    descriptors:
        One :class:`ContentDescriptor` per content.  Content ids must be the
        contiguous range ``0 .. len(descriptors) - 1``.
    popularity:
        Optional global request popularity distribution over contents; used
        as the default content-population weight ``p_{k,h}`` when an RSU does
        not override it.  Defaults to uniform.
    """

    def __init__(
        self,
        descriptors: Sequence[ContentDescriptor],
        *,
        popularity: Optional[Sequence[float]] = None,
    ) -> None:
        descriptors = list(descriptors)
        if not descriptors:
            raise ConfigurationError("catalog must contain at least one content")
        expected_ids = list(range(len(descriptors)))
        actual_ids = [d.content_id for d in descriptors]
        if actual_ids != expected_ids:
            raise ConfigurationError(
                "content ids must be contiguous starting at 0, got "
                f"{actual_ids}"
            )
        self._descriptors: List[ContentDescriptor] = descriptors
        if popularity is None:
            popularity = np.full(len(descriptors), 1.0 / len(descriptors))
        self._popularity = check_probability_vector(popularity, "popularity")
        if self._popularity.size != len(descriptors):
            raise ConfigurationError(
                f"popularity has {self._popularity.size} entries for "
                f"{len(descriptors)} contents"
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def uniform(
        cls,
        num_contents: int,
        *,
        max_age: float = 10.0,
        size: float = 1.0,
    ) -> "ContentCatalog":
        """Create a catalog of *num_contents* identical contents."""
        num_contents = check_positive_int(num_contents, "num_contents")
        check_positive(max_age, "max_age")
        descriptors = [
            ContentDescriptor(
                content_id=h,
                region=h,
                max_age=float(max_age),
                size=float(size),
                label=f"content-{h}",
            )
            for h in range(num_contents)
        ]
        return cls(descriptors)

    @classmethod
    def heterogeneous(
        cls,
        max_ages: Sequence[float],
        *,
        size: float = 1.0,
        popularity: Optional[Sequence[float]] = None,
    ) -> "ContentCatalog":
        """Create a catalog with the given per-content maximum ages."""
        max_ages = list(max_ages)
        if not max_ages:
            raise ConfigurationError("max_ages must be non-empty")
        descriptors = [
            ContentDescriptor(
                content_id=h,
                region=h,
                max_age=float(age),
                size=float(size),
                label=f"content-{h}",
            )
            for h, age in enumerate(max_ages)
        ]
        return cls(descriptors, popularity=popularity)

    @classmethod
    def random(
        cls,
        num_contents: int,
        *,
        min_max_age: float = 5.0,
        max_max_age: float = 20.0,
        zipf_exponent: float = 0.0,
        rng: RandomSource = None,
    ) -> "ContentCatalog":
        """Create a catalog with random integer ``A_max`` values.

        Matches the paper's evaluation setup, where "the status for each
        region [is] determined as random" — each content draws its maximum
        age uniformly from ``[min_max_age, max_max_age]``.  A Zipf popularity
        profile can be requested for workload extensions.
        """
        num_contents = check_positive_int(num_contents, "num_contents")
        check_positive(min_max_age, "min_max_age")
        check_positive(max_max_age, "max_max_age")
        if max_max_age < min_max_age:
            raise ConfigurationError(
                f"max_max_age ({max_max_age}) must be >= min_max_age ({min_max_age})"
            )
        generator = ensure_rng(rng)
        ages = generator.integers(
            int(round(min_max_age)), int(round(max_max_age)) + 1, size=num_contents
        ).astype(float)
        popularity = zipf_popularity(num_contents, zipf_exponent)
        return cls.heterogeneous(ages, popularity=popularity)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._descriptors)

    def __iter__(self) -> Iterator[ContentDescriptor]:
        return iter(self._descriptors)

    def __getitem__(self, content_id: int) -> ContentDescriptor:
        if not 0 <= content_id < len(self._descriptors):
            raise ValidationError(
                f"content id {content_id} out of range [0, {len(self._descriptors)})"
            )
        return self._descriptors[content_id]

    @property
    def num_contents(self) -> int:
        """Number of contents in the catalog."""
        return len(self._descriptors)

    @property
    def max_ages(self) -> np.ndarray:
        """Per-content maximum tolerable ages ``A_max_h``."""
        return np.asarray([d.max_age for d in self._descriptors], dtype=float)

    @property
    def sizes(self) -> np.ndarray:
        """Per-content file sizes."""
        return np.asarray([d.size for d in self._descriptors], dtype=float)

    @property
    def popularity(self) -> np.ndarray:
        """Global request popularity distribution over contents."""
        return self._popularity.copy()

    def subset_popularity(self, content_ids: Sequence[int]) -> np.ndarray:
        """Return the popularity of *content_ids* renormalised to sum to one."""
        ids = list(content_ids)
        if not ids:
            raise ValidationError("content_ids must be non-empty")
        weights = np.asarray([self._popularity[self._check_id(h)] for h in ids])
        total = weights.sum()
        if total <= 0:
            return np.full(len(ids), 1.0 / len(ids))
        return weights / total

    def _check_id(self, content_id: int) -> int:
        if not 0 <= content_id < len(self._descriptors):
            raise ValidationError(
                f"content id {content_id} out of range [0, {len(self._descriptors)})"
            )
        return int(content_id)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"ContentCatalog(num_contents={self.num_contents})"


def zipf_popularity(num_contents: int, exponent: float) -> np.ndarray:
    """Return a Zipf(``exponent``) popularity distribution over *num_contents*.

    With ``exponent == 0`` the distribution is uniform, which is the paper's
    stated workload ("the content requested by the UV ... is randomly
    generated"); positive exponents skew requests towards low-index contents
    and are used by the workload-extension experiments.
    """
    num_contents = check_positive_int(num_contents, "num_contents")
    if exponent < 0:
        raise ValidationError(f"zipf exponent must be >= 0, got {exponent}")
    ranks = np.arange(1, num_contents + 1, dtype=float)
    weights = ranks ** (-float(exponent))
    return weights / weights.sum()
