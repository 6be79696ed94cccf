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
        if self.content_id < 0:
            raise ValidationError(f"content_id must be >= 0, got {self.content_id}")
        if self.region < 0:
            raise ValidationError(f"region must be >= 0, got {self.region}")
        check_positive(self.max_age, "max_age")
        check_positive(self.size, "size")


class ContentCatalog:
    """The set of all contents in the system, indexed by content id.

    The catalog is a struct of arrays — per-content maximum ages, sizes and
    popularity, built once and returned read-only by :attr:`max_ages`,
    :attr:`sizes` and :attr:`popularity`.  The factories keep no
    :class:`ContentDescriptor` records; indexing or iterating makes them
    on demand.

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
        self._set_arrays(
            [d.max_age for d in descriptors],
            [d.size for d in descriptors],
            popularity,
        )
        self._descriptors: Optional[List[ContentDescriptor]] = descriptors

    def _set_arrays(
        self,
        max_ages: Sequence[float],
        sizes: Sequence[float],
        popularity: Optional[Sequence[float]],
    ) -> None:
        self._max_ages = _positive_array(max_ages, "max_age")
        self._sizes = _positive_array(sizes, "size")
        count = self._max_ages.size
        if popularity is None:
            popularity = np.full(count, 1.0 / count)
        self._popularity = check_probability_vector(popularity, "popularity")
        if self._popularity.size != count:
            raise ConfigurationError(
                f"popularity has {self._popularity.size} entries for "
                f"{count} contents"
            )
        self._popularity.flags.writeable = False

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
        return cls.heterogeneous(np.full(num_contents, float(max_age)), size=size)

    @classmethod
    def heterogeneous(
        cls,
        max_ages: Sequence[float],
        *,
        size: float = 1.0,
        popularity: Optional[Sequence[float]] = None,
    ) -> "ContentCatalog":
        """Create a catalog with the given per-content maximum ages.

        Content ``h`` describes region ``h`` and is labelled ``content-h``.
        """
        max_ages = np.asarray(max_ages, dtype=float)
        if not max_ages.size:
            raise ConfigurationError("max_ages must be non-empty")
        catalog = cls.__new__(cls)
        catalog._set_arrays(max_ages, np.full(max_ages.size, float(size)), popularity)
        catalog._descriptors = None
        return catalog

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
        return self._max_ages.size

    def __iter__(self) -> Iterator[ContentDescriptor]:
        return (self[h] for h in range(len(self)))

    def __getitem__(self, content_id: int) -> ContentDescriptor:
        h = self._check_id(content_id)
        if self._descriptors is not None:
            return self._descriptors[h]
        return ContentDescriptor(
            content_id=h,
            region=h,
            max_age=float(self._max_ages[h]),
            size=float(self._sizes[h]),
            label=f"content-{h}",
        )

    @property
    def num_contents(self) -> int:
        """Number of contents in the catalog."""
        return self._max_ages.size

    @property
    def max_ages(self) -> np.ndarray:
        """Per-content maximum tolerable ages ``A_max_h`` (read-only)."""
        return self._max_ages

    @property
    def sizes(self) -> np.ndarray:
        """Per-content file sizes (read-only)."""
        return self._sizes

    @property
    def popularity(self) -> np.ndarray:
        """Global request popularity distribution over contents (read-only)."""
        return self._popularity

    def subset_popularity(self, content_ids: Sequence[int]) -> np.ndarray:
        """Return the popularity of *content_ids* renormalised to sum to one.

        A matrix of ids is renormalised row by row, in one array pass.
        """
        ids = np.asarray(content_ids, dtype=int)
        if not ids.size:
            raise ValidationError("content_ids must be non-empty")
        bad = (ids < 0) | (ids >= self._max_ages.size)
        if bad.any():
            self._check_id(int(ids[bad].flat[0]))
        weights = self._popularity[ids]
        totals = weights.sum(axis=-1, keepdims=True)
        uniform = np.full(weights.shape, 1.0 / ids.shape[-1])
        return np.divide(weights, totals, out=uniform, where=totals > 0)

    def _check_id(self, content_id: int) -> int:
        if not 0 <= content_id < self._max_ages.size:
            raise ValidationError(
                f"content id {content_id} out of range [0, {self._max_ages.size})"
            )
        return int(content_id)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"ContentCatalog(num_contents={self.num_contents})"


def _positive_array(values: Sequence[float], name: str) -> np.ndarray:
    """*values* as a read-only float array; raises like :func:`check_positive`."""
    array = np.array(values, dtype=float)
    for value in array[~((array > 0) & (array < np.inf))][:1]:
        check_positive(float(value), name)
    array.flags.writeable = False
    return array


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
