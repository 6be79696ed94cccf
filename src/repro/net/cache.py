"""Content stores: the MBS's own copies and the multi-hop per-node caches.

:class:`MBSContentStore` holds the macro base station's copy of every
content and regenerates them (the ages the MDP state formally includes).
:class:`LruContentCache` backs the multi-hop network core.  The RSU caches
of the cache, service and joint kinds are rows of the simulators'
``(RSUs, contents)`` age arrays (:class:`~repro.sim.system.SystemState`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.core.aoi import AoIVector
from repro.exceptions import CacheError, ValidationError
from repro.net.content import ContentCatalog
from repro.utils.validation import check_index, check_positive_int


class MBSContentStore:
    """The macro base station's own content store.

    The paper assumes "the MBS has all the new contents generated at each
    time slot", i.e. the MBS copy of each content has age 1 at the start of
    every slot.  Keeping an explicit store nonetheless lets experiments relax
    that assumption (generation every ``g`` slots) and exposes the MBS-side
    ages that the MDP state formally includes.

    Parameters
    ----------
    catalog:
        The content catalog.
    generation_period:
        Number of slots between fresh generations of each content; the
        paper's assumption corresponds to the default of 1.
    """

    def __init__(self, catalog: ContentCatalog, *, generation_period: int = 1) -> None:
        if generation_period < 1:
            raise ValidationError(
                f"generation_period must be >= 1, got {generation_period}"
            )
        self._catalog = catalog
        self._period = int(generation_period)
        self._aoi = AoIVector(catalog.max_ages)

    @property
    def generation_period(self) -> int:
        """Slots between fresh content generations at the MBS."""
        return self._period

    @property
    def ages(self) -> np.ndarray:
        """Current ages of the MBS copies of all contents."""
        return self._aoi.ages

    def age_of(self, content_id: int) -> float:
        """Age of the MBS copy of *content_id*."""
        check_index(content_id, self._catalog.num_contents, label="content id")
        return float(self._aoi[content_id])

    def tick(self, time_slot: int) -> None:
        """Advance one slot: age all copies, regenerating those that are due."""
        self._aoi.tick(1)
        if time_slot % self._period == 0:
            self._aoi.refresh_all(1.0)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"MBSContentStore(num_contents={self._catalog.num_contents})"


class LruContentCache:
    """A bounded per-node cache with LRU eviction and per-copy ages.

    Unlike an RSU cache of the MDP kinds (a fixed content set whose ages the
    MDP refreshes in place), this cache backs the multi-hop network core:
    on-path strategies insert arbitrary contents as they travel the
    delivery path, and the least-recently-used copy is evicted once the
    node is full.  Each copy carries the age it had at insertion time and
    ages by one per slot, so freshness queries compose with the AoI
    machinery of the rest of the library.
    """

    def __init__(self, capacity: int) -> None:
        self._capacity = check_positive_int(capacity, "capacity")
        # content id -> age; insertion order == LRU order (oldest first).
        self._entries: "OrderedDict[int, float]" = OrderedDict()

    @property
    def capacity(self) -> int:
        """Maximum number of copies this node can hold."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, content_id: int) -> bool:
        return int(content_id) in self._entries

    def has(self, content_id: int) -> bool:
        """Whether a copy of *content_id* is held (no LRU promotion)."""
        return int(content_id) in self._entries

    def age_of(self, content_id: int) -> float:
        """Age of the held copy of *content_id*."""
        content_id = int(content_id)
        if content_id not in self._entries:
            raise CacheError(f"content {content_id} is not cached at this node")
        return self._entries[content_id]

    def get(self, content_id: int) -> bool:
        """Look up *content_id*, promoting it to most-recently-used on a hit."""
        content_id = int(content_id)
        if content_id not in self._entries:
            return False
        self._entries.move_to_end(content_id)
        return True

    def lookup(self, content_id: int) -> Optional[float]:
        """:meth:`get` and :meth:`age_of` in one probe: the held copy's age
        (promoted to most-recently-used), or ``None`` if absent."""
        age = self._entries.get(content_id)
        if age is not None:
            self._entries.move_to_end(content_id)
        return age

    def put(self, content_id: int, *, age: float = 1.0) -> Optional[int]:
        """Insert (or refresh) a copy of *content_id* with the given *age*.

        Returns the content id evicted to make room, or ``None``.
        """
        content_id = int(content_id)
        if content_id in self._entries:
            self._entries[content_id] = float(age)
            self._entries.move_to_end(content_id)
            return None
        evicted: Optional[int] = None
        if len(self._entries) >= self._capacity:
            evicted, _ = self._entries.popitem(last=False)
        self._entries[content_id] = float(age)
        return evicted

    def tick(self, slots: int = 1) -> None:
        """Age every held copy by *slots* time slots."""
        if slots < 0:
            raise ValidationError(f"slots must be >= 0, got {slots}")
        if slots:
            for content_id in self._entries:
                self._entries[content_id] += float(slots)

    def clear(self) -> None:
        """Drop every held copy."""
        self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"LruContentCache(capacity={self._capacity}, "
            f"held={len(self._entries)})"
        )
