"""Tests for the content stores: the MBS store and multi-hop LRU caches of
repro.net.cache, and the test oracle's per-RSU cache objects
(oracle.objects.RSUCache)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle.objects import RSUCache
from repro.exceptions import CacheError, ValidationError
from repro.net.cache import MBSContentStore
from repro.net.content import ContentCatalog


@pytest.fixture
def catalog():
    return ContentCatalog.heterogeneous([4.0, 6.0, 8.0, 10.0])


@pytest.fixture
def cache(catalog):
    return RSUCache(0, [0, 1], catalog)


class TestRSUCache:
    def test_initial_state_is_fresh(self, cache):
        np.testing.assert_allclose(cache.ages, 1.0)
        assert cache.capacity == 2
        assert not cache.violations.any()

    def test_tick_ages_all_contents(self, cache):
        cache.tick(3)
        np.testing.assert_allclose(cache.ages, 4.0)

    def test_apply_update_resets_single_content(self, cache):
        cache.tick(5)
        cache.apply_update(1)
        assert cache.age_of(0) == 6.0
        assert cache.age_of(1) == 1.0

    def test_update_unknown_content_rejected(self, cache):
        with pytest.raises(CacheError):
            cache.apply_update(3)

    def test_holds(self, cache):
        assert cache.holds(0)
        assert not cache.holds(2)

    def test_violations_mask(self, catalog):
        cache = RSUCache(0, [0, 3], catalog)
        cache.tick(5)  # ages 6; A_max 4 and 10
        np.testing.assert_array_equal(cache.violations, [True, False])

    def test_initial_ages_below_one_rejected(self, catalog):
        with pytest.raises(ValidationError):
            RSUCache(0, [0, 1], catalog, initial_ages=[0.0, 2.0])

    def test_duplicate_content_ids_rejected(self, catalog):
        with pytest.raises(CacheError):
            RSUCache(0, [0, 0], catalog)

    def test_empty_cache_rejected(self, catalog):
        with pytest.raises(CacheError):
            RSUCache(0, [], catalog)

    def test_slot_of(self, cache):
        assert cache.slot_of(1) == 1
        with pytest.raises(CacheError):
            cache.slot_of(9)

    def test_ages_saturate_at_ceiling(self, cache):
        cache.tick(1000)
        assert np.all(cache.ages <= cache.age_ceiling)

    @given(updates=st.lists(st.integers(0, 1), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_property_age_bounded_by_slots_since_update(self, updates):
        catalog = ContentCatalog.heterogeneous([4.0, 6.0, 8.0, 10.0])
        cache = RSUCache(0, [0, 1], catalog)
        slots_since = 0
        for do_update in updates:
            if do_update:
                cache.apply_update(0)
                slots_since = 0
            cache.tick(1)
            slots_since += 1
            assert cache.age_of(0) <= min(1 + slots_since, cache.age_ceiling)


class TestMBSContentStore:
    def test_default_regenerates_every_slot(self, catalog):
        store = MBSContentStore(catalog)
        for t in range(1, 6):
            store.tick(t)
            np.testing.assert_allclose(store.ages, 1.0)

    def test_longer_generation_period(self, catalog):
        store = MBSContentStore(catalog, generation_period=3)
        store.tick(1)
        store.tick(2)
        assert store.age_of(0) == 3.0
        store.tick(3)
        assert store.age_of(0) == 1.0

    def test_invalid_period_rejected(self, catalog):
        with pytest.raises(ValidationError):
            MBSContentStore(catalog, generation_period=0)

    def test_unknown_content_rejected(self, catalog):
        store = MBSContentStore(catalog)
        with pytest.raises(ValidationError):
            store.age_of(17)


class TestLruContentCache:
    def make(self, capacity=3):
        from repro.net.cache import LruContentCache

        return LruContentCache(capacity)

    def test_put_get_and_age(self):
        cache = self.make()
        assert cache.put(1, age=2.0) is None
        assert cache.has(1)
        assert cache.age_of(1) == 2.0
        assert cache.get(1)
        assert not cache.get(9)

    def test_eviction_is_lru(self):
        cache = self.make(capacity=2)
        cache.put(1)
        cache.put(2)
        assert cache.get(1)  # promotes 1; 2 becomes LRU
        evicted = cache.put(3)
        assert evicted == 2
        assert cache.has(1) and cache.has(3) and not cache.has(2)

    def test_put_refreshes_existing_without_eviction(self):
        cache = self.make(capacity=2)
        cache.put(1, age=5.0)
        cache.put(2)
        assert cache.put(1, age=1.0) is None
        assert cache.age_of(1) == 1.0
        assert len(cache) == 2

    def test_tick_ages_all_contents(self):
        cache = self.make()
        cache.put(1, age=1.0)
        cache.put(2, age=3.0)
        cache.tick(2)
        assert cache.age_of(1) == 3.0
        assert cache.age_of(2) == 5.0

    def test_missing_age_raises(self):
        from repro.exceptions import CacheError

        cache = self.make()
        with pytest.raises(CacheError):
            cache.age_of(4)

    def test_capacity_validated(self):
        from repro.exceptions import ValidationError
        from repro.net.cache import LruContentCache

        with pytest.raises(ValidationError):
            LruContentCache(0)

    def test_clear(self):
        cache = self.make()
        cache.put(1)
        cache.clear()
        assert len(cache) == 0 and not cache.has(1)
