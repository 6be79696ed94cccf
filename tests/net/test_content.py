"""Tests for repro.net.content (content catalog and popularity)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, ValidationError
from repro.net.content import ContentCatalog, ContentDescriptor, zipf_popularity


class TestContentDescriptor:
    def test_valid_descriptor(self):
        descriptor = ContentDescriptor(content_id=0, region=0, max_age=5.0)
        assert descriptor.size == 1.0

    def test_negative_id_rejected(self):
        with pytest.raises(ValidationError):
            ContentDescriptor(content_id=-1, region=0, max_age=5.0)

    def test_non_positive_max_age_rejected(self):
        with pytest.raises(ValidationError):
            ContentDescriptor(content_id=0, region=0, max_age=0.0)

    def test_non_positive_size_rejected(self):
        with pytest.raises(ValidationError):
            ContentDescriptor(content_id=0, region=0, max_age=5.0, size=0.0)


class TestContentCatalog:
    def test_uniform_factory(self):
        catalog = ContentCatalog.uniform(5, max_age=8.0)
        assert catalog.num_contents == 5
        np.testing.assert_allclose(catalog.max_ages, 8.0)
        np.testing.assert_allclose(catalog.popularity, 0.2)

    def test_heterogeneous_factory(self):
        catalog = ContentCatalog.heterogeneous([4.0, 6.0, 8.0])
        np.testing.assert_allclose(catalog.max_ages, [4.0, 6.0, 8.0])

    def test_random_factory_respects_range(self):
        catalog = ContentCatalog.random(20, min_max_age=5.0, max_max_age=9.0, rng=0)
        assert np.all(catalog.max_ages >= 5.0)
        assert np.all(catalog.max_ages <= 9.0)

    def test_random_factory_is_deterministic(self):
        a = ContentCatalog.random(10, rng=3).max_ages
        b = ContentCatalog.random(10, rng=3).max_ages
        np.testing.assert_array_equal(a, b)

    def test_random_factory_bad_range_rejected(self):
        with pytest.raises(ConfigurationError):
            ContentCatalog.random(5, min_max_age=10.0, max_max_age=5.0)

    def test_ids_must_be_contiguous(self):
        descriptors = [
            ContentDescriptor(content_id=0, region=0, max_age=5.0),
            ContentDescriptor(content_id=2, region=1, max_age=5.0),
        ]
        with pytest.raises(ConfigurationError):
            ContentCatalog(descriptors)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ContentCatalog([])

    def test_indexing(self):
        catalog = ContentCatalog.uniform(3)
        assert catalog[1].content_id == 1
        with pytest.raises(ValidationError):
            catalog[3]

    def test_iteration(self):
        catalog = ContentCatalog.uniform(4)
        assert [d.content_id for d in catalog] == [0, 1, 2, 3]

    def test_subset_popularity_renormalised(self):
        catalog = ContentCatalog.uniform(4)
        subset = catalog.subset_popularity([0, 1])
        assert subset.sum() == pytest.approx(1.0)
        assert subset.shape == (2,)

    def test_subset_popularity_empty_rejected(self):
        with pytest.raises(ValidationError):
            ContentCatalog.uniform(4).subset_popularity([])

    def test_custom_popularity_length_checked(self):
        descriptors = [
            ContentDescriptor(content_id=0, region=0, max_age=5.0),
            ContentDescriptor(content_id=1, region=1, max_age=5.0),
        ]
        with pytest.raises(ConfigurationError):
            ContentCatalog(descriptors, popularity=[0.5, 0.3, 0.2])

    def test_sizes_property(self):
        catalog = ContentCatalog.uniform(3, size=2.5)
        np.testing.assert_allclose(catalog.sizes, 2.5)

    @pytest.mark.parametrize("name", ["max_ages", "sizes", "popularity"])
    def test_arrays_are_cached_and_read_only(self, name):
        catalog = ContentCatalog.random(12, rng=4)
        array = getattr(catalog, name)
        assert getattr(catalog, name) is array
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0

    def test_descriptors_are_made_from_the_arrays(self):
        catalog = ContentCatalog.heterogeneous([4.0, 7.0, 9.0], size=2.0)
        descriptor = catalog[1]
        assert descriptor == ContentDescriptor(
            content_id=1, region=1, max_age=7.0, size=2.0, label="content-1"
        )
        assert [d.max_age for d in catalog] == catalog.max_ages.tolist()

    def test_non_positive_max_age_rejected_by_factories(self):
        with pytest.raises(ValidationError):
            ContentCatalog.heterogeneous([4.0, 0.0])

    def test_subset_popularity_matrix_renormalises_rows(self):
        catalog = ContentCatalog.random(6, zipf_exponent=1.0, rng=0)
        rows = catalog.subset_popularity([[0, 1, 2], [3, 4, 5]])
        np.testing.assert_array_equal(rows[0], catalog.subset_popularity([0, 1, 2]))
        np.testing.assert_array_equal(rows[1], catalog.subset_popularity([3, 4, 5]))
        with pytest.raises(ValidationError):
            catalog.subset_popularity([[0, 6]])


class TestZipfPopularity:
    def test_zero_exponent_is_uniform(self):
        np.testing.assert_allclose(zipf_popularity(4, 0.0), 0.25)

    def test_positive_exponent_skews(self):
        popularity = zipf_popularity(5, 1.0)
        assert popularity[0] > popularity[-1]
        assert popularity.sum() == pytest.approx(1.0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValidationError):
            zipf_popularity(5, -0.5)

    def test_bad_count_rejected(self):
        with pytest.raises(ValidationError):
            zipf_popularity(0, 1.0)

    @given(
        count=st.integers(min_value=1, max_value=50),
        exponent=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_is_distribution(self, count, exponent):
        popularity = zipf_popularity(count, exponent)
        assert popularity.shape == (count,)
        assert popularity.sum() == pytest.approx(1.0)
        assert np.all(popularity > 0)

    @given(count=st.integers(min_value=2, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_property_monotone_non_increasing(self, count):
        popularity = zipf_popularity(count, 1.2)
        assert np.all(np.diff(popularity) <= 1e-15)
