"""Tests for repro.core.aoi (AoI counters, vectors, processes)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aoi import (
    AoICounter,
    AoIProcess,
    AoIVector,
    aoi_utility,
)
from repro.exceptions import ValidationError


class TestAoiUtility:
    def test_fresh_content_earns_max(self):
        assert aoi_utility(1.0, 10.0) == pytest.approx(10.0)

    def test_content_at_limit_earns_one(self):
        assert aoi_utility(10.0, 10.0) == pytest.approx(1.0)

    def test_ages_below_one_are_clamped(self):
        assert aoi_utility(0.0, 8.0) == pytest.approx(8.0)

    def test_utility_decreases_with_age(self):
        utilities = [aoi_utility(a, 10.0) for a in (1, 2, 5, 10, 20)]
        assert utilities == sorted(utilities, reverse=True)

    def test_invalid_max_age_rejected(self):
        with pytest.raises(ValidationError):
            aoi_utility(2.0, 0.0)

    def test_nan_age_rejected(self):
        with pytest.raises(ValidationError):
            aoi_utility(float("nan"), 5.0)


class TestAoICounter:
    def test_initial_age_defaults_to_one(self):
        assert AoICounter(10.0).age == 1.0

    def test_tick_increments(self):
        counter = AoICounter(10.0)
        counter.tick()
        counter.tick(2)
        assert counter.age == 4.0

    def test_tick_saturates_at_ceiling(self):
        counter = AoICounter(5.0, ceiling=8.0)
        counter.tick(100)
        assert counter.age == 8.0

    def test_refresh_resets_to_one(self):
        counter = AoICounter(10.0)
        counter.tick(6)
        counter.refresh()
        assert counter.age == 1.0

    def test_refresh_with_delivered_age(self):
        counter = AoICounter(10.0)
        counter.tick(6)
        counter.refresh(3.0)
        assert counter.age == 3.0

    def test_refresh_below_reset_age_rejected(self):
        counter = AoICounter(10.0)
        with pytest.raises(ValidationError):
            counter.refresh(0.5)

    def test_negative_tick_rejected(self):
        with pytest.raises(ValidationError):
            AoICounter(5.0).tick(-1)

    def test_ceiling_below_max_age_rejected(self):
        with pytest.raises(ValidationError):
            AoICounter(10.0, ceiling=5.0)

    def test_copy_is_independent(self):
        counter = AoICounter(10.0)
        counter.tick(4)
        clone = counter.copy()
        counter.tick(3)
        assert clone.age == 5.0
        assert counter.age == 8.0


class TestAoIVector:
    def test_length_and_iteration(self):
        vector = AoIVector([5.0, 6.0, 7.0])
        assert len(vector) == 3
        assert list(vector) == [1.0, 1.0, 1.0]

    def test_tick_all(self):
        vector = AoIVector([5.0, 6.0])
        vector.tick(3)
        np.testing.assert_array_equal(vector.ages, [4.0, 4.0])

    def test_tick_saturates(self):
        vector = AoIVector([5.0, 10.0], ceiling=12.0)
        vector.tick(100)
        np.testing.assert_array_equal(vector.ages, [12.0, 12.0])

    def test_refresh_single(self):
        vector = AoIVector([5.0, 5.0])
        vector.tick(4)
        vector.refresh(1)
        np.testing.assert_array_equal(vector.ages, [5.0, 1.0])

    def test_refresh_out_of_range(self):
        with pytest.raises(ValidationError):
            AoIVector([5.0]).refresh(1)

    def test_violations_mask(self):
        vector = AoIVector([3.0, 10.0])
        vector.tick(4)
        np.testing.assert_array_equal(vector.violations, [True, False])

    def test_utilities(self):
        vector = AoIVector([4.0, 8.0], initial_ages=[2.0, 4.0])
        np.testing.assert_allclose(vector.utilities, [2.0, 2.0])

    def test_set_ages_shape_checked(self):
        vector = AoIVector([5.0, 5.0])
        with pytest.raises(ValidationError):
            vector.set_ages([1.0])

    def test_set_ages_rejects_below_one(self):
        vector = AoIVector([5.0])
        with pytest.raises(ValidationError):
            vector.set_ages([0.5])

    def test_initial_ages_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            AoIVector([5.0, 5.0], initial_ages=[1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            AoIVector([])

    def test_non_positive_max_age_rejected(self):
        with pytest.raises(ValidationError):
            AoIVector([5.0, 0.0])

    def test_copy_is_independent(self):
        vector = AoIVector([5.0, 5.0])
        vector.tick(2)
        clone = vector.copy()
        vector.tick(2)
        np.testing.assert_array_equal(clone.ages, [3.0, 3.0])

    @given(
        slots=st.integers(min_value=0, max_value=50),
        max_age=st.floats(min_value=1.0, max_value=30.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_age_never_exceeds_ceiling(self, slots, max_age):
        vector = AoIVector([max_age])
        vector.tick(slots)
        assert vector.ages[0] <= vector.ceiling

    @given(ages=st.lists(st.floats(min_value=1.0, max_value=20.0), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_property_utility_positive(self, ages):
        vector = AoIVector([25.0] * len(ages), initial_ages=ages)
        assert np.all(vector.utilities > 0)


class TestAoIProcess:
    def test_record_and_length(self):
        process = AoIProcess(5.0)
        process.record(0, 1.0)
        process.record(1, 2.0)
        assert len(process) == 2

    def test_out_of_order_rejected(self):
        process = AoIProcess(5.0)
        process.record(3, 1.0)
        with pytest.raises(ValidationError):
            process.record(2, 1.0)

    def test_negative_age_rejected(self):
        with pytest.raises(ValidationError):
            AoIProcess(5.0).record(0, -1.0)

    def test_extend(self):
        process = AoIProcess(5.0)
        process.extend([(0, 1.0), (1, 2.0), (2, 3.0)])
        assert len(process) == 3

