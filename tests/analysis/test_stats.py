"""Tests for repro.analysis.stats."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    is_non_decreasing,
    linear_trend,
    mean_confidence_interval,
)
from repro.exceptions import ValidationError


class TestMeanConfidenceInterval:
    def test_mean_and_width(self):
        ci = mean_confidence_interval([1.0, 2.0, 3.0, 4.0], confidence=0.95)
        assert ci.mean == pytest.approx(2.5)
        assert ci.half_width > 0
        assert ci.low < 2.5 < ci.high
        assert ci.num_samples == 4

    def test_single_sample_has_zero_width(self):
        ci = mean_confidence_interval([5.0])
        assert ci.half_width == 0.0

    def test_higher_confidence_wider(self):
        data = list(np.linspace(0, 10, 30))
        narrow = mean_confidence_interval(data, confidence=0.80)
        wide = mean_confidence_interval(data, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mean_confidence_interval([])

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            mean_confidence_interval([1.0, float("nan")])

    def test_invalid_confidence_rejected(self):
        with pytest.raises(ValidationError):
            mean_confidence_interval([1.0, 2.0], confidence=1.0)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_property_mean_inside_interval(self, data):
        ci = mean_confidence_interval(data)
        assert ci.low <= ci.mean <= ci.high


class TestLinearTrend:
    def test_exact_line_recovered(self):
        values = [2.0 + 0.5 * t for t in range(20)]
        slope, intercept = linear_trend(values)
        assert slope == pytest.approx(0.5)
        assert intercept == pytest.approx(2.0)

    def test_flat_series_zero_slope(self):
        slope, _ = linear_trend([3.0] * 10)
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError):
            linear_trend([1.0])

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            linear_trend([1.0, float("nan"), 2.0])


class TestIsNonDecreasing:
    def test_monotone_series(self):
        assert is_non_decreasing([1, 2, 2, 3])

    def test_decreasing_series(self):
        assert not is_non_decreasing([3, 2, 1])

    def test_tolerance_absorbs_noise(self):
        assert is_non_decreasing([1.0, 0.9999999999, 2.0], tolerance=1e-6)

    def test_short_series(self):
        assert is_non_decreasing([5.0])
