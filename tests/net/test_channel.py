"""Tests for repro.net.channel (cost models)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, ValidationError
from repro.net.channel import (
    ConstantCostModel,
    DistanceCostModel,
    FadingCostModel,
)


class TestConstantCostModel:
    def test_cost_independent_of_inputs(self):
        model = ConstantCostModel(2.5)
        assert model.cost() == 2.5
        assert model.cost(distance=1000.0, size=3.0, time_slot=7) == 2.5

    def test_zero_cost_allowed(self):
        assert ConstantCostModel(0.0).cost() == 0.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            ConstantCostModel(-1.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValidationError):
            ConstantCostModel(1.0).cost(distance=-1.0)

    def test_non_positive_size_rejected(self):
        with pytest.raises(ValidationError):
            ConstantCostModel(1.0).cost(size=0.0)


class TestDistanceCostModel:
    def test_affine_in_distance(self):
        model = DistanceCostModel(base=1.0, slope=0.01)
        assert model.cost(distance=0.0) == pytest.approx(1.0)
        assert model.cost(distance=100.0) == pytest.approx(2.0)

    def test_proportional_to_size(self):
        model = DistanceCostModel(base=2.0, slope=0.0)
        assert model.cost(size=3.0) == pytest.approx(6.0)

    def test_all_zero_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            DistanceCostModel(base=0.0, slope=0.0)

    @given(
        distance=st.floats(min_value=0.0, max_value=1e4),
        size=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_cost_non_negative_and_monotone_in_distance(self, distance, size):
        model = DistanceCostModel(base=1.0, slope=0.002)
        near = model.cost(distance=distance, size=size)
        far = model.cost(distance=distance + 10.0, size=size)
        assert near >= 0
        assert far >= near


class TestFadingCostModel:
    def test_gain_constant_within_slot(self):
        model = FadingCostModel(base=1.0, slope=0.0, sigma=0.5, rng=0)
        first = model.cost(time_slot=3)
        second = model.cost(time_slot=3)
        assert first == pytest.approx(second)

    def test_gain_varies_across_slots(self):
        model = FadingCostModel(base=1.0, slope=0.0, sigma=0.5, rng=0)
        costs = {model.cost(time_slot=t) for t in range(20)}
        assert len(costs) > 1

    def test_deterministic_given_seed(self):
        a = FadingCostModel(sigma=0.3, rng=5)
        b = FadingCostModel(sigma=0.3, rng=5)
        assert [a.cost(time_slot=t) for t in range(5)] == [
            b.cost(time_slot=t) for t in range(5)
        ]

    def test_zero_sigma_is_static(self):
        model = FadingCostModel(base=2.0, slope=0.0, sigma=0.0, rng=0)
        assert model.cost(time_slot=0) == pytest.approx(2.0)
        assert model.cost(time_slot=9) == pytest.approx(2.0)

    def test_costs_always_positive(self):
        model = FadingCostModel(base=1.0, slope=0.0, sigma=1.0, rng=1)
        assert all(model.cost(time_slot=t) > 0 for t in range(50))

    def test_negative_time_slot_rejected(self):
        with pytest.raises(ValidationError):
            FadingCostModel(rng=0).advance(-1)

