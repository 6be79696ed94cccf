"""Tests for repro.analysis.figures (figure data builders and ASCII rendering)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.figures import (
    build_fig1a_data,
    build_fig1b_data,
    render_fig1a,
    render_fig1b,
    render_series,
)
from repro.exceptions import ValidationError
from repro.sim.scenario import ScenarioConfig


@pytest.fixture(scope="module")
def fig1a_data():
    config = ScenarioConfig.fig1a(seed=1).with_overrides(num_slots=150)
    return build_fig1a_data(config)


@pytest.fixture(scope="module")
def fig1b_data():
    config = ScenarioConfig.fig1b(seed=1).with_overrides(num_slots=150)
    return build_fig1b_data(config)


class TestBuildFig1aData:
    def test_tracks_two_contents_by_default(self, fig1a_data):
        assert len(fig1a_data.content_ages) == 2
        for ages in fig1a_data.content_ages.values():
            assert ages.shape == fig1a_data.times.shape

    def test_cumulative_reward_length(self, fig1a_data):
        assert fig1a_data.cumulative_reward.shape == fig1a_data.times.shape

    def test_policy_name_recorded(self, fig1a_data):
        assert fig1a_data.policy_name == "mdp"

    def test_tracked_contents_stay_mostly_fresh(self, fig1a_data):
        for label in fig1a_data.content_ages:
            assert fig1a_data.violation_fraction(label) < 0.15

    def test_unknown_label_rejected(self, fig1a_data):
        with pytest.raises(ValidationError):
            fig1a_data.violation_fraction("nope")

    def test_invalid_tracked_rsu_rejected(self):
        config = ScenarioConfig.fig1a(seed=1).with_overrides(num_slots=10)
        with pytest.raises(ValidationError):
            build_fig1a_data(config, tracked_rsu=99)

    def test_invalid_tracked_slot_rejected(self):
        config = ScenarioConfig.fig1a(seed=1).with_overrides(num_slots=10)
        with pytest.raises(ValidationError):
            build_fig1a_data(config, tracked_slots=(0, 99))


class TestBuildFig1bData:
    def test_default_policy_set(self, fig1b_data):
        assert set(fig1b_data.latency) == {"lyapunov", "always-serve", "cost-greedy"}

    def test_series_lengths_match(self, fig1b_data):
        for series in fig1b_data.latency.values():
            assert series.shape == fig1b_data.times.shape

    def test_lyapunov_cost_not_higher_than_always_serve(self, fig1b_data):
        assert (
            fig1b_data.time_average_cost["lyapunov"]
            <= fig1b_data.time_average_cost["always-serve"] + 1e-9
        )

    def test_cost_greedy_has_largest_backlog(self, fig1b_data):
        backlogs = fig1b_data.time_average_backlog
        assert backlogs["cost-greedy"] >= backlogs["lyapunov"]
        assert backlogs["cost-greedy"] >= backlogs["always-serve"]


class TestRenderSeries:
    def test_contains_legend_and_title(self):
        text = render_series({"a": [1, 2, 3], "b": [3, 2, 1]}, title="demo")
        assert "demo" in text
        assert "a" in text and "b" in text
        assert "legend" in text

    def test_constant_series_does_not_crash(self):
        text = render_series({"flat": [5.0] * 10})
        assert "flat" in text

    def test_width_respected(self):
        text = render_series({"a": list(range(100))}, width=40, height=5)
        chart_lines = [line for line in text.splitlines() if line.startswith("|")]
        assert all(len(line) == 41 for line in chart_lines)
        assert len(chart_lines) == 5

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            render_series({})

    def test_empty_values_rejected(self):
        with pytest.raises(ValidationError):
            render_series({"a": []})


class TestRenderFigures:
    def test_render_fig1a(self, fig1a_data):
        text = render_fig1a(fig1a_data)
        assert "Fig. 1a" in text
        assert "cumulative" in text

    def test_render_fig1b(self, fig1b_data):
        text = render_fig1b(fig1b_data)
        assert "Fig. 1b" in text
        assert "lyapunov" in text
        assert "time-avg cost" in text
