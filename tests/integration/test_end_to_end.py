"""End-to-end integration tests across the full library stack."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import (
    CacheSimulator,
    JointSimulator,
    LyapunovServiceController,
    MDPCachingPolicy,
    ScenarioConfig,
    ServiceSimulator,
)
from repro.analysis import (
    build_fig1a_data,
    build_fig1b_data,
    caching_policy_comparison,
    format_table,
    render_fig1a,
    render_fig1b,
)
from repro.baselines import standard_caching_baselines, standard_service_baselines


class TestPublicApi:
    def test_version_exposed(self):
        assert repro.__version__ == "7.0.0"

    def test_all_exports_resolvable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_snippet_from_module_docstring(self):
        config = ScenarioConfig.fig1a(seed=0)
        policy = MDPCachingPolicy(config.build_mdp_config())
        result = CacheSimulator(config, policy).run(num_slots=50)
        summary = result.summary()
        assert summary["num_slots"] == 50.0
        assert np.isfinite(summary["total_reward"])


class TestTwoStagePipeline:
    def test_full_pipeline_runs_and_reports(self, small_config):
        joint = JointSimulator(
            small_config,
            MDPCachingPolicy(small_config.build_mdp_config()),
            LyapunovServiceController(small_config.tradeoff_v),
        ).run()
        summary = joint.summary()
        assert summary["cache_num_slots"] == small_config.num_slots
        assert summary["service_num_slots"] == small_config.num_slots
        assert np.isfinite(summary["cache_total_reward"])
        assert np.isfinite(summary["service_total_cost"])

    def test_every_caching_baseline_runs_through_simulator(self, small_config):
        for name, policy in standard_caching_baselines(rng=0).items():
            result = CacheSimulator(small_config, policy).run(num_slots=20)
            assert result.metrics.num_slots_recorded == 20, name

    def test_every_service_baseline_runs_through_simulator(self, small_config):
        for name, policy in standard_service_baselines(rng=0).items():
            result = ServiceSimulator(small_config, policy).run(num_slots=20)
            assert result.metrics.num_slots_recorded == 20, name

    def test_figure_builders_and_renderers_compose(self):
        fig1a = build_fig1a_data(
            ScenarioConfig.fig1a(seed=4).with_overrides(num_slots=60)
        )
        fig1b = build_fig1b_data(
            ScenarioConfig.fig1b(seed=4).with_overrides(num_slots=60)
        )
        assert "Fig. 1a" in render_fig1a(fig1a)
        assert "Fig. 1b" in render_fig1b(fig1b)

    def test_comparison_table_renders(self):
        rows = caching_policy_comparison(
            config=ScenarioConfig.small(seed=5), num_slots=30
        )
        table = format_table(rows)
        assert "mdp" in table


class TestReproducibility:
    def test_identical_seeds_identical_results_across_simulators(self):
        config = ScenarioConfig.fig1b(seed=11).with_overrides(num_slots=100)
        first = ServiceSimulator(config, LyapunovServiceController(10.0)).run()
        second = ServiceSimulator(config, LyapunovServiceController(10.0)).run()
        np.testing.assert_allclose(first.latency_history, second.latency_history)

    def test_policy_choice_does_not_perturb_workload(self):
        """Changing the service policy must not change the request trace."""
        config = ScenarioConfig.fig1b(seed=13).with_overrides(num_slots=100)
        always = ServiceSimulator(config, LyapunovServiceController(0.0)).run()
        never = ServiceSimulator(config, LyapunovServiceController(1e9)).run()
        # Total arrivals are identical even though service behaviour differs:
        # with V=0 the controller serves immediately, so everything arriving
        # is served; with a huge V nothing is served and the backlog equals
        # the arrival count.
        assert (
            always.metrics.total_served
            == never.metrics.backlog_history()[-1]
        )
