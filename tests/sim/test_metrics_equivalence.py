"""Summary-mode metrics equivalence.

``metrics="summary"`` collectors must produce ``summary()`` / ``rows()``
output byte-identical to ``metrics="full"`` — across all three simulators,
every execution path (the scalar test oracle, single runs, seed
batches) and every registered workload model.  These tests pin that contract, plus the summary-mode error
surface, the cached-reduction semantics of the array-backed collectors, and
that the steppers record every slot straight into their collectors.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracle
from repro.core.reward import RewardBreakdown
from repro.exceptions import SimulationError, ValidationError
from repro.sim import CacheSimulator, JointSimulator, ServiceSimulator, simulate
from repro.sim.metrics import CacheMetrics, RewardTrace, ServiceMetrics
from repro.sim.scenario import ScenarioConfig
from repro.workloads import export_trace, workload_names
from repro.workloads.registry import WorkloadSpec

SLOTS = 40


def cache_scenario(**overrides):
    return ScenarioConfig.small(seed=3, num_slots=SLOTS, **overrides)


def run_path(mode, simulator_class, config, policies, metrics):
    """One run on *config* along *mode*.

    ``"reference"`` is the scalar test oracle, ``"batch"`` a one-seed
    ``run_batch`` on the config's own seed, ``"vectorized"`` ``run()``.
    *policies* is one policy, or a ``(caching, service)`` pair.
    """
    if mode == "reference":
        return oracle.reference(config, policies, metrics=metrics)
    if not isinstance(policies, tuple):
        policies = (policies,)
    simulator = simulator_class(config, *policies, metrics=metrics)
    if mode == "batch":
        return simulator.run_batch([config.seed])[0]
    return simulator.run()


def run_cache(mode, metrics):
    config = cache_scenario()
    from repro.core.caching_mdp import MDPCachingPolicy

    policy = MDPCachingPolicy(config.build_mdp_config())
    return run_path(mode, CacheSimulator, config, policy, metrics)


class TestSummaryEqualsFull:
    @pytest.mark.parametrize("mode", ["reference", "vectorized", "batch"])
    def test_cache_kind(self, mode):
        full = run_cache(mode, "full")
        summary = run_cache(mode, "summary")
        assert full.summary() == summary.summary()
        assert full.rows() == summary.rows()

    @pytest.mark.parametrize("mode", ["reference", "vectorized", "batch"])
    def test_service_kind(self, mode):
        from repro.core.lyapunov import LyapunovServiceController

        config = ScenarioConfig.fig1b(seed=1).with_overrides(num_slots=SLOTS)
        results = {}
        for metrics in ("full", "summary"):
            results[metrics] = run_path(
                mode,
                ServiceSimulator,
                config,
                LyapunovServiceController(config.tradeoff_v),
                metrics,
            )
        assert results["full"].summary() == results["summary"].summary()
        assert results["full"].rows() == results["summary"].rows()

    @pytest.mark.parametrize("mode", ["reference", "vectorized", "batch"])
    def test_joint_kind(self, mode):
        from repro.core.caching_mdp import MDPCachingPolicy
        from repro.core.lyapunov import LyapunovServiceController

        config = ScenarioConfig.small(seed=5, num_slots=SLOTS, arrival_rate=0.8)
        results = {}
        for metrics in ("full", "summary"):
            results[metrics] = run_path(
                mode,
                JointSimulator,
                config,
                (
                    MDPCachingPolicy(config.build_mdp_config()),
                    LyapunovServiceController(config.tradeoff_v),
                ),
                metrics,
            )
        assert results["full"].summary() == results["summary"].summary()
        assert results["full"].rows() == results["summary"].rows()

    def test_every_workload_model(self, tmp_path):
        """summary == full for every registered workload, joint kind, all modes."""
        from repro.core.caching_mdp import MDPCachingPolicy
        from repro.core.lyapunov import LyapunovServiceController
        from repro.sim.system import SystemState

        for name in workload_names():
            if name == "trace":
                base = ScenarioConfig.small(seed=7, num_slots=SLOTS)
                path = str(tmp_path / "workload.jsonl")
                export_trace(SystemState(base).workload, SLOTS, path)
                workload = f"trace:path={path}"
            else:
                workload = name
            config = ScenarioConfig.small(
                seed=7, num_slots=SLOTS, arrival_rate=0.9, workload=workload
            )
            for mode in ("reference", "vectorized", "batch"):
                results = {}
                for metrics in ("full", "summary"):
                    results[metrics] = run_path(
                        mode,
                        JointSimulator,
                        config,
                        (
                            MDPCachingPolicy(config.build_mdp_config()),
                            LyapunovServiceController(config.tradeoff_v),
                        ),
                        metrics,
                    )
                assert results["full"].summary() == results["summary"].summary(), (
                    name,
                    mode,
                )

    def test_simulate_facade_threads_metrics(self):
        config = cache_scenario()
        full = simulate(config, "mdp", metrics="full")
        summary = simulate(config, "mdp", metrics="summary")
        assert full.summary() == summary.summary()
        batch_full = simulate(config, "mdp", seeds=2, metrics="full")
        batch_summary = simulate(config, "mdp", seeds=2, metrics="summary")
        for one, other in zip(batch_full, batch_summary):
            assert one.summary() == other.summary()

    def test_simulate_rejects_unknown_metrics(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            simulate(cache_scenario(), "mdp", metrics="everything")


class TestCollectorsCurrentAfterEveryStep:
    """A stepper's collectors hold every executed slot, with no flush."""

    SLOTS = 37

    @staticmethod
    def config():
        # A horizon longer than the steps taken, so nothing ends the run.
        return ScenarioConfig.small(seed=5, num_slots=100, arrival_rate=0.8)

    @staticmethod
    def drive(stepper):
        for _ in range(TestCollectorsCurrentAfterEveryStep.SLOTS):
            stepper.step()

    @pytest.mark.parametrize("metrics", ["full", "summary"])
    def test_cache_stepper(self, metrics):
        from repro.core.caching_mdp import MDPCachingPolicy
        from repro.sim.cache_sim import CacheStepper

        config = self.config()
        stepper = CacheStepper(
            [config], [MDPCachingPolicy(config.build_mdp_config())], metrics=metrics
        )
        self.drive(stepper)
        collector = stepper.metrics[0]
        offline = simulate(
            config,
            MDPCachingPolicy(config.build_mdp_config()),
            num_slots=self.SLOTS,
            metrics=metrics,
        )
        assert collector.num_slots_recorded == self.SLOTS
        assert collector.summary() == offline.metrics.summary()

    @pytest.mark.parametrize("metrics", ["full", "summary"])
    def test_service_stepper(self, metrics):
        from repro.core.lyapunov import LyapunovServiceController
        from repro.sim.service_sim import ServiceStepper

        config = self.config()
        stepper = ServiceStepper(
            [config], [LyapunovServiceController(config.tradeoff_v)], metrics=metrics
        )
        self.drive(stepper)
        collector = stepper.metrics[0]
        offline = simulate(
            config,
            LyapunovServiceController(config.tradeoff_v),
            num_slots=self.SLOTS,
            metrics=metrics,
        )
        assert collector.num_slots_recorded == self.SLOTS
        assert collector.summary() == offline.metrics.summary()

    @pytest.mark.parametrize("metrics", ["full", "summary"])
    def test_joint_stepper(self, metrics):
        from repro.core.caching_mdp import MDPCachingPolicy
        from repro.core.lyapunov import LyapunovServiceController
        from repro.sim.joint_sim import JointStepper

        config = self.config()
        stepper = JointStepper(
            [config],
            [MDPCachingPolicy(config.build_mdp_config())],
            [LyapunovServiceController(config.tradeoff_v)],
            metrics=metrics,
        )
        self.drive(stepper)
        offline = simulate(
            config,
            (
                MDPCachingPolicy(config.build_mdp_config()),
                LyapunovServiceController(config.tradeoff_v),
            ),
            num_slots=self.SLOTS,
            metrics=metrics,
        )
        for collector, reference in (
            (stepper.cache_metrics[0], offline.cache_metrics),
            (stepper.service_metrics[0], offline.service_metrics),
        ):
            assert collector.num_slots_recorded == self.SLOTS
            assert collector.summary() == reference.summary()


class TestSummaryModeSurface:
    def test_traces_survive_summary_mode(self):
        result = run_cache("vectorized", "summary")
        full = run_cache("vectorized", "full")
        np.testing.assert_array_equal(result.cumulative_reward, full.cumulative_reward)
        assert result.metrics.reward.totals == full.metrics.reward.totals

    def test_service_headline_histories_survive_summary_mode(self):
        from repro.core.lyapunov import LyapunovServiceController

        config = ScenarioConfig.fig1b(seed=2).with_overrides(num_slots=SLOTS)
        results = {
            metrics: ServiceSimulator(
                config,
                LyapunovServiceController(config.tradeoff_v),
                metrics=metrics,
            ).run()
            for metrics in ("full", "summary")
        }
        for history in ("backlog_history", "latency_history", "cost_history"):
            np.testing.assert_array_equal(
                getattr(results["full"].metrics, history)(),
                getattr(results["summary"].metrics, history)(),
            )

    def test_matrix_accessors_raise_in_summary_mode(self):
        result = run_cache("vectorized", "summary")
        with pytest.raises(SimulationError):
            result.metrics.age_matrix_history()
        with pytest.raises(SimulationError):
            result.metrics.action_matrix_history()
        with pytest.raises(SimulationError):
            result.metrics.age_trace(0, 0)
        # The streamed reward components keep their reductions but not the
        # per-slot vectors.
        with pytest.raises(SimulationError):
            result.metrics.reward.costs
        with pytest.raises(SimulationError):
            result.metrics.reward.aoi_utilities
        full = run_cache("vectorized", "full")
        assert result.metrics.reward.total_cost == full.metrics.reward.total_cost
        assert (
            result.metrics.reward.total_aoi_utility
            == full.metrics.reward.total_aoi_utility
        )

    def test_streaming_sum_matches_deferred_fold_past_chunk_boundary(self):
        from repro.sim.metrics import STREAM_CHUNK, _StreamingSum, _chunked_sum

        rng = np.random.default_rng(7)
        values = rng.uniform(-1.0, 1.0, size=2 * STREAM_CHUNK + 137)
        stream = _StreamingSum()
        for value in values:
            stream.push(float(value))
        assert stream.total == _chunked_sum(values)
        assert stream.count == values.size

    def test_per_rsu_histories_raise_in_summary_mode(self):
        metrics = ServiceMetrics(2, mode="summary")
        metrics.record_slot([1.0, 2.0], [2.0, 4.0], [0.5, 0.0], [True, False], [1, 0])
        with pytest.raises(SimulationError):
            metrics.backlog_history(rsu=0)
        np.testing.assert_allclose(metrics.backlog_history(), [3.0])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            ServiceMetrics(2, mode="compact")
        with pytest.raises(ValidationError):
            CacheMetrics(2, 2, np.ones((2, 2)), mode="compact")
        with pytest.raises(ValidationError):
            CacheSimulator(cache_scenario(), None, metrics="compact")


class TestBlockRecordingPrimitives:
    """Recording primitives of the array-backed collectors."""

    def test_reward_trace_reductions_cached_and_invalidated(self):
        trace = RewardTrace()
        trace.record(RewardBreakdown(2.0, 1.0, 1.0))
        assert trace.total_reward == pytest.approx(1.0)
        # Every read returns a fresh array...
        assert trace.cumulative_reward is not trace.cumulative_reward
        # ...and mutating a returned one never corrupts the trace.
        trace.cumulative_reward[:] = -1.0
        np.testing.assert_allclose(trace.cumulative_reward, [1.0])
        # The next append shows in every reduction.
        trace.record(RewardBreakdown(4.0, 1.0, 1.0))
        assert trace.total_reward == pytest.approx(4.0)
        np.testing.assert_allclose(trace.cumulative_reward, [1.0, 4.0])

    def test_slot_buffers_grow_past_initial_capacity(self):
        metrics = ServiceMetrics(2)
        for t in range(200):
            metrics.record_slot([1.0, 2.0], [0.0, 0.0], [0.5, 0.5], [1, 0], [1, 0])
        assert metrics.num_slots_recorded == 200
        assert metrics.total_cost == pytest.approx(200.0)
        assert metrics.backlog_history().shape == (200,)
        assert metrics.backlog_history(rsu=1).shape == (200,)
