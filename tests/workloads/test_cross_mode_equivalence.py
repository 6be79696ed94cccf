"""Cross-mode equivalence: every registered workload, every execution path.

For each registered workload model the private scalar oracle
(``repro.sim.engine._reference``), single runs, and seed-batched
``run_batch(seeds)`` must produce bit-identical trajectories (exact
equality, no tolerances).  This extends the PR 1/PR 2 golden-trajectory
contracts to the workload axis: a workload model that drew RNG variates
differently in any mode would fail here immediately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.caching_mdp import MDPCachingPolicy
from repro.core.lyapunov import LyapunovServiceController
from repro.sim.scenario import ScenarioConfig
from repro.sim import CacheSimulator, JointSimulator, ServiceSimulator
from repro.sim.engine import _reference
from repro.workloads import export_trace, workload_names

SEEDS = [0, 3, 11]

#: Parameters per registered model chosen so dynamics fire within the short
#: test horizons.  ``trace`` is exercised separately (it needs a file).
SYNTHETIC_WORKLOADS = [
    "stationary",
    "drift:period=8,step=0.6",
    "flash-crowd:burst_prob=0.25,duration=6",
    "shot-noise:event_rate=0.2,mean_lifetime=10",
]


def test_suite_covers_every_registered_workload():
    covered = {spec.split(":")[0] for spec in SYNTHETIC_WORKLOADS} | {"trace"}
    assert covered == set(workload_names())


def trace_spec(tmp_path, config, num_slots):
    """Export the scenario's own workload and return a trace spec replaying it."""
    from repro.sim import SystemState

    path = tmp_path / "workload.jsonl"
    state = SystemState(config)
    export_trace(state.workload, num_slots, str(path))
    return f"trace:path={path}"


def assert_service_modes_identical(config, num_slots):
    def policy(cfg):
        return LyapunovServiceController(cfg.tradeoff_v)

    reference = _reference(config, policy(config), num_slots=num_slots)
    vectorized = ServiceSimulator(config, policy(config)).run(num_slots=num_slots)
    for history in ("backlog_history", "latency_history", "cost_history"):
        assert np.array_equal(
            getattr(reference.metrics, history)(),
            getattr(vectorized.metrics, history)(),
        ), history
    assert reference.summary() == vectorized.summary()

    singles = [
        ServiceSimulator(
            config.with_overrides(seed=seed),
            policy(config.with_overrides(seed=seed)),
        ).run(num_slots=num_slots)
        for seed in SEEDS
    ]
    batch = ServiceSimulator(config, policy(config)).run_batch(
        SEEDS,
        policies=[policy(config.with_overrides(seed=seed)) for seed in SEEDS],
        num_slots=num_slots,
    )
    for single, batched in zip(singles, batch):
        for history in ("backlog_history", "latency_history", "cost_history"):
            assert np.array_equal(
                getattr(single.metrics, history)(),
                getattr(batched.metrics, history)(),
            ), history
        assert single.summary() == batched.summary()


def assert_joint_modes_identical(config, num_slots):
    def policies(cfg):
        return (
            MDPCachingPolicy(cfg.build_mdp_config()),
            LyapunovServiceController(cfg.tradeoff_v),
        )

    reference = _reference(config, policies(config), num_slots=num_slots)
    vectorized = JointSimulator(config, *policies(config)).run(num_slots=num_slots)
    assert np.array_equal(
        reference.cache_metrics.age_matrix_history(),
        vectorized.cache_metrics.age_matrix_history(),
    )
    assert np.array_equal(
        reference.service_metrics.latency_history(),
        vectorized.service_metrics.latency_history(),
    )
    assert reference.summary() == vectorized.summary()

    singles = [
        JointSimulator(
            config.with_overrides(seed=seed),
            *policies(config.with_overrides(seed=seed)),
        ).run(num_slots=num_slots)
        for seed in SEEDS
    ]
    batch = JointSimulator(config, *policies(config)).run_batch(
        SEEDS,
        caching_policies=[
            policies(config.with_overrides(seed=seed))[0] for seed in SEEDS
        ],
        service_policies=[
            policies(config.with_overrides(seed=seed))[1] for seed in SEEDS
        ],
        num_slots=num_slots,
    )
    for single, batched in zip(singles, batch):
        assert np.array_equal(
            single.cache_metrics.action_matrix_history(),
            batched.cache_metrics.action_matrix_history(),
        )
        assert np.array_equal(
            single.service_metrics.backlog_history(),
            batched.service_metrics.backlog_history(),
        )
        assert single.summary() == batched.summary()


def assert_cache_modes_identical(config, num_slots):
    def policy(cfg):
        return MDPCachingPolicy(cfg.build_mdp_config())

    reference = _reference(config, policy(config), num_slots=num_slots)
    vectorized = CacheSimulator(config, policy(config)).run(num_slots=num_slots)
    assert np.array_equal(
        reference.metrics.age_matrix_history(),
        vectorized.metrics.age_matrix_history(),
    )
    assert reference.summary() == vectorized.summary()

    batch = CacheSimulator(config, policy(config)).run_batch(
        SEEDS,
        policies=[policy(config.with_overrides(seed=seed)) for seed in SEEDS],
        num_slots=num_slots,
    )
    singles = [
        CacheSimulator(
            config.with_overrides(seed=seed),
            policy(config.with_overrides(seed=seed)),
        ).run(num_slots=num_slots)
        for seed in SEEDS
    ]
    for single, batched in zip(singles, batch):
        assert np.array_equal(
            single.metrics.age_matrix_history(),
            batched.metrics.age_matrix_history(),
        )
        assert single.summary() == batched.summary()


class TestServiceCrossMode:
    @pytest.mark.parametrize("workload", SYNTHETIC_WORKLOADS)
    def test_synthetic_workloads(self, workload):
        config = ScenarioConfig.fig1b(seed=0).with_overrides(
            num_slots=80, workload=workload
        )
        assert_service_modes_identical(config, 80)

    @pytest.mark.parametrize("workload", SYNTHETIC_WORKLOADS[1:3])
    def test_poisson_arrivals_and_deadlines(self, workload):
        config = ScenarioConfig.fig1b(seed=6).with_overrides(
            num_slots=60,
            deadline_slots=4,
            arrival_kind="poisson",
            arrival_rate=2.0,
            workload=workload,
        )
        assert_service_modes_identical(config, 60)

    def test_trace_replay(self, tmp_path):
        base = ScenarioConfig.fig1b(seed=0).with_overrides(num_slots=60)
        config = base.with_overrides(workload=trace_spec(tmp_path, base, 60))
        assert_service_modes_identical(config, 60)


class TestJointCrossMode:
    @pytest.mark.parametrize("workload", SYNTHETIC_WORKLOADS)
    def test_synthetic_workloads(self, workload):
        config = ScenarioConfig.small(
            seed=7, num_slots=60, arrival_rate=0.8, workload=workload
        )
        assert_joint_modes_identical(config, 60)

    def test_trace_replay(self, tmp_path):
        base = ScenarioConfig.small(seed=5, num_slots=50, arrival_rate=0.9)
        config = base.with_overrides(workload=trace_spec(tmp_path, base, 50))
        assert_joint_modes_identical(config, 50)


class TestCacheCrossMode:
    @pytest.mark.parametrize("workload", SYNTHETIC_WORKLOADS)
    def test_synthetic_workloads(self, workload):
        # The cache stage consumes the workload only through its (base)
        # content population, but the full mode matrix must still agree.
        config = ScenarioConfig.fig1a(seed=0).with_overrides(
            num_slots=50, workload=workload
        )
        assert_cache_modes_identical(config, 50)
