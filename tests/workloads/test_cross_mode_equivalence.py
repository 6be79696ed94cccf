"""Cross-mode equivalence: every registered workload, every execution path.

For each registered workload model the scalar test oracle
(:func:`oracle.reference`), single runs, and seed-batched
``run_batch(seeds)`` must record bit-identical trajectories (exact
equality of every history, no tolerances).  This extends the PR 1/PR 2
golden-trajectory contracts to the workload axis: a workload model that
drew RNG variates differently in any mode would fail here immediately.
"""

from __future__ import annotations

import pytest

import oracle
from oracle.compare import assert_same_run
from repro.core.caching_mdp import MDPCachingPolicy
from repro.core.lyapunov import LyapunovServiceController
from repro.sim.engine import KINDS, _run_seeds
from repro.sim.scenario import ScenarioConfig
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


def assert_modes_identical(kind, config, make_policies, num_slots):
    """The oracle, ``run()`` and a seed-batched ``run_batch`` agree exactly.

    *make_policies* builds one policy per role of *kind* for a scenario.
    """
    simulator = KINDS[kind].simulator
    policies = make_policies(config)
    assert_same_run(
        simulator(config, *policies).run(num_slots=num_slots),
        oracle.reference(
            config,
            make_policies(config) if kind == "joint" else make_policies(config)[0],
            num_slots=num_slots,
        ),
    )
    per_seed = [make_policies(config.with_overrides(seed=seed)) for seed in SEEDS]
    singles = [
        simulator(config.with_overrides(seed=seed), *built).run(num_slots=num_slots)
        for seed, built in zip(SEEDS, per_seed)
    ]
    batch = _run_seeds(
        kind, config, SEEDS, list(zip(*per_seed)), num_slots=num_slots, metrics="full"
    )
    for single, batched in zip(singles, batch):
        assert_same_run(batched, single)


def lyapunov(cfg):
    return (LyapunovServiceController(cfg.tradeoff_v),)


def mdp(cfg):
    return (MDPCachingPolicy(cfg.build_mdp_config()),)


def mdp_lyapunov(cfg):
    return mdp(cfg) + lyapunov(cfg)


class TestServiceCrossMode:
    @pytest.mark.parametrize("workload", SYNTHETIC_WORKLOADS)
    def test_synthetic_workloads(self, workload):
        config = ScenarioConfig.fig1b(seed=0).with_overrides(
            num_slots=80, workload=workload
        )
        assert_modes_identical("service", config, lyapunov, 80)

    @pytest.mark.parametrize("workload", SYNTHETIC_WORKLOADS[1:3])
    def test_poisson_arrivals_and_deadlines(self, workload):
        config = ScenarioConfig.fig1b(seed=6).with_overrides(
            num_slots=60,
            deadline_slots=4,
            arrival_kind="poisson",
            arrival_rate=2.0,
            workload=workload,
        )
        assert_modes_identical("service", config, lyapunov, 60)

    def test_trace_replay(self, tmp_path):
        base = ScenarioConfig.fig1b(seed=0).with_overrides(num_slots=60)
        config = base.with_overrides(workload=trace_spec(tmp_path, base, 60))
        assert_modes_identical("service", config, lyapunov, 60)


class TestJointCrossMode:
    @pytest.mark.parametrize("workload", SYNTHETIC_WORKLOADS)
    def test_synthetic_workloads(self, workload):
        config = ScenarioConfig.small(
            seed=7, num_slots=60, arrival_rate=0.8, workload=workload
        )
        assert_modes_identical("joint", config, mdp_lyapunov, 60)

    def test_trace_replay(self, tmp_path):
        base = ScenarioConfig.small(seed=5, num_slots=50, arrival_rate=0.9)
        config = base.with_overrides(workload=trace_spec(tmp_path, base, 50))
        assert_modes_identical("joint", config, mdp_lyapunov, 50)


class TestCacheCrossMode:
    @pytest.mark.parametrize("workload", SYNTHETIC_WORKLOADS)
    def test_synthetic_workloads(self, workload):
        # The cache stage consumes the workload only through its (base)
        # content population, but the full mode matrix must still agree.
        config = ScenarioConfig.fig1a(seed=0).with_overrides(
            num_slots=50, workload=workload
        )
        assert_modes_identical("cache", config, mdp, 50)
