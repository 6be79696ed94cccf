"""API-surface snapshot: accidental public-surface breaks fail fast.

Pins the exact contents of ``repro.__all__`` and both registry catalogs
(workloads and policies).  Intentional surface changes must update these
snapshots — that is the point: removing or renaming a public name is a
reviewed decision, never a side effect.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect

import pytest

import repro
from repro.policies import list_policies
from repro.workloads import workload_names

# The public import surface, grouped as in repro/__init__.py.
EXPECTED_ALL = {
    # baselines
    "AlwaysServePolicy",
    "AlwaysUpdatePolicy",
    "BacklogThresholdPolicy",
    "CostGreedyPolicy",
    "FixedProbabilityPolicy",
    "MyopicUpdatePolicy",
    "NeverServePolicy",
    "NeverUpdatePolicy",
    "PeriodicUpdatePolicy",
    "RandomUpdatePolicy",
    "ThresholdUpdatePolicy",
    "standard_caching_baselines",
    "standard_service_baselines",
    # core
    "AoICounter",
    "AoIProcess",
    "AoIVector",
    "CacheObservation",
    "CachingMDPConfig",
    "CachingPolicy",
    "ContentUpdateMDP",
    "LyapunovServiceController",
    "MDPCachingPolicy",
    "RSUCachingMDP",
    "ServiceObservation",
    "ServicePolicy",
    "TabularMDP",
    "UtilityFunction",
    "policy_iteration",
    "run_backlog_simulation",
    "value_iteration",
    # exceptions
    "CacheError",
    "ConfigurationError",
    "ModelError",
    "QueueError",
    "ReproError",
    "SimulationError",
    "SolverError",
    "ValidationError",
    # net
    "ContentCatalog",
    "NetworkController",
    "NetworkModel",
    "NetworkView",
    "RequestGenerator",
    "RoadTopology",
    # policies
    "PolicySpec",
    "available_policies",
    "create_policy",
    "list_policies",
    "register_policy",
    # runtime
    "BatchResult",
    "ExperimentRunner",
    "ExperimentSpec",
    "RunRecord",
    "RunSpec",
    "RunStore",
    "expand_seeds",
    "expand_workloads",
    "load_specs",
    "save_specs",
    # sim
    "CacheSimulationResult",
    "CacheSimulator",
    "JointSimulationResult",
    "JointSimulator",
    "MultihopSimulationResult",
    "MultihopSimulator",
    "ScenarioConfig",
    "ServiceSimulationResult",
    "ServiceSimulator",
    "SimulationResult",
    "simulate",
    # serve
    "ServeClient",
    "SimulationSession",
    "SlotResult",
    "open_session",
    # workloads
    "WorkloadModel",
    "WorkloadSpec",
    "available_workloads",
    "create_workload",
    "export_trace",
    "workload_names",
    # meta
    "__version__",
}

EXPECTED_WORKLOADS = ["drift", "flash-crowd", "shot-noise", "stationary", "trace"]

EXPECTED_CACHING_POLICIES = [
    "always", "mdp", "myopic", "never", "periodic", "random", "threshold",
]

EXPECTED_SERVICE_POLICIES = [
    "always-serve", "backlog-threshold", "cost-greedy", "fixed-probability",
    "lyapunov", "never-serve",
]

EXPECTED_ONPATH_POLICIES = [
    "cl4m", "edge", "lcd", "lce", "partition", "probcache",
]


# Every package whose ``__all__`` re-exports names: a name left there after
# its definition is deleted must fail here, not only at import time.
PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.core",
    "repro.net",
    "repro.policies",
    "repro.runtime",
    "repro.serve",
    "repro.sim",
    "repro.utils",
    "repro.workloads",
]


class TestApiSurface:
    def test_all_snapshot(self):
        actual = set(repro.__all__)
        missing = EXPECTED_ALL - actual
        extra = actual - EXPECTED_ALL
        assert not missing, f"public names removed from repro.__all__: {sorted(missing)}"
        assert not extra, (
            f"new public names in repro.__all__ (update the snapshot): "
            f"{sorted(extra)}"
        )

    def test_all_names_resolve(self):
        for package in PACKAGES:
            module = importlib.import_module(package)
            for name in module.__all__:
                assert hasattr(module, name), f"{package}.{name}"

    def test_no_duplicate_exports(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_workload_catalog_snapshot(self):
        assert workload_names() == EXPECTED_WORKLOADS

    def test_policy_catalog_snapshot(self):
        assert list_policies("caching") == EXPECTED_CACHING_POLICIES
        assert list_policies("service") == EXPECTED_SERVICE_POLICIES
        assert list_policies("onpath") == EXPECTED_ONPATH_POLICIES

    def test_simulation_modes_snapshot(self):
        import repro.runtime.spec
        import repro.sim
        from repro.sim import METRICS_MODES, SIMULATION_KINDS

        # The multihop kind routes requests over the network graph.
        assert SIMULATION_KINDS == ("cache", "service", "joint", "multihop")
        # The metric collection knob threaded through simulate(), the
        # simulators, RunSpec/ExperimentSpec, and the CLI.
        assert METRICS_MODES == ("full", "summary")
        # Removed in 3.0: there is one execution path, so no mode catalog.
        assert not hasattr(repro.sim, "SIMULATION_MODES")
        assert not hasattr(repro.runtime.spec, "EXPERIMENT_MODES")

    def test_metrics_knobs_in_simulate_signature(self):
        from repro import simulate

        from repro import open_session

        parameters = inspect.signature(simulate).parameters
        assert parameters["metrics"].default == "full"
        # Removed in 2.0: every slot is recorded as it runs, so there is no
        # metrics staging block to size.
        assert "block_size" not in parameters
        assert "block_size" not in inspect.signature(open_session).parameters


class TestRemovedIn30:
    """3.0 has one public execution path: the scalar loops are private."""

    def test_simulate_has_no_mode(self):
        assert "mode" not in inspect.signature(repro.simulate).parameters

    def test_experiment_spec_has_no_mode(self):
        from repro import ConfigurationError, ExperimentSpec, ScenarioConfig

        assert "mode" not in {f.name for f in dataclasses.fields(ExperimentSpec)}
        data = ExperimentSpec(
            kind="cache", scenario=ScenarioConfig.small(seed=0), policy="mdp"
        ).to_dict()
        assert "mode" not in data
        data["mode"] = "reference"
        with pytest.raises(ConfigurationError, match="mode"):
            ExperimentSpec.from_dict(data)

    def test_no_reference_parameter(self):
        from repro.analysis import sweep

        assert "reference" not in {f.name for f in dataclasses.fields(repro.RunSpec)}
        for simulator in (
            repro.CacheSimulator,
            repro.ServiceSimulator,
            repro.JointSimulator,
            repro.MultihopSimulator,
        ):
            assert "reference" not in inspect.signature(simulator).parameters
            assert not hasattr(simulator, "reference"), simulator.__name__
        for function in (
            sweep.weight_sweep,
            sweep.v_sweep,
            sweep.caching_policy_comparison,
            sweep.service_policy_comparison,
            sweep.workload_sweep,
            sweep.scalability_sweep,
        ):
            assert "reference" not in inspect.signature(function).parameters

    def test_simulator_shim_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.sim.simulator")


class TestRemovedIn40:
    """4.0 has one grid dispatch path: no per-run/seed-batched switch."""

    def test_run_grid_has_no_seed_batching(self):
        parameters = inspect.signature(repro.ExperimentRunner.run_grid).parameters
        assert "seed_batching" not in parameters
        assert set(parameters) == {"self", "specs", "num_seeds", "store"}


class TestRemovedIn50:
    """5.0 forwards along compiled routes: no per-hop controller calls."""

    def test_controller_forwards_whole_paths(self):
        controller = repro.NetworkController
        for name in ("forward_request_hop", "forward_content_hop", "_traverse"):
            assert not hasattr(controller, name), name
        assert callable(controller.forward_request_path)
        assert callable(controller.forward_content_path)
        assert callable(repro.NetworkView.route)


class TestRemovedIn60:
    """6.0 deletes the surface no simulation, runner, CLI or serve path reaches."""

    @pytest.mark.parametrize("module", ["repro.net.mobility", "repro.net.environment"])
    def test_mobility_and_environment_modules_are_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    @pytest.mark.parametrize(
        "owner, names",
        [
            ("repro.analysis.figures.Fig1aData", ["max_observed_age"]),
            ("repro.analysis.stats.ConfidenceInterval", ["contains"]),
            ("repro.core.aoi.AoICounter", ["is_violating", "freshness"]),
            (
                "repro.core.aoi.AoIVector",
                ["violation_count", "refresh_many", "mean_age", "peak_age"],
            ),
            ("repro.core.aoi.AoIProcess", ["statistics", "peaks"]),
            ("repro.core.caching_mdp.RSUCachingMDP", ["grids"]),
            (
                "repro.core.caching_mdp.MDPCachingPolicy",
                ["models_version", "update_advantages"],
            ),
            ("repro.core.mdp.MDPModel", ["successors"]),
            ("repro.core.mdp.TabularMDP", ["sample_next_state"]),
            ("repro.net.cache.LruContentCache", ["contents"]),
            ("repro.net.channel.FadingCostModel", ["current_gain"]),
            ("repro.net.content.ContentCatalog", ["for_regions"]),
            ("repro.net.controller.NetworkController", ["get_content", "abort_session"]),
            (
                "repro.net.model.NetworkModel",
                ["reset_caches", "num_nodes", "content_source"],
            ),
            (
                "repro.net.queueing.BacklogQueue",
                ["total_arrivals", "total_departures", "time_average"],
            ),
            (
                "repro.net.requests.RequestGenerator",
                ["mean_load_per_rsu", "local_popularity"],
            ),
            ("repro.net.topology.Region", ["length", "center", "contains"]),
            ("repro.net.topology.RSU", ["num_cached_contents", "covers"]),
            (
                "repro.net.topology.RoadTopology",
                [
                    "regions",
                    "region_at",
                    "rsu_at",
                    "rsu_for_positions",
                    "rsu_for_region",
                    "contents_of_rsu",
                ],
            ),
            (
                "repro.net.view.NetworkView",
                ["num_nodes", "edge_delay", "content_source", "cache_contents"],
            ),
            ("repro.policies.registry.PolicySpec", ["canonical_key"]),
            ("repro.serve.client.ServeClient", ["ingest_records"]),
            ("repro.sim.scenario.ScenarioConfig", ["build_network_model"]),
            ("repro.workloads.base.WorkloadModel", ["base_popularity"]),
            ("repro.workloads.registry.WorkloadSpec", ["is_default"]),
            ("repro.workloads.trace.TraceWorkload", ["mean_load_per_rsu"]),
        ],
    )
    def test_deleted_methods_are_absent(self, owner, names):
        module_name, class_name = owner.rsplit(".", 1)
        cls = getattr(importlib.import_module(module_name), class_name)
        for name in names:
            assert not hasattr(cls, name), f"{owner}.{name}"

    @pytest.mark.parametrize(
        "module, names",
        [
            ("repro", ["VehicleFleet", "QLearningSolver"]),
            ("repro.analysis.stats", ["moving_average", "tail_mean", "relative_improvement"]),
            ("repro.core.aoi", ["aoi_violation", "AoIStatistics"]),
            ("repro.core.mdp", ["ProductSpace", "Transition", "uniform_random_policy"]),
            ("repro.core.solvers", ["QLearningSolver", "QLearningConfig"]),
            ("repro.net.cache", ["CacheEntry"]),
            ("repro.net.channel", ["LinkBudget"]),
            ("repro.runtime.runner", ["execute_spec"]),
            ("repro.runtime.store", ["spec_hash"]),
        ],
    )
    def test_deleted_functions_and_classes_are_absent(self, module, names):
        loaded = importlib.import_module(module)
        for name in names:
            assert not hasattr(loaded, name), f"{module}.{name}"


class TestRemovedIn70:
    """7.0 keeps one execution path: the scalar test oracle and the per-RSU
    object model only it ran leave the package (for ``tests/oracle``)."""

    def test_version(self):
        assert repro.__version__ == "7.0.0"

    @pytest.mark.parametrize(
        "module, names",
        [
            ("repro", ["RSUCache", "RequestQueue", "ServedRequest"]),
            ("repro.net", ["RSUCache", "RequestQueue", "ServedRequest"]),
            ("repro.net.cache", ["RSUCache"]),
            ("repro.net.queueing", ["RequestQueue", "ServedRequest"]),
            ("repro.sim.engine", ["_reference"]),
            ("repro.sim.service_sim", ["_reference_service_slot"]),
            ("repro.sim.system", ["cache_ages"]),
        ],
    )
    def test_oracle_names_are_absent(self, module, names):
        loaded = importlib.import_module(module)
        for name in names:
            assert not hasattr(loaded, name), f"{module}.{name}"
            assert name not in getattr(loaded, "__all__", ()), f"{module}.{name}"

    def test_no_simulator_runs_a_reference_loop(self):
        for kind in repro.sim.engine.KINDS.values():
            assert not hasattr(kind.simulator, "_run_reference"), kind.name
        for name in ("reference_caches", "observation"):
            assert not hasattr(repro.sim.system.SystemState, name), name
