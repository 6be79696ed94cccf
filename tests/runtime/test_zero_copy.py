"""Zero-copy dispatch and metrics-mode threading through the runner.

Pins the PR-5 runtime contracts: shared-memory horizon shipment produces
records bit-identical to worker-side regeneration (for every worker count),
the parent memoises horizons per (scenario, seed), dispatch statistics are
reported, ``metrics="summary"`` specs execute end to end with identical
summary rows, and the knob round-trips through the declarative
:class:`~repro.runtime.spec.ExperimentSpec` JSON format and the CLI.
"""

from __future__ import annotations

import io
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.policies import PolicySpec
from repro.runtime.runner import ExperimentRunner, RunSpec
from repro.runtime.shm import (
    HorizonShipment,
    attach_horizons,
    precompute_horizon,
    shared_memory_available,
)
from repro.runtime.spec import ExperimentSpec
from repro.sim.scenario import ScenarioConfig
from repro.sim.system import SystemState

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="multiprocessing.shared_memory unavailable"
)


@pytest.fixture
def service_scenario():
    return ScenarioConfig.fig1b(seed=0).with_overrides(num_slots=60)


@pytest.fixture
def service_specs(service_scenario):
    return [
        RunSpec(
            kind="service",
            scenario=service_scenario,
            policy=PolicySpec.coerce("lyapunov"),
            label="lyapunov",
        ),
        RunSpec(
            kind="service",
            scenario=service_scenario,
            policy=PolicySpec.coerce("always-serve"),
            label="always",
        ),
    ]


class TestHorizonPrecompute:
    def test_matches_system_state_generation(self, service_scenario):
        expected = SystemState(service_scenario).workload.generate_horizon(60)
        shipped = precompute_horizon(service_scenario, 60)
        for field in ("batch_rsus", "batch_ptr", "content_ids", "slot_ptr"):
            np.testing.assert_array_equal(
                getattr(expected, field), getattr(shipped, field)
            )

    @needs_shm
    def test_pack_attach_roundtrip(self, service_specs):
        shipment = HorizonShipment()
        try:
            handle = shipment.handle_for(service_specs[0], [0, 1])
            assert handle is not None
            attached = attach_horizons(handle)
            assert len(attached.horizons) == 2
            direct = precompute_horizon(
                service_specs[0].scenario.with_overrides(seed=1), 60
            )
            replayed = attached.horizons[1]
            np.testing.assert_array_equal(direct.content_ids, replayed.content_ids)
            assert replayed.num_slots == 60
            attached.close()
        finally:
            shipment.close()

    @needs_shm
    def test_horizons_memoised_across_specs(self, service_specs):
        shipment = HorizonShipment()
        try:
            shipment.handle_for(service_specs[0], [0, 1])
            shipment.handle_for(service_specs[1], [0, 1])
        finally:
            shipment.close()
        assert shipment.horizons_computed == 2
        assert shipment.horizons_reused == 2

    def test_cache_and_multihop_tasks_skip_shipment(self, service_scenario):
        shipment = HorizonShipment()
        try:
            cache_spec = RunSpec(
                kind="cache",
                scenario=ScenarioConfig.small(seed=0, num_slots=20),
                policy=PolicySpec.coerce("never"),
            )
            assert shipment.handle_for(cache_spec, [0]) is None
            multihop_spec = RunSpec(
                kind="multihop",
                scenario=service_scenario,
                policy=PolicySpec.coerce("lce"),
            )
            assert shipment.handle_for(multihop_spec, [0]) is None
        finally:
            shipment.close()


class TestZeroCopyDispatch:
    @needs_shm
    def test_records_identical_with_and_without_shm(self, service_specs):
        with_shm = ExperimentRunner(workers=2, shared_memory=True)
        batch = with_shm.run_grid(service_specs, num_seeds=3)
        plain = ExperimentRunner(workers=2, shared_memory=False).run_grid(
            service_specs, num_seeds=3
        )
        serial = ExperimentRunner(workers=1).run_grid(service_specs, num_seeds=3)
        assert batch.matches(plain)
        assert batch.matches(serial)
        stats = with_shm.last_dispatch_stats
        assert stats["shared_memory"] is True
        assert stats["shm_blocks"] > 0
        assert stats["horizons_computed"] == 3
        assert stats["horizons_reused"] == 3
        assert stats["per_worker"]
        assert stats["task_seconds_total"] > 0.0

    @needs_shm
    def test_joint_kind_through_shm(self):
        scenario = ScenarioConfig.small(seed=3, num_slots=40, arrival_rate=0.8)
        specs = [
            RunSpec(
                kind="joint",
                scenario=scenario,
                policy=PolicySpec.coerce("mdp"),
                service_policy=PolicySpec.coerce("lyapunov"),
                label="joint",
            )
        ]
        parallel = ExperimentRunner(workers=2, shared_memory=True).run_grid(
            specs, num_seeds=3
        )
        serial = ExperimentRunner(workers=1).run_grid(specs, num_seeds=3)
        assert parallel.matches(serial)

    def test_serial_run_skips_shm_but_reports_stats(self, service_specs):
        runner = ExperimentRunner(workers=1, shared_memory=True)
        runner.run_grid(service_specs, num_seeds=2)
        stats = runner.last_dispatch_stats
        assert stats["shared_memory"] is False
        assert stats["shm_blocks"] == 0
        assert stats["tasks"] == 2


class TestMetricsThreading:
    def test_runspec_validates_metrics(self, service_scenario):
        with pytest.raises(ValidationError):
            RunSpec(
                kind="service",
                scenario=service_scenario,
                policy=PolicySpec.coerce("lyapunov"),
                metrics="everything",
            )

    def test_summary_specs_execute_identically(self, service_specs):
        full = ExperimentRunner(workers=1).run_grid(service_specs, num_seeds=3)
        summary = ExperimentRunner(workers=1).run_grid(
            [replace(spec, metrics="summary") for spec in service_specs],
            num_seeds=3,
        )
        assert full.rows() == summary.rows()
        assert full.matches(summary)

    def test_summary_cache_specs_keep_traces(self):
        spec = RunSpec(
            kind="cache",
            scenario=ScenarioConfig.small(seed=0, num_slots=30),
            policy=PolicySpec.coerce("mdp"),
            metrics="summary",
            label="cache",
        )
        batch = ExperimentRunner(workers=1).run_grid([spec], num_seeds=2)
        full = ExperimentRunner(workers=1).run_grid(
            [replace(spec, metrics="full")], num_seeds=2
        )
        assert batch.matches(full)
        assert all(record.trace is not None for record in batch.records)

    def test_experiment_spec_round_trips_metrics(self):
        spec = ExperimentSpec(
            kind="cache",
            scenario=ScenarioConfig.small(seed=0, num_slots=20),
            policy="mdp",
            metrics="summary",
        )
        rebuilt = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.metrics == "summary"
        assert rebuilt.to_run_spec().metrics == "summary"

    def test_experiment_spec_metrics_default_and_validation(self):
        spec = ExperimentSpec(
            kind="cache",
            scenario=ScenarioConfig.small(seed=0, num_slots=20),
            policy="mdp",
        )
        assert spec.metrics == "full"
        with pytest.raises(ValidationError):
            spec.with_overrides(metrics="everything")

    def test_cli_metrics_flag(self, tmp_path):
        from repro.cli import main
        from repro.runtime.spec import save_specs

        path = str(tmp_path / "experiments.json")
        out_path = str(tmp_path / "results.json")
        save_specs(
            [
                ExperimentSpec(
                    kind="cache",
                    scenario=ScenarioConfig.small(seed=0, num_slots=20),
                    policy="mdp",
                    num_seeds=2,
                )
            ],
            path,
        )
        out = io.StringIO()
        code = main(
            [
                "run",
                "--spec",
                path,
                "--metrics",
                "summary",
                "--out",
                out_path,
                "--workers",
                "1",
            ],
            out=out,
        )
        assert code == 0, out.getvalue()
        document = json.loads(open(out_path).read())
        assert document["rows"]
        # --metrics without --spec is a usage error.
        out = io.StringIO()
        assert main(["run", "E1", "--metrics", "summary"], out=out) == 2
        assert "--metrics applies to --spec" in out.getvalue()
