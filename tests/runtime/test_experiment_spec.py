"""Tests for repro.runtime.spec (serializable experiment specifications).

Covers the lossless JSON round-trips of ``ExperimentSpec`` /
``PolicySpec`` / ``ScenarioConfig``, error messages for unknown names and
fields, and — the headline acceptance contract — that an
``ExperimentSpec`` grid loaded from JSON executes to a ``BatchResult``
bit-identical to the equivalent hand-constructed ``RunSpec`` grid.
"""

from __future__ import annotations

import json

import pytest

import oracle
from repro.analysis.sweep import lyapunov_policy_factory, mdp_policy_factory
from repro.exceptions import ConfigurationError, ValidationError
from repro.policies import PolicySpec
from repro.runtime import (
    BatchResult,
    ExperimentRunner,
    ExperimentSpec,
    RunSpec,
    expand_workloads,
    load_specs,
    save_specs,
)
from repro.runtime.runner import _run_record
from repro.sim.scenario import ScenarioConfig
from repro.workloads import WorkloadSpec


@pytest.fixture
def scenario():
    return ScenarioConfig.small(seed=5, num_slots=30)


@pytest.fixture
def spec(scenario):
    return ExperimentSpec(
        kind="cache", scenario=scenario, policy="mdp", num_seeds=2
    )


class TestRoundTrips:
    def test_experiment_spec_json_round_trip(self, spec):
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_round_trip_through_plain_json(self, scenario):
        original = ExperimentSpec(
            kind="joint",
            scenario=scenario.with_overrides(workload="drift:period=10"),
            policy=PolicySpec.parse("mdp:mode=factored"),
            service_policy="lyapunov:tradeoff_v=25",
            seed=3,
            num_seeds=4,
            label="my-grid-point",
            num_slots=20,
            service_batch=2,
        )
        rebuilt = ExperimentSpec.from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        assert rebuilt == original
        assert rebuilt.scenario.workload == original.scenario.workload

    def test_scenario_config_round_trip(self, scenario):
        rebuilt = ScenarioConfig.from_dict(
            json.loads(json.dumps(scenario.to_dict()))
        )
        assert rebuilt == scenario

    def test_scenario_round_trip_preserves_workload_params(self):
        config = ScenarioConfig.small(workload="flash-crowd:burst_prob=0.2")
        rebuilt = ScenarioConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert rebuilt == config
        assert rebuilt.workload.params_dict["burst_prob"] == 0.2

    def test_policy_spec_round_trip(self):
        spec = PolicySpec.parse("cost-greedy:backlog_cap=50,deadline_slack=2")
        assert PolicySpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_workload_spec_round_trip(self):
        spec = WorkloadSpec.parse("drift:period=25,step=0.4")
        assert WorkloadSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


class TestValidation:
    def test_unknown_policy_name(self, scenario):
        with pytest.raises(ConfigurationError, match="unknown policy"):
            ExperimentSpec(kind="cache", scenario=scenario, policy="nope")

    def test_wrong_policy_role(self, scenario):
        with pytest.raises(ConfigurationError, match="service policy"):
            ExperimentSpec(kind="cache", scenario=scenario, policy="lyapunov")

    def test_joint_needs_service_policy(self, scenario):
        with pytest.raises(ValidationError, match="service_policy"):
            ExperimentSpec(kind="joint", scenario=scenario, policy="mdp")

    def test_service_policy_rejected_off_joint(self, scenario):
        with pytest.raises(ValidationError, match="joint"):
            ExperimentSpec(
                kind="cache",
                scenario=scenario,
                policy="mdp",
                service_policy="lyapunov",
            )

    def test_unknown_field_in_dict(self, spec):
        data = spec.to_dict()
        data["policyy"] = {"name": "mdp"}
        with pytest.raises(ConfigurationError, match="policyy"):
            ExperimentSpec.from_dict(data)

    def test_unknown_scenario_field(self):
        with pytest.raises(ConfigurationError, match="num_rsuss"):
            ScenarioConfig.from_dict({"num_rsuss": 3})

    def test_auto_label_tracks_policies(self, scenario):
        spec = ExperimentSpec(
            kind="joint",
            scenario=scenario,
            policy="mdp",
            service_policy="lyapunov:tradeoff_v=25",
        )
        assert spec.label == "joint:mdp+lyapunov(tradeoff_v=25)"


class TestExecution:
    def test_spec_grid_matches_hand_built_runspec_grid(self, scenario, spec):
        runner = ExperimentRunner(workers=1)
        declarative = runner.run_grid([spec])
        hand_built = runner.run_grid(
            [
                RunSpec(
                    kind="cache",
                    scenario=scenario,
                    policy=mdp_policy_factory,
                    seed=spec.seed,
                    label=spec.label,
                )
            ],
            num_seeds=2,
        )
        assert declarative.matches(hand_built)

    def test_loaded_json_matches_hand_built(self, scenario, spec, tmp_path):
        path = str(tmp_path / "experiments.json")
        save_specs([spec], path)
        loaded = load_specs(path)
        assert loaded == [spec]
        runner = ExperimentRunner(workers=1)
        assert runner.run_grid(loaded).matches(runner.run_grid([spec]))

    def test_joint_spec_matches_hand_built(self, scenario):
        spec = ExperimentSpec(
            kind="joint",
            scenario=scenario,
            policy="mdp",
            service_policy="lyapunov",
            num_seeds=2,
        )
        runner = ExperimentRunner(workers=1)
        declarative = runner.run_grid([spec])
        hand_built = runner.run_grid(
            [
                RunSpec(
                    kind="joint",
                    scenario=scenario,
                    policy=mdp_policy_factory,
                    service_policy=lyapunov_policy_factory,
                    seed=0,
                    label=spec.label,
                )
            ],
            num_seeds=2,
        )
        assert declarative.matches(hand_built)

    def test_explicit_num_seeds_overrides_spec(self, spec):
        runner = ExperimentRunner(workers=1)
        batch = runner.run_grid([spec], num_seeds=1)
        assert len(batch) == 1

    def test_reference_mode_matches_fast_path(self, scenario):
        spec = ExperimentSpec(kind="cache", scenario=scenario, policy="mdp",
                              num_seeds=2)
        fast = ExperimentRunner(workers=1).run_grid([spec])
        seeds = [record.seed for record in fast.records]
        slow = BatchResult(
            [
                _run_record(spec.to_run_spec(), seed, result)
                for seed, result in zip(
                    seeds, oracle.reference(scenario, "mdp", seeds=seeds)
                )
            ]
        )
        assert fast.matches(slow)

    def test_runner_run_accepts_specs(self, spec):
        batch = ExperimentRunner(workers=1).run([spec])
        assert len(batch) == spec.num_seeds

    def test_expand_workloads_emits_experiment_specs(self, spec):
        expanded = expand_workloads([spec], ["stationary", "drift:period=10"])
        assert all(isinstance(entry, ExperimentSpec) for entry in expanded)
        assert [entry.scenario.workload.name for entry in expanded] == [
            "stationary",
            "drift",
        ]
        assert expanded[1].label.endswith("|drift(period=10)")
        # Still serializable after expansion.
        for entry in expanded:
            assert ExperimentSpec.from_json(entry.to_json()) == entry


class TestBatchExport:
    def test_rows_schema(self, spec):
        batch = ExperimentRunner(workers=1).run_grid([spec])
        rows = batch.rows()
        assert len(rows) == 2
        for row in rows:
            assert list(row)[:3] == ["label", "seed", "kind"]
            assert row["label"] == spec.label
            assert row["kind"] == "cache"

    def test_to_json_writes_loadable_document(self, spec, tmp_path):
        path = str(tmp_path / "batch.json")
        batch = ExperimentRunner(workers=1).run_grid([spec])
        text = batch.to_json(path)
        on_disk = json.loads(open(path).read())
        assert json.loads(text) == on_disk
        assert on_disk["schema"]["version"] == 1
        assert len(on_disk["rows"]) == 2
        assert len(on_disk["aggregate"]) == 1
        assert on_disk["aggregate"][0]["num_seeds"] == 2


class TestMultihopSpecs:
    def scenario(self):
        return ScenarioConfig(
            num_rsus=3,
            contents_per_rsu=3,
            num_slots=15,
            seed=5,
            topology_kind="line",
            hop_delay=2.0,
        )

    def test_round_trip_is_lossless(self):
        spec = ExperimentSpec(
            kind="multihop",
            scenario=self.scenario(),
            policy="probcache:t_tw=5",
            num_seeds=2,
        )
        rebuilt = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.scenario.topology_kind == "line"
        assert rebuilt.scenario.hop_delay == 2.0
        assert rebuilt.policy.label() == "probcache(t_tw=5.0)"

    def test_any_role_accepted(self):
        for policy in ("lce", "mdp", "lyapunov"):
            spec = ExperimentSpec(
                kind="multihop", scenario=self.scenario(), policy=policy
            )
            assert spec.label == f"multihop:{policy}"

    def test_service_policy_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(
                kind="multihop",
                scenario=self.scenario(),
                policy="lce",
                service_policy="lyapunov",
            )

    def test_executes_through_the_runner(self):
        spec = ExperimentSpec(
            kind="multihop", scenario=self.scenario(), policy="lce", num_seeds=2
        )
        batch = ExperimentRunner(workers=1).run_grid([spec])
        assert len(batch) == 2
        for record in batch.records:
            assert record.kind == "multihop"
            assert 0.0 <= record.summary["hit_ratio"] <= 1.0
            assert record.trace is not None
