"""Tests for repro.runtime.runner (the batched parallel experiment runner).

The load-bearing property is determinism: the same grid must produce the
bit-identical :class:`BatchResult` for every worker count, and the derived
per-run seeds must never collide.  Grids here use tiny scenarios and cheap
policies so the process-pool cases stay fast.
"""

from __future__ import annotations

import numpy as np
import pytest

import oracle
from repro.analysis.sweep import (
    lyapunov_policy_factory,
    mdp_policy_factory,
    v_sweep,
    weight_sweep,
)
from repro.baselines.caching import PeriodicUpdatePolicy, RandomUpdatePolicy
from repro.exceptions import ConfigurationError, ValidationError
from repro.policies import PolicySpec
from repro.runtime.runner import (
    BatchResult,
    ExperimentRunner,
    RunRecord,
    RunSpec,
    execute_batch,
    expand_seeds,
    expand_workloads,
    _run_record,
)
from repro.runtime.spec import ExperimentSpec
from repro.runtime.store import RunStore, cell_key
from repro.sim.scenario import ScenarioConfig
from repro.utils.rng import spawn_run_seeds


def make_periodic_policy(scenario):
    """Module-level factory so the spec pickles into pool workers."""
    return PeriodicUpdatePolicy(period=2)


@pytest.fixture(scope="module")
def tiny_scenario():
    return ScenarioConfig.small(seed=11, num_slots=30)


def cache_grid(tiny_scenario, labels=("a", "b")):
    return [
        RunSpec(
            kind="cache",
            scenario=tiny_scenario,
            policy=make_periodic_policy,
            seed=7 + index,
            label=label,
        )
        for index, label in enumerate(labels)
    ]


class TestSeedSpawning:
    def test_first_seed_is_base(self):
        assert spawn_run_seeds(42, 5)[0] == 42

    def test_deterministic(self):
        assert spawn_run_seeds(3, 8) == spawn_run_seeds(3, 8)

    def test_distinct(self):
        seeds = spawn_run_seeds(0, 64)
        assert len(set(seeds)) == 64

    def test_non_negative_ints(self):
        assert all(isinstance(s, int) and s >= 0 for s in spawn_run_seeds(1, 16))

    def test_different_bases_differ(self):
        assert spawn_run_seeds(0, 4)[1:] != spawn_run_seeds(1, 4)[1:]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError):
            spawn_run_seeds(-1, 2)
        with pytest.raises(ValidationError):
            spawn_run_seeds(0, 0)


class TestRunSpec:
    def test_invalid_kind_rejected(self, tiny_scenario):
        with pytest.raises(ValidationError):
            RunSpec(kind="nope", scenario=tiny_scenario, policy=make_periodic_policy)

    def test_joint_requires_service_policy(self, tiny_scenario):
        with pytest.raises(ValidationError):
            RunSpec(kind="joint", scenario=tiny_scenario, policy=make_periodic_policy)

    @pytest.mark.parametrize("kind", ["cache", "service", "multihop"])
    def test_service_policy_rejected_off_joint(self, tiny_scenario, kind):
        # A one-policy kind would drop the second policy without a word and
        # its cell would bypass the run store.
        with pytest.raises(ValidationError, match="joint"):
            RunSpec(
                kind=kind,
                scenario=tiny_scenario,
                policy="never" if kind == "cache" else "lyapunov",
                service_policy="lyapunov",
            )

    @pytest.mark.parametrize("kind", ["cache", "multihop"])
    def test_service_batch_rejected_without_a_service_role(self, tiny_scenario, kind):
        # The run would ignore it, yet it would key a separate store cell.
        with pytest.raises(ValidationError, match="service_batch"):
            RunSpec(
                kind=kind,
                scenario=tiny_scenario,
                policy="never" if kind == "cache" else "lce",
                service_batch=3,
            )
        with pytest.raises(ValidationError, match="service_batch"):
            ExperimentSpec(
                kind=kind,
                scenario=tiny_scenario,
                policy="never" if kind == "cache" else "lce",
                service_batch=3,
            )

    def test_service_batch_kept_with_a_service_role(self, tiny_scenario):
        assert RunSpec(
            kind="service", scenario=tiny_scenario, policy="lyapunov", service_batch=3
        ).service_batch == 3

    def test_expand_seeds_single_is_identity(self, tiny_scenario):
        specs = cache_grid(tiny_scenario)
        assert expand_seeds(specs, 1) == specs

    def test_expand_seeds_replicates(self, tiny_scenario):
        expanded = expand_seeds(cache_grid(tiny_scenario), 3)
        assert len(expanded) == 6
        assert [spec.label for spec in expanded] == ["a"] * 3 + ["b"] * 3
        assert len({(spec.label, spec.seed) for spec in expanded}) == 6


class TestExecuteSpec:
    def test_matches_direct_simulation(self, tiny_scenario):
        from repro.sim import CacheSimulator

        spec = cache_grid(tiny_scenario)[0]
        (record,) = execute_batch((spec, [spec.seed]))
        direct = CacheSimulator(
            tiny_scenario.with_overrides(seed=spec.seed), make_periodic_policy(None)
        ).run()
        assert record.summary == direct.summary()
        assert np.array_equal(record.trace, direct.cumulative_reward)

    def test_policy_instance_not_mutated(self, tiny_scenario):
        # A stochastic policy instance shared by several specs must be
        # deep-copied per run, so serial re-use equals parallel pickling.
        policy = RandomUpdatePolicy(rate=0.5, rng=99)
        spec = RunSpec(kind="cache", scenario=tiny_scenario, policy=policy, seed=1)
        (first,) = execute_batch((spec, [spec.seed]))
        (second,) = execute_batch((spec, [spec.seed]))
        assert first.matches(second)


class TestNamedPolicies:
    """A registered name in a RunSpec runs as the PolicySpec it names."""

    @pytest.mark.parametrize(
        "kind, policy, service_policy",
        [
            ("cache", "never", None),
            ("service", "lyapunov:tradeoff_v=20", None),
            ("joint", "mdp", "lyapunov"),
            ("multihop", "lcd", None),
        ],
    )
    def test_named_policy_runs_like_its_spec(
        self, tiny_scenario, kind, policy, service_policy
    ):
        named = RunSpec(
            kind=kind,
            scenario=tiny_scenario,
            policy=policy,
            service_policy=service_policy,
            seed=5,
        )
        explicit = RunSpec(
            kind=kind,
            scenario=tiny_scenario,
            policy=PolicySpec.parse(policy),
            service_policy=(
                None if service_policy is None else PolicySpec.parse(service_policy)
            ),
            seed=5,
        )
        assert named == explicit
        assert cell_key(named, 5) is not None
        assert cell_key(named, 5) == cell_key(explicit, 5)
        (record,) = execute_batch((named, [5]))
        (expected,) = execute_batch((explicit, [5]))
        assert record.matches(expected)

    def test_wrong_role_name_rejected(self, tiny_scenario):
        with pytest.raises(ConfigurationError, match="caching policy is required"):
            RunSpec(kind="cache", scenario=tiny_scenario, policy="lyapunov")


class TestRunnerDeterminism:
    def test_serial_and_parallel_batches_identical(self, tiny_scenario):
        specs = expand_seeds(cache_grid(tiny_scenario), 2)
        serial = ExperimentRunner(workers=1).run(specs)
        parallel = ExperimentRunner(workers=4).run(specs)
        assert serial.matches(parallel)
        assert serial.aggregate() == parallel.aggregate()

    def test_service_grid_across_worker_counts(self, tiny_scenario):
        specs = [
            RunSpec(
                kind="service",
                scenario=tiny_scenario,
                policy=lyapunov_policy_factory,
                seed=5,
                label="lyapunov",
            )
        ]
        batches = [
            ExperimentRunner(workers=workers).run_grid(specs, num_seeds=3)
            for workers in (1, 2, 4)
        ]
        assert batches[0].matches(batches[1])
        assert batches[1].matches(batches[2])

    def test_child_seeds_do_not_collide(self, tiny_scenario):
        batch = ExperimentRunner(workers=1).run_grid(
            cache_grid(tiny_scenario, labels=("a",)), num_seeds=16
        )
        assert len(set(batch.seeds())) == 16

    def test_different_seeds_give_different_results(self, tiny_scenario):
        batch = ExperimentRunner(workers=1).run_grid(
            cache_grid(tiny_scenario, labels=("a",)), num_seeds=4
        )
        rewards = [record.summary["total_reward"] for record in batch.records]
        assert len(set(rewards)) > 1

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentRunner(workers=1).run([])


class TestSeedBatchedDispatch:
    """run_grid's seed-batched execution must be invisible in the results."""

    def test_cache_grid_batched_matches_per_run(self, tiny_scenario):
        specs = cache_grid(tiny_scenario)
        batched = ExperimentRunner(workers=1).run_grid(specs, num_seeds=3)
        per_run = ExperimentRunner(workers=1).run_grid(expand_seeds(specs, 3))
        assert batched.matches(per_run)

    def test_all_kinds_batched_match_per_run(self, tiny_scenario):
        specs = [
            RunSpec(kind="cache", scenario=tiny_scenario,
                    policy=mdp_policy_factory, seed=7, label="c"),
            RunSpec(kind="service", scenario=tiny_scenario,
                    policy=lyapunov_policy_factory, seed=5, label="s"),
            RunSpec(kind="joint", scenario=tiny_scenario,
                    policy=mdp_policy_factory,
                    service_policy=lyapunov_policy_factory, seed=2, label="j"),
        ]
        batched = ExperimentRunner(workers=1).run_grid(specs, num_seeds=3)
        per_run = ExperimentRunner(workers=1).run_grid(expand_seeds(specs, 3))
        assert batched.matches(per_run)

    def test_batched_identical_across_worker_counts(self, tiny_scenario):
        # Worker counts change how seed groups are chunked across the pool;
        # the records must not notice.
        specs = cache_grid(tiny_scenario)
        batches = [
            ExperimentRunner(workers=workers).run_grid(specs, num_seeds=4)
            for workers in (1, 2, 4)
        ]
        assert batches[0].matches(batches[1])
        assert batches[1].matches(batches[2])

    def test_reference_specs_batch_through_fallback(self, tiny_scenario):
        # The seed-batched grid records what the scalar test oracle
        # records, run one seed at a time.
        specs = cache_grid(tiny_scenario)
        batched = ExperimentRunner(workers=1).run_grid(specs, num_seeds=2)
        expected = BatchResult(
            [
                _run_record(
                    spec, spec.seed, oracle.reference(scenario, spec.policy(scenario))
                )
                for spec in expand_seeds(specs, 2)
                for scenario in [spec.scenario.with_overrides(seed=spec.seed)]
            ]
        )
        assert batched.matches(expected)

    def test_stochastic_instance_policy_batches_identically(self, tiny_scenario):
        specs = [
            RunSpec(
                kind="cache",
                scenario=tiny_scenario,
                policy=RandomUpdatePolicy(rate=0.5, rng=99),
                seed=1,
                label="random",
            )
        ]
        batched = ExperimentRunner(workers=1).run_grid(specs, num_seeds=3)
        per_run = ExperimentRunner(workers=1).run_grid(expand_seeds(specs, 3))
        assert batched.matches(per_run)

    def test_one_seed_pool_grid_takes_the_dispatch_body(self, tiny_scenario, tmp_path):
        # One-seed grids dispatch through the same body as seed-batched
        # ones: real per-task timings and per-worker load at workers=2, and
        # run(), a store-less grid and a cold stored grid record the same.
        specs = [
            ExperimentSpec(
                kind="cache",
                scenario=tiny_scenario,
                policy=policy,
                seed=7 + index,
                num_seeds=1,
                label=policy,
            )
            for index, policy in enumerate(("periodic:period=2", "always"))
        ]
        runner = ExperimentRunner(workers=2)
        via_run = runner.run(specs)
        plain = runner.run_grid(specs, store=False)
        stats = runner.last_dispatch_stats
        assert stats["tasks"] == 2
        assert stats["workers"] == 2
        assert stats["task_seconds_total"] > 0.0
        assert stats["per_worker"]
        assert "run_store" not in stats
        stored = runner.run_grid(specs, store=str(tmp_path / "runs"))
        assert runner.last_dispatch_stats["run_store"]["cells_dispatched"] == 2
        assert runner.last_dispatch_stats["task_seconds_total"] > 0.0
        assert runner.last_dispatch_stats["per_worker"]
        assert via_run.matches(plain)
        assert plain.matches(stored)

    def test_run_honours_a_spec_store_opt_in(self, tiny_scenario, tmp_path, monkeypatch):
        # run() is run_grid(store=False): the grid-level store is off, but a
        # spec's own store=True opt-in opens the default run store, fills it
        # on a cold run and serves it on the next one.
        monkeypatch.delenv("REPRO_RUN_STORE", raising=False)
        monkeypatch.setenv("REPRO_RUN_STORE_DIR", str(tmp_path / "runs"))
        spec = ExperimentSpec(
            kind="cache",
            scenario=tiny_scenario,
            policy="periodic:period=2",
            seed=3,
            num_seeds=2,
            store=True,
        )
        runner = ExperimentRunner(workers=1)
        cold = runner.run([spec])
        assert runner.last_dispatch_stats["run_store"]["cells_dispatched"] == 2
        with RunStore(str(tmp_path / "runs")) as store:
            assert len(store) == 2
        warm = runner.run([spec])
        assert runner.last_dispatch_stats["run_store"]["cells_cached"] == 2
        assert runner.last_dispatch_stats["run_store"]["cells_dispatched"] == 0
        assert warm.matches(cold)


class TestAggregation:
    def test_single_seed_rows_have_no_ci(self, tiny_scenario):
        rows = ExperimentRunner(workers=1).run(cache_grid(tiny_scenario)).aggregate()
        assert [row["label"] for row in rows] == ["a", "b"]
        assert all(row["num_seeds"] == 1 for row in rows)
        assert not any(key.endswith("_ci") for row in rows for key in row)

    def test_multi_seed_rows_report_mean_and_ci(self, tiny_scenario):
        batch = ExperimentRunner(workers=1).run_grid(
            cache_grid(tiny_scenario, labels=("a",)), num_seeds=5
        )
        (row,) = batch.aggregate()
        rewards = [record.summary["total_reward"] for record in batch.records]
        assert row["num_seeds"] == 5
        assert row["total_reward"] == pytest.approx(float(np.mean(rewards)))
        assert row["total_reward_ci"] >= 0.0
        # Non-numeric summary entries (policy name) survive aggregation.
        assert row["policy"] == batch.records[0].summary["policy"]

    def test_labels_preserve_grid_order(self, tiny_scenario):
        batch = ExperimentRunner(workers=1).run_grid(
            cache_grid(tiny_scenario, labels=("z", "a", "m")), num_seeds=2
        )
        assert batch.labels() == ["z", "a", "m"]

    def test_single_seed_degenerate_ci(self, tiny_scenario):
        # One record per label: the mean is the value itself, and no
        # degenerate zero-width CI column may appear for any confidence.
        batch = ExperimentRunner(workers=1).run(cache_grid(tiny_scenario))
        for confidence in (0.5, 0.95, 0.99):
            rows = batch.aggregate(confidence=confidence)
            for row, record in zip(rows, batch.records):
                assert row["num_seeds"] == 1
                assert row["total_reward"] == record.summary["total_reward"]
                assert not any(key.endswith("_ci") for key in row)

    def test_duplicate_labels_merge_into_one_row(self, tiny_scenario):
        # Two specs sharing a label (different base seeds) aggregate as one
        # grid point: a single row whose num_seeds spans both specs' records.
        specs = [
            RunSpec(kind="cache", scenario=tiny_scenario,
                    policy=make_periodic_policy, seed=seed, label="shared")
            for seed in (7, 8)
        ]
        batch = ExperimentRunner(workers=1).run_grid(specs, num_seeds=2)
        assert len(batch) == 4
        (row,) = batch.aggregate()
        assert row["label"] == "shared"
        assert row["num_seeds"] == 4
        rewards = [record.summary["total_reward"] for record in batch.records]
        assert row["total_reward"] == pytest.approx(float(np.mean(rewards)))

    def test_non_default_confidence_scales_ci(self, tiny_scenario):
        batch = ExperimentRunner(workers=1).run_grid(
            cache_grid(tiny_scenario, labels=("a",)), num_seeds=5
        )
        half_widths = {
            confidence: batch.aggregate(confidence=confidence)[0][
                "total_reward_ci"
            ]
            for confidence in (0.5, 0.95, 0.99)
        }
        # Means are confidence-independent; half-widths widen monotonically.
        means = {
            confidence: batch.aggregate(confidence=confidence)[0]["total_reward"]
            for confidence in (0.5, 0.95, 0.99)
        }
        assert len(set(means.values())) == 1
        assert half_widths[0.5] < half_widths[0.95] < half_widths[0.99]


class TestSweepsThroughRunner:
    def test_weight_sweep_identical_across_worker_counts(self):
        config = ScenarioConfig.small(seed=2, num_slots=30)
        serial = weight_sweep([0.5, 2.0], config=config, num_seeds=2, workers=1)
        parallel = weight_sweep([0.5, 2.0], config=config, num_seeds=2, workers=4)
        assert serial == parallel

    def test_v_sweep_identical_across_worker_counts(self):
        config = ScenarioConfig.small(seed=2, num_slots=30)
        serial = v_sweep([1.0, 10.0], config=config, num_seeds=2, workers=1)
        parallel = v_sweep([1.0, 10.0], config=config, num_seeds=2, workers=3)
        assert serial == parallel

    def test_single_seed_matches_legacy_rows(self):
        # num_seeds=1 must reproduce the pre-runner behaviour exactly: same
        # seed, same simulation, same row values, no extra columns.
        config = ScenarioConfig.small(seed=2, num_slots=30)
        rows = weight_sweep([0.5], config=config)
        assert set(rows[0]) == {
            "weight",
            "mean_age",
            "violation_fraction",
            "total_cost",
            "total_updates",
            "total_reward",
        }


class TestRunRecordMatching:
    def test_matches_requires_identical_traces(self):
        a = RunRecord(label="x", seed=0, kind="cache", summary={"m": 1.0},
                      trace=np.asarray([1.0, 2.0]))
        b = RunRecord(label="x", seed=0, kind="cache", summary={"m": 1.0},
                      trace=np.asarray([1.0, 2.5]))
        assert not a.matches(b)
        assert a.matches(a)

    def test_batch_matches_detects_reordering(self):
        a = RunRecord(label="x", seed=0, kind="cache", summary={"m": 1.0})
        b = RunRecord(label="y", seed=1, kind="cache", summary={"m": 2.0})
        assert not BatchResult([a, b]).matches(BatchResult([b, a]))


class TestWorkloadGrids:
    WORKLOADS = ["stationary", "drift:period=10", "flash-crowd:burst_prob=0.2"]

    def test_expand_workloads_crosses_specs_and_workloads(self, tiny_scenario):
        specs = cache_grid(tiny_scenario)
        grid = expand_workloads(specs, self.WORKLOADS)
        assert len(grid) == len(specs) * len(self.WORKLOADS)
        assert [spec.label for spec in grid[:3]] == [
            "a|stationary",
            "a|drift(period=10)",
            "a|flash-crowd(burst_prob=0.2)",
        ]
        from repro.workloads import WorkloadSpec

        assert grid[1].scenario.workload == WorkloadSpec.parse("drift:period=10")
        # The original specs are untouched.
        assert specs[0].scenario.workload == WorkloadSpec()

    def test_expand_workloads_rejects_empty_inputs(self, tiny_scenario):
        with pytest.raises(ValidationError):
            expand_workloads([], self.WORKLOADS)
        with pytest.raises(ValidationError):
            expand_workloads(cache_grid(tiny_scenario), [])

    def test_scenarios_by_workloads_grid_runs_end_to_end(self):
        # The acceptance grid: scenarios x workloads x seeds through run_grid.
        scenarios = [
            ("small", ScenarioConfig.small(seed=3, num_slots=25)),
            ("small-poisson", ScenarioConfig.small(
                seed=5, num_slots=25, arrival_kind="poisson", arrival_rate=1.5
            )),
        ]
        specs = [
            RunSpec(
                kind="service",
                scenario=scenario,
                policy=lyapunov_policy_factory,
                seed=scenario.seed,
                label=label,
            )
            for label, scenario in scenarios
        ]
        grid = expand_workloads(specs, self.WORKLOADS)
        batch = ExperimentRunner(workers=1).run_grid(grid, num_seeds=2)
        assert len(batch) == len(grid) * 2
        assert len(batch.labels()) == len(grid)
        rows = batch.aggregate()
        assert all(row["num_seeds"] == 2 for row in rows)

    def test_workload_grid_identical_across_worker_counts(self, tiny_scenario):
        grid = expand_workloads(cache_grid(tiny_scenario), self.WORKLOADS[:2])
        serial = ExperimentRunner(workers=1).run_grid(grid, num_seeds=2)
        parallel = ExperimentRunner(workers=3).run_grid(grid, num_seeds=2)
        assert serial.matches(parallel)
