"""Crash-resume integration tests for store-backed grids (ISSUE satellite).

The scenario under test is the one the run store exists for: a long sweep
dies mid-flight, the user re-runs the same command, and the second pass
must (a) recompute *only* the missing cells — instrumented through the
dispatch stats — and (b) merge cached and fresh records into a batch
bit-identical to an uninterrupted cold run.
"""

from __future__ import annotations

import pytest

import repro.runtime.runner as runner_module
from repro.runtime.runner import ExperimentRunner, _execute_batch_timed
from repro.runtime.spec import ExperimentSpec
from repro.runtime.store import RunStore
from repro.sim.scenario import ScenarioConfig

NUM_SEEDS = 26  # 4 specs x 26 seeds = 104 cells: past the 100-cell bar.


@pytest.fixture(scope="module")
def grid():
    scenario = ScenarioConfig.small(seed=11, num_slots=20)
    return [
        ExperimentSpec(
            kind="cache",
            scenario=scenario,
            policy=policy,
            seed=7 + index,
            num_seeds=NUM_SEEDS,
            label=label,
        )
        for index, (label, policy) in enumerate(
            [
                ("p2", "periodic:period=2"),
                ("p3", "periodic:period=3"),
                ("always", "always"),
                ("never", "never"),
            ]
        )
    ]


@pytest.fixture(scope="module")
def cold(grid):
    """The uninterrupted reference run, computed once without a store."""
    return ExperimentRunner(workers=1).run_grid(grid, store=False)


class _CrashAfter:
    """Wrapper around the batch task that dies after *limit* completions."""

    def __init__(self, limit):
        self.limit = limit
        self.calls = 0

    def __call__(self, task):
        if self.calls >= self.limit:
            raise RuntimeError("simulated mid-sweep crash")
        self.calls += 1
        return _execute_batch_timed(task)


class TestCrashResume:
    def test_interrupted_sweep_resumes_bit_identically(
        self, grid, cold, tmp_path, monkeypatch
    ):
        store_dir = str(tmp_path / "runs")
        assert len(cold) == 4 * NUM_SEEDS >= 100

        # --- Pass 1: the sweep dies after 2 of its 4 task groups. ---------
        crash = _CrashAfter(limit=2)
        monkeypatch.setattr(runner_module, "_execute_batch_timed", crash)
        runner = ExperimentRunner(workers=1)
        with pytest.raises(RuntimeError, match="simulated mid-sweep crash"):
            runner.run_grid(grid, store=store_dir)
        monkeypatch.undo()

        # Finished task groups persisted incrementally, before the crash.
        with RunStore(store_dir) as store:
            survivors = len(store)
        assert survivors == 2 * NUM_SEEDS

        # --- Pass 2: the same command again. ------------------------------
        runner = ExperimentRunner(workers=1)
        resumed = runner.run_grid(grid, store=store_dir)
        report = runner.last_dispatch_stats["run_store"]
        assert report["cells_total"] == 4 * NUM_SEEDS
        assert report["cells_cached"] == survivors
        assert report["cells_dispatched"] == 4 * NUM_SEEDS - survivors
        # Only the two unfinished groups went back to the workers.
        assert runner.last_dispatch_stats["tasks"] == 2

        # The merged batch is indistinguishable from the cold run.
        assert resumed.matches(cold)
        assert resumed.aggregate() == cold.aggregate()

        # --- Pass 3: fully warm — nothing dispatches at all. --------------
        runner = ExperimentRunner(workers=1)
        warm = runner.run_grid(grid, store=store_dir)
        report = runner.last_dispatch_stats["run_store"]
        assert report["cells_cached"] == 4 * NUM_SEEDS
        assert report["cells_dispatched"] == 0
        assert report["hit_rate"] == 1.0
        assert runner.last_dispatch_stats["tasks"] == 0
        assert warm.matches(cold)

    def test_new_grid_point_dispatches_only_its_own_cells(
        self, grid, cold, tmp_path
    ):
        store_dir = str(tmp_path / "runs")
        runner = ExperimentRunner(workers=1)
        runner.run_grid(grid, store=store_dir)

        extended = list(grid) + [
            ExperimentSpec(
                kind="cache",
                scenario=grid[0].scenario,
                policy="periodic:period=4",
                seed=99,
                num_seeds=NUM_SEEDS,
                label="p4",
            )
        ]
        runner = ExperimentRunner(workers=1)
        batch = runner.run_grid(extended, store=store_dir)
        report = runner.last_dispatch_stats["run_store"]
        assert report["cells_total"] == 5 * NUM_SEEDS
        assert report["cells_cached"] == 4 * NUM_SEEDS
        assert report["cells_dispatched"] == NUM_SEEDS
        # The cached prefix of the extended grid is still the cold batch.
        prefix = batch.records[: len(cold)]
        assert all(a.matches(b) for a, b in zip(prefix, cold.records))

    def test_seed_unbatched_resume_matches(self, grid, cold, tmp_path, monkeypatch):
        # Chunk-of-one dispatch exercises the per-cell persistence path.
        store_dir = str(tmp_path / "runs")
        crash = _CrashAfter(limit=30)
        monkeypatch.setattr(runner_module, "_execute_batch_timed", crash)
        runner = ExperimentRunner(workers=1)
        with pytest.raises(RuntimeError):
            runner.run_grid(grid, store=store_dir, seed_batching=False)
        monkeypatch.undo()
        with RunStore(store_dir) as store:
            assert len(store) == 30

        runner = ExperimentRunner(workers=1)
        resumed = runner.run_grid(grid, store=store_dir, seed_batching=False)
        report = runner.last_dispatch_stats["run_store"]
        assert report["cells_cached"] == 30
        assert report["cells_dispatched"] == 4 * NUM_SEEDS - 30
        assert resumed.matches(cold)


class TestStoreKnobs:
    def test_env_opt_in_enables_the_store(self, grid, cold, tmp_path, monkeypatch):
        store_dir = str(tmp_path / "runs")
        monkeypatch.setenv("REPRO_RUN_STORE_DIR", store_dir)
        runner = ExperimentRunner(workers=1)
        first = runner.run_grid(grid[:1])
        assert runner.last_dispatch_stats["run_store"]["cells_dispatched"] == NUM_SEEDS
        runner = ExperimentRunner(workers=1)
        second = runner.run_grid(grid[:1])
        assert runner.last_dispatch_stats["run_store"]["cells_cached"] == NUM_SEEDS
        assert first.matches(second)

    def test_kill_switch_beats_explicit_store(self, grid, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_STORE", "0")
        runner = ExperimentRunner(workers=1)
        runner.run_grid(grid[:1], store=True)
        assert runner.last_dispatch_stats is not None
        assert "run_store" not in runner.last_dispatch_stats

    def test_per_spec_opt_out_always_recomputes(self, grid, tmp_path):
        from dataclasses import replace

        store_dir = str(tmp_path / "runs")
        runner = ExperimentRunner(workers=1)
        opted_out = replace(grid[0], store=False)
        runner.run_grid([opted_out, grid[1]], store=store_dir)
        # Only the participating spec's cells landed in the store.
        with RunStore(store_dir) as store:
            assert len(store) == NUM_SEEDS
        runner = ExperimentRunner(workers=1)
        runner.run_grid([opted_out, grid[1]], store=store_dir)
        report = runner.last_dispatch_stats["run_store"]
        assert report["cells_cached"] == NUM_SEEDS
        assert report["cells_dispatched"] == NUM_SEEDS

    def test_per_spec_opt_in_without_grid_store(
        self, grid, tmp_path, monkeypatch
    ):
        from dataclasses import replace

        monkeypatch.setenv("REPRO_RUN_STORE_DIR", str(tmp_path / "runs"))
        monkeypatch.setenv("REPRO_RUN_STORE", "0")
        # Kill switch off -> even a per-spec opt-in stays cold.
        runner = ExperimentRunner(workers=1)
        runner.run_grid([replace(grid[0], store=True)])
        assert "run_store" not in runner.last_dispatch_stats

        monkeypatch.delenv("REPRO_RUN_STORE")
        # REPRO_RUN_STORE_DIR alone would enable globally; drop it and use
        # the spec-level opt-in against the default location instead.
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_RUN_STORE_DIR")
        runner = ExperimentRunner(workers=1)
        runner.run_grid([replace(grid[0], store=True)])
        assert runner.last_dispatch_stats["run_store"]["cells_dispatched"] == NUM_SEEDS
        runner = ExperimentRunner(workers=1)
        runner.run_grid([replace(grid[0], store=True)])
        assert runner.last_dispatch_stats["run_store"]["cells_cached"] == NUM_SEEDS


class TestSimulateWriteThrough:
    @pytest.mark.parametrize(
        "kind, policies",
        [
            ("cache", "periodic:period=2"),
            ("joint", ("mdp", "lyapunov")),
            ("multihop", "lce"),
        ],
        ids=["cache", "joint", "multihop"],
    )
    def test_simulate_warms_the_grid_store(self, tmp_path, kind, policies):
        from repro import simulate

        scenario = ScenarioConfig.small(seed=11, num_slots=20)
        store_dir = str(tmp_path / "runs")
        simulate(scenario, policies, store=store_dir)
        with RunStore(store_dir) as store:
            assert len(store) == 1

        # The façade run and the grid cell share one content address.
        policy, service_policy = (
            policies if isinstance(policies, tuple) else (policies, None)
        )
        spec = ExperimentSpec(
            kind=kind,
            scenario=scenario,
            policy=policy,
            service_policy=service_policy,
            seed=11,
            num_seeds=1,
        )
        runner = ExperimentRunner(workers=1)
        warm = runner.run_grid([spec], store=store_dir)
        assert runner.last_dispatch_stats["run_store"]["cells_cached"] == 1
        cold = ExperimentRunner(workers=1).run_grid([spec], store=False)
        assert warm.matches(cold)

    def test_simulate_without_store_writes_nothing(self, tmp_path, monkeypatch):
        from repro import simulate

        monkeypatch.chdir(tmp_path)
        scenario = ScenarioConfig.small(seed=11, num_slots=20)
        simulate(scenario, "periodic:period=2")
        assert not (tmp_path / ".repro_cache").exists()

    def test_simulate_multi_seed_store_roundtrip(self, tmp_path):
        from repro import simulate

        scenario = ScenarioConfig.small(seed=11, num_slots=20)
        store_dir = str(tmp_path / "runs")
        results = simulate(scenario, "periodic:period=2", seeds=4, store=store_dir)
        assert len(results) == 4
        with RunStore(store_dir) as store:
            assert len(store) == 4

        spec = ExperimentSpec(
            kind="cache",
            scenario=scenario,
            policy="periodic:period=2",
            seed=11,
            num_seeds=4,
        )
        runner = ExperimentRunner(workers=1)
        warm = runner.run_grid([spec], store=store_dir)
        assert runner.last_dispatch_stats["run_store"]["cells_cached"] == 4
        cold = ExperimentRunner(workers=1).run_grid([spec], store=False)
        assert warm.matches(cold)
