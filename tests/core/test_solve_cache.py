"""Tests for the content-addressable MDP solve cache.

Covers the cache itself (keying, FIFO bound, disk round trip, counters), its
integration into :class:`~repro.core.caching_mdp.MDPCachingPolicy`
(identical decisions with and without the cache), and the headline
property the runtime relies on: a weight sweep performs exactly one exact
per-RSU solve per distinct MDP, within a process and across processes (via
the disk layer).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import caching_mdp, solve_cache
from repro.core.caching_mdp import ContentUpdateMDP, MDPCachingPolicy
from repro.core.solve_cache import SolveCache, solve_key
from repro.core.solvers import value_iteration
from repro.exceptions import ValidationError
from repro.sim.scenario import ScenarioConfig
from repro.sim import CacheSimulator


@pytest.fixture
def isolated_cache(tmp_path):
    """Swap the global solve cache for a fresh one in a temp directory."""
    cache = solve_cache.configure_solve_cache(
        directory=str(tmp_path / "solves")
    )
    yield cache
    solve_cache.reset_solve_cache()


def small_solver_result(seed_param: float = 3.0):
    mdp = ContentUpdateMDP(
        max_age=seed_param, popularity=0.5, update_cost=1.0
    )
    return value_iteration(mdp, discount=0.9, tolerance=1e-9)


class TestSolveKey:
    def test_deterministic(self):
        a = solve_key("content", max_age=3.0, cost=1.25)
        b = solve_key("content", cost=1.25, max_age=3.0)
        assert a == b

    def test_sensitive_to_params_and_kind(self):
        base = solve_key("content", max_age=3.0)
        assert solve_key("content", max_age=3.0000001) != base
        assert solve_key("rsu", max_age=3.0) != base
        assert solve_key("content", max_age=3.0, extra=None) != base

    def test_arrays_and_tuples_canonicalise(self):
        assert solve_key("k", v=np.asarray([1.0, 2.0])) == solve_key(
            "k", v=(1.0, 2.0)
        )

    def test_unsupported_type_rejected(self):
        with pytest.raises(ValidationError):
            solve_key("k", v=object())


class TestSolveCache:
    def test_memory_roundtrip_counts_hits_and_misses(self, tmp_path):
        cache = SolveCache(directory=str(tmp_path))
        result = small_solver_result()
        assert cache.get("k") is None
        cache.put("k", result)
        got = cache.get("k")
        assert got is result
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_disk_roundtrip_is_bit_identical(self, tmp_path):
        writer = SolveCache(directory=str(tmp_path))
        result = small_solver_result()
        writer.put("k", result)
        reader = SolveCache(directory=str(tmp_path))
        loaded = reader.get("k")
        assert reader.stats.disk_hits == 1
        assert np.array_equal(loaded.values, result.values)
        assert np.array_equal(loaded.policy, result.policy)
        assert np.array_equal(loaded.q_values, result.q_values)
        assert loaded.iterations == result.iterations
        assert loaded.converged == result.converged
        assert loaded.residual == result.residual
        assert loaded.history == result.history

    def test_fifo_bound_evicts_oldest(self, tmp_path):
        cache = SolveCache(capacity=2, directory=str(tmp_path))
        result = small_solver_result()
        cache.put("a", result, persist=False)
        cache.put("b", result, persist=False)
        cache.put("c", result, persist=False)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get("a") is None  # evicted, not persisted
        assert cache.get("c") is not None

    def test_memory_only_cache(self):
        cache = SolveCache(directory=None)
        cache.put("k", small_solver_result())
        assert cache.get("k") is not None
        fresh = SolveCache(directory=None)
        assert fresh.get("k") is None

    def test_clear_disk(self, tmp_path):
        cache = SolveCache(directory=str(tmp_path))
        cache.put("k", small_solver_result())
        cache.clear(disk=True)
        assert len(cache) == 0
        assert SolveCache(directory=str(tmp_path)).get("k") is None

    def test_corrupted_entry_treated_as_miss(self, tmp_path):
        cache = SolveCache(directory=str(tmp_path))
        (tmp_path / "bad.npz").write_bytes(b"not an npz payload")
        assert cache.get("bad") is None


class TestPolicySolveCache:
    """A cold, a warm and a disabled solve cache give identical trajectories."""

    def test_solve_cache_does_not_change_decisions(self, isolated_cache):
        config = ScenarioConfig.fig1a(seed=3).with_overrides(num_slots=40)
        with_cache = CacheSimulator(
            config, MDPCachingPolicy(config.build_mdp_config())
        ).run()
        # Second policy hits the cache for every solve; trajectories must
        # still be bit-identical.
        cached = CacheSimulator(
            config, MDPCachingPolicy(config.build_mdp_config())
        ).run()
        without = CacheSimulator(
            config,
            MDPCachingPolicy(config.build_mdp_config(), use_solve_cache=False),
        ).run()
        assert with_cache.summary() == cached.summary() == without.summary()
        assert np.array_equal(
            with_cache.metrics.age_matrix_history(),
            cached.metrics.age_matrix_history(),
        )
        assert np.array_equal(
            with_cache.metrics.age_matrix_history(),
            without.metrics.age_matrix_history(),
        )


class TestSweepSolveSharing:
    """ScenarioConfig.small runs every RSU through the exact per-RSU MDP, the
    solves that go through the cache."""

    @pytest.fixture
    def exact_solves(self, monkeypatch):
        """Count the value-iteration calls of exact per-RSU solves."""
        solved = []

        def counting(mdp, **kwargs):
            solved.append(type(mdp).__name__)
            return value_iteration(mdp, **kwargs)

        monkeypatch.setattr(caching_mdp, "value_iteration", counting)
        return solved

    def test_weight_sweep_solves_each_distinct_mdp_once(
        self, isolated_cache, exact_solves
    ):
        from repro.analysis.sweep import weight_sweep

        config = ScenarioConfig.small(seed=2, num_slots=20)
        first = weight_sweep([0.5, 2.0], config=config, num_seeds=2, workers=1)
        first_misses = isolated_cache.stats.misses
        assert first_misses > 0
        # One solve and one store per miss == exactly one solve per
        # distinct MDP, and every one of them an exact per-RSU solve.
        assert exact_solves == ["RSUCachingMDP"] * first_misses
        assert isolated_cache.stats.stores == first_misses
        # Re-running the identical sweep re-solves nothing.
        second = weight_sweep([0.5, 2.0], config=config, num_seeds=2, workers=1)
        assert second == first
        assert isolated_cache.stats.misses == first_misses
        assert isolated_cache.stats.hits > 0
        assert len(exact_solves) == first_misses

    def test_disk_layer_shares_solves_across_processes(
        self, isolated_cache, exact_solves
    ):
        from repro.analysis.sweep import weight_sweep

        config = ScenarioConfig.small(seed=2, num_slots=20)
        weight_sweep([0.5, 2.0], config=config, num_seeds=2, workers=1)
        distinct = isolated_cache.stats.misses
        # A fresh cache over the same directory models a new process: every
        # exact solve is answered from disk, none is recomputed.
        fresh = solve_cache.configure_solve_cache(
            directory=isolated_cache.directory
        )
        weight_sweep([0.5, 2.0], config=config, num_seeds=2, workers=1)
        assert fresh.stats.misses == 0
        assert fresh.stats.disk_hits == distinct
        assert len(exact_solves) == distinct

    def test_changed_parameters_re_solve(self, isolated_cache, exact_solves):
        from repro.analysis.sweep import weight_sweep

        config = ScenarioConfig.small(seed=2, num_slots=20)
        weight_sweep([0.5], config=config, workers=1)
        before = isolated_cache.stats.misses
        # A new weight is a different MDP: it must miss (and only it).
        weight_sweep([0.75], config=config, workers=1)
        assert isolated_cache.stats.misses > before
        assert len(exact_solves) == isolated_cache.stats.misses


class TestDisableEnvSpellings:
    """REPRO_SOLVE_CACHE falsey spellings must all disable disk persistence."""

    @pytest.mark.parametrize(
        "value", ["0", "false", "False", "FALSE", "no", "No", "off", "OFF", "", "  "]
    )
    def test_falsey_spellings_disable_disk(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SOLVE_CACHE", value)
        assert solve_cache.default_directory() is None

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", "enabled"])
    def test_truthy_spellings_keep_disk_enabled(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SOLVE_CACHE", value)
        monkeypatch.delenv("REPRO_SOLVE_CACHE_DIR", raising=False)
        assert solve_cache.default_directory() == solve_cache.DEFAULT_DIRECTORY

    def test_unset_keeps_disk_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVE_CACHE", raising=False)
        monkeypatch.delenv("REPRO_SOLVE_CACHE_DIR", raising=False)
        assert solve_cache.default_directory() == solve_cache.DEFAULT_DIRECTORY

    def test_disabled_global_cache_stays_memory_only(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SOLVE_CACHE", "off")
        monkeypatch.setenv("REPRO_SOLVE_CACHE_DIR", str(tmp_path / "solves"))
        solve_cache.reset_solve_cache()
        try:
            cache = solve_cache.global_solve_cache()
            cache.put(solve_key("k", x=1.0), small_solver_result())
            assert not (tmp_path / "solves").exists()
        finally:
            solve_cache.reset_solve_cache()
