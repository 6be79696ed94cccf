"""Unit tests for repro.runtime.store (the persistent run store).

The store's contract is simple to state and easy to get subtly wrong: a
hit must be bit-identical to the run it replaced, a key must identify the
run configuration and nothing else (labels are presentation, not
identity), and anything the store cannot address or reproduce exactly
must bypass it rather than risk a wrong answer.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ValidationError
from repro.policies import PolicySpec
from repro.runtime.runner import RunRecord, RunSpec
from repro.runtime.store import (
    DEFAULT_DIRECTORY,
    RunStore,
    cell_key,
    resolve_store,
    spec_payload,
)
from repro.sim.scenario import ScenarioConfig


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_RUN_STORE", raising=False)
    monkeypatch.delenv("REPRO_RUN_STORE_DIR", raising=False)


@pytest.fixture(scope="module")
def tiny_scenario():
    return ScenarioConfig.small(seed=11, num_slots=30)


def make_spec(tiny_scenario, *, policy="periodic", label="a", **overrides):
    fields = dict(
        kind="cache", scenario=tiny_scenario, policy=policy, seed=7, label=label
    )
    fields.update(overrides)
    return RunSpec(**fields)


def make_record(spec, seed, *, value=1.25, trace=True):
    return RunRecord(
        label=spec.label,
        seed=int(seed),
        kind=spec.kind,
        summary={"total_reward": value, "policy": str(spec.policy)},
        trace=np.linspace(0.0, value, 5) if trace else None,
    )


class TestCellKeys:
    def test_key_is_deterministic(self, tiny_scenario):
        spec = make_spec(tiny_scenario)
        assert cell_key(spec, 3) == cell_key(spec, 3)

    def test_seed_enters_the_key(self, tiny_scenario):
        spec = make_spec(tiny_scenario)
        assert cell_key(spec, 3) != cell_key(spec, 4)

    def test_label_does_not_enter_the_key(self, tiny_scenario):
        a = make_spec(tiny_scenario, label="a")
        b = make_spec(tiny_scenario, label="completely-different")
        assert cell_key(a, 3) == cell_key(b, 3)

    def test_scenario_seed_is_neutralised(self, tiny_scenario):
        # The run seed is what executes; the scenario's own seed must not
        # split otherwise-identical cells.
        reseeded = tiny_scenario.with_overrides(seed=99)
        a = make_spec(tiny_scenario)
        b = make_spec(reseeded)
        assert cell_key(a, 3) == cell_key(b, 3)

    def test_policy_parameters_enter_the_key(self, tiny_scenario):
        a = make_spec(tiny_scenario, policy="periodic:period=2")
        b = make_spec(tiny_scenario, policy="periodic:period=3")
        assert cell_key(a, 3) != cell_key(b, 3)

    def test_horizon_enters_the_key(self, tiny_scenario):
        a = make_spec(tiny_scenario)
        b = make_spec(tiny_scenario, num_slots=25)
        assert cell_key(a, 3) != cell_key(b, 3)

    def test_opaque_policy_is_unaddressable(self, tiny_scenario):
        from repro.baselines.caching import PeriodicUpdatePolicy

        spec = make_spec(tiny_scenario, policy=PeriodicUpdatePolicy(period=2))
        assert spec_payload(spec) is None
        assert cell_key(spec, 3) is None

    def test_policy_spec_and_name_agree(self, tiny_scenario):
        by_name = make_spec(tiny_scenario, policy="periodic:period=2")
        by_spec = make_spec(
            tiny_scenario, policy=PolicySpec("periodic", {"period": 2})
        )
        assert cell_key(by_name, 3) == cell_key(by_spec, 3)

    def test_metrics_mode_enters_the_key(self, tiny_scenario):
        # Conservative: summary-mode output is byte-identical, but traces
        # and memory behaviour differ, so the key keeps them apart.
        a = make_spec(tiny_scenario, metrics="full")
        b = make_spec(tiny_scenario, metrics="summary")
        assert cell_key(a, 3) != cell_key(b, 3)


class TestRoundTrip:
    def test_put_get_is_bit_identical(self, tiny_scenario, tmp_path):
        spec = make_spec(tiny_scenario)
        record = make_record(spec, 3)
        with RunStore(str(tmp_path / "runs")) as store:
            assert store.put(spec, 3, record)
            loaded = store.get(spec, 3)
        assert loaded is not None
        assert loaded.matches(record)
        assert loaded.trace.dtype == record.trace.dtype

    def test_float_summaries_roundtrip_repr_exact(self, tiny_scenario, tmp_path):
        spec = make_spec(tiny_scenario)
        value = 0.1 + 0.2  # classic repr-sensitive float
        record = make_record(spec, 3, value=value, trace=False)
        with RunStore(str(tmp_path / "runs")) as store:
            store.put(spec, 3, record)
            loaded = store.get(spec, 3)
        assert loaded.summary["total_reward"] == value

    def test_summary_key_order_is_preserved(self, tiny_scenario, tmp_path):
        # Aggregate column order follows summary insertion order; a store
        # hit must not silently alphabetise it.
        spec = make_spec(tiny_scenario)
        record = RunRecord(
            label=spec.label,
            seed=3,
            kind=spec.kind,
            summary={"zebra": 1.0, "alpha": 2.0, "mid": 3.0},
        )
        with RunStore(str(tmp_path / "runs")) as store:
            store.put(spec, 3, record)
            loaded = store.get(spec, 3)
        assert list(loaded.summary) == ["zebra", "alpha", "mid"]

    def test_get_uses_requesting_label_and_kind(self, tiny_scenario, tmp_path):
        spec = make_spec(tiny_scenario, label="original")
        record = make_record(spec, 3)
        relabelled = make_spec(tiny_scenario, label="renamed")
        with RunStore(str(tmp_path / "runs")) as store:
            store.put(spec, 3, record)
            loaded = store.get(relabelled, 3)
        assert loaded is not None
        assert loaded.label == "renamed"

    def test_missing_cell_is_a_miss(self, tiny_scenario, tmp_path):
        spec = make_spec(tiny_scenario)
        with RunStore(str(tmp_path / "runs")) as store:
            assert store.get(spec, 3) is None
            assert store.stats.misses == 1
            assert store.stats.hits == 0

    def test_opaque_spec_bypasses_the_store(self, tiny_scenario, tmp_path):
        from repro.baselines.caching import PeriodicUpdatePolicy

        spec = make_spec(tiny_scenario, policy=PeriodicUpdatePolicy(period=2))
        record = make_record(spec, 3)
        with RunStore(str(tmp_path / "runs")) as store:
            assert not store.put(spec, 3, record)
            assert store.get(spec, 3) is None
            assert len(store) == 0

    def test_traceless_record_roundtrips(self, tiny_scenario, tmp_path):
        spec = make_spec(tiny_scenario, kind="joint", policy="periodic",
                         service_policy="lyapunov")
        record = make_record(spec, 3, trace=False)
        with RunStore(str(tmp_path / "runs")) as store:
            store.put(spec, 3, record)
            loaded = store.get(spec, 3)
        assert loaded.matches(record)
        assert loaded.trace is None

    def test_upsert_replaces_the_cell(self, tiny_scenario, tmp_path):
        spec = make_spec(tiny_scenario)
        with RunStore(str(tmp_path / "runs")) as store:
            store.put(spec, 3, make_record(spec, 3, value=1.0))
            store.put(spec, 3, make_record(spec, 3, value=2.0))
            assert len(store) == 1
            assert store.get(spec, 3).summary["total_reward"] == 2.0


class TestStatsAndMaintenance:
    def test_session_counters(self, tiny_scenario, tmp_path):
        spec = make_spec(tiny_scenario)
        with RunStore(str(tmp_path / "runs")) as store:
            store.get(spec, 3)
            store.put(spec, 3, make_record(spec, 3))
            store.get(spec, 3)
            stats = store.stats
            assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
            assert stats.lookups == 2
            assert stats.hit_rate == 0.5
            assert store.store_stats()["cells"] == 1

    def test_rows_filtering(self, tiny_scenario, tmp_path):
        cells = [
            ("fig1a", "periodic:period=2", 0),
            ("fig1a", "periodic:period=2", 1),
            # Distinct configuration: same label+seed would otherwise share
            # a cell key with fig1a (labels are not part of the identity).
            ("fig1b", "periodic:period=3", 0),
        ]
        with RunStore(str(tmp_path / "runs")) as store:
            for label, policy, seed in cells:
                spec = make_spec(tiny_scenario, label=label, policy=policy)
                store.put(spec, seed, make_record(spec, seed))
            assert len(store.rows()) == 3
            assert len(store.rows(label="fig1a")) == 2
            assert len(store.rows(label="fig1*")) == 3
            assert len(store.rows(kind="service")) == 0
            assert len(store.rows(limit=2)) == 2
            row = store.rows(label="fig1b")[0]
            assert row["label"] == "fig1b"
            assert row["kind"] == "cache"
            assert "total_reward" in row and "package_version" in row

    def test_clear_removes_cells_and_blobs(self, tiny_scenario, tmp_path):
        spec = make_spec(tiny_scenario)
        with RunStore(str(tmp_path / "runs")) as store:
            store.put(spec, 3, make_record(spec, 3))
            assert store.clear() == 1
            assert len(store) == 0
            assert not any(
                name.endswith(".npz") for name in os.listdir(store.blob_directory)
            )

    def test_vacuum_collects_orphans(self, tiny_scenario, tmp_path):
        spec = make_spec(tiny_scenario)
        with RunStore(str(tmp_path / "runs")) as store:
            store.put(spec, 3, make_record(spec, 3))
            orphan = os.path.join(store.blob_directory, "deadbeef.npz")
            stale = os.path.join(store.blob_directory, "crashed.tmp")
            for path in (orphan, stale):
                with open(path, "wb") as handle:
                    handle.write(b"junk")
            report = store.vacuum()
            assert report == {"orphan_blobs": 1, "stale_tmp_files": 1}
            assert not os.path.exists(orphan)
            assert not os.path.exists(stale)
            # The live cell survived the vacuum.
            assert store.get(spec, 3) is not None


class TestResolveStore:
    def test_none_without_env_is_off(self):
        assert resolve_store(None) is None

    def test_none_with_env_opt_in(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUN_STORE_DIR", str(tmp_path / "runs"))
        store = resolve_store(None)
        assert store is not None
        assert store.directory == str(tmp_path / "runs")
        store.close()

    def test_false_always_disables(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUN_STORE_DIR", str(tmp_path / "runs"))
        assert resolve_store(False) is None

    def test_true_opens_default_location(self):
        store = resolve_store(True)
        assert store is not None
        assert store.directory == DEFAULT_DIRECTORY
        store.close()

    def test_true_honours_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_STORE", "0")
        assert resolve_store(True) is None

    def test_directory_string(self, tmp_path):
        store = resolve_store(str(tmp_path / "runs"))
        assert store.directory == str(tmp_path / "runs")
        store.close()

    def test_instance_passes_through(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        assert resolve_store(store) is store
        store.close()

    def test_invalid_type_rejected(self):
        with pytest.raises(ValidationError):
            resolve_store(42)

    def test_constructor_requires_enabled_env(self):
        with pytest.raises(ValidationError):
            RunStore()  # opt-in env is unset

    def test_database_created_lazily(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        # Construction alone must not touch the filesystem.
        assert not os.path.exists(store.directory)
        store.close()


class TestMultihopCells:
    """Multihop runs must address distinct cells and round-trip exactly."""

    def test_kind_enters_the_key(self, tiny_scenario):
        cache = make_spec(tiny_scenario, policy="mdp")
        multihop = make_spec(tiny_scenario, policy="mdp", kind="multihop")
        assert cell_key(cache, 3) is not None
        assert cell_key(cache, 3) != cell_key(multihop, 3)

    def test_topology_kind_enters_the_key(self, tiny_scenario):
        star = make_spec(
            tiny_scenario.with_overrides(topology_kind="star"),
            policy="lce",
            kind="multihop",
        )
        ring = make_spec(
            tiny_scenario.with_overrides(topology_kind="ring"),
            policy="lce",
            kind="multihop",
        )
        assert cell_key(star, 3) != cell_key(ring, 3)

    def test_onpath_policy_is_addressable(self, tiny_scenario):
        spec = make_spec(
            tiny_scenario, policy="probcache:t_tw=10", kind="multihop"
        )
        assert spec_payload(spec) is not None
        assert cell_key(spec, 3) is not None

    def test_onpath_parameters_enter_the_key(self, tiny_scenario):
        a = make_spec(tiny_scenario, policy="probcache:t_tw=10", kind="multihop")
        b = make_spec(tiny_scenario, policy="probcache:t_tw=20", kind="multihop")
        assert cell_key(a, 3) != cell_key(b, 3)

    def test_onpath_policy_unaddressable_under_cache_kind(self, tiny_scenario):
        # Role coercion still applies outside multihop: an on-path name is
        # not a caching policy, so the spec is rejected before it can key a
        # cell (or reach a simulator).
        with pytest.raises(ConfigurationError, match="caching policy is required"):
            make_spec(tiny_scenario, policy="lce")

    def test_round_trip(self, tmp_path, tiny_scenario):
        spec = make_spec(tiny_scenario, policy="lce", kind="multihop")
        record = RunRecord(
            label=spec.label,
            seed=3,
            kind="multihop",
            summary={"hit_ratio": 0.5, "mean_hops": 1.25, "policy": "lce"},
            trace=np.linspace(0.0, 9.0, 7),
        )
        with RunStore(str(tmp_path / "runs")) as store:
            store.put(spec, 3, record)
            loaded = store.get(spec, 3)
        assert loaded is not None
        assert loaded.matches(record)
