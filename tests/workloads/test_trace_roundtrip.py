"""Trace export/replay round trips and trace-file error handling."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.lyapunov import LyapunovServiceController
from repro.exceptions import ConfigurationError, ValidationError
from repro.net.content import ContentCatalog
from repro.net.requests import BernoulliArrivals
from repro.net.topology import RoadTopology
from repro.sim.scenario import ScenarioConfig
from repro.sim import ServiceSimulator
from repro.workloads import (
    TraceWorkload,
    create_workload,
    export_trace,
    read_trace,
    write_trace,
)


@pytest.fixture
def topology():
    return RoadTopology(8, 4)


@pytest.fixture
def catalog():
    return ContentCatalog.random(8, rng=1)


def build(spec_text, topology, catalog, *, rng=3):
    return create_workload(
        spec_text, topology, catalog, arrivals=BernoulliArrivals(0.9), rng=rng
    )


def assert_same_slots(expected_model, replay, num_slots):
    for t in range(num_slots):
        expected = expected_model.generate_slot_contents(t)
        actual = replay.generate_slot_contents(t)
        assert len(expected) == len(actual), t
        for (r1, c1), (r2, c2) in zip(expected, actual):
            assert r1 == r2
            assert np.array_equal(c1, c2)


class TestRoundTrip:
    @pytest.mark.parametrize("extension", ["jsonl", "csv"])
    def test_file_round_trip(self, tmp_path, topology, catalog, extension):
        path = str(tmp_path / f"trace.{extension}")
        model = build("drift:period=10", topology, catalog)
        written = export_trace(model, 30, path)
        records, declared = read_trace(path)
        assert len(records) == written
        if extension == "jsonl":
            assert declared == 30
        replay = create_workload(f"trace:path={path}", topology, catalog)
        assert_same_slots(build("drift:period=10", topology, catalog), replay, 30)

    @pytest.mark.parametrize(
        "spec_text",
        ["stationary", "flash-crowd:burst_prob=0.3,duration=4",
         "shot-noise:event_rate=0.2"],
    )
    def test_every_synthetic_model_replays(self, tmp_path, topology, catalog, spec_text):
        path = str(tmp_path / "trace.jsonl")
        export_trace(build(spec_text, topology, catalog), 25, path)
        replay = create_workload(f"trace:path={path}", topology, catalog)
        assert_same_slots(build(spec_text, topology, catalog), replay, 25)

    def test_replayed_trace_reproduces_simulator_metrics(self, tmp_path):
        # Export the fig1b workload, replay it, and require the *identical*
        # service metrics — the acceptance criterion of the trace model.
        from repro.sim import SystemState

        config = ScenarioConfig.fig1b(seed=0).with_overrides(num_slots=80)
        path = str(tmp_path / "fig1b.jsonl")
        export_trace(SystemState(config).workload, 80, path)
        direct = ServiceSimulator(
            config, LyapunovServiceController(config.tradeoff_v)
        ).run()
        replayed = ServiceSimulator(
            config.with_overrides(workload=f"trace:path={path}"),
            LyapunovServiceController(config.tradeoff_v),
        ).run()
        assert np.array_equal(
            direct.metrics.latency_history(), replayed.metrics.latency_history()
        )
        assert np.array_equal(
            direct.metrics.backlog_history(), replayed.metrics.backlog_history()
        )
        assert direct.summary() == replayed.summary()

    def test_empirical_popularity_reflects_the_trace(self, tmp_path, topology, catalog):
        path = str(tmp_path / "trace.jsonl")
        hot = topology.rsus[0].covered_regions[0]
        requests = build("stationary", topology, catalog).generate_trace(10)
        write_trace(path, requests, num_slots=10)
        replay = create_workload(f"trace:path={path}", topology, catalog)
        population = replay.content_population(0)
        total = sum(
            1 for r in requests if r.rsu_id == 0
        )
        if total:
            expected = (
                sum(1 for r in requests if r.rsu_id == 0 and r.content_id == hot)
                / total
            )
            assert population[hot] == pytest.approx(expected)


class TestTraceErrors:
    def test_missing_file_rejected(self, topology, catalog):
        with pytest.raises(ConfigurationError, match="not found"):
            create_workload("trace:path=/does/not/exist.jsonl", topology, catalog)

    def test_beyond_horizon_rejected(self, tmp_path, topology, catalog):
        path = str(tmp_path / "trace.jsonl")
        export_trace(build("stationary", topology, catalog), 10, path)
        replay = create_workload(f"trace:path={path}", topology, catalog)
        assert replay.trace_slots == 10
        with pytest.raises(ValidationError, match="beyond the trace horizon"):
            replay.generate_slot_contents(10)

    def test_num_slots_override_extends_with_empty_slots(
        self, tmp_path, topology, catalog
    ):
        path = str(tmp_path / "trace.jsonl")
        export_trace(build("stationary", topology, catalog), 10, path)
        replay = create_workload(
            f"trace:path={path},num_slots=15", topology, catalog
        )
        assert replay.trace_slots == 15
        assert replay.generate_slot_contents(14) == []

    def test_unknown_rsu_rejected(self, tmp_path, topology, catalog):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"t": 0, "rsu": 99, "content": 0}) + "\n")
        with pytest.raises(ConfigurationError, match="unknown rsu_id"):
            create_workload(f"trace:path={path}", topology, catalog)

    def test_foreign_content_rejected(self, tmp_path, topology, catalog):
        foreign = topology.rsus[1].covered_regions[0]
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"t": 0, "rsu": 0, "content": foreign}) + "\n")
        with pytest.raises(ConfigurationError, match="not cached"):
            create_workload(f"trace:path={path}", topology, catalog)

    def test_malformed_json_rejected(self, tmp_path, topology, catalog):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ConfigurationError, match="malformed"):
            create_workload(f"trace:path={path}", topology, catalog)

    def test_empty_file_without_horizon_rejected(self, tmp_path, topology, catalog):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="empty"):
            create_workload(f"trace:path={path}", topology, catalog)

    def test_unknown_extension_needs_explicit_format(self, tmp_path, topology, catalog):
        path = tmp_path / "trace.dat"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="cannot infer"):
            create_workload(f"trace:path={path}", topology, catalog)

    def test_out_of_order_slots_are_stably_sorted(self, tmp_path, topology, catalog):
        first = topology.rsus[0].covered_regions[0]
        second = topology.rsus[0].covered_regions[1]
        path = tmp_path / "shuffled.jsonl"
        path.write_text(
            "\n".join(
                json.dumps(row)
                for row in [
                    {"t": 1, "rsu": 0, "content": second},
                    {"t": 0, "rsu": 0, "content": first},
                    {"t": 1, "rsu": 0, "content": first},
                ]
            )
            + "\n"
        )
        replay = create_workload(f"trace:path={path}", topology, catalog)
        slot0 = replay.generate_slot_contents(0)
        slot1 = replay.generate_slot_contents(1)
        assert [int(c) for _, ids in slot0 for c in ids] == [first]
        assert [int(c) for _, ids in slot1 for c in ids] == [second, first]
