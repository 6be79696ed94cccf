"""Lazy streaming replay of :class:`TraceWorkload`: bounded memory,
reorder windows, and backward access.

The replay must never materialise the trace: the internal buffer stays
within the file's measured slot disorder, sequential access streams
forward, and backward jumps reopen the file — all while producing
exactly the batches a materialised read would.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.net.content import ContentCatalog
from repro.net.requests import BernoulliArrivals
from repro.net.topology import RoadTopology
from repro.workloads import create_workload
from repro.workloads.codec import group_record_batches
from repro.workloads.trace import read_trace


@pytest.fixture
def topology():
    return RoadTopology(8, 4)


@pytest.fixture
def catalog():
    return ContentCatalog.random(8, rng=1)


def content_for(topology, rsu_id, index=0):
    """The *index*-th content actually placed on RSU *rsu_id*."""
    contents = sorted(topology.rsus[rsu_id].covered_regions)
    return int(contents[index % len(contents)])


def build_trace(path, topology, slots_rsus, num_slots=None):
    """Write a JSONL trace of ``(t, rsu)`` pairs with valid contents."""
    with open(path, "w", encoding="utf-8") as handle:
        if num_slots is not None:
            handle.write(json.dumps({"meta": {"num_slots": num_slots}}) + "\n")
        for index, (t, rsu) in enumerate(slots_rsus):
            content = content_for(topology, rsu, index)
            handle.write(
                json.dumps({"t": t, "rsu": rsu, "content": content}) + "\n"
            )


def replay_workload(path, topology, catalog, **params):
    spec = "trace:path=" + path
    if params:
        spec += "," + ",".join(f"{k}={v}" for k, v in params.items())
    return create_workload(
        spec, topology, catalog, arrivals=BernoulliArrivals(0.9), rng=3
    )


def expected_batches(path, time_slot, num_slots=None):
    records, _ = read_trace(path)
    pairs = [
        (rsu, content)
        for t, rsu, content in records
        if t == time_slot and (num_slots is None or t < num_slots)
    ]
    return group_record_batches(pairs)


def assert_batches_equal(actual, expected):
    assert len(actual) == len(expected)
    for (rsu_a, contents_a), (rsu_e, contents_e) in zip(actual, expected):
        assert rsu_a == rsu_e
        assert np.array_equal(contents_a, contents_e)


class TestStreamingReplay:
    def test_sorted_trace_has_zero_reorder_window(self, tmp_path, topology, catalog):
        path = str(tmp_path / "sorted.jsonl")
        build_trace(path, topology, [(0, 0), (1, 1), (3, 0)], num_slots=5)
        replay = replay_workload(path, topology, catalog)
        assert replay._window == 0

    def test_disorder_is_measured_not_assumed(self, tmp_path, topology, catalog):
        path = str(tmp_path / "messy.jsonl")
        # Slot 0 trails slot 3: the reorder window must be 3.
        build_trace(path, topology, [(3, 0), (0, 1), (2, 0), (1, 0)])
        replay = replay_workload(path, topology, catalog)
        assert replay._window == 3
        for t in range(replay.trace_slots):
            assert_batches_equal(
                replay.generate_slot_contents(t), expected_batches(path, t)
            )

    def test_buffer_stays_within_the_reorder_window(self, tmp_path, topology, catalog):
        # A long sorted trace: after each slot, the replay buffer must
        # hold at most the window's worth of future slots — streaming,
        # not materialising.
        path = str(tmp_path / "long.jsonl")
        build_trace(path, topology, [(t, t % 4) for t in range(500)])
        replay = replay_workload(path, topology, catalog)
        for t in range(replay.trace_slots):
            replay.generate_slot_contents(t)
            assert len(replay._buffer) <= replay._window + 1

    def test_backward_access_reopens_and_matches(self, tmp_path, topology, catalog):
        path = str(tmp_path / "trace.jsonl")
        build_trace(
            path, topology, [(0, 0), (1, 1), (2, 0), (2, 1), (4, 0)], num_slots=6
        )
        replay = replay_workload(path, topology, catalog)
        forward = [replay.generate_slot_contents(t) for t in range(6)]
        # Jump backwards (reopens the file), then spot-check random order.
        for t in (2, 0, 4, 1, 5, 3):
            assert_batches_equal(replay.generate_slot_contents(t), forward[t])

    def test_repeated_same_slot_access(self, tmp_path, topology, catalog):
        path = str(tmp_path / "trace.jsonl")
        build_trace(path, topology, [(0, 0), (1, 1)], num_slots=3)
        replay = replay_workload(path, topology, catalog)
        first = replay.generate_slot_contents(1)
        again = replay.generate_slot_contents(1)
        assert_batches_equal(again, first)

    def test_num_slots_truncation_drops_tail_records(self, tmp_path, topology, catalog):
        path = str(tmp_path / "trace.jsonl")
        build_trace(path, topology, [(0, 0), (1, 1), (7, 0)])
        replay = replay_workload(path, topology, catalog, num_slots=2)
        assert replay.trace_slots == 2
        for t in range(2):
            assert_batches_equal(
                replay.generate_slot_contents(t), expected_batches(path, t)
            )

    def test_generate_horizon_matches_slotwise_access(self, tmp_path, topology, catalog):
        path = str(tmp_path / "trace.jsonl")
        build_trace(path, topology, [(1, 0), (0, 1), (3, 0), (2, 1)], num_slots=4)
        replay = replay_workload(path, topology, catalog)
        horizon = replay.generate_horizon(4)
        for t in range(4):
            assert_batches_equal(
                horizon.slot_batches(t), replay.generate_slot_contents(t)
            )
