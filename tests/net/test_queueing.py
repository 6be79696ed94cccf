"""Tests for the backlog queue of repro.net.queueing and the test oracle's
per-RSU request queues (oracle.objects.RequestQueue)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle.objects import RequestQueue
from repro.exceptions import QueueError, ValidationError
from repro.net.queueing import BacklogQueue
from repro.net.requests import Request


def request(request_id: int, time_slot: int = 0, rsu_id: int = 0, deadline=None) -> Request:
    return Request(
        request_id=request_id,
        time_slot=time_slot,
        rsu_id=rsu_id,
        content_id=0,
        deadline=deadline,
    )


class TestRequestQueue:
    def test_enqueue_and_backlog(self):
        queue = RequestQueue(0)
        queue.enqueue(request(0))
        queue.enqueue(request(1))
        assert queue.backlog == 2
        assert not queue.is_empty

    def test_wrong_rsu_rejected(self):
        queue = RequestQueue(0)
        with pytest.raises(QueueError):
            queue.enqueue(request(0, rsu_id=1))

    def test_fifo_service_order(self):
        queue = RequestQueue(0)
        for index in range(3):
            queue.enqueue(request(index, index))
        served = queue.serve(time_slot=5, count=2)
        assert [s.request.request_id for s in served] == [0, 1]
        assert queue.backlog == 1

    def test_waiting_time_recorded(self):
        queue = RequestQueue(0)
        queue.enqueue(request(0, time_slot=2))
        (record,) = queue.serve(time_slot=7)
        assert record.waiting_slots == 5
        assert not record.expired

    def test_serve_more_than_backlog(self):
        queue = RequestQueue(0)
        queue.enqueue(request(0))
        served = queue.serve(time_slot=1, count=5)
        assert len(served) == 1
        assert queue.is_empty

    def test_serve_negative_count_rejected(self):
        with pytest.raises(QueueError):
            RequestQueue(0).serve(time_slot=0, count=-1)

    def test_total_waiting(self):
        queue = RequestQueue(0)
        queue.enqueue(request(0, time_slot=0))
        queue.enqueue(request(1, time_slot=2))
        assert queue.total_waiting(4) == (4 - 0) + (4 - 2)

    def test_total_waiting_empty_queue(self):
        assert RequestQueue(0).total_waiting(10) == 0

    def test_max_length_drops_excess(self):
        queue = RequestQueue(0, max_length=2)
        accepted = [queue.enqueue(request(i)) for i in range(4)]
        assert accepted == [True, True, False, False]
        assert queue.backlog == 2

    def test_expire_removes_overdue_requests(self):
        queue = RequestQueue(0)
        queue.enqueue(request(0, time_slot=0, deadline=2))
        queue.enqueue(request(1, time_slot=0, deadline=9))
        expired = queue.expire(time_slot=5)
        assert len(expired) == 1
        assert expired[0].expired
        assert queue.backlog == 1

    def test_expire_keeps_requests_without_deadline(self):
        queue = RequestQueue(0)
        queue.enqueue(request(0))
        assert queue.expire(time_slot=100) == []
        assert queue.backlog == 1

    def test_head_and_clear(self):
        queue = RequestQueue(0)
        assert queue.head() is None
        queue.enqueue(request(7))
        assert queue.head().request_id == 7
        queue.clear()
        assert queue.is_empty


class TestBacklogQueue:
    def test_lindley_recursion(self):
        queue = BacklogQueue()
        queue.step(arrivals=3.0, departures=0.0)
        queue.step(arrivals=1.0, departures=2.0)
        assert queue.backlog == pytest.approx(2.0)

    def test_departures_truncated_at_zero(self):
        queue = BacklogQueue(initial_backlog=1.0)
        queue.step(arrivals=0.0, departures=5.0)
        assert queue.backlog == 0.0

    def test_history_includes_initial_value(self):
        queue = BacklogQueue(initial_backlog=2.0)
        queue.step(1.0, 0.0)
        np.testing.assert_allclose(queue.history, [2.0, 3.0])

    def test_negative_arrivals_rejected(self):
        with pytest.raises(ValidationError):
            BacklogQueue().step(-1.0, 0.0)

    def test_negative_departures_rejected(self):
        with pytest.raises(ValidationError):
            BacklogQueue().step(0.0, -1.0)

    def test_stability_detects_growth(self):
        growing = BacklogQueue()
        for _ in range(100):
            growing.step(arrivals=1.0, departures=0.0)
        assert not growing.is_stable()

    def test_stability_accepts_bounded_queue(self):
        bounded = BacklogQueue()
        for t in range(100):
            bounded.step(arrivals=1.0, departures=1.0)
        assert bounded.is_stable()

    def test_reset(self):
        queue = BacklogQueue()
        queue.step(5.0, 0.0)
        queue.reset(initial_backlog=1.0)
        assert queue.backlog == 1.0
        assert queue.history.shape == (1,)

    def test_short_history_considered_stable(self):
        queue = BacklogQueue()
        queue.step(100.0, 0.0)
        assert queue.is_stable()

    @given(
        steps=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0),
                st.floats(min_value=0.0, max_value=5.0),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_backlog_never_negative(self, steps):
        queue = BacklogQueue()
        for arrivals, departures in steps:
            queue.step(arrivals, departures)
            assert queue.backlog >= 0.0

    @given(
        steps=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0),
                st.floats(min_value=0.0, max_value=5.0),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_flow_conservation(self, steps):
        queue = BacklogQueue()
        arrived = departed = 0.0
        for arrivals, departures in steps:
            departed += min(queue.backlog, departures)
            arrived += arrivals
            queue.step(arrivals, departures)
        assert queue.backlog == pytest.approx(arrived - departed)
