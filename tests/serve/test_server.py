"""Socket round-trips through the asyncio serving front-end.

Real TCP connections against a :class:`~repro.serve.BackgroundServer`:
the replayed-trace round trip must close to the identical summary an
offline ``simulate()`` produces, malformed lines must not kill the
connection, and every reply must be strict JSON.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.exceptions import SimulationError
from repro.serve import BackgroundServer, ServeClient
from repro.serve.protocol import encode_reply, parse_line, sanitize
from repro.sim.engine import simulate
from repro.sim.scenario import ScenarioConfig
from repro.sim.system import SystemState
from repro.workloads.trace import export_trace

NUM_SLOTS = 25


@pytest.fixture(scope="module")
def trace_env(tmp_path_factory):
    base = ScenarioConfig.small(seed=13)
    path = str(tmp_path_factory.mktemp("serve") / "workload.jsonl")
    export_trace(SystemState(base).workload, NUM_SLOTS, path)
    return base.with_overrides(workload=f"trace:path={path}"), path


class TestServerRoundTrip:
    def test_replayed_trace_matches_offline_simulate(self, trace_env):
        config, path = trace_env
        offline = simulate(
            config, ("myopic", "lyapunov"), num_slots=NUM_SLOTS, metrics="summary"
        )
        with BackgroundServer(config, ("myopic", "lyapunov")) as server:
            with ServeClient(server.host, server.port) as client:
                sent = client.replay(path)
                final = client.close()
        assert sent > 0
        assert final["ok"] is True
        assert final["time_slot"] == NUM_SLOTS  # meta line padded the close
        assert final["requests"] == sent
        assert final["dropped"] == 0 and final["late"] == 0
        assert final["summary"] == offline.summary()

    def test_snapshot_streams_mid_run_aggregates(self, trace_env):
        config, path = trace_env
        with BackgroundServer(config, "lyapunov") as server:
            with ServeClient(server.host, server.port) as client:
                client.ingest(0, 0, 0)
                client.ingest(1, 0, 0)
                snapshot = client.snapshot()
                assert snapshot["op"] == "snapshot"
                # Slot 0 ran (a slot-1 record arrived); slot 1 is pending.
                assert snapshot["time_slot"] == 1
                assert snapshot["pending"] == 1
                client.close()

    def test_sessions_are_per_connection(self, trace_env):
        config, _ = trace_env
        with BackgroundServer(config, "lyapunov") as server:
            with ServeClient(server.host, server.port) as first:
                with ServeClient(server.host, server.port) as second:
                    first.ingest(0, 0, 0)
                    first.ingest(1, 0, 0)
                    assert first.snapshot()["requests"] == 1
                    assert second.snapshot()["requests"] == 0

    def test_server_num_slots_pads_without_meta(self, trace_env):
        config, _ = trace_env
        with BackgroundServer(config, "lyapunov", num_slots=7) as server:
            with ServeClient(server.host, server.port) as client:
                client.ingest(0, 0, 0)
                final = client.close()
        assert final["time_slot"] == 7
        assert final["summary"]["num_slots"] == 7

    def test_ephemeral_port_is_reported(self, trace_env):
        config, _ = trace_env
        with BackgroundServer(config, "mdp", port=0) as server:
            assert server.port > 0


class TestBindTimeSession:
    def test_first_connection_takes_the_bind_time_session(
        self, trace_env, monkeypatch
    ):
        import repro.serve.server as server_module

        config, path = trace_env
        opened = []
        original = server_module.open_session

        def counting_open_session(*args, **kwargs):
            session = original(*args, **kwargs)
            opened.append(session)
            return session

        monkeypatch.setattr(server_module, "open_session", counting_open_session)
        offline = simulate(
            config, ("myopic", "lyapunov"), num_slots=NUM_SLOTS, metrics="summary"
        )
        finals = []
        with BackgroundServer(config, ("myopic", "lyapunov")) as server:
            assert len(opened) == 1  # the bind-time session
            for expected_sessions in (1, 2):
                with ServeClient(server.host, server.port) as client:
                    client.replay(path)
                    finals.append(client.close())
                assert len(opened) == expected_sessions
        assert finals[0] == finals[1]
        assert finals[0]["summary"] == offline.summary()


class TestProtocolErrors:
    def test_malformed_line_keeps_the_connection_alive(self, trace_env):
        config, _ = trace_env
        with BackgroundServer(config, "lyapunov") as server:
            with socket.create_connection((server.host, server.port)) as sock:
                stream = sock.makefile("rwb")
                stream.write(b"not json\n")
                stream.write(b'{"wrong": "shape"}\n')
                stream.write(b'{"op": "reboot"}\n')
                stream.flush()
                replies = [json.loads(stream.readline()) for _ in range(3)]
                assert all(reply["ok"] is False for reply in replies)
                # The connection still works after three bad lines.
                stream.write(b'{"op": "close"}\n')
                stream.flush()
                assert json.loads(stream.readline())["ok"] is True

    def test_invalid_record_earns_an_error_reply(self, trace_env):
        config, _ = trace_env
        with BackgroundServer(config, "lyapunov") as server:
            with socket.create_connection((server.host, server.port)) as sock:
                stream = sock.makefile("rwb")
                stream.write(b'{"t": 0, "rsu": 999, "content": 0}\n')
                stream.write(b'{"op": "snapshot"}\n')
                stream.flush()
                error = json.loads(stream.readline())
                assert error["ok"] is False
                assert "unknown rsu_id" in error["error"]
                assert json.loads(stream.readline())["ok"] is True

    def test_client_raises_on_server_error(self, trace_env):
        config, _ = trace_env
        with BackgroundServer(config, "lyapunov") as server:
            client = ServeClient(server.host, server.port)
            try:
                client.ingest(0, 999, 0)  # unknown RSU: error reply queued
                with pytest.raises(SimulationError, match="unknown rsu_id"):
                    client.snapshot()
            finally:
                client._teardown()

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            (b'{"t": 0, "rsu": 0, "content": 0}\xff\xfe\n', "UTF-8"),
            (b'{"meta": "x' + b"x" * (70 * 1024) + b'"}\n', "line limit"),
            (b'{"meta": {"num_slots": -5}}\n', "num_slots"),
            (b'{"meta": {"num_slots": 2.5}}\n', "num_slots"),
            (b'{"meta": [1]}\n', "meta"),
        ],
        ids=["invalid-utf8", "over-64k", "negative-slots", "float-slots", "meta-list"],
    )
    def test_hostile_line_earns_an_error_and_others_keep_serving(
        self, trace_env, bad_line, message
    ):
        config, _ = trace_env
        with BackgroundServer(config, "lyapunov", num_slots=3) as server:
            with socket.create_connection((server.host, server.port)) as other:
                other_stream = other.makefile("rwb")
                with socket.create_connection((server.host, server.port)) as sock:
                    stream = sock.makefile("rwb")
                    stream.write(bad_line)
                    stream.write(b'{"t": 0, "rsu": 0, "content": 0}\n')
                    stream.write(b'{"op": "snapshot"}\n')
                    stream.flush()
                    error = json.loads(stream.readline())
                    assert error["ok"] is False
                    assert message in error["error"]
                    # The same connection resumes at the next line.
                    snapshot = json.loads(stream.readline())
                    assert snapshot["ok"] is True and snapshot["pending"] == 1
                    stream.write(b'{"op": "close"}\n')
                    stream.flush()
                    final = json.loads(stream.readline())
                    assert final["ok"] is True and final["time_slot"] == 3
                # Another session on the same server is unaffected.
                other_stream.write(b'{"op": "close"}\n')
                other_stream.flush()
                assert json.loads(other_stream.readline())["ok"] is True

    def test_bad_server_configuration_fails_at_bind_time(self):
        config = ScenarioConfig.small(seed=0)
        with pytest.raises(Exception, match="exactly one"):
            with BackgroundServer(config, ("lce", "lcd")):
                pass  # pragma: no cover


class TestWireEncoding:
    def test_parse_line_shapes(self):
        assert parse_line("") is None
        assert parse_line('{"t": 1, "rsu": 2, "content": 3}') == (
            "record",
            (1, 2, 3),
        )
        assert parse_line('{"meta": {"num_slots": 9}}') == ("meta", 9)
        assert parse_line('{"op": "snapshot"}') == ("op", "snapshot")

    def test_replies_are_strict_json(self):
        payload = {"value": float("nan"), "nested": [float("inf"), 1.5]}
        assert sanitize(payload) == {"value": None, "nested": [None, 1.5]}
        assert json.loads(encode_reply(payload)) == {
            "value": None,
            "nested": [None, 1.5],
        }

    def test_nan_summaries_reach_the_client_as_null(self, trace_env):
        # A service summary with zero slots is NaN-heavy; over the wire it
        # must arrive as null, not as invalid JSON.
        config, _ = trace_env
        with BackgroundServer(config, "lyapunov") as server:
            with ServeClient(server.host, server.port) as client:
                snapshot = client.snapshot()
                assert snapshot["time_slot"] == 0
                assert snapshot["summary"]["time_average_cost"] is None
                assert snapshot["summary"]["service_rate"] is None
