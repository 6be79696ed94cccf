"""Blocking socket client for the serving protocol.

:class:`ServeClient` is the reference consumer of the wire format:
ingest is buffered and fire-and-forget, control operations flush and
wait for their single reply line.  Used by the tests, the examples, and
the CI smoke check; being plain blocking sockets it needs no event loop
and composes with any driver code.

::

    with ServeClient(host, port) as client:
        client.replay("runs/workload.jsonl")   # stream a trace file
        snap = client.snapshot()                # mid-run aggregates
        final = client.close()                  # flush + final summary
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict

from repro.exceptions import SimulationError
from repro.workloads.codec import encode_meta, encode_record, iter_trace_records

__all__ = ["ServeClient"]


class ServeClient:
    """One serving connection: a session on the server's scenario."""

    def __init__(self, host: str, port: int, *, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._writer = self._sock.makefile("wb")
        self._reader = self._sock.makefile("rb")
        self._closed = False

    # ------------------------------------------------------------------
    # Ingest (buffered, no reply)

    def declare_horizon(self, num_slots: int) -> None:
        """Declare the trace horizon (the JSONL meta line)."""
        self._send_line(encode_meta(num_slots))

    def ingest(self, time_slot: int, rsu_id: int, content_id: int) -> None:
        """Buffer one request record for the server."""
        self._send_line(encode_record(time_slot, rsu_id, content_id))

    def replay(self, path: str, *, format: str = "auto") -> int:
        """Stream a trace file to the server; returns records sent.

        The file's meta line (if any) is forwarded, so the server pads
        the session to the declared horizon on close — a replayed file
        closes to the same result as an offline run over it.
        """
        count = 0
        for kind, payload in iter_trace_records(path, format=format):
            if kind == "meta":
                if payload is not None:
                    self.declare_horizon(int(payload))
            else:
                time_slot, rsu_id, content_id = payload
                self.ingest(time_slot, rsu_id, content_id)
                count += 1
        return count

    # ------------------------------------------------------------------
    # Control operations (flush + one reply line)

    def snapshot(self) -> Dict[str, Any]:
        """The server session's point-in-time snapshot."""
        return self._request({"op": "snapshot"})

    def close(self) -> Dict[str, Any]:
        """Finish the session; returns the final reply (with ``summary``).

        Idempotent: after the first call the connection is gone and an
        empty dict is returned.
        """
        if self._closed:
            return {}
        try:
            reply = self._request({"op": "close"})
        finally:
            self._closed = True
            self._teardown()
        return reply

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        if exc_type is None:
            self.close()
        else:
            self._closed = True
            self._teardown()

    # ------------------------------------------------------------------
    # Internals

    def _send_line(self, line: str) -> None:
        if self._closed:
            raise SimulationError("client connection is closed")
        self._writer.write(line.encode("utf-8") + b"\n")

    def _request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._send_line(json.dumps(payload))
        self._writer.flush()
        line = self._reader.readline()
        if not line:
            raise SimulationError(
                "server closed the connection without replying"
            )
        reply = json.loads(line.decode("utf-8"))
        if not reply.get("ok", False):
            raise SimulationError(
                f"server error: {reply.get('error', 'unknown error')}"
            )
        return reply

    def _teardown(self) -> None:
        for closer in (self._writer.close, self._reader.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass
