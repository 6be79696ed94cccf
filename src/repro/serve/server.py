"""Asyncio JSONL-over-TCP serving front-end (stdlib only).

:class:`ServeServer` accepts connections, opens one
:class:`~repro.serve.session.SimulationSession` per connection, and
speaks the line protocol of :mod:`repro.serve.protocol`: request records
stream in (fire-and-forget), ``snapshot`` / ``close`` operations each
get exactly one JSON reply line.  A malformed line earns an error reply
and the connection stays up — one bad record does not kill a stream.

Three entry points cover the common shapes:

* :class:`ServeServer` — the asyncio server object, for embedding in an
  existing event loop (``await server.start()``).
* :func:`run_server` — blocking convenience used by ``repro.cli serve``.
* :class:`BackgroundServer` — context manager running the server on a
  daemon thread, used by the tests and examples to exercise a real
  socket round-trip in-process.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable, Dict, Optional, Tuple

from repro.exceptions import ReproError
from repro.serve.protocol import encode_reply, parse_line
from repro.serve.session import DEFAULT_MAX_PENDING, SimulationSession, open_session

__all__ = ["BackgroundServer", "ServeServer", "run_server"]


class ServeServer:
    """A streaming what-if service bound to one scenario/policy pairing.

    Every connection simulates the same ``(scenario, policies)``
    configuration independently — sessions share nothing, so concurrent
    clients explore divergent what-if request streams in isolation.  The
    first connection takes the session :meth:`start` opened to check the
    configuration; later connections open their own.
    """

    def __init__(
        self,
        scenario: Any,
        policies: Any,
        *,
        kind: Optional[str] = None,
        metrics: str = "summary",
        service_batch: Optional[int] = None,
        max_pending: int = DEFAULT_MAX_PENDING,
        num_slots: Optional[int] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._scenario = scenario
        self._policies = policies
        self._session_options = dict(
            kind=kind,
            metrics=metrics,
            service_batch=service_batch,
            max_pending=max_pending,
        )
        self._num_slots = num_slots
        self._requested_host = host
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None
        # The session start() opens to fail fast, until a connection takes it.
        self._spare_session: Optional[SimulationSession] = None
        self._writers: set = set()
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    async def start(self) -> Tuple[str, int]:
        """Bind the listening socket; returns the bound ``(host, port)``.

        Port ``0`` asks the OS for an ephemeral port — the bound one is
        reported here (and printed by the CLI) for clients to connect to.
        """
        # Fail fast on a bad configuration: opening a session surfaces
        # scenario/policy errors at bind time, not on the first connection,
        # which then takes this session instead of building its own.
        self._spare_session = self._open_session()
        self._server = await asyncio.start_server(
            self._handle_connection, self._requested_host, self._requested_port
        )
        sockets = self._server.sockets or ()
        address = sockets[0].getsockname()
        self.host, self.port = address[0], int(address[1])
        return self.host, self.port

    def _open_session(self) -> SimulationSession:
        return open_session(self._scenario, self._policies, **self._session_options)

    async def serve_forever(self) -> None:
        """Serve until cancelled (``start()`` must have been awaited)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting connections and close every open connection.

        Closing the transports makes each handler's ``readline`` hit EOF
        so the handler tasks drain on their own — no task cancellation,
        which asyncio's stream machinery logs noisily.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            writer.close()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session, self._spare_session = self._spare_session, None
        if session is None:
            session = self._open_session()
        declared = self._num_slots
        self._writers.add(writer)

        async def reply(payload: Dict[str, Any]) -> None:
            writer.write(encode_reply(payload).encode("utf-8") + b"\n")
            await writer.drain()

        try:
            while True:
                try:
                    line = await _read_line(reader)
                except _LineTooLong as error:
                    await reply({"ok": False, "error": str(error)})
                    continue
                if line is None:
                    break
                try:
                    parsed = parse_line(line.decode("utf-8"))
                except UnicodeDecodeError:
                    await reply({"ok": False, "error": "line is not valid UTF-8"})
                    continue
                except ReproError as error:
                    await reply({"ok": False, "error": str(error)})
                    continue
                if parsed is None:
                    continue
                kind, payload = parsed
                try:
                    if kind == "meta":
                        if payload is not None:
                            declared = int(payload)
                    elif kind == "record":
                        session.feed([payload])
                    elif payload == "snapshot":
                        await reply(
                            {"ok": True, "op": "snapshot", **session.snapshot()}
                        )
                    else:  # close
                        result = session.close(num_slots=declared)
                        await reply(
                            {
                                "ok": True,
                                "op": "close",
                                "kind": session.kind,
                                "time_slot": session.time_slot,
                                "requests": session.requests,
                                "dropped": session.dropped,
                                "late": session.late,
                                "summary": result.summary(),
                            }
                        )
                        break
                except ReproError as error:
                    await reply({"ok": False, "error": str(error)})
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class _LineTooLong(Exception):
    """A wire line exceeded the stream's line limit (and was discarded)."""


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next newline-terminated line, or ``None`` at end of stream.

    A line longer than the reader's limit (asyncio's default, 64 KiB) is
    discarded through its newline and reported as :class:`_LineTooLong`,
    so the connection resumes at the next line.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        return error.partial or None
    except asyncio.LimitOverrunError as error:
        overrun = error
    while True:
        # Drop the over-limit bytes, then look for the line's end again.
        await reader.readexactly(overrun.consumed)
        try:
            await reader.readuntil(b"\n")
            break
        except asyncio.IncompleteReadError:
            break
        except asyncio.LimitOverrunError as error:
            overrun = error
    raise _LineTooLong("line exceeds the 64 KiB line limit; discarded")


def run_server(
    scenario: Any,
    policies: Any,
    *,
    ready_callback: Optional[Callable[[str, int], None]] = None,
    **options: Any,
) -> None:
    """Run a :class:`ServeServer` until interrupted (blocking).

    ``ready_callback(host, port)`` fires once the socket is bound — the
    CLI uses it to print the (possibly ephemeral) bound port before
    blocking.
    """
    server = ServeServer(scenario, policies, **options)

    async def main() -> None:
        host, port = await server.start()
        if ready_callback is not None:
            ready_callback(host, port)
        await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


class BackgroundServer:
    """Context manager running a :class:`ServeServer` on a daemon thread.

    ::

        with BackgroundServer(scenario, ("mdp", "lyapunov")) as server:
            client = ServeClient(server.host, server.port)

    The thread owns its own event loop; exiting the context cancels the
    server and joins the thread.
    """

    def __init__(self, scenario: Any, policies: Any, **options: Any) -> None:
        self._server = ServeServer(scenario, policies, **options)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        assert self._server.host is not None, "server not started"
        return self._server.host

    @property
    def port(self) -> int:
        assert self._server.port is not None, "server not started"
        return self._server.port

    def __enter__(self) -> "BackgroundServer":
        loop = asyncio.new_event_loop()
        stop = asyncio.Event()
        self._loop, self._stop = loop, stop

        def run() -> None:
            asyncio.set_event_loop(loop)

            async def main() -> None:
                try:
                    await self._server.start()
                except BaseException as error:  # surface bind errors
                    self._startup_error = error
                    return
                finally:
                    self._ready.set()
                await stop.wait()
                await self._server.close()

            loop.run_until_complete(main())
            # Handlers drain on their own once their connections close.
            pending = asyncio.all_tasks(loop)
            if pending:
                loop.run_until_complete(asyncio.wait(pending, timeout=5))
            loop.close()

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join(timeout=10)
            raise self._startup_error
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=10)
