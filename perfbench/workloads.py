"""The benchmark's three workloads, driven through ``repro``'s public surface.

Each workload is built from the benchmark seed alone and checks its own
output:

* ``joint-sweep`` — ``ExperimentRunner(workers=2).run_grid`` over the
  joint MDP + Lyapunov scheme at two trade-off values, into a fresh run
  store.  Request sampling and the per-(seed, RSU) Lyapunov decide
  dominate; it is the only workload exercising pool dispatch,
  shared-memory shipment and store writes.
* ``multihop-ring`` — ``simulate()`` of three on-path caching strategies
  on a 16-RSU ring.  Routing and hop accounting do most of the work; no
  MDP and no stage 2 run.
* ``serve-replay`` — a ``repro.cli serve`` subprocess running the joint
  scheme one slot at a time, driven over its JSONL wire protocol (see
  :func:`serve_replay`) with a trace the scenario's own workload model
  generated (see :func:`prepare_serve`).

Batch outputs are checked against sha256 digests of their canonical
summary rows, pinned in ``expected.json`` for :data:`PINNED_SEEDS` input
seeds; the served summary is checked against an offline ``simulate()``
over the same trace.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import select
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: The benchmark seed selects one of this many input seeds, each of whose
#: outputs has a digest pinned in ``expected.json``.
PINNED_SEEDS = 32

#: Input sizes.  serve-replay's flood runs for ``--seconds`` minus the
#: paced phase over a trace holding ``flood_rate`` slots per second of it;
#: its fixed (untraced baseline) and traced runs flood exactly
#: ``flood_fixed`` slots, so their counts repeat.  Slot counts of the flood
#: are multiples of SNAPSHOT_EVERY.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "joint-sweep": {"rsus": 32, "contents": 20, "slots": 100, "seeds": 8},
        "multihop-ring": {"rsus": 16, "contents": 8, "slots": 100, "seeds": 4},
        "serve-replay": {
            "rsus": 32, "contents": 20, "flood_rate": 1500, "flood_fixed": 3000,
            "paced": 5000,
        },
    },
    "tiny": {
        "joint-sweep": {"rsus": 4, "contents": 5, "slots": 20, "seeds": 2},
        "multihop-ring": {"rsus": 16, "contents": 8, "slots": 20, "seeds": 2},
        "serve-replay": {
            "rsus": 4, "contents": 5, "flood_rate": 100, "flood_fixed": 40,
            "paced": 50,
        },
    },
}

WORKLOADS = ("joint-sweep", "multihop-ring", "serve-replay")

JOINT_TRADEOFFS = (10, 100)
ONPATH_POLICIES = ("lce", "lcd", "probcache")
SERVE_POLICIES = ("mdp", "lyapunov")
#: Paced-phase send rate (slots/s) and snapshot period (slots) of serve-replay.
PACED_RATE = 500.0
SNAPSHOT_EVERY = 5
#: A paced send later than this is counted in ``gen.late_sends``; a run
#: whose generator fell behind by more than ``MAX_LATENESS_S`` is invalid.
LATE_SEND_S = 1.0 / PACED_RATE
MAX_LATENESS_S = 0.05
REPLY_TIMEOUT_S = 60.0
#: Slots per timed operation of serve-replay's flood (40 round trips).
FLOOD_OP_SLOTS = 200

#: The calibration loop: fixed pure-Python work (dict stores, tuple
#: allocation, integer arithmetic) run right before and after every timed
#: operation.  ``slots_per_s`` is reported at the CPU speed at which the
#: loop takes :data:`CALIBRATION_REF_S`.
CALIBRATION_LOOPS = 30000
CALIBRATION_REF_S = 0.010


def calibrate() -> float:
    """Seconds the calibration loop takes on this CPU now."""
    begin = time.perf_counter()
    table: Dict[int, tuple] = {}
    total = 0
    for i in range(CALIBRATION_LOOPS):
        table[i & 511] = (i, i * i % 7)
        total += len(table)
    return time.perf_counter() - begin


class OpClock:
    """Timed operations, each with the calibration time measured around it.

    The calibration loop runs once before the first operation and once
    after each; an operation's calibration time is the mean of the runs
    on either side of it.
    """

    def __init__(self) -> None:
        self.seconds: List[float] = []
        self.slots: List[int] = []
        self.calibration: List[float] = []
        self._last = calibrate()

    def record(self, slots: int, seconds: float) -> None:
        after = calibrate()
        self.seconds.append(seconds)
        self.slots.append(slots)
        self.calibration.append((self._last + after) / 2.0)
        self._last = after

    def figures(self) -> Dict[str, List[float]]:
        return {
            "op_seconds": self.seconds,
            "op_slots": self.slots,
            "op_calibration_s": self.calibration,
        }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def input_seed(seed: int) -> int:
    """The scenario seed the benchmark seed selects."""
    return seed % PINNED_SEEDS


def digest(rows: Any) -> str:
    """sha256 of the canonical JSON form of summary rows."""

    def plain(value: Any) -> Any:
        if hasattr(value, "item"):
            return value.item()
        raise TypeError(f"unexpected {type(value).__name__} in summary rows")

    text = json.dumps(rows, sort_keys=True, separators=(",", ":"), default=plain)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected_digest(workload: str, profile: str, seed: int) -> Optional[str]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        table = json.load(handle)
    return table.get(f"{workload}/{profile}/{input_seed(seed)}")


# ----------------------------------------------------------------------
# Batch workloads: one public call is one operation.


class BatchWorkload:
    """A workload timed as repeated calls of one public function."""

    name = ""

    def __init__(self, profile: str, seed: int, workdir: str) -> None:
        self.size = SIZES[profile][self.name]
        self.seed = input_seed(seed)
        self.workdir = workdir

    @property
    def run_slots(self) -> int:
        """Seeds x slots simulated by one call."""
        raise NotImplementedError

    def call(self, num_slots: Optional[int] = None) -> Any:
        raise NotImplementedError

    def rows(self, output: Any) -> Any:
        return [result.summary() for result in output]

    def warm_up(self) -> None:
        """One slot through the same code path as :meth:`call`."""
        self.call(num_slots=1)


class JointSweep(BatchWorkload):
    name = "joint-sweep"
    workers = 2

    def __init__(self, profile: str, seed: int, workdir: str) -> None:
        super().__init__(profile, seed, workdir)
        from repro import ExperimentRunner, ScenarioConfig

        self.scenario = ScenarioConfig(
            num_rsus=self.size["rsus"],
            contents_per_rsu=self.size["contents"],
            num_slots=self.size["slots"],
            seed=self.seed,
        )
        self.runner = ExperimentRunner(workers=self.workers)
        self.calls = 0

    @property
    def run_slots(self) -> int:
        return len(JOINT_TRADEOFFS) * self.size["seeds"] * self.size["slots"]

    def call(self, num_slots: Optional[int] = None) -> Any:
        from repro import ExperimentSpec

        scenario = self.scenario
        if num_slots is not None:
            scenario = scenario.with_overrides(num_slots=num_slots)
        specs = [
            ExperimentSpec(
                kind="joint",
                scenario=scenario,
                policy="mdp",
                service_policy=f"lyapunov:tradeoff_v={v}",
                seed=self.seed,
                num_seeds=self.size["seeds"],
                metrics="summary",
                label=f"lyapunov-v{v}",
            )
            for v in JOINT_TRADEOFFS
        ]
        self.calls += 1
        store = os.path.join(self.workdir, f"store-{self.calls}")
        return self.runner.run_grid(specs, store=store)

    def rows(self, output: Any) -> Any:
        return output.rows()


class MultihopRing(BatchWorkload):
    name = "multihop-ring"

    def __init__(self, profile: str, seed: int, workdir: str) -> None:
        super().__init__(profile, seed, workdir)
        from repro import ScenarioConfig

        self.scenario = ScenarioConfig(
            num_rsus=self.size["rsus"],
            contents_per_rsu=self.size["contents"],
            num_slots=self.size["slots"],
            topology_kind="ring",
            cache_capacity=4,
            zipf_exponent=0.8,
            seed=self.seed,
        )

    @property
    def run_slots(self) -> int:
        return len(ONPATH_POLICIES) * self.size["seeds"] * self.size["slots"]

    def call(self, num_slots: Optional[int] = None) -> Any:
        from repro import simulate

        return simulate(
            self.scenario,
            list(ONPATH_POLICIES),
            seeds=self.size["seeds"],
            num_slots=num_slots,
        )


BATCH = {cls.name: cls for cls in (JointSweep, MultihopRing)}


# ----------------------------------------------------------------------
# serve-replay


class _Lines:
    """Newline-delimited JSON replies read from a socket, with timeouts."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = b""

    def _fill(self, timeout: float) -> None:
        ready, _, _ = select.select([self.sock], [], [], max(0.0, timeout))
        if ready:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buffer += chunk

    def poll(self, timeout: float) -> List[bytes]:
        """Lines that arrive within *timeout* seconds (maybe none)."""
        self._fill(timeout)
        lines = self.buffer.split(b"\n")
        self.buffer = lines.pop()
        return lines

    def one(self, timeout: float = REPLY_TIMEOUT_S) -> Optional[dict]:
        """The next reply, or ``None`` if none arrives within *timeout*."""
        deadline = time.perf_counter() + timeout
        while b"\n" not in self.buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return None
            self._fill(remaining)
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)


#: Names of serve-replay's shared inputs, written once per benchmark run.
TRACE_FILE = "trace.jsonl"
SCENARIO_FILE = "scenario.json"
WARM_SLOTS = 2


def flood_window_s(size: Dict[str, Any], seconds: float) -> float:
    """How long the timed flood runs: ``--seconds`` minus the paced phase."""
    return max(seconds - size["paced"] / PACED_RATE, 0.0)


def prepare_serve(profile: str, seed: int, seconds: float, shared: str) -> None:
    """Write serve-replay's request trace and scenario into *shared*.

    The trace is ``export_trace`` of the scenario's own workload model
    (Poisson arrivals per RSU, contents weighted by catalog popularity),
    long enough for the warm-up, a flood of ``flood_rate`` slots per
    second of its window and the paced phase.  The scenario replays it
    through the ``trace`` workload.  Every process of a benchmark run
    shares these files, so no process times their generation.
    """
    from repro import ScenarioConfig, export_trace
    from repro.sim.system import SystemState

    size = SIZES[profile]["serve-replay"]
    flood = SNAPSHOT_EVERY * math.ceil(
        size["flood_rate"] * flood_window_s(size, seconds) / SNAPSHOT_EVERY
    )
    num_slots = WARM_SLOTS + max(flood, size["flood_fixed"]) + size["paced"]
    base = ScenarioConfig(
        num_rsus=size["rsus"],
        contents_per_rsu=size["contents"],
        num_slots=num_slots,
        seed=input_seed(seed),
    )
    trace_path = os.path.join(shared, TRACE_FILE)
    export_trace(SystemState(base).workload, num_slots, trace_path)
    scenario = base.with_overrides(workload=f"trace:path={trace_path}")
    with open(os.path.join(shared, SCENARIO_FILE), "w", encoding="utf-8") as handle:
        json.dump(scenario.to_dict(), handle)


def _slot_payloads(path: str) -> Iterator[bytes]:
    """Each slot's record lines of a JSONL trace, as one payload per slot."""
    with open(path, "rb") as handle:
        num_slots = json.loads(handle.readline())["meta"]["num_slots"]
        slot, lines = 0, []
        for line in handle:
            t = json.loads(line)["t"]
            while slot < t:
                yield b"".join(lines)
                slot, lines = slot + 1, []
            lines.append(line)
        while slot < num_slots:
            yield b"".join(lines)
            slot, lines = slot + 1, []


def serve_replay(
    profile: str,
    seed: int,
    seconds: float,
    shared: str,
    *,
    on_ready: Callable[[], None],
    mode: str,
    spans_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Drive one ``repro.cli serve`` session over TCP; return its figures.

    One connection, three phases after the warm-up:

    * flood — closed loop, a snapshot every :data:`SNAPSHOT_EVERY` slots
      sent in the same write as the slots, next write after the reply;
      every :data:`FLOOD_OP_SLOTS` slots of round trips are one timed
      operation of ``slots_per_s``.  In ``window``
      mode it runs for :func:`flood_window_s`, otherwise it sends exactly
      ``flood_fixed`` slots;
    * paced — open loop at :data:`PACED_RATE` slots/s with a snapshot
      every :data:`SNAPSHOT_EVERY` slots; each reply is timed from when
      its snapshot was due;
    * close — the horizon (the slots sent) is declared and the final
      summary compared with an offline ``simulate()`` over the same trace.

    With *spans_path* the server is the benchmark's traced launcher,
    which writes its spans there when it is interrupted.
    """
    size = SIZES[profile]["serve-replay"]
    scenario_path = os.path.join(shared, SCENARIO_FILE)
    slots = _slot_payloads(os.path.join(shared, TRACE_FILE))
    warm = [next(slots) for _ in range(WARM_SLOTS)]
    snapshot_op = b'{"op": "snapshot"}\n'
    close_op = b'{"op": "close"}\n'

    if spans_path is None:
        command = [sys.executable, "-m", "repro.cli", "serve"]
    else:
        command = [
            sys.executable, os.path.join(HERE, "serve_server.py"),
            "--spans", spans_path,
        ]
    command += ["--scenario", scenario_path]
    for policy in SERVE_POLICIES:
        command += ["--policy", policy]
    if hasattr(os, "sched_setaffinity"):
        # The generator and the server (which inherits this) share one
        # CPU.  The closed loop hands over between them on every round
        # trip: on one CPU that is a direct switch, across two it is a
        # cross-CPU wake-up whose cost made the flood rate vary by 1.5x
        # from run to run.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    server = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    sock = None
    try:
        ready = server.stdout.readline().strip()
        port = int(ready.rsplit(":", 1)[1])
        sock = socket.create_connection(("127.0.0.1", port))
        # Without TCP_NODELAY, Nagle's algorithm and the peer's delayed
        # ACK hold small writes for ~40 ms and dominate every reply time.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        replies = _Lines(sock)
        sent_records = 0
        expected_replies = 0
        bad_replies = 0

        def check(reply: Optional[dict]) -> None:
            nonlocal bad_replies
            if reply is None or not reply.get("ok"):
                bad_replies += 1

        # Warm-up: slot t only executes once a later slot's record arrives,
        # so send slots 0 and 1 and wait for a snapshot reply.  This pays
        # the session's trace load and lazy MDP solves before any timed
        # window.
        sock.sendall(b"".join(warm) + snapshot_op)
        sent_records += sum(p.count(b"\n") for p in warm)
        expected_replies += 1
        check(replies.one())
        on_ready()
        if mode == "setup":
            # Close the session so the server stops without a live handler.
            sock.sendall(close_op)
            replies.one()
            return {}
        payloads = warm + list(slots)

        # Flood: closed loop, timed per FLOOD_OP_SLOTS slots of round trips.
        t = WARM_SLOTS
        if mode == "window":
            flood_end = len(payloads) - size["paced"]
            deadline = time.perf_counter() + flood_window_s(size, seconds)
        else:
            flood_end = WARM_SLOTS + size["flood_fixed"]
            deadline = math.inf
        clock = OpClock()
        op_slots = 0
        op_start = time.perf_counter()
        while t < flood_end and (time.perf_counter() < deadline or t == WARM_SLOTS):
            chunk = payloads[t : t + SNAPSHOT_EVERY]
            sock.sendall(b"".join(chunk) + snapshot_op)
            check(replies.one())
            sent_records += sum(p.count(b"\n") for p in chunk)
            expected_replies += 1
            t += len(chunk)
            op_slots += len(chunk)
            if op_slots >= FLOOD_OP_SLOTS:
                clock.record(op_slots, time.perf_counter() - op_start)
                op_slots = 0
                op_start = time.perf_counter()
        if op_slots:
            clock.record(op_slots, time.perf_counter() - op_start)

        # Paced: open loop; replies timed from when the snapshot was due.
        due_times: deque = deque()
        reply_ms: List[float] = []
        lateness_max = 0.0
        late_sends = 0

        def take(lines: List[bytes], now: float) -> None:
            for line in lines:
                check(json.loads(line))
                reply_ms.append((now - due_times.popleft()) * 1000.0)

        paced_start = time.perf_counter()
        for index in range(size["paced"]):
            due = paced_start + index / PACED_RATE
            now = time.perf_counter()
            while now < due:
                lines = replies.poll(due - now)
                now = time.perf_counter()
                take(lines, now)
            lateness = now - due
            lateness_max = max(lateness_max, lateness)
            late_sends += lateness > LATE_SEND_S
            payload = payloads[t]
            t += 1
            sent_records += payload.count(b"\n")
            if index % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1:
                payload += snapshot_op
                due_times.append(due)
                expected_replies += 1
            sock.sendall(payload)
        drain_deadline = time.perf_counter() + REPLY_TIMEOUT_S
        while due_times and time.perf_counter() < drain_deadline:
            lines = replies.poll(drain_deadline - time.perf_counter())
            take(lines, time.perf_counter())
        bad_replies += len(due_times)

        from repro.workloads.codec import encode_meta

        # The horizon is the t slots sent: close executes the held last one.
        sock.sendall((encode_meta(t) + "\n").encode("utf-8") + close_op)
        expected_replies += 1
        final = replies.one()
        check(final)
        final = final or {}
    finally:
        if sock is not None:
            sock.close()
        # SIGINT stops run_server cleanly; the traced launcher then
        # writes its spans.
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    # Taken before the offline check, whose memory is not the workload's.
    rss_mb = peak_rss_mb()
    from repro import ScenarioConfig, simulate
    from repro.serve.protocol import sanitize

    with open(scenario_path, encoding="utf-8") as handle:
        scenario = ScenarioConfig.from_dict(json.load(handle))
    offline = simulate(scenario, SERVE_POLICIES, num_slots=t, metrics="summary")
    summary_ok = final.get("summary") == sanitize(offline.summary())
    dropped = int(final.get("dropped", 0))
    late = int(final.get("late", 0))
    generator_ok = lateness_max <= MAX_LATENESS_S
    failed = bad_replies + dropped + late + (not summary_ok) + (not generator_ok)
    return {
        **clock.figures(),
        "reply_ms": reply_ms,
        "attempted": expected_replies + sent_records,
        "failed": failed,
        "rss_mb": rss_mb,
        "checks": {
            "summary_matches_offline": summary_ok,
            "generator_kept_pace": generator_ok,
        },
        "gen": {
            "gen.lateness_max_ms": lateness_max * 1000.0,
            "gen.late_sends": late_sends,
            "serve.session.dropped": dropped,
            "serve.session.late": late,
        },
    }
