"""Trace-driven workload: replay request logs, and export generated ones.

A trace file is a flat list of ``(time_slot, rsu_id, content_id)`` records
in one of two formats, selected by extension (or forced via the ``format``
parameter):

* **JSONL** (``.jsonl``/``.json``) — one JSON object per line with keys
  ``t``, ``rsu``, ``content``; an optional first line
  ``{"meta": {"num_slots": N}}`` declares the horizon, so traces with
  empty trailing slots round-trip exactly.
* **CSV** (``.csv``) — header ``time_slot,rsu_id,content_id``.

:func:`write_trace` serialises any list of
:class:`~repro.net.requests.Request` objects (so every generated workload
can be exported — see :func:`export_trace`) and
:class:`TraceWorkload` replays a file through the same three entry points
the synthetic models expose, drawing nothing from the RNG: a replayed
trace is the same workload in every execution mode by construction.

Replay streams the file instead of materialising it: construction makes
one bounded-memory validation pass (which also measures how far out of
slot order the file is), and ``_slot_batches`` reads forward through a
reorder window of exactly that size.  Memory stays flat in the trace
length; random backward access simply reopens the file.
"""

from __future__ import annotations

import csv
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ValidationError
from repro.net.content import ContentCatalog
from repro.net.requests import ArrivalProcess, Request
from repro.net.topology import RoadTopology
from repro.utils.rng import RandomSource
from repro.workloads.base import WorkloadModel
from repro.workloads.codec import (
    FORMATS as _FORMATS,
    encode_meta,
    encode_record,
    group_record_batches,
    iter_trace_records,
    resolve_format as _resolve_format,
)
from repro.workloads.registry import register_workload

__all__ = ["TraceWorkload", "export_trace", "read_trace", "write_trace"]


def write_trace(
    path: str,
    requests: Sequence[Request],
    *,
    num_slots: Optional[int] = None,
    format: str = "auto",
) -> int:
    """Write *requests* to *path*; returns the number of records written.

    ``num_slots`` declares the trace horizon (JSONL only); when omitted the
    horizon is the last request's slot plus one.
    """
    resolved = _resolve_format(path, format)
    if num_slots is not None and num_slots <= 0:
        raise ValidationError(f"num_slots must be > 0, got {num_slots}")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if resolved == "jsonl":
            if num_slots is not None:
                handle.write(encode_meta(num_slots))
                handle.write("\n")
            for request in requests:
                handle.write(
                    encode_record(
                        request.time_slot, request.rsu_id, request.content_id
                    )
                )
                handle.write("\n")
        else:
            writer = csv.writer(handle)
            writer.writerow(["time_slot", "rsu_id", "content_id"])
            for request in requests:
                writer.writerow(
                    [int(request.time_slot), int(request.rsu_id), int(request.content_id)]
                )
    return len(requests)


def export_trace(
    workload,
    num_slots: int,
    path: str,
    *,
    format: str = "auto",
) -> int:
    """Generate *num_slots* slots from *workload* and write them to *path*.

    Works with any :class:`~repro.net.requests.RequestGenerator`-derived
    model; the exported file replays through :class:`TraceWorkload` into the
    identical per-slot arrival batches.
    """
    requests = workload.generate_trace(num_slots)
    return write_trace(path, requests, num_slots=num_slots, format=format)


def read_trace(
    path: str, *, format: str = "auto"
) -> Tuple[List[Tuple[int, int, int]], Optional[int]]:
    """Read *path* into ``([(time_slot, rsu_id, content_id), ...], num_slots)``.

    ``num_slots`` is the declared horizon from the JSONL meta line, or
    ``None`` when the file does not declare one.
    """
    records: List[Tuple[int, int, int]] = []
    declared: Optional[int] = None
    for kind, payload in iter_trace_records(path, format=format):
        if kind == "meta":
            if payload is not None:
                declared = int(payload)
        else:
            records.append(payload)
    return records, declared


@register_workload("trace")
class TraceWorkload(WorkloadModel):
    """Replay a recorded request trace file, slot for slot.

    Parameters (via the workload spec): ``path`` (required), ``format``
    (``auto``/``jsonl``/``csv``), and ``num_slots`` (optional horizon
    override, extending or truncating the file's own).  The replay draws
    nothing from the workload RNG and its
    :meth:`~repro.net.requests.RequestGenerator.content_population` is the
    *empirical* per-RSU request frequency of the trace, so the MDP stage
    weights contents by how often the trace actually asks for them.

    The file is never held in memory: sequential replay streams through a
    reorder window sized to the file's measured slot disorder (zero for a
    sorted trace), and jumping backwards reopens the file.
    """

    PARAM_DEFAULTS: Dict[str, Any] = {
        "path": "",
        "format": "auto",
        "num_slots": 0,
    }

    @classmethod
    def normalize_params(cls, params: Dict[str, Any]) -> Dict[str, Any]:
        merged = super().normalize_params(params)
        path = merged["path"]
        if not isinstance(path, str) or not path.strip():
            raise ConfigurationError(
                "workload 'trace' requires a path parameter, e.g. "
                "trace:path=runs/workload.jsonl"
            )
        if merged["format"] not in _FORMATS:
            raise ConfigurationError(
                f"workload 'trace' format must be one of {_FORMATS}, "
                f"got {merged['format']!r}"
            )
        num_slots = merged["num_slots"]
        if not isinstance(num_slots, int) or isinstance(num_slots, bool) or num_slots < 0:
            raise ConfigurationError(
                "workload 'trace' num_slots must be a non-negative integer "
                f"(0 = use the file's horizon), got {num_slots!r}"
            )
        return merged

    def __init__(
        self,
        topology: RoadTopology,
        catalog: ContentCatalog,
        *,
        arrivals: Optional[ArrivalProcess] = None,
        zipf_exponent: Optional[float] = None,
        rng: RandomSource = None,
        path: str = "",
        format: str = "auto",
        num_slots: int = 0,
    ) -> None:
        super().__init__(
            topology,
            catalog,
            arrivals=arrivals,
            zipf_exponent=zipf_exponent,
            rng=rng,
        )
        params = self.normalize_params(
            {"path": path, "format": format, "num_slots": num_slots}
        )
        self._path = params["path"]
        self._format = _resolve_format(self._path, params["format"])
        limit = int(params["num_slots"]) or None
        rsu_of_content: Dict[int, int] = {}
        for rsu in topology.rsus:
            for content_id in rsu.covered_regions:
                rsu_of_content[content_id] = rsu.rsu_id
        # One streaming validation pass over the file: it checks every
        # record, measures the horizon and the slot disorder (how far a
        # record can trail the max slot seen before it — the replay's
        # reorder-window size), and buckets the empirical per-RSU
        # popularity, all without materialising the trace.
        slot_of = {
            rsu.rsu_id: {
                int(h): i
                for i, h in enumerate(self._local_content_arrays[rsu.rsu_id])
            }
            for rsu in topology.rsus
        }
        counts = {
            rsu.rsu_id: np.zeros(self._local_content_arrays[rsu.rsu_id].size)
            for rsu in topology.rsus
        }
        declared: Optional[int] = None
        max_slot = -1
        disorder = 0
        for kind, payload in iter_trace_records(self._path, format=self._format):
            if kind == "meta":
                if payload is not None:
                    declared = int(payload)
                continue
            t, rsu_id, content_id = payload
            if t < 0:
                raise ConfigurationError(
                    f"trace {self._path!r}: negative time_slot {t}"
                )
            if rsu_id not in self._local_content_arrays:
                raise ConfigurationError(
                    f"trace {self._path!r}: unknown rsu_id {rsu_id}"
                )
            if rsu_of_content.get(content_id) != rsu_id:
                raise ConfigurationError(
                    f"trace {self._path!r}: content {content_id} is not cached "
                    f"by RSU {rsu_id}"
                )
            if t > max_slot:
                max_slot = t
            elif max_slot - t > disorder:
                disorder = max_slot - t
            if limit is None or t < limit:
                counts[rsu_id][slot_of[rsu_id][content_id]] += 1.0
        inferred = max_slot + 1
        self._trace_slots = limit or max(declared or 0, inferred)
        if self._trace_slots <= 0:
            raise ConfigurationError(
                f"trace {self._path!r} is empty and declares no horizon; "
                "pass num_slots explicitly"
            )
        self._window = disorder
        for rsu_id, bucket in counts.items():
            if bucket.sum() > 0:
                self._local_popularity[rsu_id] = self._normalized(bucket)
        # Streaming replay state: a forward record iterator plus a bounded
        # buffer of slots within the reorder window of the read position.
        self._stream: Optional[Iterator[Tuple[int, int, int]]] = None
        self._buffer: Dict[int, List[Tuple[int, int]]] = {}
        self._next_slot = 0
        self._max_seen = -1
        self._exhausted = False

    @property
    def path(self) -> str:
        """The trace file being replayed."""
        return self._path

    @property
    def trace_slots(self) -> int:
        """Horizon of the trace (slots it can replay)."""
        return self._trace_slots

    def _record_stream(self) -> Iterator[Tuple[int, int, int]]:
        for kind, payload in iter_trace_records(self._path, format=self._format):
            if kind == "record":
                yield payload

    def _rewind(self) -> None:
        self._stream = self._record_stream()
        self._buffer = {}
        self._next_slot = 0
        self._max_seen = -1
        self._exhausted = False

    def _fill(self, time_slot: int) -> None:
        # Read until no record for *time_slot* can still appear: by the
        # measured disorder bound, once the max slot seen exceeds
        # ``time_slot + window`` every record of this slot is buffered.
        while not self._exhausted and self._max_seen <= time_slot + self._window:
            record = next(self._stream, None)
            if record is None:
                self._exhausted = True
                break
            t, rsu_id, content_id = record
            if t >= self._trace_slots:
                continue
            if t > self._max_seen:
                self._max_seen = t
            if t >= self._next_slot:
                self._buffer.setdefault(t, []).append((rsu_id, content_id))

    def _slot_batches(self, time_slot: int) -> List[Tuple[int, np.ndarray]]:
        if time_slot < 0:
            raise ValidationError(f"time_slot must be >= 0, got {time_slot}")
        if time_slot >= self._trace_slots:
            raise ValidationError(
                f"slot {time_slot} beyond the trace horizon "
                f"({self._trace_slots} slots in {self._path!r}); shorten the "
                "simulation or extend the trace with num_slots"
            )
        if self._stream is None or time_slot < self._next_slot:
            self._rewind()
        while self._next_slot < time_slot:
            self._fill(self._next_slot)
            self._buffer.pop(self._next_slot, None)
            self._next_slot += 1
        self._fill(time_slot)
        pairs = self._buffer.pop(time_slot, [])
        self._next_slot = time_slot + 1
        return group_record_batches(pairs)
