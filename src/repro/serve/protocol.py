"""Wire protocol for the JSONL-over-TCP serving mode.

The wire format *is* the trace file format
(:mod:`repro.workloads.codec`): one JSON object per line.  Three line
shapes exist:

* ``{"t": 3, "rsu": 0, "content": 7}`` — a request record, ingested into
  the connection's session (no reply; ingest is fire-and-forget so a
  replayed trace streams at full speed).
* ``{"meta": {"num_slots": 200}}`` — declares the horizon (a positive
  integer), exactly as a trace file's meta line does; remembered and used
  to pad the session on close.
* ``{"op": "snapshot"}`` / ``{"op": "close"}`` — control operations; the
  server answers each with exactly one JSON line, ``{"ok": true, ...}``
  on success or ``{"ok": false, "error": "..."}`` on failure.

So ``cat trace.jsonl | nc host port`` literally feeds a simulation, and
appending one ``{"op": "close"}`` line collects the result.

Replies are strict JSON: non-finite floats (the streaming summary is NaN
before the first snapshot-visible slot) are mapped to ``null``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import ValidationError
from repro.utils.validation import check_positive_int
from repro.workloads.codec import decode_jsonl_line

__all__ = ["OPS", "encode_reply", "parse_line", "sanitize"]

#: Control operations a client may request.
OPS = ("snapshot", "close")


def parse_line(line: str) -> Optional[Tuple[str, Any]]:
    """Parse one wire line into ``(kind, payload)``.

    Returns ``("record", (t, rsu, content))``, ``("meta", num_slots)``,
    ``("op", name)``, or ``None`` for a blank line.  Malformed lines
    raise :class:`~repro.exceptions.ValidationError` with a message safe
    to echo back to the client.
    """
    stripped = line.strip()
    if not stripped:
        return None
    try:
        row = json.loads(stripped)
    except json.JSONDecodeError as error:
        raise ValidationError(f"malformed JSON line: {error}") from error
    if isinstance(row, dict) and "op" in row:
        op = row["op"]
        if op not in OPS:
            raise ValidationError(f"unknown op {op!r}; expected one of {OPS}")
        return ("op", op)
    if not isinstance(row, dict):
        raise ValidationError(
            f"expected a JSON object per line, got {type(row).__name__}"
        )
    if "meta" in row:
        meta = row["meta"]
        if not isinstance(meta, dict):
            raise ValidationError(f"meta must be a JSON object, got {meta!r}")
        if meta.get("num_slots") is not None:
            check_positive_int(meta["num_slots"], "meta num_slots")
    try:
        decoded = decode_jsonl_line(stripped)
    except (ValueError, KeyError, TypeError) as error:
        raise ValidationError(f"malformed record line: {error}") from error
    return decoded


def sanitize(value: Any) -> Any:
    """Map non-finite floats to ``None`` recursively, for strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(item) for item in value]
    return value


def encode_reply(payload: Dict[str, Any]) -> str:
    """Serialise one reply object to a wire line (no trailing newline)."""
    return json.dumps(sanitize(payload))
