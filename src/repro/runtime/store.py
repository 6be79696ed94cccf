"""Persistent content-addressed store of experiment run results.

The run store extends the solve-cache pattern one level up: where
:mod:`repro.core.solve_cache` memoises MDP *solves*, this module memoises
whole *runs*.  Each ``(scenario, policy, workload, seed)`` cell of an
experiment grid is keyed by a canonical content hash of the run
configuration — the lossless ``to_dict`` forms of the scenario and policy
specs, the simulation kind, the horizon and collection knobs, the derived
seed — folded together with :data:`STORE_SCHEMA_VERSION` and the package
``__version__``, so results computed by older schemas or older code are
invalidated instead of silently served.

Storage is a single SQLite database (stdlib :mod:`sqlite3`, WAL journal,
busy timeout) under ``.repro_cache/runs/`` holding one row per cell — the
``rows()``-style summary metrics as canonical JSON — plus sidecar ``.npz``
blobs for trajectory traces, published atomically by the same
``tempfile`` + ``os.replace`` helper as the solve cache
(:func:`repro.utils.cachedir.publish_npz`).  WAL mode
lets concurrent sweep processes share one store without lost rows or
``database is locked`` failures.

A store that serves stale or torn data is worse than no store, so every
read path is defensive: rows whose summary JSON does not parse, cells
whose trace blob is missing or truncated, databases whose schema version
does not match, and files that are not SQLite databases at all are each
*detected, logged, and dropped* so the affected cells recompute.  A cache
hit is bit-identical to a fresh run: summaries round-trip through
repr-exact JSON and traces through ``.npz`` (float64-preserving), which is
what lets :meth:`ExperimentRunner.run_grid
<repro.runtime.runner.ExperimentRunner.run_grid>` merge cached and fresh
records into a batch indistinguishable from a cold run.

Environment knobs
-----------------
``REPRO_RUN_STORE``
    Opt-in switch: a truthy value enables the store for every
    ``run_grid`` call (at the default location unless overridden); the
    usual falsey spellings disable it even when code requests it.
``REPRO_RUN_STORE_DIR``
    Store location; setting it also enables the store.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import logging
import os
import sqlite3
import time
import zipfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ValidationError
from repro.policies.registry import PolicySpec
from repro.runtime.runner import RunRecord, RunSpec, _jsonify
from repro.sim.engine import KINDS
from repro.utils.cachedir import (
    clear_npz_files,
    env_disabled,
    publish_npz,
    resolve_cache_dir,
    sweep_stale_tmp_files,
)

__all__ = [
    "STORE_SCHEMA_VERSION",
    "RunStore",
    "RunStoreStats",
    "cell_key",
    "default_directory",
    "resolve_store",
    "spec_payload",
]

logger = logging.getLogger("repro.runtime.store")

#: Default on-disk location, relative to the working directory.
DEFAULT_DIRECTORY = os.path.join(".repro_cache", "runs")

#: Database file name inside the store directory.
DATABASE_NAME = "runs.sqlite"

#: Subdirectory holding the sidecar trace blobs.
BLOB_SUBDIR = "blobs"

#: Folded into every cell key and pinned in the database's ``meta`` table.
#: Bump whenever the row schema or the record semantics change in a way the
#: keyed parameters cannot see, so older stores are rebuilt instead of
#: silently served.
STORE_SCHEMA_VERSION = 2

_ENV_DIR = "REPRO_RUN_STORE_DIR"
_ENV_ENABLE = "REPRO_RUN_STORE"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS cells (
    cell_key        TEXT PRIMARY KEY,
    spec_hash       TEXT NOT NULL,
    label           TEXT NOT NULL,
    kind            TEXT NOT NULL,
    seed            INTEGER NOT NULL,
    package_version TEXT NOT NULL,
    summary_json    TEXT NOT NULL,
    has_trace       INTEGER NOT NULL DEFAULT 0,
    spec_json       TEXT NOT NULL,
    created_at      REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_cells_spec_hash ON cells(spec_hash);
CREATE INDEX IF NOT EXISTS idx_cells_label ON cells(label);
"""


def default_directory() -> Optional[str]:
    """Resolve the store location from the environment (``None`` = off).

    The store is opt-in: it activates when ``REPRO_RUN_STORE`` holds a
    truthy value or ``REPRO_RUN_STORE_DIR`` names a directory, and the
    falsey spellings of ``REPRO_RUN_STORE`` force it off either way.
    """
    return resolve_cache_dir(
        _ENV_DIR, DEFAULT_DIRECTORY, disable_env=_ENV_ENABLE, enabled_by_default=False
    )


def opt_in_directory() -> Optional[str]:
    """Store location for an explicit code-level opt-in (``store=True``).

    Unlike :func:`default_directory` this does not require the environment
    to enable the store — only an explicit ``REPRO_RUN_STORE=0``-style
    kill switch disables it.
    """
    if env_disabled(_ENV_ENABLE):
        return None
    return os.environ.get(_ENV_DIR) or DEFAULT_DIRECTORY


def _package_version() -> str:
    from repro import __version__

    return __version__


# ----------------------------------------------------------------------
# Canonical cell keys
# ----------------------------------------------------------------------
def spec_payload(spec: RunSpec) -> Optional[Dict[str, Any]]:
    """Canonical, JSON-stable description of a run spec (sans seed).

    Returns ``None`` when the spec is not content-addressable — a policy
    given as a live instance or ad-hoc factory has no canonical serial
    form, so its runs bypass the store rather than risking a wrong hit.
    The payload folds in :data:`STORE_SCHEMA_VERSION` and the package
    version, so both invalidate every key when bumped.
    """
    kind = KINDS[spec.kind]
    # RunSpec has already turned names into role-checked PolicySpecs.
    policies = [
        policy.to_dict() if isinstance(policy, PolicySpec) else None
        for policy in kind.policies(spec.policy, spec.service_policy)
    ]
    if any(policy is None for policy in policies):
        return None
    scenario = spec.scenario.to_dict()
    # The run seed (not the scenario's own) is what executes; it enters the
    # cell key separately, so the scenario slot is seed-neutral here.
    scenario["seed"] = None
    return {
        "store_version": STORE_SCHEMA_VERSION,
        "package_version": _package_version(),
        "kind": spec.kind,
        "scenario": scenario,
        **kind.spec_fields(policies),
        "num_slots": spec.num_slots,
        "service_batch": spec.service_batch,
        "metrics": spec.metrics,
    }


def _digest(payload: Dict[str, Any]) -> Optional[str]:
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        return None
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_key(spec: RunSpec, seed: int) -> Optional[str]:
    """Content hash of one ``(spec, seed)`` cell, or ``None`` if opaque."""
    payload = spec_payload(spec)
    if payload is None:
        return None
    payload["seed"] = int(seed)
    return _digest(payload)


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
@dataclass
class RunStoreStats:
    """Counters describing how a :class:`RunStore` instance has been used."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt_cells: int = 0
    resets: int = 0

    @property
    def lookups(self) -> int:
        """Total number of cell lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store."""
        if self.lookups == 0:
            return float("nan")
        return self.hits / self.lookups

    def as_dict(self) -> Dict[str, float]:
        """Return the counters as a plain dictionary."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt_cells": self.corrupt_cells,
            "resets": self.resets,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class RunStore:
    """SQLite-backed content-addressed store of experiment run records.

    Parameters
    ----------
    directory:
        Store location; created on first use.  ``None`` resolves through
        the environment (:func:`default_directory`) and raises if the
        store is disabled there.
    busy_timeout_ms:
        SQLite busy timeout — how long a writer waits on a concurrently
        locked database before failing.  Generous by default so many
        sweep processes can share one store.
    """

    def __init__(
        self, directory: Optional[str] = None, *, busy_timeout_ms: int = 30_000
    ) -> None:
        if directory is None:
            directory = default_directory()
        if directory is None:
            raise ValidationError(
                "run store is disabled by the environment "
                "(set REPRO_RUN_STORE/REPRO_RUN_STORE_DIR or pass a directory)"
            )
        self._directory = str(directory)
        self._busy_timeout_ms = int(busy_timeout_ms)
        self._connection: Optional[sqlite3.Connection] = None
        self.stats = RunStoreStats()

    # ------------------------------------------------------------------
    # Locations
    # ------------------------------------------------------------------
    @property
    def directory(self) -> str:
        """Root directory of the store."""
        return self._directory

    @property
    def database_path(self) -> str:
        """Path of the SQLite database file."""
        return os.path.join(self._directory, DATABASE_NAME)

    @property
    def blob_directory(self) -> str:
        """Directory holding the sidecar trace blobs."""
        return os.path.join(self._directory, BLOB_SUBDIR)

    def _blob_path(self, key: str) -> str:
        return os.path.join(self.blob_directory, f"{key}.npz")

    # ------------------------------------------------------------------
    # Connection lifecycle / schema guards
    # ------------------------------------------------------------------
    def _connect_once(self) -> sqlite3.Connection:
        os.makedirs(self._directory, exist_ok=True)
        connection = sqlite3.connect(
            self.database_path, timeout=self._busy_timeout_ms / 1000.0
        )
        connection.execute(f"PRAGMA busy_timeout = {self._busy_timeout_ms}")
        connection.execute("PRAGMA journal_mode = WAL")
        connection.execute("PRAGMA synchronous = NORMAL")
        with connection:
            connection.executescript(_SCHEMA)
            row = connection.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                connection.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(STORE_SCHEMA_VERSION),),
                )
        # Raised outside the transaction block: closing the connection
        # inside it would make the context manager's commit blow up and
        # mask the mismatch with a "closed database" ProgrammingError.
        if row is not None and row[0] != str(STORE_SCHEMA_VERSION):
            connection.close()
            raise _SchemaMismatch(row[0])
        return connection

    def _reset_database(self, reason: str) -> None:
        """Discard the database (and blobs) after corruption or a schema bump."""
        logger.warning(
            "run store at %s is unusable (%s); rebuilding — affected cells "
            "will recompute",
            self._directory,
            reason,
        )
        self.stats.resets += 1
        for suffix in ("", "-wal", "-shm"):
            try:
                os.remove(self.database_path + suffix)
            except OSError:
                pass
        if os.path.isdir(self.blob_directory):
            for name in os.listdir(self.blob_directory):
                try:
                    os.remove(os.path.join(self.blob_directory, name))
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass

    def _connect(self) -> sqlite3.Connection:
        if self._connection is not None:
            return self._connection
        try:
            self._connection = self._connect_once()
        except _SchemaMismatch as mismatch:
            self._reset_database(
                f"schema version {mismatch.found!r} != {STORE_SCHEMA_VERSION}"
            )
            self._connection = self._connect_once()
        except sqlite3.DatabaseError as error:
            # Not a database / malformed header: a truncated or torn file.
            self._reset_database(f"corrupt database: {error}")
            self._connection = self._connect_once()
        return self._connection

    def close(self) -> None:
        """Close the database connection (reopened lazily on next use)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, spec: RunSpec, seed: int) -> Optional[RunRecord]:
        """Return the stored record of cell ``(spec, seed)``, or ``None``.

        The returned record carries the *requesting* spec's label and kind,
        so a relabelled grid reuses its cells.  Corrupt cells — unparsable
        summary JSON, missing or torn trace blobs — are dropped and
        reported as misses, never served.
        """
        key = cell_key(spec, seed)
        if key is None:
            self.stats.misses += 1
            return None
        try:
            row = self._connect().execute(
                "SELECT summary_json, has_trace FROM cells WHERE cell_key = ?",
                (key,),
            ).fetchone()
        except sqlite3.DatabaseError as error:
            self._handle_database_error(error)
            row = None
        if row is None:
            self.stats.misses += 1
            return None
        summary_json, has_trace = row
        try:
            summary = json.loads(summary_json)
        except (TypeError, ValueError):
            self._drop_corrupt_cell(key, "unparsable summary JSON")
            self.stats.misses += 1
            return None
        if not isinstance(summary, dict):
            self._drop_corrupt_cell(key, "summary is not an object")
            self.stats.misses += 1
            return None
        trace: Optional[np.ndarray] = None
        if has_trace:
            trace = self._load_trace(key)
            if trace is None:
                self.stats.misses += 1
                return None
        self.stats.hits += 1
        return RunRecord(
            label=spec.label,
            seed=int(seed),
            kind=spec.kind,
            summary=summary,
            trace=trace,
        )

    def _load_trace(self, key: str) -> Optional[np.ndarray]:
        path = self._blob_path(key)
        try:
            with np.load(path) as data:
                return np.array(data["trace"])
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
            self._drop_corrupt_cell(key, "missing or torn trace blob")
            return None

    def _drop_corrupt_cell(self, key: str, reason: str) -> None:
        logger.warning(
            "run store cell %s at %s is corrupt (%s); dropping it so the "
            "cell recomputes",
            key[:12],
            self._directory,
            reason,
        )
        self.stats.corrupt_cells += 1
        try:
            with self._connect() as connection:
                connection.execute("DELETE FROM cells WHERE cell_key = ?", (key,))
        except sqlite3.DatabaseError:  # pragma: no cover - cascading corruption
            pass
        try:
            os.remove(self._blob_path(key))
        except OSError:
            pass

    def _handle_database_error(self, error: sqlite3.DatabaseError) -> None:
        """React to a database-level failure mid-operation.

        ``malformed``/``not a database`` errors mean on-disk corruption:
        rebuild the store (the cells recompute).  Transient errors
        (``database is locked`` past the busy timeout) just propagate a
        miss for this lookup.
        """
        message = str(error).lower()
        if "malformed" in message or "not a database" in message:
            self.close()
            self._reset_database(f"corrupt database: {error}")
            self._connect()
        else:
            logger.warning("run store lookup failed (%s); treating as a miss", error)

    # ------------------------------------------------------------------
    # Store
    # ------------------------------------------------------------------
    def put(self, spec: RunSpec, seed: int, record: RunRecord) -> bool:
        """Upsert one cell; returns whether it was stored."""
        return self.put_many([(spec, seed, record)]) == 1

    def put_many(
        self, items: Sequence[Tuple[RunSpec, int, RunRecord]]
    ) -> int:
        """Atomically upsert a group of cells; returns how many stored.

        Cells whose spec is not content-addressable are skipped.  Trace
        blobs publish first (atomic ``tempfile`` + ``os.replace``), then
        every row lands in one transaction — a crash mid-way leaves either
        a fully-visible cell or an orphaned blob (cleaned by
        :meth:`vacuum`), never a torn row.
        """
        rows: List[Tuple[Any, ...]] = []
        now = time.time()
        version = _package_version()
        for spec, seed, record in items:
            payload = spec_payload(spec)
            if payload is None:
                continue
            group_hash = _digest(payload)
            payload["seed"] = int(seed)
            key = _digest(payload)
            if key is None or group_hash is None:
                continue
            del payload["seed"]
            # Insertion order is preserved (no sort_keys): summary key order
            # feeds BatchResult.aggregate's column order, which must match a
            # cold run exactly.
            summary_json = json.dumps(_jsonify(record.summary))
            has_trace = record.trace is not None
            if has_trace and not self._save_trace(key, record.trace):
                # Without its trace the cell cannot reproduce the record
                # bit-identically; skip it rather than store a lie.
                continue
            rows.append(
                (
                    key,
                    group_hash,
                    record.label,
                    int(seed),
                    record.kind,
                    version,
                    summary_json,
                    1 if has_trace else 0,
                    json.dumps(payload, sort_keys=True),
                    now,
                )
            )
        if not rows:
            return 0
        try:
            with self._connect() as connection:
                connection.executemany(
                    "INSERT OR REPLACE INTO cells "
                    "(cell_key, spec_hash, label, seed, kind, package_version, "
                    " summary_json, has_trace, spec_json, created_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    rows,
                )
        except sqlite3.DatabaseError as error:
            logger.warning("run store write failed (%s); cells not persisted", error)
            return 0
        self.stats.stores += len(rows)
        return len(rows)

    def _save_trace(self, key: str, trace: np.ndarray) -> bool:
        try:
            publish_npz(self._blob_path(key), {"trace": np.asarray(trace)})
        except OSError as error:
            logger.warning("run store blob write failed (%s)", error)
            return False
        return True

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        try:
            row = self._connect().execute("SELECT COUNT(*) FROM cells").fetchone()
        except sqlite3.DatabaseError:
            return 0
        return int(row[0])

    def rows(
        self,
        *,
        label: Optional[str] = None,
        kind: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Export stored cells as flat rows (the ``results`` CLI surface).

        Rows lead with ``label, seed, kind, package_version, created_at``
        followed by the cell's summary metrics — the same shape as
        :meth:`BatchResult.rows <repro.runtime.runner.BatchResult.rows>`
        plus provenance.  *label* accepts ``fnmatch`` globs; cells with
        unparsable summaries are dropped (and logged), never listed.
        """
        query = (
            "SELECT label, seed, kind, package_version, created_at, "
            "summary_json, cell_key FROM cells ORDER BY label, seed, cell_key"
        )
        try:
            cursor = self._connect().execute(query)
            raw = cursor.fetchall()
        except sqlite3.DatabaseError as error:
            self._handle_database_error(error)
            return []
        rows: List[Dict[str, Any]] = []
        for row_label, seed, row_kind, version, created_at, summary_json, key in raw:
            if label is not None and not fnmatch.fnmatchcase(row_label, label):
                continue
            if kind is not None and row_kind != kind:
                continue
            try:
                summary = json.loads(summary_json)
            except (TypeError, ValueError):
                self._drop_corrupt_cell(key, "unparsable summary JSON")
                continue
            row: Dict[str, Any] = {
                "label": row_label,
                "seed": int(seed),
                "kind": row_kind,
                "package_version": version,
                "created_at": created_at,
            }
            row.update(summary)
            rows.append(row)
            if limit is not None and len(rows) >= limit:
                break
        return rows

    def store_stats(self) -> Dict[str, Any]:
        """Aggregate on-disk statistics (the ``store --stats`` surface)."""
        cells_by_kind: Dict[str, int] = {}
        labels = 0
        versions: List[str] = []
        try:
            connection = self._connect()
            for kind, count in connection.execute(
                "SELECT kind, COUNT(*) FROM cells GROUP BY kind ORDER BY kind"
            ):
                cells_by_kind[kind] = int(count)
            labels = int(
                connection.execute(
                    "SELECT COUNT(DISTINCT label) FROM cells"
                ).fetchone()[0]
            )
            versions = [
                row[0]
                for row in connection.execute(
                    "SELECT DISTINCT package_version FROM cells ORDER BY 1"
                )
            ]
        except sqlite3.DatabaseError as error:
            self._handle_database_error(error)
        blob_count = 0
        blob_bytes = 0
        if os.path.isdir(self.blob_directory):
            for name in os.listdir(self.blob_directory):
                path = os.path.join(self.blob_directory, name)
                try:
                    blob_bytes += os.path.getsize(path)
                    blob_count += 1
                except OSError:  # pragma: no cover - raced removal
                    pass
        try:
            database_bytes = os.path.getsize(self.database_path)
        except OSError:
            database_bytes = 0
        return {
            "directory": self._directory,
            "schema_version": STORE_SCHEMA_VERSION,
            "cells": sum(cells_by_kind.values()),
            "cells_by_kind": cells_by_kind,
            "labels": labels,
            "package_versions": versions,
            "database_bytes": database_bytes,
            "blob_count": blob_count,
            "blob_bytes": blob_bytes,
            "session": self.stats.as_dict(),
        }

    def clear(self) -> int:
        """Delete every cell (rows, blobs, and orphaned temp files)."""
        removed = len(self)
        try:
            with self._connect() as connection:
                connection.execute("DELETE FROM cells")
        except sqlite3.DatabaseError as error:
            self._handle_database_error(error)
        clear_npz_files(self.blob_directory)
        return removed

    def vacuum(self) -> Dict[str, int]:
        """Compact the database and collect orphaned blob/temp files.

        Orphaned blobs appear when a writer crashed between publishing a
        blob and committing its row; stale ``*.tmp`` files when it crashed
        even earlier.  Both are safe to delete — the rows that matter are
        in the database.
        """
        orphan_blobs = 0
        try:
            connection = self._connect()
            live = {
                row[0]
                for row in connection.execute(
                    "SELECT cell_key FROM cells WHERE has_trace = 1"
                )
            }
            if os.path.isdir(self.blob_directory):
                for name in os.listdir(self.blob_directory):
                    if not name.endswith(".npz"):
                        continue
                    if name[: -len(".npz")] not in live:
                        try:
                            os.remove(os.path.join(self.blob_directory, name))
                            orphan_blobs += 1
                        except OSError:  # pragma: no cover
                            pass
            connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            connection.execute("VACUUM")
        except sqlite3.DatabaseError as error:
            self._handle_database_error(error)
        stale_tmp = sweep_stale_tmp_files(self.blob_directory, max_age_seconds=0.0)
        return {"orphan_blobs": orphan_blobs, "stale_tmp_files": stale_tmp}


class _SchemaMismatch(Exception):
    """Internal: the on-disk store was written by a different schema."""

    def __init__(self, found: str) -> None:
        super().__init__(found)
        self.found = found


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
StoreLike = Union[None, bool, str, RunStore]


def resolve_store(store: StoreLike) -> Optional[RunStore]:
    """Normalise a ``store`` knob into a :class:`RunStore` (or ``None``).

    ``None`` consults the environment (:func:`default_directory` — off
    unless opted in), ``False`` disables the store outright, ``True``
    opens the default location (still honouring the ``REPRO_RUN_STORE=0``
    kill switch), a string opens that directory, and a ready
    :class:`RunStore` passes through.
    """
    if store is None:
        directory = default_directory()
        return None if directory is None else RunStore(directory)
    if store is False:
        return None
    if store is True:
        directory = opt_in_directory()
        return None if directory is None else RunStore(directory)
    if isinstance(store, RunStore):
        return store
    if isinstance(store, (str, os.PathLike)):
        return RunStore(str(store))
    raise ValidationError(
        f"store must be None, a bool, a directory, or a RunStore; "
        f"got {type(store).__name__}"
    )
