"""Content-addressable cache of MDP solver results.

Solving an exact per-RSU cache-management MDP
(:class:`~repro.core.caching_mdp.RSUCachingMDP`) is a pure function of the
model parameters and the solver settings, and near the exact-mode state
limit it costs about a second, against a millisecond or two to load: this
module keys every :class:`~repro.core.solvers.SolverResult` by a canonical
hash of those inputs and stores it in a bounded in-memory map, optionally
persisted to disk (``.repro_cache/mdp_solves/`` by default).  The in-memory
layer makes seed batches and repeated sweeps within one process share
solves; the disk layer makes separate processes — pool workers, successive
CLI invocations, repeated benchmark runs — share them too, so a sweep only
re-solves what actually changed.  The single-content MDPs of the factored
controller are solved in one stacked pass that is cheaper than a lookup,
and never come here.

The cache is exact: a hit returns arrays that are bit-for-bit identical to a
fresh solve (value iteration is deterministic and the ``.npz`` round trip
preserves float64 exactly), which is what lets the cached path stay inside
the golden-trajectory equivalence contract of the simulators.

Environment knobs
-----------------
``REPRO_SOLVE_CACHE_DIR``
    Overrides the on-disk location of the global cache.
``REPRO_SOLVE_CACHE=0``
    Disables disk persistence of the global cache (memory-only).  The
    usual falsey spellings — ``0``, ``false``, ``no``, ``off``, and the
    empty string, case-insensitively — all disable it; anything else
    leaves it on.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.core.solvers import SolverResult
from repro.exceptions import ValidationError
from repro.utils.cachedir import clear_npz_files, publish_npz, resolve_cache_dir
from repro.utils.validation import check_positive_int

#: Default on-disk location, relative to the working directory.
DEFAULT_DIRECTORY = os.path.join(".repro_cache", "mdp_solves")

#: Folded into every solve key.  Bump whenever the solver or MDP semantics
#: change in a way the keyed parameters cannot see (e.g. value-iteration
#: internals, reward definitions), so stale on-disk entries from earlier
#: code versions are invalidated instead of silently served.
SOLVER_CODE_VERSION = 1

_ENV_DIR = "REPRO_SOLVE_CACHE_DIR"
_ENV_DISABLE = "REPRO_SOLVE_CACHE"


def _canonical(value: Any) -> Any:
    """Normalise *value* into a JSON-stable representation."""
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_canonical(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ValidationError(
        f"cannot canonicalise {type(value).__name__} into a solve key"
    )


def solve_key(kind: str, **params: Any) -> str:
    """Return the content hash of a solve described by *kind* and *params*.

    Floats are serialised with ``repr``-exact JSON, so two parameter sets
    produce the same key exactly when they would produce the same solve.
    """
    payload = json.dumps(
        {
            "version": SOLVER_CODE_VERSION,
            "kind": str(kind),
            "params": _canonical(params),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class SolveCacheStats:
    """Counters describing how a :class:`SolveCache` has been used."""

    hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def solicitations(self) -> int:
        """Total number of lookups."""
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from memory or disk."""
        total = self.solicitations
        if total == 0:
            return float("nan")
        return (self.hits + self.disk_hits) / total

    def as_dict(self) -> Dict[str, float]:
        """Return the counters as a plain dictionary."""
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "solicitations": self.solicitations,
            "hit_rate": self.hit_rate,
        }

    def reset(self) -> None:
        """Zero every counter."""
        self.hits = self.disk_hits = self.misses = 0
        self.stores = self.evictions = 0


class SolveCache:
    """Bounded FIFO cache of solver results, optionally persisted to disk.

    Parameters
    ----------
    capacity:
        Maximum number of results kept in memory; the oldest entry is
        evicted first (FIFO).
    directory:
        Directory for the on-disk layer; ``None`` keeps the cache
        memory-only.  The directory is created lazily on the first store.
    """

    def __init__(
        self, *, capacity: int = 4096, directory: Optional[str] = None
    ) -> None:
        self._capacity = check_positive_int(capacity, "capacity")
        self._directory = directory
        self._disk_ok = directory is not None
        self._memory: "OrderedDict[str, SolverResult]" = OrderedDict()
        self.stats = SolveCacheStats()

    @property
    def capacity(self) -> int:
        """Maximum number of in-memory entries."""
        return self._capacity

    @property
    def directory(self) -> Optional[str]:
        """On-disk location, or ``None`` for a memory-only cache."""
        return self._directory

    def __len__(self) -> int:
        return len(self._memory)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[SolverResult]:
        """Return the cached result for *key*, or ``None`` on a miss."""
        result = self._memory.get(key)
        if result is not None:
            self.stats.hits += 1
            return result
        result = self._load(key)
        if result is not None:
            self.stats.disk_hits += 1
            self._insert(key, result)
            return result
        self.stats.misses += 1
        return None

    def put(self, key: str, result: SolverResult, *, persist: bool = True) -> None:
        """Store *result* under *key* (and on disk unless *persist* is false)."""
        self._insert(key, result)
        self.stats.stores += 1
        if persist:
            self._save(key, result)

    def clear(self, *, disk: bool = False) -> None:
        """Drop the in-memory entries (and the on-disk files when *disk*).

        The disk pass also removes orphaned ``*.tmp`` files left by writers
        interrupted before their atomic ``os.replace`` publish.
        """
        self._memory.clear()
        if disk:
            clear_npz_files(self._directory)

    def _insert(self, key: str, result: SolverResult) -> None:
        if key not in self._memory and len(self._memory) >= self._capacity:
            self._memory.popitem(last=False)
            self.stats.evictions += 1
        self._memory[key] = result

    # ------------------------------------------------------------------
    # Disk layer
    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(str(self._directory), f"{key}.npz")

    def _save(self, key: str, result: SolverResult) -> None:
        if not self._disk_ok:
            return
        try:
            publish_npz(
                self._path(key),
                {
                    "values": result.values,
                    "policy": result.policy,
                    "q_values": result.q_values,
                    "iterations": np.asarray(result.iterations, dtype=np.int64),
                    "converged": np.asarray(result.converged, dtype=bool),
                    "residual": np.asarray(result.residual, dtype=float),
                    "history": np.asarray(result.history, dtype=float),
                },
            )
        except OSError:
            # Unwritable directory (read-only checkout, exhausted disk):
            # degrade to memory-only instead of failing the solve.
            self._disk_ok = False

    def _load(self, key: str) -> Optional[SolverResult]:
        if not self._disk_ok:
            return None
        path = self._path(key)
        if not os.path.isfile(path):
            return None
        try:
            with np.load(path) as data:
                return SolverResult(
                    values=data["values"],
                    policy=np.asarray(data["policy"], dtype=int),
                    q_values=data["q_values"],
                    iterations=int(data["iterations"]),
                    converged=bool(data["converged"]),
                    residual=float(data["residual"]),
                    history=[float(v) for v in data["history"]],
                )
        except (OSError, ValueError, KeyError, EOFError):
            # Corrupted entry (interrupted writer on a pre-atomic layout,
            # disk fault): drop it and treat the lookup as a miss.
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            return None


# ----------------------------------------------------------------------
# Process-global cache
# ----------------------------------------------------------------------
_global_cache: Optional[SolveCache] = None


def default_directory() -> Optional[str]:
    """Resolve the on-disk location of the global cache from the environment."""
    return resolve_cache_dir(_ENV_DIR, DEFAULT_DIRECTORY, disable_env=_ENV_DISABLE)


def global_solve_cache() -> SolveCache:
    """Return the process-wide solve cache, creating it on first use."""
    global _global_cache
    if _global_cache is None:
        _global_cache = SolveCache(directory=default_directory())
    return _global_cache


def configure_solve_cache(
    *, capacity: int = 4096, directory: Optional[str] = None
) -> SolveCache:
    """Replace the global cache (tests and benchmarks use this for isolation)."""
    global _global_cache
    _global_cache = SolveCache(capacity=capacity, directory=directory)
    return _global_cache


def reset_solve_cache() -> None:
    """Drop the global cache so the next use re-reads the environment."""
    global _global_cache
    _global_cache = None
