"""Shared resolution and hygiene for on-disk cache directories.

Two subsystems persist content-addressed artifacts under ``.repro_cache/``:
the MDP solve cache (:mod:`repro.core.solve_cache`) and the experiment run
store (:mod:`repro.runtime.store`).  Both follow the same conventions —
an environment variable overriding the location, a falsey kill-switch
variable disabling persistence, atomic ``tempfile`` + ``os.replace``
publishes of ``.npz`` files (:func:`publish_npz`), and a clear that removes
them (:func:`clear_npz_files`) — so the directory handling lives here once
instead of being duplicated per subsystem.

A crash between ``tempfile.mkstemp`` and ``os.replace`` leaves an orphaned
``*.tmp`` file behind; :func:`sweep_stale_tmp_files` removes such leftovers
(conservatively: only files old enough that no live writer can still own
them) and is called from the CLI maintenance paths (``cache --clear``,
``store --clear/--vacuum``).
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Mapping, Optional

import numpy as np

__all__ = [
    "FALSEY_VALUES",
    "clear_npz_files",
    "env_disabled",
    "publish_npz",
    "resolve_cache_dir",
    "sweep_stale_tmp_files",
]

#: Spellings of "disabled" accepted for cache kill-switch environment
#: variables (compared case-insensitively after stripping whitespace).
FALSEY_VALUES = frozenset(("0", "false", "no", "off", ""))

#: A ``*.tmp`` file must be at least this old (seconds) before the sweeper
#: treats it as an orphan; younger files may belong to a live writer that
#: has not reached its ``os.replace`` yet.
STALE_TMP_AGE_SECONDS = 3600.0


def env_disabled(name: str) -> bool:
    """Whether the environment variable *name* is set to a falsey spelling."""
    value = os.environ.get(name)
    return value is not None and value.strip().lower() in FALSEY_VALUES


def resolve_cache_dir(
    dir_env: str,
    default: str,
    *,
    disable_env: Optional[str] = None,
    enabled_by_default: bool = True,
) -> Optional[str]:
    """Resolve a cache directory from the environment.

    Parameters
    ----------
    dir_env:
        Environment variable naming the directory override.
    default:
        Directory used when ``dir_env`` is unset.
    disable_env:
        Optional kill-switch variable: a falsey spelling (see
        :data:`FALSEY_VALUES`) disables the cache entirely (returns
        ``None``).  With ``enabled_by_default=False`` the logic inverts
        into an opt-in: the cache is off unless ``disable_env`` holds a
        truthy value or ``dir_env`` names a directory.
    """
    if disable_env is not None:
        if env_disabled(disable_env):
            return None
        if not enabled_by_default:
            explicit_dir = os.environ.get(dir_env)
            if explicit_dir:
                return explicit_dir
            if os.environ.get(disable_env) is None:
                return None
    return os.environ.get(dir_env, default)


def sweep_stale_tmp_files(
    directory: Optional[str],
    *,
    max_age_seconds: float = STALE_TMP_AGE_SECONDS,
    now: Optional[float] = None,
) -> int:
    """Delete orphaned ``*.tmp`` files from *directory*; return the count.

    Writers that crash between creating their private temp file and the
    atomic ``os.replace`` publish leave a ``*.tmp`` orphan.  Anything with
    that suffix older than *max_age_seconds* is removed; younger files are
    left alone because a live writer may still own them.  Missing or
    unreadable directories are a no-op.
    """
    if directory is None or not os.path.isdir(directory):
        return 0
    cutoff = (time.time() if now is None else now) - max_age_seconds
    removed = 0
    try:
        names = os.listdir(directory)
    except OSError:  # pragma: no cover - unreadable directory
        return 0
    for name in names:
        if not name.endswith(".tmp"):
            continue
        path = os.path.join(directory, name)
        try:
            if os.path.getmtime(path) <= cutoff:
                os.remove(path)
                removed += 1
        except OSError:  # pragma: no cover - raced with another sweeper
            continue
    return removed


def publish_npz(path: str, arrays: Mapping[str, np.ndarray]) -> None:
    """Atomically write *arrays* to *path* as an ``np.savez`` archive.

    Concurrent writers may store the same path; each writes a private
    ``*.tmp`` file next to it and renames it over the target, so readers
    never observe a half-written archive.  The temp file is removed if the
    write fails.  Creates the directory; raises :class:`OSError` when it is
    unwritable, and callers choose how to degrade.
    """
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(temp_path, path)
    except BaseException:
        os.remove(temp_path)
        raise


def clear_npz_files(directory: Optional[str]) -> None:
    """Remove every ``*.npz`` file of *directory*, then every ``*.tmp`` orphan.

    Best effort: files that cannot be removed are left; a missing directory
    is a no-op.
    """
    if directory is None or not os.path.isdir(directory):
        return
    for name in os.listdir(directory):
        if name.endswith(".npz"):
            try:
                os.remove(os.path.join(directory, name))
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
    sweep_stale_tmp_files(directory, max_age_seconds=0.0)
