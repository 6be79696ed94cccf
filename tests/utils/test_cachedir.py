"""Tests for repro.utils.cachedir (shared cache-directory resolution).

Both on-disk caches — the MDP solve cache and the experiment run store —
resolve their location and kill switches through these helpers, so the
env-variable semantics are pinned here once: falsey spellings, opt-out
versus opt-in resolution, and the stale ``*.tmp`` sweeper that cleans up
after crashed atomic publishes — and the atomic ``.npz`` publish and clear
both caches share.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.utils.cachedir import (
    FALSEY_VALUES,
    clear_npz_files,
    env_disabled,
    publish_npz,
    resolve_cache_dir,
    sweep_stale_tmp_files,
)

_DIR_ENV = "REPRO_TEST_CACHEDIR_DIR"
_KILL_ENV = "REPRO_TEST_CACHEDIR_ENABLE"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(_DIR_ENV, raising=False)
    monkeypatch.delenv(_KILL_ENV, raising=False)


class TestEnvDisabled:
    @pytest.mark.parametrize("value", sorted(FALSEY_VALUES) + [" 0 ", "FALSE", "Off"])
    def test_falsey_spellings(self, monkeypatch, value):
        monkeypatch.setenv(_KILL_ENV, value)
        assert env_disabled(_KILL_ENV)

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", "anything"])
    def test_truthy_spellings(self, monkeypatch, value):
        monkeypatch.setenv(_KILL_ENV, value)
        assert not env_disabled(_KILL_ENV)

    def test_unset_is_not_disabled(self):
        assert not env_disabled(_KILL_ENV)


class TestResolveCacheDir:
    def test_default_when_unset(self):
        assert resolve_cache_dir(_DIR_ENV, "default") == "default"

    def test_dir_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(_DIR_ENV, "/elsewhere")
        assert resolve_cache_dir(_DIR_ENV, "default") == "/elsewhere"

    def test_kill_switch_disables(self, monkeypatch):
        monkeypatch.setenv(_KILL_ENV, "0")
        assert (
            resolve_cache_dir(_DIR_ENV, "default", disable_env=_KILL_ENV) is None
        )

    def test_kill_switch_beats_dir_env(self, monkeypatch):
        monkeypatch.setenv(_DIR_ENV, "/elsewhere")
        monkeypatch.setenv(_KILL_ENV, "off")
        assert (
            resolve_cache_dir(_DIR_ENV, "default", disable_env=_KILL_ENV) is None
        )

    def test_opt_in_is_off_by_default(self):
        assert (
            resolve_cache_dir(
                _DIR_ENV, "default", disable_env=_KILL_ENV, enabled_by_default=False
            )
            is None
        )

    def test_opt_in_via_enable_env(self, monkeypatch):
        monkeypatch.setenv(_KILL_ENV, "1")
        assert (
            resolve_cache_dir(
                _DIR_ENV, "default", disable_env=_KILL_ENV, enabled_by_default=False
            )
            == "default"
        )

    def test_opt_in_via_dir_env(self, monkeypatch):
        monkeypatch.setenv(_DIR_ENV, "/elsewhere")
        assert (
            resolve_cache_dir(
                _DIR_ENV, "default", disable_env=_KILL_ENV, enabled_by_default=False
            )
            == "/elsewhere"
        )

    def test_opt_in_kill_switch_wins_over_dir_env(self, monkeypatch):
        monkeypatch.setenv(_DIR_ENV, "/elsewhere")
        monkeypatch.setenv(_KILL_ENV, "no")
        assert (
            resolve_cache_dir(
                _DIR_ENV, "default", disable_env=_KILL_ENV, enabled_by_default=False
            )
            is None
        )


class TestSweepStaleTmpFiles:
    def test_removes_only_stale_tmp_files(self, tmp_path):
        stale = tmp_path / "a.tmp"
        fresh = tmp_path / "b.tmp"
        keeper = tmp_path / "c.npz"
        for path in (stale, fresh, keeper):
            path.write_bytes(b"x")
        old = os.path.getmtime(stale) - 7200.0
        os.utime(stale, (old, old))
        removed = sweep_stale_tmp_files(str(tmp_path), max_age_seconds=3600.0)
        assert removed == 1
        assert not stale.exists()
        assert fresh.exists()
        assert keeper.exists()

    def test_zero_age_removes_everything_tmp(self, tmp_path):
        (tmp_path / "a.tmp").write_bytes(b"x")
        (tmp_path / "b.tmp").write_bytes(b"x")
        assert sweep_stale_tmp_files(str(tmp_path), max_age_seconds=0.0) == 2

    def test_missing_directory_is_noop(self, tmp_path):
        assert sweep_stale_tmp_files(str(tmp_path / "nope")) == 0

    def test_none_directory_is_noop(self):
        assert sweep_stale_tmp_files(None) == 0

    def test_explicit_now_pins_the_cutoff(self, tmp_path):
        target = tmp_path / "a.tmp"
        target.write_bytes(b"x")
        mtime = os.path.getmtime(target)
        assert (
            sweep_stale_tmp_files(
                str(tmp_path), max_age_seconds=10.0, now=mtime + 5.0
            )
            == 0
        )
        assert (
            sweep_stale_tmp_files(
                str(tmp_path), max_age_seconds=10.0, now=mtime + 20.0
            )
            == 1
        )


class TestPublishNpz:
    def test_publish_creates_the_directory_and_round_trips(self, tmp_path):
        directory = tmp_path / "nested" / "blobs"
        publish_npz(str(directory / "k.npz"), {"a": np.arange(3), "b": np.eye(2)})
        assert sorted(os.listdir(directory)) == ["k.npz"]
        with np.load(directory / "k.npz") as data:
            assert data.files == ["a", "b"]
            np.testing.assert_array_equal(data["b"], np.eye(2))

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        def broken_savez(handle, **arrays):
            handle.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", broken_savez)
        with pytest.raises(OSError):
            publish_npz(str(tmp_path / "k.npz"), {"a": np.arange(3)})
        assert os.listdir(tmp_path) == []

    def test_clear_removes_npz_and_tmp_files_only(self, tmp_path):
        for name in ("a.npz", "b.npz", "c.tmp", "keep.db"):
            (tmp_path / name).write_bytes(b"x")
        clear_npz_files(str(tmp_path))
        assert os.listdir(tmp_path) == ["keep.db"]

    def test_clear_missing_or_none_directory_is_noop(self, tmp_path):
        clear_npz_files(str(tmp_path / "missing"))
        clear_npz_files(None)


class TestSolveCacheIntegration:
    def test_solve_cache_resolves_through_shared_helper(self, monkeypatch):
        from repro.core import solve_cache

        monkeypatch.setenv("REPRO_SOLVE_CACHE_DIR", "/elsewhere")
        assert solve_cache.default_directory() == "/elsewhere"
        monkeypatch.setenv("REPRO_SOLVE_CACHE", "0")
        assert solve_cache.default_directory() is None

    def test_run_store_resolves_through_shared_helper(self, monkeypatch):
        from repro.runtime import store

        monkeypatch.delenv("REPRO_RUN_STORE", raising=False)
        monkeypatch.delenv("REPRO_RUN_STORE_DIR", raising=False)
        assert store.default_directory() is None  # opt-in: off by default
        monkeypatch.setenv("REPRO_RUN_STORE", "1")
        assert store.default_directory() == store.DEFAULT_DIRECTORY
        monkeypatch.setenv("REPRO_RUN_STORE_DIR", "/elsewhere")
        assert store.default_directory() == "/elsewhere"
        monkeypatch.setenv("REPRO_RUN_STORE", "0")
        assert store.default_directory() is None
