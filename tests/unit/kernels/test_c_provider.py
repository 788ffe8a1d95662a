"""The on-demand C build: caching, compiler override, graceful degradation.

These tests only exercise build *plumbing* (the kernels' numerical behavior
is locked down by the parity property suite).  They are skipped wholesale
when the host has no C toolchain — the provider then simply reports
unavailable, which ``test_backend_resolution`` already covers.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np
import pytest

from repro import kernels
from repro.kernels import _c_provider

pytestmark = pytest.mark.skipif(
    _c_provider._find_compiler() is None,
    reason="no C compiler on this host")


@pytest.fixture(autouse=True)
def _fresh_provider(monkeypatch):
    monkeypatch.delenv(kernels.ENV_VAR, raising=False)
    kernels.reset_for_tests()
    yield
    kernels.reset_for_tests()


def test_build_and_load_in_a_fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path))
    _c_provider.reset_for_tests()
    table = _c_provider.load()
    assert table is not None and set(table) == set(kernels.KERNEL_NAMES)
    artifact = _c_provider.shared_object_path()
    assert os.path.dirname(artifact) == str(tmp_path)
    assert os.path.exists(artifact)
    # No stray .c / .so temp files survive the build.
    leftovers = [name for name in os.listdir(tmp_path)
                 if name != os.path.basename(artifact)]
    assert leftovers == []


def test_second_load_reuses_the_cached_artifact(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path))
    _c_provider.reset_for_tests()
    assert _c_provider.available()
    artifact = _c_provider.shared_object_path()
    stamp = os.stat(artifact).st_mtime_ns
    _c_provider.reset_for_tests()
    assert _c_provider.available()
    assert os.stat(artifact).st_mtime_ns == stamp  # reused, not rebuilt


def test_artifact_name_is_keyed_on_source_hash():
    name = os.path.basename(_c_provider.shared_object_path())
    assert name == f"repro_kernels_{_c_provider._source_tag()}.so"
    assert len(_c_provider._source_tag()) == 16


def test_bogus_compiler_degrades_to_unavailable(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path))
    monkeypatch.setenv("REPRO_KERNELS_CC", "definitely-not-a-compiler")
    _c_provider.reset_for_tests()
    assert not _c_provider.available()
    assert "no C compiler" in (_c_provider.error() or "")
    info = _c_provider.info()
    assert info["available"] is False and info["kernels"] == []


def test_recovers_after_compiler_env_is_fixed(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path))
    monkeypatch.setenv("REPRO_KERNELS_CC", "definitely-not-a-compiler")
    _c_provider.reset_for_tests()
    assert not _c_provider.available()
    monkeypatch.delenv("REPRO_KERNELS_CC")
    _c_provider.reset_for_tests()
    assert _c_provider.available()
    assert _c_provider.error() is None


class TestBindingChecks:
    """Every C wrapper refuses a wrong-dtype or non-contiguous buffer with
    an exception before anything reaches C (the outputs stay untouched)."""

    @staticmethod
    def _refused(call):
        with pytest.raises((TypeError, ctypes.ArgumentError)):
            call()

    @staticmethod
    def _table(tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path))
        _c_provider.reset_for_tests()
        table = _c_provider.load()
        assert table is not None
        return table

    def test_mg_update(self, tmp_path, monkeypatch):
        mg_update = self._table(tmp_path, monkeypatch)["mg_update"]
        k = 4

        def state():
            return [np.zeros(k, dtype=np.int64) for _ in range(4)] + [
                np.zeros(3, dtype=np.int64)]

        chunk = np.arange(6, dtype=np.int64)
        for bad in (chunk.astype(np.int32), np.arange(12, dtype=np.int64)[::2]):
            self._refused(lambda: mg_update(*state(), bad))
        for slot in range(5):
            for make_bad in (lambda a: a.astype(np.float64),
                             lambda a: np.repeat(a, 2)[::2]):
                arrays = state()
                arrays[slot] = make_bad(arrays[slot])
                self._refused(lambda: mg_update(*arrays, chunk))
                assert all(not array.any() for array in arrays)

    def test_fold_interned(self, tmp_path, monkeypatch):
        fold_interned = self._table(tmp_path, monkeypatch)["fold_interned"]

        def arrays():
            return [np.array([0, 1, 1], dtype=np.int64),
                    np.array([1.0, 2.0, 3.0]),
                    np.array([2, 1], dtype=np.int64),
                    np.zeros(2), np.zeros(3, dtype=np.int64),
                    np.zeros(6, dtype=np.int64), np.zeros(6),
                    np.zeros(3, dtype=np.int64)]

        dtypes = [np.int64, np.float64, np.int64, np.float64, np.int64,
                  np.int64, np.float64, np.int64]
        for slot, dtype in enumerate(dtypes):
            wrong = np.float32 if dtype is np.float64 else np.int32
            for make_bad in (lambda a: a.astype(wrong),
                             lambda a: np.repeat(a, 2)[::2]):
                args = arrays()
                args[slot] = make_bad(args[slot])
                self._refused(lambda: fold_interned(*args[:3], 2, *args[3:]))
                assert not args[3].any()

    def test_fold_step(self, tmp_path, monkeypatch):
        binder = self._table(tmp_path, monkeypatch)["fold_step"]

        def buffers():
            return [np.zeros(4), np.zeros(4, dtype=np.int64),
                    np.zeros(4, dtype=np.int64), np.zeros(4),
                    np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64)]

        dtypes = [np.float64, np.int64, np.int64, np.float64, np.int64,
                  np.int64]
        for slot, dtype in enumerate(dtypes):
            wrong = np.float32 if dtype is np.float64 else np.int32
            for make_bad in (lambda a: a.astype(wrong),
                             lambda a: np.repeat(a, 2)[::2]):
                args = buffers()
                args[slot] = make_bad(args[slot])
                self._refused(lambda: binder(2, *args))
        args = buffers()
        step = binder(2, *args)
        keys = np.array([0, 1], dtype=np.int64)
        values = np.array([1.0, 2.0])
        for bad_keys, bad_values in (
                (keys.astype(np.int32), values),
                (keys, values.astype(np.float32)),
                (np.repeat(keys, 2)[::2], values),
                (keys, np.repeat(values, 2)[::2]),
                (keys.tolist(), values)):
            self._refused(lambda: step(bad_keys, bad_values, 0))
        with pytest.raises(ValueError):
            step(keys, values[:1], 0)
        assert not any(array.any() for array in args)
        assert step(keys, values, 0) == 0
        assert args[5].tolist() == [2, 0] and args[0].tolist()[:2] == [1.0, 2.0]

    def test_scan_binary_header(self, tmp_path, monkeypatch):
        scan = self._table(tmp_path, monkeypatch)["scan_binary_header"]
        buf = np.frombuffer(b'{"count": 1}', dtype=np.uint8)
        out = np.zeros(16, dtype=np.int64)
        self._refused(lambda: scan(buf.astype(np.int8), out))
        self._refused(lambda: scan(np.repeat(buf, 2)[::2], out))
        self._refused(lambda: scan(buf, out.astype(np.int32)))
        self._refused(lambda: scan(buf, np.zeros(32, dtype=np.int64)[::2]))
        assert not out.any()
        assert scan(buf, out) == 0 and out[7] == 1
