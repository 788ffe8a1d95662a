"""The on-demand C build: caching, compiler override, graceful degradation.

These tests only exercise build *plumbing* (the kernels' numerical behavior
is locked down by the parity property suite).  They are skipped wholesale
when the host has no C toolchain — the provider then simply reports
unavailable, which ``test_backend_resolution`` already covers.
"""

from __future__ import annotations

import ctypes
import os
import re

import numpy as np
import pytest

from repro import kernels
from repro.kernels import _c_provider, _c_src

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


def test_served_frames_fold_without_address_lookups(monkeypatch):
    """Once a merger's fold step is bound, a binary frame is decoded and
    folded without an ``ndarray.ctypes`` lookup or a backend resolution:
    the step reads the frame body itself."""
    from repro.api import framing, wire

    monkeypatch.setenv(kernels.ENV_VAR, "cc")
    body = framing.payload_frame_body(wire.encode_counters(
        {1: 2.0, 2: 1.0, 3: 4.0}, k=8, stream_length=7))
    merger = framing.StreamingMerger(8)
    for _ in range(2):  # the first step runs in numpy, the second binds C
        merger.add(framing.decode_payload_body(body))
    lookups, resolutions = [], []
    ptr, resolve = _c_provider._ptr, kernels.resolve_backend
    monkeypatch.setattr(_c_provider, "_ptr", lambda array, dtype: (
        lookups.append(dtype), ptr(array, dtype))[1])
    monkeypatch.setattr(kernels, "resolve_backend", lambda: (
        resolutions.append(1), resolve())[1])
    for _ in range(3):
        merger.add(framing.decode_payload_body(body))
    assert lookups == [] and resolutions == []
    assert merger.merged() == {1: 10.0, 2: 5.0, 3: 20.0}


def test_ptr_is_the_data_address_of_any_accepted_array():
    """The cheap lookup for writable buffers and ``ndarray.ctypes`` for
    read-only ones give the same address, views and empty arrays too."""
    base = np.arange(8, dtype=np.int64)
    read_only = np.frombuffer(base.tobytes(), dtype=np.int64)
    for array in (base, base[3:], base[:0], read_only, read_only[2:]):
        assert _c_provider._ptr(array, np.dtype(np.int64)) == array.ctypes.data


def test_abi_defines_are_rendered_once_from_the_python_ints():
    """Every status code the C names is ``#define``d exactly once, with the
    value of the python int of the same name, so the two sides of the ABI
    cannot drift apart."""
    prefixes = ("MG_", "FOLD_")
    python_ints = {name: value for name, value in vars(_c_src).items()
                   if name.startswith(prefixes)}
    defines = re.findall(r"^#define ((?:MG|FOLD)_\w+) (.*)$",
                         _c_src.C_SOURCE, flags=re.MULTILINE)
    assert [name for name, _ in defines] == list(python_ints)
    assert {name: int(value) for name, value in defines} == python_ints
    body = _c_src.C_SOURCE.replace(_c_src._ABI_DEFINES, "")
    assert "#define" not in body
    assert set(re.findall(r"\b(?:MG|FOLD)_[A-Z_]+\b", body)) <= set(
        python_ints)


def test_a_status_other_than_mg_ok_raises_and_keeps_the_state(monkeypatch):
    """``update_batch`` reads the kernel's status through the ABI names: any
    status but ``MG_OK`` is a corrupt sketch, and the state is left as it
    was before the batch."""
    from repro.exceptions import SketchStateError
    from repro.sketches import MisraGriesSketch

    sketch = MisraGriesSketch(4)
    sketch.update_batch(np.array([1, 2, 2, 3], dtype=np.int64))
    before = dict(sketch.counters())
    monkeypatch.setattr(kernels, "get_kernel", lambda name: (
        lambda *state: _c_src.MG_CORRUPT))
    with pytest.raises(SketchStateError, match="sketch state is corrupt"):
        sketch.update_batch(np.array([4, 5], dtype=np.int64))
    assert sketch.counters() == before
    assert sketch.stream_length == 4


class TestBindingChecks:
    """Every C wrapper refuses a wrong-dtype or non-contiguous buffer, a
    frame body that is not ``bytes`` and offsets past the body's end with an
    exception before anything reaches C (the outputs stay untouched)."""

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

    def test_fold_run(self, tmp_path, monkeypatch):
        binder = self._table(tmp_path, monkeypatch)["fold_step"]
        args = [np.zeros(8), np.zeros(6, dtype=np.int64),
                np.zeros(6, dtype=np.int64), np.zeros(6),
                np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64)]
        run = binder(3, *args).run
        keys = np.array([0, 1, 1, 2], dtype=np.int64)
        values = np.array([1.0, 2.0, 3.0, 4.0])
        lengths = np.array([2, 2], dtype=np.int64)
        for slot, wrong in enumerate((np.int32, np.float32, np.int32)):
            for make_bad in (lambda a: a.astype(wrong),
                             lambda a: np.repeat(a, 2)[::2],
                             lambda a: a.tolist()):
                bad = [keys, values, lengths]
                bad[slot] = make_bad(bad[slot])
                self._refused(lambda: run(bad[0], bad[1], 0, bad[2]))
        for bad_keys, bad_values, bad_lengths in (
                (keys, values, np.array([2, 3])),    # past both arrays
                (keys[:3], values, lengths),         # past the keys
                (keys, values[:3], lengths),         # past the values
                (keys, values, np.array([-1, 5]))):  # a negative length
            with pytest.raises(ValueError, match="run lengths"):
                run(bad_keys, bad_values, 0, bad_lengths)
        # After one step up to 3 ids stay live, so a later 4-key sketch
        # needs 7 slots of the 6 bound.
        with pytest.raises(ValueError, match="too small for this run"):
            run(np.arange(5, dtype=np.int64), np.ones(5), 0,
                np.array([1, 4], dtype=np.int64))
        assert not any(array.any() for array in args)
        assert run(keys, values, 0, lengths) == (_c_src.FOLD_OK, 2)
        assert args[5].tolist() == [3, 0]
        assert args[0].tolist()[:3] == [1.0, 5.0, 4.0]
        args[0][0] = np.nan  # a live NaN refuses the run's first step
        assert run(keys, values, 0, lengths) == (_c_src.FOLD_NAN, 0)
        assert args[5].tolist() == [3, 0] and args[0].tolist()[1:3] == [5.0, 4.0]

    def test_fold_run_stops_at_a_nan_sketch_and_resumes(self, tmp_path,
                                                        monkeypatch):
        """A 3-sketch run with a NaN in sketch 2 stops there after one
        applied step; ``FoldState.run`` then folds that sketch in numpy and
        the rest in C, bit for bit the ``REPRO_KERNELS=python`` fold."""
        from repro.sketches import merge

        self._table(tmp_path, monkeypatch)
        ids = np.array([0, 1, 2, 1, 3, 2, 4, 0, 5, 6], dtype=np.int64)
        values = np.array([3.0, 1.0, 2.0, 2.0, 1.0, np.nan, 5.0, 1.0, 4.0,
                           2.0])
        lengths = [3, 2, 2, 3]

        def bits(state):
            keys, values = state.arrays()
            return keys.tolist(), values.view(np.int64).tolist()

        def folded(ids, values, lengths):
            state = merge.FoldState(3)
            state.run(ids, values, lengths)
            return bits(state)

        monkeypatch.setenv(kernels.ENV_VAR, "python")
        after_one = folded(ids[:5], values[:5], [3, 2])
        expected = folded(ids, values, lengths)
        monkeypatch.setenv(kernels.ENV_VAR, "cc")
        state = merge.FoldState(3)
        assert state._grow(ids)  # the id space the whole run covers
        state.step(ids[:3], values[:3])  # the first step: numpy
        state._reserve(3 + 3)
        status, applied = state._bound().run(
            ids[3:], values[3:], 0, np.array(lengths[1:], dtype=np.int64))
        assert (status, applied) == (_c_src.FOLD_NAN, 1)
        assert bits(state) == after_one
        state.run(ids[5:], values[5:], lengths[2:])
        assert bits(state) == expected

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
        body = b"pad" + keys.tobytes() + values.tobytes()
        for bad_frame in ((bytearray(body), 3), (memoryview(body), 3)):
            self._refused(lambda: step(keys, values, 0, bad_frame))
        for bad_at in (-1, 4, len(body)):
            with pytest.raises(ValueError):
                step(keys, values, 0, (body, bad_at))
        assert not any(array.any() for array in args)
        assert step(keys, values, 0, (body, 3)) == 0
        assert args[5].tolist() == [2, 0] and args[0].tolist()[:2] == [1.0, 2.0]
        assert step(keys, values, 0) == 0
        assert args[5].tolist() == [2, 0] and args[0].tolist()[:2] == [2.0, 4.0]
