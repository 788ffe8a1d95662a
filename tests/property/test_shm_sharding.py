"""Property: zero-copy shared-memory sharding is bit-identical to the
in-process per-shard reference.

``sketch_and_merge_shards`` moves the batch and the per-shard counter
exports through ``multiprocessing.shared_memory`` segments whose key slots
carry the batch's 8-byte integer type (int64, or uint64 above ``2**63 - 1``).
It must return *exactly* the summary of sketching every shard in-process and
folding with ``merge_tree`` — same keys, same float bits, same dict order —
for every shard count and dtype, without leaving a segment behind, under
every multiprocessing start method.  ``Pipeline.fit(stream, workers=N)``
must collapse to the sequential fit (bit-identical, no pool) below its
shard-size cutover.
"""

from __future__ import annotations

import errno
import os
import subprocess
import sys
import textwrap
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Pipeline
from repro.core import merging
from repro.core.merging import _shard_bounds, sketch_and_merge_shards
from repro.sketches import MisraGriesSketch
from repro.sketches.merge import merge_tree

_STREAMS = st.lists(st.integers(min_value=-(2**62), max_value=2**62)
                    | st.integers(min_value=0, max_value=30),
                    min_size=1, max_size=600)


def _legacy_reference(batch, k, num_shards):
    """The in-process result: per-shard sketches, merge_tree fan-in."""
    shards = [shard for shard in np.array_split(batch, num_shards)
              if shard.size]
    counters = [MisraGriesSketch.from_stream(k, shard).counters()
                for shard in shards]
    return merge_tree(counters, k)


@given(stream=_STREAMS, k=st.integers(1, 32))
@settings(max_examples=10, deadline=None)
def test_shared_memory_sharding_matches_legacy_bit_for_bit(stream, k):
    batch = np.asarray(stream, dtype=np.int64)
    for num_shards in (1, 2, 4):
        expected = _legacy_reference(batch, k, num_shards)
        merged = sketch_and_merge_shards(batch, k, num_shards)
        _assert_bit_identical(merged, expected)


@given(stream=_STREAMS, k=st.integers(1, 32))
@settings(max_examples=10, deadline=None)
def test_dispatcher_matches_legacy_across_dtypes(stream, k):
    for dtype in (np.int64, np.int32, np.uint64):
        batch = np.abs(np.asarray(stream, dtype=np.int64)).astype(dtype)
        expected = _legacy_reference(batch, k, 2)
        merged = sketch_and_merge_shards(batch, k, 2)
        _assert_bit_identical(merged, expected)


def _assert_bit_identical(merged, expected):
    assert list(merged) == list(expected)
    assert all(type(value) is float for value in merged.values())
    assert (np.array(list(merged.values())).view(np.uint64).tolist()
            == np.array(list(expected.values())).view(np.uint64).tolist())


def _record_pool_runs(monkeypatch):
    """Record the shard count of every call that completed on the pool."""
    runs = []
    pooled = merging._pool_sketch_and_merge

    def recording(batch, k, bounds):
        merged = pooled(batch, k, bounds)
        runs.append(len(bounds))
        return merged

    monkeypatch.setattr(merging, "_pool_sketch_and_merge", recording)
    return runs


def test_uint64_keys_above_int64_ride_the_shared_memory_pool(monkeypatch):
    """Keys beyond ``2**63 - 1`` travel in uint64 slots through the same
    pool, bit-identical to the in-process reference."""
    runs = _record_pool_runs(monkeypatch)
    batch = np.array([2**63 + 5, 2**63 + 5, 7, 7, 7, 2**64 - 1, 2**63,
                      2**64 - 1, 3, 2**63 + 5], dtype=np.uint64)
    for num_shards in (2, 3):
        expected = _legacy_reference(batch, 4, num_shards)
        merged = sketch_and_merge_shards(batch, 4, num_shards)
        _assert_bit_identical(merged, expected)
        assert 2**63 + 5 in merged
    assert runs == [2, 3]


def _psm_segments():
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


needs_dev_shm = pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                                   reason="no /dev/shm on this host")


@needs_dev_shm
def test_failed_second_segment_leaks_nothing_and_falls_back(monkeypatch):
    """ENOSPC on the output segment must unlink the input segment already
    created, and the call still returns the in-process summary."""
    real = shared_memory.SharedMemory
    creates = []

    def second_create_fails(*args, create=False, **kwargs):
        if create:
            creates.append(kwargs.get("size"))
            if len(creates) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real(*args, create=create, **kwargs)

    monkeypatch.setattr(merging.shared_memory, "SharedMemory",
                        second_create_fails)
    before = _psm_segments()
    batch = np.arange(1000, dtype=np.int64) % 37
    merged = sketch_and_merge_shards(batch, 16, 3)
    assert len(creates) == 2
    assert _psm_segments() - before == set()
    _assert_bit_identical(merged, _legacy_reference(batch, 16, 3))


_START_METHOD_SCRIPT = textwrap.dedent("""
    import multiprocessing
    import sys

    import numpy as np

    from repro.api import Pipeline
    from repro.core import merging
    from repro.sketches import MisraGriesSketch
    from repro.sketches.merge import merge_tree


    def main():
        multiprocessing.set_start_method(sys.argv[1])
        pooled = merging._pool_sketch_and_merge
        runs = []

        def recording(batch, k, bounds):
            merged = pooled(batch, k, bounds)
            runs.append(len(bounds))
            return merged

        merging._pool_sketch_and_merge = recording
        Pipeline._MIN_SHARD_ELEMENTS = 1000
        stream = (np.arange(3000, dtype=np.int64) * 7919) % 211
        pipe = Pipeline(sketch="misra_gries", mechanism="pmg", k=16,
                        epsilon=1.0, delta=1e-6).fit(stream, workers=3)
        expected = merge_tree(
            [MisraGriesSketch.from_stream(16, shard).counters()
             for shard in np.array_split(stream, 3)], 16)
        merged = pipe.counters()
        bits = lambda summary: np.array(list(summary.values())).view(np.uint64)
        assert runs == [3], runs
        assert list(merged) == list(expected)
        assert bits(merged).tolist() == bits(expected).tolist()
        print("ok")


    if __name__ == "__main__":
        main()
""")


@needs_dev_shm
@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_non_fork_start_methods_shard_bit_identically(method, tmp_path):
    """Spawned and forkserver workers attach to the parent's segments
    untracked: same summary, no leaked segment, no resource-tracker
    complaint at exit."""
    script = tmp_path / "sharded_fit.py"
    script.write_text(_START_METHOD_SCRIPT)
    src = str(Path(merging.__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [path for path in [env.get("PYTHONPATH")] if path])
    before = _psm_segments()
    result = subprocess.run([sys.executable, str(script), method], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
    assert "leaked shared_memory" not in result.stderr
    assert _psm_segments() - before == set()


def test_shard_bounds_replicate_array_split():
    for total in (1, 2, 5, 7, 100, 101, 1023):
        for num_shards in (1, 2, 3, 4, 8):
            batch = np.arange(total)
            expected = [(int(shard[0]), int(shard[-1]) + 1)
                        for shard in np.array_split(batch, num_shards)
                        if shard.size]
            assert _shard_bounds(total, num_shards) == expected


# ---------------------------------------------------------------------------
# Pipeline cutover (workers=N on short streams stays sequential)
# ---------------------------------------------------------------------------

def _pipe(k=16):
    return Pipeline(sketch="misra_gries", mechanism="pmg", k=k,
                    epsilon=1.0, delta=1e-6)


def test_short_stream_collapses_to_the_sequential_fit():
    """Below the cutover the sharded fit is the sequential fit: bit-identical
    summary, no process pool involved."""
    stream = np.arange(1000, dtype=np.int64) % 37
    assert len(stream) < Pipeline._MIN_SHARD_ELEMENTS
    sequential = _pipe().fit(stream)
    sharded = _pipe().fit(stream, workers=4)
    assert sharded.counters() == sequential.counters()
    assert list(sharded.counters()) == list(sequential.counters())


def test_lowered_cutover_forces_real_sharding(monkeypatch):
    monkeypatch.setattr(Pipeline, "_MIN_SHARD_ELEMENTS", 250)
    stream = np.arange(1000, dtype=np.int64) % 37
    pipe = _pipe()
    pipe.fit(stream, workers=4)
    expected = _legacy_reference(stream, 16, 4)
    assert pipe.counters() == expected
    assert list(pipe.counters()) == list(expected)


def test_shard_count_scales_with_stream_length(monkeypatch):
    """workers=4 with ~2.5 shards' worth of elements uses 2 shards, matching
    the legacy 2-shard reference (not the 4-shard one)."""
    monkeypatch.setattr(Pipeline, "_MIN_SHARD_ELEMENTS", 200)
    stream = np.arange(500, dtype=np.int64) % 23
    pipe = _pipe()
    pipe.fit(stream, workers=4)
    assert pipe.counters() == _legacy_reference(stream, 16, 2)
    assert pipe.counters() != _legacy_reference(stream, 16, 4)

