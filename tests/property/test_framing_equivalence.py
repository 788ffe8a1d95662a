"""Property: framed encode → decode → merge is bit-identical to the buffered path.

The streaming aggregator folds frames one at a time
(:class:`repro.api.framing.StreamingMerger`); the buffered aggregator decodes
every envelope (``load_payload``-style) and hands every ``(keys, values)``
column pair to :func:`repro.sketches.merge.merge_many` at once.  Both must produce
*exactly* the same merged summary — same key set, same insertion order, bit
equal float values — because both equal the seed pairwise left fold.

Corrupted streams (truncated mid-frame, truncated length prefix, trailing
garbage) must fail with :class:`~repro.exceptions.FramingError`, never with a
bare ``struct``/``json``/``KeyError`` from the internals.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np
from hypothesis import given, settings, strategies as st

import pytest

from repro import kernels
from repro.api.framing import FrameReader, FrameWriter, StreamingMerger
from repro.api.wire import decode, encode_counters
from repro.exceptions import FramingError
from repro.sketches import MisraGriesSketch
from repro.sketches._reference_merge import reference_merge_many
from repro.sketches.merge import _TABLE_FACTOR, merge_many

# Counter dicts as the wire ships them: int64 keys, non-negative float values
# with integral and fractional cases (merged sketches carry fractions).
_KEYS = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
_VALUES = st.one_of(
    st.integers(min_value=0, max_value=10 ** 9).map(float),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False))
_COUNTERS = st.dictionaries(_KEYS, _VALUES, min_size=0, max_size=24)
_SKETCH_LISTS = st.lists(_COUNTERS, min_size=1, max_size=8)


# Both kernel backends; the cc lane asserts the provider builds.
_BACKENDS = pytest.mark.parametrize("backend", [
    "python",
    pytest.param("cc", marks=pytest.mark.skipif(
        not kernels.available(), reason="no C toolchain on this host")),
])


@contextlib.contextmanager
def _kernels_env(backend):
    """Run the block under ``REPRO_KERNELS=backend`` (a manual
    :class:`pytest.MonkeyPatch`, so Hypothesis can rerun the body)."""
    patch = pytest.MonkeyPatch()
    try:
        patch.setenv(kernels.ENV_VAR, backend)
        yield
    finally:
        patch.undo()


def _exact(counters):
    """Keys in dict order with the exact bits of their values."""
    return [(key, float(value).hex()) for key, value in counters.items()]


def _frame_bytes(counters_list, k):
    buffer = io.BytesIO()
    with FrameWriter(buffer, k=k, frames=len(counters_list)) as writer:
        for index, counters in enumerate(counters_list):
            writer.write_counters(counters, k=k, stream_length=100 * index)
    return buffer.getvalue()


@given(counters_list=_SKETCH_LISTS, k=st.integers(min_value=1, max_value=32))
@settings(max_examples=120, deadline=None)
def test_streamed_fold_bit_identical_to_buffered_arrays(counters_list, k):
    data = _frame_bytes(counters_list, k)

    # Buffered path: decode every envelope, one merge_many call on the pairs.
    payloads = [decode(encode_counters(counters, k=k, stream_length=100 * index))
                for index, counters in enumerate(counters_list)]
    buffered = merge_many([payload.columnar() for payload in payloads], k)

    # Streamed path: fold one frame at a time off the framed bytes.
    merger = StreamingMerger(k).consume(FrameReader(io.BytesIO(data)))

    streamed = merger.merged()
    assert list(streamed.keys()) == list(buffered.keys())
    assert all(streamed[key] == buffered[key] for key in buffered)  # bit equal
    assert merger.frames == len(counters_list)
    assert merger.total_stream_length == sum(100 * index
                                             for index in range(len(counters_list)))


@given(counters_list=st.lists(
    st.dictionaries(st.text(min_size=1, max_size=6), _VALUES, max_size=12),
    min_size=1, max_size=5), k=st.integers(min_value=1, max_value=16))
@settings(max_examples=40, deadline=None)
def test_token_keyed_frames_match_dict_merge(counters_list, k):
    data = _frame_bytes(counters_list, k)
    merger = StreamingMerger(k).consume(FrameReader(io.BytesIO(data)))
    assert merger.merged() == merge_many(counters_list, k)
    assert _exact(merger.merged()) == _exact(
        reference_merge_many(counters_list, k))


@given(counters_list=_SKETCH_LISTS, k=st.integers(min_value=1, max_value=16),
       cut=st.integers(min_value=1, max_value=200))
@settings(max_examples=60, deadline=None)
def test_truncated_stream_raises_framing_error(counters_list, k, cut):
    data = _frame_bytes(counters_list, k)
    cut = min(cut, len(data) - 1)
    truncated = data[:len(data) - cut]
    with pytest.raises(FramingError):
        StreamingMerger(k).consume(FrameReader(io.BytesIO(truncated)))


@given(counters_list=_SKETCH_LISTS, k=st.integers(min_value=1, max_value=16),
       garbage=st.binary(min_size=1, max_size=64))
@settings(max_examples=60, deadline=None)
def test_trailing_garbage_raises_framing_error(counters_list, k, garbage):
    data = _frame_bytes(counters_list, k) + garbage
    with pytest.raises(FramingError):
        StreamingMerger(k).consume(FrameReader(io.BytesIO(data)))


@given(counters_list=st.lists(
    st.dictionaries(st.integers(min_value=-300, max_value=300), _VALUES,
                    min_size=0, max_size=24), min_size=1, max_size=8),
    k=st.integers(min_value=1, max_value=32))
@settings(max_examples=120, deadline=None)
def test_dense_fold_bit_identical_on_bounded_universes(counters_list, k):
    """Bounded key ranges stay on the dense incremental fold — same bits."""
    data = _frame_bytes(counters_list, k)
    merger = StreamingMerger(k).consume(FrameReader(io.BytesIO(data)))
    payloads = [decode(encode_counters(counters, k=k))
                for counters in counters_list]
    buffered = merge_many([payload.columnar() for payload in payloads], k)
    streamed = merger.merged()
    assert list(streamed.keys()) == list(buffered.keys())
    assert all(streamed[key] == buffered[key] for key in buffered)


@given(counters=_COUNTERS, k=st.integers(min_value=1, max_value=16))
@settings(max_examples=40, deadline=None)
def test_single_frame_equals_single_buffered_input(counters, k):
    """The first-fold step must mirror the left fold's oversized-input reduction."""
    data = _frame_bytes([counters], k)
    merger = StreamingMerger(k).consume(FrameReader(io.BytesIO(data)))
    payload = decode(encode_counters(counters, k=k))
    expected = merge_many([payload.columnar()], k)
    assert merger.merged() == expected


# Frames that put the fold in each of its key modes: bounded ints (offset
# ids), ints spread over the int64 range (the key table) and tokens mixed
# with small ints (the key table, with keys shared with the first kind).
_DENSE_FRAMES = st.dictionaries(st.integers(-40, 40), _VALUES, max_size=12)
_WIDE_FRAMES = st.dictionaries(
    st.one_of(st.integers(-40, 40), _KEYS), _VALUES, max_size=12)
_TOKEN_FRAMES = st.dictionaries(
    st.one_of(st.text(min_size=1, max_size=3), st.integers(-40, 40)),
    _VALUES, max_size=12)
_MIXED_FRAMES = st.lists(st.one_of(_DENSE_FRAMES, _WIDE_FRAMES,
                                   _TOKEN_FRAMES), max_size=8)


def _fold(frames, k):
    """A merger over ``frames`` sent through a framed stream, and the
    counters its envelopes carry to the fold."""
    merger = StreamingMerger(k).consume(
        FrameReader(io.BytesIO(_frame_bytes(frames, k))))
    payloads = FrameReader(io.BytesIO(_frame_bytes(frames, k)))
    return merger, [payload.merge_counters() for payload in payloads]


@_BACKENDS
@given(frames=_MIXED_FRAMES, others=_MIXED_FRAMES,
       k=st.integers(min_value=1, max_value=12))
@settings(max_examples=120, deadline=None)
def test_mixed_key_modes_fold_like_the_seed(backend, frames, others, k):
    """One merger switches from offset ids to the key table mid-stream;
    absorbing a merger in another mode folds its summary as one more
    contribution.  Both equal the seed fold, bit for bit, and the merged
    keys stay plain ints while every folded key is one."""
    with _kernels_env(backend):
        merger, counters = _fold(frames, k)
        assert _exact(merger.merged()) == _exact(
            reference_merge_many(counters, k) if counters else {})
        other, other_counters = _fold(others, k)
        merger.absorb(other)
    if other_counters:
        counters.append(reference_merge_many(other_counters, k))
    assert _exact(merger.merged()) == _exact(
        reference_merge_many(counters, k) if counters else {})
    assert merger.frames == len(frames) + len(others)
    if all(isinstance(key, int) for frame in frames + others for key in frame):
        assert all(type(key) is int for key in merger.merged())


@_BACKENDS
@given(k=st.integers(min_value=1, max_value=4),
       widths=st.lists(st.integers(min_value=1, max_value=6), min_size=60,
                       max_size=60),
       repeats=st.lists(st.booleans(), min_size=60, max_size=60),
       values=st.lists(_VALUES, min_size=360, max_size=360))
@settings(max_examples=40, deadline=None)
def test_key_table_compacts_to_the_live_keys(backend, k, widths, repeats,
                                             values):
    """Fresh keys spread over 2**62 keep the key table growing; it is
    compacted at least three times, never holds more than
    ``_TABLE_FACTOR * k`` keys plus one frame, and the fold equals the
    seed's, bit for bit."""
    fresh = iter(range(-(2 ** 61), 2 ** 61, 2 ** 50))
    drawn = iter(values)
    frames, previous = [], {}
    for width, repeat in zip(widths, repeats):
        frame = {next(fresh): next(drawn) for _ in range(width)}
        if repeat and previous:
            frame[next(iter(previous))] = next(drawn)
        frames.append(frame)
        previous = frame
    compactions, largest = 0, 0
    with _kernels_env(backend):
        merger = StreamingMerger(k)
        table = 0
        for payload in FrameReader(io.BytesIO(_frame_bytes(frames, k))):
            merger.add(payload)
            size = len(merger._fold._id_keys)
            compactions += size < table
            largest = max(largest, size)
            table = size
    assert compactions >= 3
    assert largest <= _TABLE_FACTOR * k + max(widths)
    assert _exact(merger.merged()) == _exact(reference_merge_many(frames, k))


# Streams shorter than their sketch's k, so every export keeps padding.
_PADDED = st.integers(min_value=2, max_value=16).flatmap(
    lambda k: st.tuples(st.lists(st.lists(st.integers(0, 30),
                                          max_size=k - 1),
                                 min_size=1, max_size=6), st.just(k)))


@_BACKENDS
@given(streams_k=_PADDED)
@settings(max_examples=60, deadline=None)
def test_dummy_padded_exports_stay_columnar(backend, streams_k):
    """Paper-variant sketch exports carry ``DummyKey`` padding; it travels
    as the binary header's ``dummies`` count, the columns hold the real
    int keys, so the fold reads the frame in place and the merger stays on
    integer keys."""
    streams, k = streams_k
    sketches = [MisraGriesSketch(k).update_batch(np.asarray(stream,
                                                            dtype=np.int64))
                for stream in streams]
    buffer = io.BytesIO()
    with FrameWriter(buffer, k=k, frames=len(sketches)) as writer:
        for sketch in sketches:
            writer.write_sketch(sketch)
    payloads = list(FrameReader(io.BytesIO(buffer.getvalue())))
    assert all(payload.columnar() is not None and payload.frame is not None
               for payload in payloads)
    with _kernels_env(backend):
        merged = StreamingMerger(k).consume(payloads).merged()
    assert all(type(key) is int for key in merged)
    expected = reference_merge_many(
        [payload.merge_counters() for payload in payloads], k)
    assert _exact(merged) == _exact(expected)
