"""Property: dummy-padded Misra-Gries exports ride binary frames, bit for bit.

A paper-variant sketch (Algorithm 1) that has seen fewer than ``k``
distinct elements still stores dummy keys.  An engine-built sketch keeps
them as a stored-order prefix ``DummyKey(k-d+1) ... DummyKey(k)`` of zero
counters, so its frame is binary (tag ``0x01``) with the padding declared
as one header count, ``"dummies": d``.  These properties check that the
binary frame decodes to exactly what the JSON frame of the same envelope
decodes to, that the sketch it restores keeps evolving identically, and
that every envelope outside that layout still travels, bit-exactly, as a
JSON frame.  A WAL spool written with the old JSON padded bodies still
recovers to the same release as the offline fold.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.api import framing, wire
from repro.api.framing import StreamingMerger, combine_mergers
from repro.core.merging import MergeStrategy, PrivateMergedRelease
from repro.net.wal import SessionWal
from repro.sketches import MisraGriesSketch
from repro.sketches.misra_gries import DummyKey

_INT64_MIN, _INT64_MAX = -(2 ** 63), 2 ** 63 - 1

# Small keys (so streams repeat), the int64 ends, and anything in between.
_KEYS = st.one_of(
    st.integers(-40, 40),
    st.sampled_from([_INT64_MIN, _INT64_MIN + 1, _INT64_MAX - 1, _INT64_MAX]),
    st.integers(_INT64_MIN, _INT64_MAX))


@st.composite
def _short_streams(draw):
    """``(k, stream)`` with the stream shorter than ``k``: padding remains."""
    k = draw(st.integers(1, 80))
    return k, draw(st.lists(_KEYS, max_size=k - 1))


def _build(k, stream, batched):
    sketch = MisraGriesSketch(k)
    if batched:
        sketch.update_batch(np.asarray(stream, dtype=np.int64))
    else:
        for element in stream:
            sketch.update(element)
    return sketch


def _exact(counters):
    """Keys in dict order with the exact bits of their values."""
    return [(key, float(value).hex()) for key, value in counters.items()]


def _same_sketch(left, right):
    assert _exact(left.raw_counters()) == _exact(right.raw_counters())
    assert left.stream_length == right.stream_length
    assert left.decrement_rounds == right.decrement_rounds


def _json_body(envelope):
    """The JSON frame body every padded export travelled as before."""
    return json.dumps(envelope, sort_keys=True).encode("utf-8")


@given(k_stream=_short_streams(), batched=st.booleans())
@settings(max_examples=150, deadline=None)
def test_padded_export_decodes_like_its_json_frame(k_stream, batched):
    k, stream = k_stream
    sketch = _build(k, stream, batched)
    envelope = wire.encode_sketch(sketch)
    frame = framing.encode_payload_frame(envelope)
    assert frame[4] == framing.BINARY_FRAME_TAG
    binary = framing.decode_payload_body(frame[4:])
    as_json = framing.decode_payload_body(_json_body(envelope))
    assert binary.dummies == sum(isinstance(key, DummyKey)
                                 for key in sketch.raw_counters()) >= 1
    assert binary == as_json
    assert _exact(binary.counters()) == _exact(as_json.counters())
    assert _exact(binary.merge_counters()) == _exact(as_json.merge_counters())
    keys, values = binary.columnar()
    assert _exact(dict(zip(keys.tolist(), values.tolist()))) == \
        _exact(binary.merge_counters())
    assert binary.frame is not None
    assert framing.payload_frame_body(binary) == frame[4:]


@given(k_stream=_short_streams(), batched=st.booleans(),
       more=st.lists(_KEYS, max_size=200))
@settings(max_examples=150, deadline=None)
def test_padded_frame_restores_a_sketch_that_evolves_identically(
        k_stream, batched, more):
    k, stream = k_stream
    sketch = _build(k, stream, batched)
    body = framing.payload_frame_body(wire.encode_sketch(sketch))
    restored = wire.payload_to_sketch(framing.decode_payload_body(body))
    _same_sketch(restored, sketch)
    for _ in range(2):
        sketch.update_batch(np.asarray(more, dtype=np.int64))
        restored.update_batch(np.asarray(more, dtype=np.int64))
        _same_sketch(restored, sketch)


@st.composite
def _off_layout_states(draw):
    """``(k, counters)``: a full paper-variant state whose dummies break the
    engine's layout — out of prefix position, other indices, or non-zero."""
    k = draw(st.integers(2, 80))
    real = draw(st.lists(_KEYS, min_size=1, max_size=k - 1, unique=True))
    dummies = k - len(real)
    indices = draw(st.lists(st.integers(1, 2 * k), min_size=dummies,
                            max_size=dummies, unique=True))
    values = draw(st.lists(st.integers(0, 3), min_size=dummies,
                           max_size=dummies))
    entries = ([(DummyKey(index), float(value))
                for index, value in zip(indices, values)]
               + [(key, float(draw(st.integers(0, 50)))) for key in real])
    order = draw(st.permutations(range(k)))
    counters = dict(entries[position] for position in order)
    canonical = [(DummyKey(index), 0.0) for index in range(len(real) + 1, k + 1)]
    assume(list(counters.items())[:dummies] != canonical)
    return k, counters


@given(k_counters=_off_layout_states())
@settings(max_examples=150, deadline=None)
def test_off_layout_padding_keeps_an_exact_json_frame(k_counters):
    k, counters = k_counters
    sketch = MisraGriesSketch(k)
    sketch._restore_state(counters, stream_length=7, decrement_rounds=1)
    envelope = wire.encode_sketch(sketch)
    body = framing.payload_frame_body(envelope)
    assert body[:1] == b"{"
    payload = framing.decode_payload_body(body)
    assert payload == wire.decode(envelope) and payload.dummies == 0
    _same_sketch(wire.payload_to_sketch(payload), sketch)


def test_negative_zero_dummy_keeps_a_json_frame():
    envelope = wire.encode_sketch(MisraGriesSketch(3).update_batch(
        np.asarray([5], dtype=np.int64)))
    envelope["values"][0] = -0.0
    body = framing.payload_frame_body(envelope)
    assert body[:1] == b"{"
    decoded = framing.decode_payload_body(body)
    assert np.signbit(decoded.values[0])
    assert decoded == wire.decode(envelope)


_K = 8
_MECHANISM = PrivateMergedRelease(epsilon=1.0, delta=1e-6, k=_K,
                                  strategy=MergeStrategy.TRUSTED_MERGED)


def _release_bytes(parts, seed):
    histogram = combine_mergers(parts, _K).release(_MECHANISM, rng=seed)
    return framing.payload_frame_body(wire.encode_histogram(histogram))


def test_wal_spool_of_json_padded_bodies_recovers_bit_identically(tmp_path):
    """A spool written with the old JSON padded bodies (next to new binary
    ones) recovers to the release the offline fold of the sketches gives."""
    streams = [[1, 2, 2, 3], [2, 9, -4], [7], [1, 1, 2, 5, 6, 2]]
    sketches = [_build(_K, stream, batched=True) for stream in streams]
    envelopes = [wire.encode_sketch(sketch) for sketch in sketches]
    sessions = [[_json_body(envelopes[0]), _json_body(envelopes[1])],
                [framing.payload_frame_body(envelopes[2]),
                 _json_body(envelopes[3])]]
    layer = SessionWal(tmp_path / "wal")
    try:
        for ordinal, bodies in enumerate(sessions):
            journal = layer.attach(ordinal, f"client-{ordinal}", _K)
            for body in bodies:
                journal.append(body)
            journal.mark_committed(ordinal + 1)
    finally:
        layer.close()
    reopened = SessionWal(tmp_path / "wal")
    try:
        recovery = reopened.recover()
    finally:
        reopened.close()
    recovered = [part for session in recovery.committed for part in session.parts]
    offline = [StreamingMerger(_K).consume(envelopes[:2]),
               StreamingMerger(_K).consume(envelopes[2:])]
    for seed in (0, 1):
        assert _release_bytes(recovered, seed) == _release_bytes(offline, seed)
