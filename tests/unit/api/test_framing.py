"""Unit tests for the length-prefixed framing layer (:mod:`repro.api.framing`)."""

from __future__ import annotations

import io
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api.framing import (
    FRAMING_VERSION,
    MAGIC,
    MAX_FRAME_BYTES,
    FrameHeader,
    FrameReader,
    FrameWriter,
    StreamingMerger,
    decode_payload_body,
    iter_frames,
    merge_frames,
    parse_header_body,
    payload_frame_body,
    write_frames,
)
from repro.api.wire import encode_counters, encode_sketch
from repro.core.merging import MergeStrategy, PrivateMergedRelease
from repro.exceptions import FramingError, ParameterError
from repro.sketches import MisraGriesSketch
from repro.sketches.merge import merge_many
from repro.streams import zipf_stream


def _export(seed, k=16, n=2_000, universe=200):
    stream = zipf_stream(n, universe, exponent=1.2, rng=seed, as_array=True)
    return MisraGriesSketch.from_stream(k, stream)


def _framed_exports(count=4, k=16):
    buffer = io.BytesIO()
    sketches = [_export(seed, k=k) for seed in range(count)]
    with FrameWriter(buffer, k=k, frames=count) as writer:
        for sketch in sketches:
            writer.write_counters(sketch.counters(), k=k,
                                  stream_length=sketch.stream_length)
    return buffer.getvalue(), sketches


def _json_framed(sketch, k=16):
    """A one-frame stream whose payload frame is a JSON envelope, as an
    outside producer would write it (writers here always go binary)."""
    buffer = io.BytesIO()
    FrameWriter(buffer, k=k)
    body = json.dumps(encode_counters(sketch.counters(), k=k,
                                      stream_length=sketch.stream_length),
                      sort_keys=True).encode("utf-8")
    buffer.write(struct.pack(">I", len(body)) + body)
    return buffer.getvalue()


class TestWriterReader:
    def test_round_trip_preserves_counters_and_header(self):
        data, sketches = _framed_exports(count=3, k=16)
        reader = FrameReader(io.BytesIO(data))
        assert reader.header.framing == FRAMING_VERSION
        assert reader.header.frames == 3
        assert reader.header.k == 16
        payloads = list(reader)
        assert len(payloads) == 3
        for payload, sketch in zip(payloads, sketches):
            assert payload.counters() == sketch.counters()
            assert payload.stream_length == sketch.stream_length

    def test_write_sketch_round_trips_full_state(self):
        sketch = _export(9)
        buffer = io.BytesIO()
        with FrameWriter(buffer, k=sketch.size) as writer:
            writer.write_sketch(sketch)
        (payload,) = list(FrameReader(io.BytesIO(buffer.getvalue())))
        assert payload.kind == "misra_gries_paper"
        assert json.loads(json.dumps(payload.meta))  # JSON-clean metadata

    def test_declared_count_is_enforced_on_write(self):
        buffer = io.BytesIO()
        writer = FrameWriter(buffer, frames=1)
        writer.write_counters({1: 2.0})
        with pytest.raises(FramingError, match="declared 1 frame"):
            writer.write_counters({2: 3.0})
        writer.close()

    def test_close_rejects_missing_frames(self):
        writer = FrameWriter(io.BytesIO(), frames=2)
        writer.write_counters({1: 2.0})
        with pytest.raises(FramingError, match="declared 2 frame"):
            writer.close()

    def test_non_v2_payload_rejected(self):
        writer = FrameWriter(io.BytesIO())
        with pytest.raises(FramingError, match="wire v2"):
            writer.write_payload({"format_version": 1, "counters": {}})

    def test_bad_magic_rejected(self):
        with pytest.raises(FramingError, match="bad magic"):
            FrameReader(io.BytesIO(b"NOPE\x01" + b"\x00" * 16))

    def test_unsupported_framing_version_rejected(self):
        with pytest.raises(FramingError, match="framing version"):
            FrameReader(io.BytesIO(MAGIC + bytes([FRAMING_VERSION + 1])))

    def test_first_frame_must_be_header(self):
        buffer = io.BytesIO()
        buffer.write(MAGIC + bytes([FRAMING_VERSION]))
        body = json.dumps({"format": 2, "kind": "counters", "key_encoding": "int",
                           "keys": [], "values": []}).encode()
        buffer.write(struct.pack(">I", len(body)) + body)
        with pytest.raises(FramingError, match="frame_header"):
            FrameReader(io.BytesIO(buffer.getvalue()))

    def test_truncated_frame_body_raises(self):
        data, _ = _framed_exports(count=2)
        with pytest.raises(FramingError, match="truncated"):
            list(FrameReader(io.BytesIO(data[:-7])))

    def test_truncated_length_prefix_raises(self):
        data, _ = _framed_exports(count=2)
        # Keep everything plus 2 stray bytes that cannot form a length prefix.
        with pytest.raises(FramingError, match="truncated length prefix"):
            list(FrameReader(io.BytesIO(data + b"\x00\x01")))

    def test_trailing_garbage_raises(self):
        data, _ = _framed_exports(count=2)
        with pytest.raises(FramingError):
            list(FrameReader(io.BytesIO(data + b"\xde\xad\xbe\xef" + b"junk")))

    def test_implausible_length_prefix_raises(self):
        data, _ = _framed_exports(count=2)
        garbage = struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x"
        with pytest.raises(FramingError, match="MAX_FRAME_BYTES"):
            list(FrameReader(io.BytesIO(data + garbage)))

    def test_missing_declared_frames_raises(self):
        buffer = io.BytesIO()
        writer = FrameWriter(buffer, frames=3)
        writer.write_counters({1: 2.0})
        # Bypass close() to simulate a producer dying mid-stream.
        with pytest.raises(FramingError, match="declared 3"):
            list(FrameReader(io.BytesIO(buffer.getvalue())))

    def test_frame_body_must_carry_a_known_tag(self):
        buffer = io.BytesIO()
        FrameWriter(buffer)
        body = b"[1, 2, 3]"  # JSON, but not an object: unknown tag byte
        buffer.write(struct.pack(">I", len(body)) + body)
        with pytest.raises(FramingError, match="frame tag"):
            list(FrameReader(io.BytesIO(buffer.getvalue())))

    def test_json_frames_round_trip(self):
        sketch = _export(5)
        data = _json_framed(sketch)
        assert b'"keys"' in data  # textual frames, no binary columns
        (payload,) = list(FrameReader(io.BytesIO(data)))
        assert payload.counters() == sketch.counters()

    def test_binary_and_json_frames_decode_identically(self):
        sketch = _export(6)
        buffer = io.BytesIO()
        with FrameWriter(buffer, k=16) as writer:
            writer.write_counters(sketch.counters(), k=16,
                                  stream_length=sketch.stream_length)
        decoded = []
        for data in (buffer.getvalue(), _json_framed(sketch)):
            (payload,) = list(FrameReader(io.BytesIO(data)))
            decoded.append(payload)
        binary, textual = decoded
        assert binary.counters() == textual.counters()
        assert binary.keys == textual.keys
        assert np.array_equal(binary.key_array, textual.key_array)
        assert binary.meta == textual.meta

    def test_truncated_binary_frame_raises(self):
        sketch = _export(7)
        buffer = io.BytesIO()
        with FrameWriter(buffer, k=16) as writer:
            writer.write_counters(sketch.counters(), k=16)
        data = buffer.getvalue()
        assert data.count(bytes([1])) >= 1  # binary frames in use
        with pytest.raises(FramingError):
            list(FrameReader(io.BytesIO(data[:-5])))


def _binary_body(counters, kind="counters", **fields):
    """A k=132 binary frame body of ``kind`` holding ``counters``, laid out
    as the encoder writes it; each ``fields`` entry is the raw JSON text of
    a header field, replacing the encoder's value or added to the header
    (``None`` leaves the field out)."""
    header = {"count": str(len(counters)), "format": "2", "k": "132",
              "key_encoding": '"int"', "kind": json.dumps(kind),
              "meta": '{"stream_length": 0}', **fields}
    text = ("{" + ", ".join(f'"{name}": {value}'
                            for name, value in sorted(header.items())
                            if value is not None) + "}").encode("utf-8")
    return bytearray(
        b"\x01" + struct.pack(">I", len(text)) + text
        + np.array(list(counters), dtype="<i8").tobytes()
        + np.array(list(counters.values()), dtype="<f8").tobytes())


def _decoded(body):
    """``("ok", payload)`` or ``("error", message)`` for one frame body."""
    try:
        return "ok", decode_payload_body(bytes(body))
    except FramingError as error:
        return "error", str(error)


# ``(kind, dummies field, outcome)``: the padding count, or the error.  No
# field, valid counts up to k (an explicit 0 too), then negative, larger
# than k, on a kind that carries no padding, with the leading zero JSON
# forbids, and not an int.
_DUMMIES_HEADERS = [
    ("counters", None, 0), ("misra_gries_paper", None, 0),
    ("misra_gries_paper", "3", 3), ("misra_gries_paper", "132", 132),
    ("misra_gries_paper", "0", 0),
    ("misra_gries_paper", "-1", "bad dummies count -1 for k=132"),
    ("misra_gries_paper", "133", "bad dummies count 133 for k=132"),
    ("counters", "3", "declares dummy padding"),
    ("counters", "0", "declares dummy padding"),
    ("misra_gries_paper", "03", "not valid JSON"),
    ("misra_gries_paper", "3.0", "bad dummies count 3.0"),
    ("misra_gries_paper", "null", "bad dummies count None")]


class TestBinaryHeaders:
    """Every binary frame header is outside input, parsed by ``json.loads``
    and checked field by field; a bad one raises ``FramingError``."""

    def test_helper_writes_what_the_encoder_writes(self):
        counters = {5: 2.0, -7: 1.0}
        assert bytes(_binary_body(counters)) == payload_frame_body(
            encode_counters(counters, k=132))

    @pytest.mark.parametrize("kind, dummies, outcome", _DUMMIES_HEADERS)
    def test_dummies_header(self, kind, dummies, outcome):
        fields = {} if dummies is None else {"dummies": dummies}
        status, result = _decoded(_binary_body({5: 2.0, -7: 1.0}, kind,
                                               **fields))
        if isinstance(outcome, int):
            assert status == "ok", result
            assert result.dummies == outcome
            assert result.key_array.tolist() == [5, -7]
        else:
            assert status == "error" and outcome in result

    @pytest.mark.parametrize("text, corrupted, outcome", [
        # A leading zero JSON forbids: read as decimal it would be k=32.
        (b'"k": 132', b'"k": 032', "not valid JSON"),
        # ``json.loads`` decodes the escape, a raw byte copy would not.
        (b'"counters"', b'"cou\\ters"', "unrecognized wire v2 kind 'cou\\ters'"),
    ])
    def test_corrupted_canonical_header(self, text, corrupted, outcome):
        body = bytes(_binary_body({}))
        status, message = _decoded(body.replace(text, corrupted))
        assert status == "error" and outcome in message

    @pytest.mark.parametrize("corrupted, dummies", [
        (b'"dummies": 0', 0),
        # An unknown field is ignored: the frame carries no padding.
        (b'"dummieS": 3', 0)])
    def test_corrupted_dummies_field(self, corrupted, dummies):
        body = bytes(_binary_body({}, "misra_gries_paper", dummies="3"))
        status, payload = _decoded(body.replace(b'"dummies": 3', corrupted))
        assert status == "ok" and payload.dummies == dummies

    @pytest.mark.parametrize("fields, named", [
        ({"meta": "5"}, "bad meta 5"), ({"meta": '"x"'}, "bad meta 'x'"),
        ({"meta": "null"}, "bad meta None"), ({"meta": "[]"}, "bad meta []"),
        ({"meta": '{"stream_length": "9"}'}, "bad meta stream_length '9'"),
        ({"k": "64.7"}, "bad k 64.7"), ({"k": '"64"'}, "bad k '64'"),
        ({"k": "true"}, "bad k True"), ({"k": "0"}, "bad k 0"),
        ({"k": "-3"}, "bad k -3"), ({"k": "1e3"}, "bad k 1000.0"),
        ({"count": "true"}, "bad count True"),
        ({"count": "1.0"}, "bad count 1.0"), ({"count": '"1"'}, "bad count '1'"),
        ({"count": "-1"}, "bad count -1"), ({"count": "null"}, "bad count None"),
        ({"format": "3"}, "declares format 3")])
    def test_bad_field_refused_with_its_name(self, fields, named):
        status, message = _decoded(_binary_body({5: 2.0}, **fields))
        assert status == "error" and named in message

    def test_null_k_and_absent_meta_decode(self):
        status, payload = _decoded(_binary_body({5: 2.0}, k="null",
                                                meta=None))
        assert status == "ok" and payload.k is None and payload.meta == {}

    @given(counters=st.dictionaries(
               st.integers(-(2 ** 62), 2 ** 62),
               st.integers(0, 10 ** 9).map(float), max_size=20),
           fields=st.sampled_from(
               [{}] + [{"dummies": dummies}
                       for _, dummies, _ in _DUMMIES_HEADERS if dummies]),
           position=st.integers(0, 10 ** 6),
           replacement=(st.integers(0, 255)
                        | st.sampled_from(b'0.eE-"\\{},: tfn[]')),
           cut=st.none() | st.integers(0, 10 ** 6))
    # Header fields of the wrong type, behind a no-op corruption (the tag).
    @example(counters={5: 2.0}, fields={"meta": "5"}, position=0,
             replacement=1, cut=None)
    @example(counters={5: 2.0}, fields={"k": "64.5"}, position=0,
             replacement=1, cut=None)
    @example(counters={5: 2.0}, fields={"count": "true"}, position=0,
             replacement=1, cut=None)
    @settings(max_examples=200, deadline=None)
    def test_any_corruption_decodes_or_raises_framing_error(
            self, counters, fields, position, replacement, cut):
        body = _binary_body(counters, "misra_gries_paper", **fields)
        body[position % len(body)] = replacement
        if cut is not None:
            body = body[:cut % (len(body) + 1)]
        status, result = _decoded(body)
        if status == "ok":
            assert len(result.key_array) == len(result.values)

    @pytest.mark.parametrize("field, value, named", [
        ("meta", 5, "bad meta 5"), ("meta", None, "bad meta None"),
        ("k", 64.7, "bad k 64.7"), ("k", True, "bad k True"),
        ("k", 0, "bad k 0"), ("frames", True, "bad frame count True")])
    def test_bad_stream_header_field_refused(self, field, value, named):
        header = dict(FrameHeader(framing=FRAMING_VERSION, k=16).as_dict(),
                      **{field: value})
        with pytest.raises(FramingError, match="header declares") as excinfo:
            parse_header_body(json.dumps(header).encode("utf-8"))
        assert named in str(excinfo.value)


class _OneFrameOnlyFile:
    """A binary reader that forbids buffering the stream.

    ``read()`` with no size (or a size larger than the biggest legal single
    request: one frame body) raises — so any consumer that passes this test
    provably decodes at most one frame at a time.
    """

    def __init__(self, data: bytes, max_request: int):
        self._inner = io.BytesIO(data)
        self._max_request = max_request
        self.largest_request = 0

    def read(self, size=None):
        assert size is not None, "read() without a size buffers the whole stream"
        assert size <= self._max_request, (
            f"read({size}) asks for more than one frame ({self._max_request})")
        self.largest_request = max(self.largest_request, size)
        return self._inner.read(size)


class TestStreamingMerger:
    def test_streaming_never_reads_more_than_one_frame(self):
        data, sketches = _framed_exports(count=6, k=16)
        # The biggest single legal request: the largest frame body.
        frame_sizes, offset = [], len(MAGIC) + 1
        while offset < len(data):
            (length,) = struct.unpack_from(">I", data, offset)
            frame_sizes.append(length)
            offset += 4 + length
        guard = _OneFrameOnlyFile(data, max_request=max(frame_sizes))
        merger = StreamingMerger(16).consume(FrameReader(guard))
        assert merger.frames == 6
        expected = merge_many([sketch.counters() for sketch in sketches], 16)
        assert merger.merged() == expected
        assert guard.largest_request <= max(frame_sizes)

    def test_columnar_accumulator_matches_buffered_arrays(self):
        data, sketches = _framed_exports(count=5, k=16)
        merger = merge_frames(io.BytesIO(data))
        pairs = [(np.fromiter(s.counters().keys(), dtype=np.int64),
                  np.fromiter(s.counters().values(), dtype=np.float64))
                 for s in sketches]
        assert all(type(key) is int for key in merger.merged())
        assert merger.merged() == merge_many(pairs, 16)
        assert merger.total_stream_length == sum(s.stream_length for s in sketches)

    def test_token_frames_drop_to_dict_mode_with_same_fold(self):
        counters = [{"a": 5.0, "b": 3.0}, {"b": 2.0, "c": 4.0}, {"a": 1.0}]
        merger = StreamingMerger(2)
        for item in counters:
            merger.add(encode_counters(item, k=2))
        assert merger._fold._index is not None  # the key table
        assert merger.merged() == merge_many(counters, 2)

    def test_release_matches_buffered_release_of_pairs(self):
        data, sketches = _framed_exports(count=4, k=16)
        merger = merge_frames(io.BytesIO(data))
        mechanism = PrivateMergedRelease(epsilon=1.0, delta=1e-6, k=16)
        streamed = merger.release(mechanism, rng=7)
        pairs = [(np.fromiter(s.counters().keys(), dtype=np.int64),
                  np.fromiter(s.counters().values(), dtype=np.float64))
                 for s in sketches]
        buffered = mechanism.release(
            pairs, rng=7,
            total_stream_length=sum(s.stream_length for s in sketches))
        assert streamed.counts == buffered.counts
        assert streamed.metadata.notes == buffered.metadata.notes

    def test_release_requires_trusted_merged_strategy(self):
        data, _ = _framed_exports(count=2, k=16)
        merger = merge_frames(io.BytesIO(data))
        mechanism = PrivateMergedRelease(epsilon=1.0, delta=1e-6, k=16,
                                         strategy=MergeStrategy.TRUSTED_SUM)
        with pytest.raises(ParameterError, match="trusted_merged"):
            merger.release(mechanism, rng=0)

    def test_release_requires_matching_k(self):
        data, _ = _framed_exports(count=2, k=16)
        merger = merge_frames(io.BytesIO(data))
        with pytest.raises(ParameterError, match="calibrated"):
            merger.release(PrivateMergedRelease(epsilon=1.0, delta=1e-6, k=8), rng=0)

    def test_empty_merger_refuses_release(self):
        with pytest.raises(ParameterError, match="no frames"):
            StreamingMerger(4).release(
                PrivateMergedRelease(epsilon=1.0, delta=1e-6, k=4))


class TestFileHelpers:
    def test_write_and_iter_frames_path_round_trip(self, tmp_path):
        target = tmp_path / "exports.frames"
        sketches = [_export(seed) for seed in (1, 2)]
        assert write_frames(target, sketches, k=16) == 2
        payloads = list(iter_frames(target))
        assert [payload.kind for payload in payloads] == ["misra_gries_paper"] * 2

    def test_merge_frames_uses_header_k(self, tmp_path):
        target = tmp_path / "exports.frames"
        sketches = [_export(seed) for seed in (3, 4)]
        write_frames(target, [encode_sketch(sketch) for sketch in sketches], k=16)
        merger = merge_frames(target)
        assert merger.frames == 2
        assert len(merger.merged()) <= 16

    def test_merge_frames_without_header_k_requires_explicit_k(self, tmp_path):
        target = tmp_path / "exports.frames"
        write_frames(target, [encode_counters({1: 2.0})])
        with pytest.raises(ParameterError, match="declares no k"):
            merge_frames(target)
        assert merge_frames(target, k=4).merged() == {1: 2.0}


class TestNegativeCounters:
    def test_dense_fold_raises_on_negative_frame(self):
        from repro.exceptions import SketchStateError

        merger = StreamingMerger(4)
        merger.add(encode_counters({1: 2.0, 2: 1.0}, k=4))
        with pytest.raises(SketchStateError, match="negative counter"):
            merger.add(encode_counters({3: -1.0}, k=4))

    def test_dense_fold_raises_on_negative_carried_from_first_frame(self):
        from repro.exceptions import SketchStateError

        merger = StreamingMerger(4)
        merger.add(encode_counters({1: -2.0}, k=4))  # single frame: unvalidated
        with pytest.raises(SketchStateError, match="negative counter"):
            merger.add(encode_counters({2: 1.0}, k=4))

    def test_oversized_negative_first_frame_raises_immediately(self):
        from repro.exceptions import SketchStateError

        merger = StreamingMerger(2)
        with pytest.raises(SketchStateError, match="negative counter"):
            merger.add(encode_counters({1: 5.0, 2: -1.0, 3: 2.0}, k=2))


class TestDenseGrowth:
    def test_expanding_key_ranges_stay_dense_and_correct(self):
        frames = [{index * 4096 + offset: float(offset + 1) for offset in range(8)}
                  for index in range(64)]
        merger = StreamingMerger(1024)
        for counters in frames:
            merger.add(encode_counters(counters, k=1024))
        assert all(type(key) is int for key in merger.merged())
        assert merger.merged() == merge_many(frames, 1024)

    def test_empty_first_frame_does_not_pin_the_id_space_at_zero(self):
        frames = [{}, {10**9: 1.0, 10**9 + 1: 2.0}, {10**9 + 2: 3.0}]
        merger = StreamingMerger(4)
        for counters in frames:
            merger.add(encode_counters(counters, k=4))
        assert merger._fold._index is None  # still offset ids, no key table
        assert merger.merged() == merge_many(frames, 4)
        assert list(merger.merged()) == list(merge_many(frames, 4))

    def test_offset_ids_follow_the_live_keys(self):
        """The offset id space covers the live keys and the next frame, not
        every key ever seen: windows sliding past the span limit (64 ids
        per counter at k=4), or jumping past a state with no live counter,
        stay on offset ids."""
        from repro.sketches._reference_merge import reference_merge_many

        sliding = [{100 * index + offset: 10.0 * (index + 1)
                    for offset in range(4)} for index in range(12)]
        emptied = [{0: 1.0}, {1: 1.0}, {200: 1.0}, {201: 2.0}]
        for frames, k in ((sliding, 4), (emptied, 1)):
            merger = StreamingMerger(k)
            for counters in frames:
                merger.add(encode_counters(counters, k=k))
            assert merger._fold._index is None
            expected = reference_merge_many(frames, k)
            assert list(merger.merged().items()) == list(expected.items())

    def test_write_frames_declares_count_for_sized_collections(self, tmp_path):
        target = tmp_path / "declared.frames"
        payloads = [encode_counters({1: 2.0}), encode_counters({2: 3.0})]
        write_frames(target, payloads, k=4)
        with target.open("rb") as fileobj:
            assert FrameReader(fileobj).header.frames == 2
