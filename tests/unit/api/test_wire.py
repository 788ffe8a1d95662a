"""Unit tests for the v2 columnar wire protocol."""

import json
import re

import numpy as np
import pytest
from _frozen_v1 import save_v1, sketch_to_dict

from repro.api import wire
from repro.core import PrivateMisraGries
from repro.exceptions import SketchStateError
from repro.sketches import (
    MisraGriesSketch,
    StandardMisraGriesSketch,
    load_sketch,
    merge_many,
    save_sketch,
)
from repro.sketches.misra_gries import DummyKey
from repro.streams import zipf_stream


def _json_roundtrip(payload):
    return json.loads(json.dumps(payload))


class TestSketchEnvelope:
    def test_integer_sketch_bit_exact(self):
        sketch = MisraGriesSketch.from_stream(32, zipf_stream(5_000, 300, rng=0))
        payload = _json_roundtrip(wire.encode_sketch(sketch))
        assert payload["format"] == wire.WIRE_FORMAT_VERSION
        assert payload["key_encoding"] == "int"
        restored = wire.payload_to_sketch(payload)
        assert restored.raw_counters() == sketch.raw_counters()
        assert restored.stream_length == sketch.stream_length
        assert restored.decrement_rounds == sketch.decrement_rounds

    def test_sketch_with_dummies_uses_tokens(self):
        sketch = MisraGriesSketch.from_stream(8, [1, 2, 3])  # 5 dummies remain
        payload = _json_roundtrip(wire.encode_sketch(sketch))
        assert payload["key_encoding"] == "token"
        restored = wire.payload_to_sketch(payload)
        assert restored.raw_counters() == sketch.raw_counters()
        assert sum(isinstance(key, DummyKey) for key in restored.raw_counters()) == 5

    def test_standard_sketch_roundtrip(self):
        sketch = StandardMisraGriesSketch.from_stream(8, zipf_stream(500, 40, rng=1))
        restored = wire.payload_to_sketch(_json_roundtrip(wire.encode_sketch(sketch)))
        assert isinstance(restored, StandardMisraGriesSketch)
        assert restored.counters() == sketch.counters()

    def test_restored_sketch_accepts_updates(self):
        stream = zipf_stream(1_000, 30, rng=2)
        sketch = MisraGriesSketch.from_stream(8, stream[:500])
        restored = wire.payload_to_sketch(_json_roundtrip(wire.encode_sketch(sketch)))
        restored.update_all(stream[500:])
        assert restored.counters() == MisraGriesSketch.from_stream(8, stream).counters()


class TestHistogramEnvelope:
    def test_bit_exact_roundtrip(self):
        sketch = MisraGriesSketch.from_stream(16, zipf_stream(5_000, 100, rng=3))
        histogram = PrivateMisraGries(epsilon=1.0, delta=1e-6).release(sketch, rng=4)
        restored = wire.payload_to_histogram(
            _json_roundtrip(wire.encode_histogram(histogram)))
        assert restored.as_dict() == histogram.as_dict()
        assert restored.metadata == histogram.metadata

    def test_wrong_kind_rejected(self):
        sketch = MisraGriesSketch.from_stream(4, [1, 1, 2])
        payload = wire.encode_sketch(sketch)
        with pytest.raises(SketchStateError):
            wire.payload_to_histogram(payload)


class TestCountersEnvelope:
    def test_mixed_keys_roundtrip(self):
        counters = {1: 2.0, "alpha": 3.5, b"\x00\xff": 1.25, "with:colon": 4.0}
        payload = _json_roundtrip(wire.encode_counters(counters, k=8, stream_length=11))
        decoded = wire.decode(payload)
        assert decoded.counters() == counters
        assert decoded.k == 8
        assert decoded.stream_length == 11
        assert decoded.key_array is None

    def test_int64_overflow_falls_back_to_tokens(self):
        counters = {2 ** 70: 1.0, 1: 2.0}
        payload = wire.encode_counters(counters)
        assert payload["key_encoding"] == "token"
        assert wire.decode(_json_roundtrip(payload)).counters() == counters


class TestColumnarFastPath:
    def test_decode_produces_int_array_feeding_merge(self):
        streams = [zipf_stream(2_000, 200, rng=seed) for seed in (5, 6, 7)]
        sketches = [MisraGriesSketch.from_stream(32, stream) for stream in streams]
        payloads = [wire.decode(_json_roundtrip(wire.encode_counters(sketch)))
                    for sketch in sketches]
        pairs = [payload.columnar() for payload in payloads]
        assert all(keys.dtype == np.int64 for keys, _ in pairs)
        merged = merge_many(pairs, 32)
        assert merged == merge_many([sketch.counters() for sketch in sketches], 32)


def _int_envelope(keys):
    return {"format": 2, "kind": "counters", "key_encoding": "int",
            "keys": keys, "values": [1.0] * len(keys)}


class TestIntKeysAreNotCoerced:
    """``key_encoding: "int"`` keys must be JSON integers within int64;
    anything else is refused with the key named, never coerced."""

    def _refused(self, keys, named):
        with pytest.raises(SketchStateError, match="int-encoded key") as excinfo:
            wire.decode(_json_roundtrip(_int_envelope(keys)))
        assert named in str(excinfo.value)

    def test_float_key_refused(self):
        self._refused([3, 1.5], "1.5")

    def test_fractional_keys_do_not_collapse_into_duplicates(self):
        self._refused([1.5, 1.7], "1.5")

    def test_string_key_refused(self):
        self._refused(["7"], "'7'")

    def test_bool_key_refused(self):
        self._refused([2, True], "True")

    def test_key_past_int64_refused(self):
        self._refused([1, 2 ** 63], str(2 ** 63))

    def test_key_below_int64_refused(self):
        self._refused([-(2 ** 63) - 1], str(-(2 ** 63) - 1))

    def test_null_key_refused(self):
        self._refused([4, None], "None")

    def test_int64_ends_still_decode(self):
        keys = [-(2 ** 63), 0, 2 ** 63 - 1]
        decoded = wire.decode(_json_roundtrip(_int_envelope(keys)))
        assert decoded.key_array.tolist() == keys

    def test_json_frame_wraps_the_refusal_as_framing_error(self):
        from repro.api.framing import decode_payload_body
        from repro.exceptions import FramingError

        body = json.dumps(_int_envelope([1.5, 1.7])).encode("utf-8")
        with pytest.raises(FramingError, match="int-encoded key 1.5"):
            decode_payload_body(body)


class TestHeaderFieldsAreNotCoerced:
    """``k`` must be a JSON integer >= 1 (0 on a histogram) or null,
    ``meta`` a JSON object and its ``stream_length`` an integer >= 0;
    anything else is refused with the field named, never coerced."""

    @pytest.mark.parametrize("field, value, named", [
        ("k", 64.7, "bad k 64.7"), ("k", "64", "bad k '64'"),
        ("k", True, "bad k True"), ("k", 0, "bad k 0"), ("k", -3, "bad k -3"),
        ("meta", 5, "bad meta 5"), ("meta", "x", "bad meta 'x'"),
        ("meta", None, "bad meta None"), ("meta", [], "bad meta []"),
        ("meta", {"stream_length": "9"}, "bad meta stream_length '9'"),
        ("meta", {"stream_length": 2.5}, "bad meta stream_length 2.5"),
        ("meta", {"stream_length": -1}, "bad meta stream_length -1")])
    def test_bad_field_refused(self, field, value, named):
        envelope = dict(_int_envelope([1, 2]), **{field: value})
        with pytest.raises(SketchStateError, match="wire v2 payload") as excinfo:
            wire.decode(_json_roundtrip(envelope))
        assert named in str(excinfo.value)

    def test_good_fields_decode(self):
        envelope = dict(_int_envelope([1, 2]), k=64,
                        meta={"stream_length": 0})
        decoded = wire.decode(_json_roundtrip(envelope))
        assert decoded.k == 64 and decoded.meta == {"stream_length": 0}
        assert wire.decode(dict(envelope, k=None)).k is None

    def test_only_a_histogram_may_declare_k_zero(self):
        """A release built without a sketch records ``sketch_size`` 0."""
        histogram = dict(_int_envelope([1, 2]), kind="private_histogram", k=0)
        assert wire.decode(histogram).k == 0
        with pytest.raises(SketchStateError, match="bad k -1"):
            wire.decode(dict(histogram, k=-1))
        with pytest.raises(SketchStateError, match="bad k 0"):
            wire.decode(dict(histogram, kind="counters"))


class TestValuesAreNotCoerced:
    """``values`` must be JSON numbers (ints or floats, NaN included); a
    ``null``, a string or a bool is refused with the value named."""

    @pytest.mark.parametrize("value, named", [
        (None, "value None"), ("x", "value 'x'"), ("1.5", "value '1.5'"),
        (True, "value True"), (10 ** 400, "out of float64 range")])
    def test_bad_value_refused(self, value, named):
        envelope = dict(_int_envelope([1, 2]), values=[1.0, value])
        with pytest.raises(SketchStateError, match=named):
            wire.decode(envelope)

    def test_values_must_be_an_array(self):
        with pytest.raises(SketchStateError, match="not a JSON array"):
            wire.decode(dict(_int_envelope([1]), values={"a": 1.0}))

    def test_numbers_decode_bit_exactly(self):
        values = [3, 2.5, float("nan"), -0.0, float("inf")]
        decoded = wire.decode(_json_roundtrip(
            dict(_int_envelope([1, 2, 3, 4, 5]), values=values)))
        assert decoded.values.dtype == np.float64
        np.testing.assert_array_equal(decoded.values, np.asarray(values, dtype=np.float64))

    def test_json_frame_wraps_the_refusal_as_framing_error(self):
        from repro.api.framing import decode_payload_body
        from repro.exceptions import FramingError

        envelope = dict(_int_envelope([1]), key_encoding="token", keys=["s:a"],
                        values=[None])
        body = json.dumps(envelope).encode("utf-8")
        with pytest.raises(FramingError, match="value None"):
            decode_payload_body(body)


class TestRestoredFieldsAreNotCoerced:
    @pytest.mark.parametrize("rounds", ["x", 2.5, -1, True, None])
    def test_bad_decrement_rounds_refused(self, rounds):
        envelope = wire.encode_sketch(MisraGriesSketch.from_stream(4, [1, 2, 1]))
        envelope["meta"]["decrement_rounds"] = rounds
        with pytest.raises(SketchStateError,
                           match=f"bad meta decrement_rounds {re.escape(repr(rounds))}"):
            wire.payload_to_sketch(envelope)

    def test_unknown_metadata_field_refused(self):
        sketch = MisraGriesSketch.from_stream(4, [1] * 1000 + [2])
        envelope = wire.encode_histogram(
            PrivateMisraGries(epsilon=1.0, delta=1e-6).release(sketch, rng=0))
        envelope["meta"]["bogus"] = 1
        with pytest.raises(SketchStateError, match="'bogus'"):
            wire.payload_to_histogram(envelope)
        del envelope["meta"]["bogus"], envelope["meta"]["notes"]
        assert wire.payload_to_histogram(envelope).metadata.notes == ""
        del envelope["meta"]["epsilon"]
        with pytest.raises(SketchStateError, match="'epsilon'"):
            wire.payload_to_histogram(envelope)


class TestVersioning:
    def test_wire_version_detection(self):
        sketch = MisraGriesSketch.from_stream(4, [1, 2, 1])
        assert wire.wire_version(sketch_to_dict(sketch)) == 1
        assert wire.wire_version(wire.encode_sketch(sketch)) == 2
        with pytest.raises(SketchStateError):
            wire.wire_version({"format": 3})

    def test_decode_rejects_v1(self):
        with pytest.raises(SketchStateError):
            wire.decode(sketch_to_dict(MisraGriesSketch(2)))

    def test_malformed_columns_rejected(self):
        with pytest.raises(SketchStateError):
            wire.decode({"format": 2, "kind": "counters", "key_encoding": "int",
                         "keys": [1, 2], "values": [1.0]})

    def test_unknown_encoding_rejected(self):
        with pytest.raises(SketchStateError):
            wire.decode({"format": 2, "kind": "counters", "key_encoding": "base91",
                         "keys": [], "values": []})

    def test_unknown_version_error_names_supported_versions(self):
        """The error must tell the user what the library *does* speak."""
        with pytest.raises(SketchStateError) as excinfo:
            wire.wire_version({"format": 3})
        message = str(excinfo.value)
        assert "format: 3" in message
        assert "'format_version': 1" in message and "'format': 2" in message
        with pytest.raises(SketchStateError, match="declares no wire version"):
            wire.wire_version({"counters": {}})
        with pytest.raises(SketchStateError) as excinfo:
            wire.decode({"format": 99, "kind": "counters"})
        assert "supported versions" in str(excinfo.value)

    def test_load_payload_unknown_version_names_file_and_versions(self, tmp_path):
        target = tmp_path / "future.sketch.json"
        target.write_text(json.dumps({"format": 7, "kind": "counters",
                                      "keys": [], "values": []}))
        with pytest.raises(SketchStateError) as excinfo:
            wire.load_payload(target)
        message = str(excinfo.value)
        assert str(target) in message, "the failing file path must be named"
        assert "format: 7" in message
        assert "supported versions" in message

    def test_load_payload_non_object_file_names_path(self, tmp_path):
        target = tmp_path / "list.json"
        target.write_text(json.dumps([1, 2]))
        with pytest.raises(SketchStateError, match="JSON list, not an object") as excinfo:
            wire.load_payload(target)
        assert str(target) in str(excinfo.value)

    def test_load_payload_versionless_file_names_path(self, tmp_path):
        target = tmp_path / "not-a-sketch.json"
        target.write_text(json.dumps({"counters": {"i:1": 2.0}}))
        with pytest.raises(SketchStateError) as excinfo:
            wire.load_payload(target)
        assert str(target) in str(excinfo.value)
        assert "declares no wire version" in str(excinfo.value)


def test_save_sketch_rejects_non_restorable_types(tmp_path):
    """save_sketch/load_sketch stay symmetric: non-MG sketches are refused."""
    from repro.exceptions import ParameterError
    from repro.sketches import CountMinSketch

    sketch = CountMinSketch(width=16, depth=2)
    sketch.update_all([1, 2, 3])
    with pytest.raises(ParameterError, match="encode_counters"):
        save_sketch(sketch, tmp_path / "cm.json")


class TestFileInterop:
    def test_save_v1_load_v2_default(self, tmp_path):
        """v1 files written by the old layout still load (cross-read)."""
        sketch = MisraGriesSketch.from_stream(16, zipf_stream(2_000, 100, rng=8))
        v1 = save_v1(sketch, tmp_path / "sketch.v1.json")
        v2 = tmp_path / "sketch.v2.json"
        save_sketch(sketch, v2)
        assert json.loads(v1.read_text())["format_version"] == 1
        assert json.loads(v2.read_text())["format"] == 2
        restored_v1, restored_v2 = load_sketch(v1), load_sketch(v2)
        assert restored_v1.raw_counters() == sketch.raw_counters()
        assert restored_v2.raw_counters() == sketch.raw_counters()

    def test_load_payload_upconverts_v1(self, tmp_path):
        sketch = MisraGriesSketch.from_stream(16, zipf_stream(2_000, 100, rng=9))
        payload = wire.load_payload(save_v1(sketch, tmp_path / "sketch.v1.json"))
        assert payload.kind == "misra_gries_paper"
        assert payload.stream_length == sketch.stream_length
