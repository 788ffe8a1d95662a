"""Unit tests for sketch and histogram serialization."""

import json
import re
import struct
import tempfile
from pathlib import Path

import pytest
from _frozen_v1 import _encode_key, histogram_to_dict, save_v1, sketch_to_dict
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.wire import encode_histogram, encode_sketch, load_payload
from repro.cli import main
from repro.core import PrivateMisraGries
from repro.core.results import PrivateHistogram, ReleaseMetadata
from repro.exceptions import ParameterError, SketchStateError
from repro.sketches import (
    MisraGriesSketch,
    StandardMisraGriesSketch,
    load_histogram,
    load_sketch,
    save_histogram,
    save_sketch,
)
from repro.sketches.misra_gries import DummyKey
from repro.streams import zipf_stream


def _write(tmp_path, payload, name="file.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestSketchRoundTrip:
    def test_paper_variant_roundtrip(self, tmp_path):
        sketch = MisraGriesSketch.from_stream(16, zipf_stream(2_000, 100, rng=0))
        path = tmp_path / "sketch.json"
        save_sketch(sketch, path)
        restored = load_sketch(path)
        assert isinstance(restored, MisraGriesSketch)
        assert restored.raw_counters() == sketch.raw_counters()
        assert restored.stream_length == sketch.stream_length
        assert restored.decrement_rounds == sketch.decrement_rounds

    def test_standard_variant_roundtrip(self, tmp_path):
        sketch = StandardMisraGriesSketch.from_stream(8, zipf_stream(500, 40, rng=1))
        path = tmp_path / "sketch.json"
        save_sketch(sketch, path)
        restored = load_sketch(path)
        assert isinstance(restored, StandardMisraGriesSketch)
        assert restored.counters() == sketch.counters()

    def test_restored_sketch_accepts_updates(self, tmp_path):
        stream = zipf_stream(1_000, 30, rng=2)
        sketch = MisraGriesSketch.from_stream(8, stream[:500])
        path = tmp_path / "sketch.json"
        save_sketch(sketch, path)
        restored = load_sketch(path)
        restored.update_all(stream[500:])
        direct = MisraGriesSketch.from_stream(8, stream)
        assert restored.counters() == direct.counters()

    def test_string_keys_roundtrip(self, tmp_path):
        sketch = StandardMisraGriesSketch.from_stream(4, ["alpha", "beta", "alpha"])
        path = tmp_path / "sketch.json"
        save_sketch(sketch, path)
        assert load_sketch(path).estimate("alpha") == 2.0

    def test_unsupported_key_type_rejected(self, tmp_path):
        sketch = StandardMisraGriesSketch(4)
        sketch.update((1, 2))
        with pytest.raises(ParameterError):
            save_sketch(sketch, tmp_path / "sketch.json")

    def test_bad_format_version_rejected(self, tmp_path):
        payload = sketch_to_dict(MisraGriesSketch(2))
        payload["format_version"] = 99
        with pytest.raises(SketchStateError):
            load_sketch(_write(tmp_path, payload))

    def test_unknown_kind_rejected(self, tmp_path):
        payload = sketch_to_dict(MisraGriesSketch(2))
        payload["kind"] = "bloom_filter"
        with pytest.raises(SketchStateError):
            load_sketch(_write(tmp_path, payload))

    def test_wrong_counter_count_rejected(self, tmp_path):
        payload = sketch_to_dict(MisraGriesSketch(2))
        payload["counters"] = {"i:1": 1.0}
        with pytest.raises(SketchStateError):
            load_sketch(_write(tmp_path, payload))


class TestHistogramRoundTrip:
    def test_roundtrip(self, tmp_path):
        sketch = MisraGriesSketch.from_stream(16, zipf_stream(5_000, 100, exponent=1.4, rng=3))
        histogram = PrivateMisraGries(epsilon=1.0, delta=1e-6).release(sketch, rng=4)
        path = tmp_path / "histogram.json"
        save_histogram(histogram, path)
        restored = load_histogram(path)
        assert restored.as_dict() == histogram.as_dict()
        assert restored.metadata == histogram.metadata

    def test_wrong_kind_rejected(self, tmp_path):
        sketch = MisraGriesSketch.from_stream(4, [1, 1, 2])
        histogram = PrivateMisraGries(epsilon=1.0, delta=1e-6).release(sketch, rng=0)
        payload = histogram_to_dict(histogram)
        payload["kind"] = "something_else"
        with pytest.raises(SketchStateError):
            load_histogram(_write(tmp_path, payload))


# ----------------------------------------------------------------------
# v1 files: written by the frozen v1 writer, loaded through the v2 decoder
# ----------------------------------------------------------------------

#: Keys of every serializable type: ints inside and beyond int64, strings
#: (including ones that look like tokens) and bytes.
_KEYS = st.one_of(
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.text(max_size=6),
    st.text(max_size=4).map(lambda text: f"i:{text}"),
    st.binary(max_size=6),
)

_FLOATS = st.floats(allow_nan=False, width=64)


def _bits(values):
    return [struct.pack("<d", value) for value in values]


def _as_filed(counters):
    """``counters`` in the order a v1 file holds them: the writer dumped
    with ``sort_keys=True``, so by token (and loaders kept that order)."""
    return dict(sorted(counters.items(), key=lambda item: _encode_key(item[0])))


def _assert_same_counters(restored, source):
    """Same keys of the same types, in the same dict order, same float bits."""
    assert list(restored) == list(source)
    assert [type(key) for key in restored] == [type(key) for key in source]
    assert _bits(restored.values()) == _bits(source.values())


@st.composite
def _sketches(draw):
    variant = draw(st.sampled_from([MisraGriesSketch, StandardMisraGriesSketch]))
    pool = draw(st.lists(_KEYS, min_size=1, max_size=10, unique=True))
    stream = draw(st.lists(st.sampled_from(pool), max_size=60))
    return variant.from_stream(draw(st.integers(min_value=1, max_value=8)), stream)


_METADATA = st.builds(
    ReleaseMetadata, mechanism=st.text(max_size=8), epsilon=_FLOATS,
    delta=_FLOATS, noise_scale=_FLOATS, threshold=_FLOATS,
    sketch_size=st.integers(min_value=0, max_value=2 ** 20),
    stream_length=st.integers(min_value=0, max_value=2 ** 40),
    notes=st.text(max_size=12))

_HISTOGRAMS = st.builds(PrivateHistogram,
                        counts=st.dictionaries(_KEYS, _FLOATS, max_size=12),
                        metadata=_METADATA)


class TestV1FilesLoad:
    @given(sketch=_sketches())
    @settings(max_examples=150)
    def test_v1_sketch_files_restore_their_source(self, sketch):
        with tempfile.TemporaryDirectory() as directory:
            path = save_v1(sketch, Path(directory) / "sketch.json")
            restored = load_sketch(path)
            payload = load_payload(path)
        assert type(restored) is type(sketch)
        assert restored.size == sketch.size
        if isinstance(sketch, MisraGriesSketch):
            stored = _as_filed(sketch.raw_counters())
            _assert_same_counters(restored.raw_counters(), stored)
            assert any(isinstance(key, DummyKey) for key in stored) == (
                len(sketch.counters()) < sketch.size)
        else:
            stored = _as_filed(sketch.counters())
            _assert_same_counters(restored.counters(), stored)
        assert restored.stream_length == sketch.stream_length
        assert restored.decrement_rounds == sketch.decrement_rounds
        _assert_same_counters(payload.counters(), stored)
        assert payload.k == sketch.size
        assert payload.meta == {"stream_length": sketch.stream_length,
                                "decrement_rounds": sketch.decrement_rounds}

    @given(histogram=_HISTOGRAMS)
    @settings(max_examples=100)
    def test_v1_histogram_files_restore_their_source(self, histogram):
        with tempfile.TemporaryDirectory() as directory:
            path = save_v1(histogram, Path(directory) / "histogram.json")
            restored = load_histogram(path)
            payload = load_payload(path)
        _assert_same_counters(restored.counts, _as_filed(histogram.counts))
        assert restored.metadata == histogram.metadata
        _assert_same_counters(payload.counters(), _as_filed(histogram.counts))
        assert payload.k == histogram.metadata.sketch_size
        assert payload.meta == histogram.metadata.as_dict()

    def test_released_histogram_v1_file_restores(self, tmp_path):
        sketch = MisraGriesSketch.from_stream(16, zipf_stream(5_000, 100, exponent=1.4, rng=3))
        histogram = PrivateMisraGries(epsilon=1.0, delta=1e-6).release(sketch, rng=4)
        restored = load_histogram(save_v1(histogram, tmp_path / "histogram.json"))
        _assert_same_counters(restored.counts, _as_filed(histogram.counts))
        assert restored.metadata == histogram.metadata


# ----------------------------------------------------------------------
# Malformed fields are refused, in v1 and v2 files alike
# ----------------------------------------------------------------------


def _v1_sketch():
    return sketch_to_dict(MisraGriesSketch.from_stream(4, [1, 1, 2, 3]))


def _v2_sketch():
    return encode_sketch(MisraGriesSketch.from_stream(4, [1, 1, 2, 3]))


def _v1_histogram():
    sketch = MisraGriesSketch.from_stream(4, [1] * 1000 + [2])
    return histogram_to_dict(
        PrivateMisraGries(epsilon=1.0, delta=1e-6).release(sketch, rng=0))


def _v2_histogram():
    sketch = MisraGriesSketch.from_stream(4, [1] * 1000 + [2])
    return encode_histogram(
        PrivateMisraGries(epsilon=1.0, delta=1e-6).release(sketch, rng=0))


def _with(payload, field, value, within=None):
    """``payload`` with ``field`` (inside ``within`` when given) set to
    ``value``, or removed when ``value`` is ``_MISSING``."""
    target = payload if within is None else payload[within]
    if value is _MISSING:
        del target[field]
    else:
        target[field] = value
    return payload


def _first_value(payload, value):
    if "values" in payload:
        payload["values"][0] = value
    else:
        column = "counters" if "counters" in payload else "counts"
        payload[column][next(iter(payload[column]))] = value
    return payload


_MISSING = object()

#: (case id, malformed file, what the refusal must name)
_MALFORMED_SKETCHES = [
    ("v1-k-float", lambda: _with(_v1_sketch(), "k", 4.7), "bad k 4.7"),
    ("v1-k-string", lambda: _with(_v1_sketch(), "k", "4"), "bad k '4'"),
    ("v1-k-bool", lambda: _with(_v1_sketch(), "k", True), "bad k True"),
    ("v1-k-zero", lambda: _with(_v1_sketch(), "k", 0), "bad k 0"),
    ("v1-stream-length-string", lambda: _with(_v1_sketch(), "stream_length", "x"),
     "stream_length 'x'"),
    ("v1-stream-length-float", lambda: _with(_v1_sketch(), "stream_length", 7.9),
     "stream_length 7.9"),
    ("v1-counters-missing", lambda: _with(_v1_sketch(), "counters", _MISSING),
     "bad counters None"),
    ("v1-counters-list", lambda: _with(_v1_sketch(), "counters", [["i:1", 2.0]]),
     "bad counters"),
    ("v1-value-null", lambda: _first_value(_v1_sketch(), None), "value None"),
    ("v1-value-string", lambda: _first_value(_v1_sketch(), "x"), "value 'x'"),
    ("v2-value-null", lambda: _first_value(_v2_sketch(), None), "value None"),
    ("v2-value-string", lambda: _first_value(_v2_sketch(), "x"), "value 'x'"),
    ("v1-rounds-string", lambda: _with(_v1_sketch(), "decrement_rounds", "x"),
     "decrement_rounds 'x'"),
    ("v1-rounds-float", lambda: _with(_v1_sketch(), "decrement_rounds", 2.5),
     "decrement_rounds 2.5"),
    ("v1-rounds-negative", lambda: _with(_v1_sketch(), "decrement_rounds", -1),
     "decrement_rounds -1"),
    ("v2-rounds-string", lambda: _with(_v2_sketch(), "decrement_rounds", "x", "meta"),
     "decrement_rounds 'x'"),
    ("v2-rounds-float", lambda: _with(_v2_sketch(), "decrement_rounds", 2.5, "meta"),
     "decrement_rounds 2.5"),
    ("v2-rounds-negative", lambda: _with(_v2_sketch(), "decrement_rounds", -1, "meta"),
     "decrement_rounds -1"),
]

_MALFORMED_HISTOGRAMS = [
    ("v1-unknown-metadata", lambda: _with(_v1_histogram(), "bogus", 1, "metadata"),
     "bogus"),
    ("v2-unknown-metadata", lambda: _with(_v2_histogram(), "bogus", 1, "meta"),
     "bogus"),
    ("v1-value-null", lambda: _first_value(_v1_histogram(), None), "value None"),
    ("v2-value-string", lambda: _first_value(_v2_histogram(), "x"), "value 'x'"),
]


def _cases(table):
    return pytest.mark.parametrize("make, names", [(make, names) for _, make, names in table],
                                   ids=[case for case, _, _ in table])


class TestMalformedFilesRefused:
    @_cases(_MALFORMED_SKETCHES)
    def test_sketch_file_refused_naming_the_field(self, tmp_path, make, names):
        path = _write(tmp_path, make())
        with pytest.raises(SketchStateError, match=re.escape(names)):
            load_sketch(path)

    @_cases(_MALFORMED_HISTOGRAMS)
    def test_histogram_file_refused_naming_the_field(self, tmp_path, make, names):
        path = _write(tmp_path, make())
        with pytest.raises(SketchStateError, match=re.escape(names)):
            load_histogram(path)

    @_cases(_MALFORMED_SKETCHES)
    def test_cli_release_refuses_with_one_error_line(self, tmp_path, capsys, make,
                                                     names):
        path = _write(tmp_path, make())
        assert main(["release", "--sketch", str(path), "--epsilon", "1.0",
                     "--delta", "1e-6", "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and names in err
        assert "Traceback" not in err

    @_cases(_MALFORMED_SKETCHES)
    def test_sketch_file_refusal_names_the_file(self, tmp_path, make, names):
        path = _write(tmp_path, make())
        with pytest.raises(SketchStateError, match=re.escape(str(path))):
            load_sketch(path)

    @_cases(_MALFORMED_HISTOGRAMS)
    def test_histogram_file_refusal_names_the_file(self, tmp_path, make, names):
        path = _write(tmp_path, make())
        with pytest.raises(SketchStateError, match=re.escape(str(path))):
            load_histogram(path)

    def test_cli_release_refusal_names_the_file(self, tmp_path, capsys):
        path = _write(tmp_path, _with(_v2_sketch(), "decrement_rounds", 2.5,
                                      "meta"), name="f.json")
        assert main(["release", "--sketch", str(path), "--epsilon", "1.0",
                     "--delta", "1e-6", "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "decrement_rounds 2.5" in err and err.count("\n") == 1

    @_cases(_MALFORMED_HISTOGRAMS)
    def test_cli_histogram_reader_refuses_with_one_error_line(self, tmp_path, capsys,
                                                              make, names):
        path = _write(tmp_path, make())
        assert main(["heavy-hitters", "--histogram", str(path), "--phi", "0.1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and names in err
