"""Unit tests for the Pipeline facade."""

import numpy as np
import pytest

from repro.api import Pipeline, decode, list_mechanisms
from repro.api.registry import CONSUMES
from repro.core import PrivateMisraGries
from repro.exceptions import ParameterError, SketchStateError
from repro.sketches import MisraGriesSketch, merge_many
from repro.streams import zipf_stream


class TestFitAndRelease:
    def test_matches_raw_class_api(self):
        stream = zipf_stream(2_000, 100, rng=0)
        facade = (Pipeline(sketch="misra_gries", mechanism="pmg", k=32,
                           epsilon=1.0, delta=1e-6)
                  .fit(stream).release(rng=7))
        sketch = MisraGriesSketch.from_stream(32, stream)
        raw = PrivateMisraGries(epsilon=1.0, delta=1e-6).release(sketch, rng=7)
        assert facade.as_dict() == raw.as_dict()
        assert facade.metadata == raw.metadata

    def test_ndarray_fit_equals_list_fit(self):
        stream = zipf_stream(3_000, 200, rng=1, as_array=True)
        batched = Pipeline(mechanism="pmg", k=16, epsilon=1.0, delta=1e-6).fit(stream)
        sequential = Pipeline(mechanism="pmg", k=16, epsilon=1.0, delta=1e-6).fit(
            stream.tolist())
        assert batched.counters() == sequential.counters()
        assert batched.stream_length == sequential.stream_length == 3_000

    def test_incremental_fit_accumulates(self):
        stream = zipf_stream(1_000, 50, rng=2)
        split = Pipeline(mechanism="pmg", k=16, epsilon=1.0, delta=1e-6)
        split.fit(stream[:400]).fit(stream[400:])
        whole = Pipeline(mechanism="pmg", k=16, epsilon=1.0, delta=1e-6).fit(stream)
        assert split.counters() == whole.counters()

    def test_release_before_fit_raises(self):
        with pytest.raises(SketchStateError):
            Pipeline(mechanism="pmg", k=8, epsilon=1.0, delta=1e-6).release(rng=0)

    def test_heavy_hitters_uses_cached_release(self):
        stream = [1] * 500 + [2] * 300 + list(range(100, 160))
        pipe = Pipeline(mechanism="pmg", k=32, epsilon=1.0, delta=1e-6).fit(stream)
        released = pipe.release(rng=0)
        heavy = pipe.heavy_hitters(0.2)
        assert set(heavy) <= set(released.keys())
        assert 1 in heavy
        with pytest.raises(ParameterError):
            pipe.heavy_hitters(1.5)

    def test_sketch_spec_dict(self):
        pipe = Pipeline(sketch={"name": "count_min", "depth": 5}, mechanism="gshm",
                        k=64, epsilon=1.0, delta=1e-6)
        pipe.fit([1, 2, 3, 1])
        assert pipe._sketch.depth == 5

    def test_stream_mechanism_buffers(self):
        pipe = Pipeline(mechanism="exact", epsilon=1.0, delta=1e-6).fit([1, 1, 2])
        histogram = pipe.release(rng=0)
        assert histogram.metadata.mechanism == "StabilityHistogram"


class TestSketchList:
    def test_fit_per_stream(self):
        stream = zipf_stream(2_000, 100, rng=3)
        pipe = Pipeline(mechanism="merged", k=32, epsilon=1.0, delta=1e-6)
        pipe.fit(stream[:1_000]).fit(stream[1_000:])
        histogram = pipe.release(rng=0)
        assert "Merged" in histogram.metadata.mechanism
        assert histogram.metadata.stream_length == 2_000

    def test_add_sketch_only_for_sketch_list(self):
        sketch = MisraGriesSketch.from_stream(8, [1, 2, 3])
        with pytest.raises(SketchStateError):
            Pipeline(mechanism="pmg", k=8, epsilon=1.0, delta=1e-6).add_sketch(sketch)


class TestMerge:
    def test_merge_pipelines_equals_merge_many(self):
        stream = zipf_stream(4_000, 300, rng=4)
        left = Pipeline(mechanism="pmg", k=32, epsilon=1.0, delta=1e-6).fit(stream[:2_000])
        right = Pipeline(mechanism="pmg", k=32, epsilon=1.0, delta=1e-6).fit(stream[2_000:])
        merged = left.merge(right)
        assert merged.counters() == merge_many([left.counters(), right.counters()], 32)
        assert merged.stream_length == 4_000
        # pmg is single-stream calibrated: merged state must not release
        # silently (Corollary 18 sensitivity), only with the explicit opt-in.
        with pytest.raises(ParameterError, match="merged-sensitivity"):
            merged.release(rng=0)
        histogram = merged.release(rng=0, allow_single_stream_calibration=True)
        assert histogram.metadata.mechanism == "PMG"

    def test_merge_wire_payloads_columnar(self):
        stream = zipf_stream(4_000, 300, rng=5, as_array=True)
        pipes = [Pipeline(mechanism="pmg", k=32, epsilon=1.0, delta=1e-6).fit(part)
                 for part in (stream[:2_000], stream[2_000:])]
        payloads = [decode(pipe.to_wire()) for pipe in pipes]
        assert all(payload.key_array is not None for payload in payloads)
        empty = Pipeline(mechanism="pmg", k=32, epsilon=1.0, delta=1e-6)
        merged = empty.merge(payloads)
        expected = merge_many([pipe.counters() for pipe in pipes], 32)
        assert merged.counters() == expected

    def test_merge_requires_k(self):
        with pytest.raises(ParameterError, match="k"):
            Pipeline(mechanism="pmg", epsilon=1.0, delta=1e-6).merge([{1: 2.0}])

    def test_merge_rejects_stream_buffering_pipelines(self):
        buffered = Pipeline(mechanism="exact", k=8, epsilon=1.0, delta=1e-6).fit([1, 2])
        with pytest.raises(ParameterError, match="sketch-consuming"):
            buffered.merge({1: 2.0})
        with pytest.raises(ParameterError, match="sketch-consuming"):
            Pipeline(mechanism="pmg", k=8, epsilon=1.0, delta=1e-6).fit([1]).merge(buffered)

    def test_merge_folds_sketch_list_pipelines_via_tree_reduction(self):
        from repro.sketches.merge import merge_tree

        streams = [zipf_stream(400, 40, rng=seed) for seed in (1, 2, 3, 4)]
        lists = Pipeline(mechanism="merged", k=8, epsilon=1.0, delta=1e-6)
        for stream in streams[:2]:
            lists.fit(stream)
        other = Pipeline(mechanism="merged", k=8, epsilon=1.0, delta=1e-6)
        for stream in streams[2:]:
            other.fit(stream)
        merged = lists.merge(other)
        assert merged.stream_length == sum(len(stream) for stream in streams)
        expected = merge_tree(
            [merge_tree([sketch.counters() for sketch in lists._sketches], 8),
             merge_tree([sketch.counters() for sketch in other._sketches], 8)], 8)
        assert merged.counters() == expected
        assert merged.release(rng=0).metadata.sketch_size == 8

    def test_from_sketch_propagates_k_to_mechanism(self):
        sketch = MisraGriesSketch.from_stream(24, zipf_stream(500, 50, rng=7))
        pipe = Pipeline.from_sketch(sketch, mechanism="chan", epsilon=1.0, delta=1e-6)
        assert pipe.mechanism.impl.k == 24
        assert pipe.release(rng=0).metadata.sketch_size == 24

    def test_merged_pipeline_refuses_further_fit(self):
        left = Pipeline(mechanism="pmg", k=8, epsilon=1.0, delta=1e-6).fit([1, 2])
        merged = left.merge({3: 1.0})
        with pytest.raises(SketchStateError):
            merged.fit([4])


class TestMergedMechanismWireRouting:
    def test_columnar_envelopes_release_like_dicts(self):
        stream = zipf_stream(4_000, 300, rng=8, as_array=True)
        envelopes = []
        for part in (stream[:2_000], stream[2_000:]):
            pipe = Pipeline(mechanism="pmg", k=32, epsilon=1.0, delta=1e-6).fit(part)
            envelopes.append(decode(pipe.to_wire()))
        aggregator = Pipeline(mechanism="merged", k=32, epsilon=1.0, delta=1e-6)
        for envelope in envelopes:
            aggregator.add_sketch(envelope)
        histogram = aggregator.release(rng=0)
        assert histogram.metadata.notes == "streams=2, GSHM with l=k=32"
        assert histogram.metadata.stream_length == 4_000
        # ... and equals the dict-path release with the same seed, metadata
        # included: the route leaves no trace in the output.
        sketches = [MisraGriesSketch.from_stream(32, part.tolist())
                    for part in (stream[:2_000], stream[2_000:])]
        from repro.core import PrivateMergedRelease

        reference = PrivateMergedRelease(epsilon=1.0, delta=1e-6, k=32).release(
            sketches, rng=0)
        assert list(histogram.counts.items()) == list(reference.counts.items())
        assert histogram.metadata == reference.metadata

    def test_merged_requires_k(self):
        with pytest.raises(ParameterError, match="sketch size k"):
            Pipeline(mechanism="merged", epsilon=1.0, delta=1e-6)


class TestWireExport:
    def test_to_wire_roundtrip(self):
        pipe = Pipeline(mechanism="pmg", k=16, epsilon=1.0, delta=1e-6)
        pipe.fit(zipf_stream(1_000, 50, rng=6))
        payload = decode(pipe.to_wire())
        assert payload.kind == "misra_gries_paper"
        assert payload.stream_length == 1_000

    def test_to_wire_requires_state(self):
        with pytest.raises(SketchStateError):
            Pipeline(mechanism="pmg", k=8, epsilon=1.0, delta=1e-6).to_wire()


def test_every_mechanism_constructible_via_pipeline():
    """Acceptance: Pipeline(mechanism=<name>) works for all registered names."""
    for name in list_mechanisms():
        pipe = Pipeline(mechanism=name, k=16, epsilon=1.0, delta=1e-6,
                        universe_size=64, max_contribution=4, phi=0.02)
        assert pipe.mechanism_name == name
        assert pipe.mechanism.consumes in CONSUMES


def test_sketch_list_merge_accepts_wire_payload_entries():
    """add_sketch keeps decoded payloads as-is; merge must handle them."""
    from repro.api import encode_counters

    pipe = Pipeline(mechanism="merged", k=8, epsilon=1.0, delta=1e-6)
    pipe.add_sketch(decode(encode_counters({1: 3.0, 2: 1.0}, k=8, stream_length=4)))
    merged = pipe.merge({3: 2.0})
    assert merged.counters() == {1: 3.0, 2: 1.0, 3: 2.0}
    assert merged.stream_length == 4


def test_sequential_fit_after_sharded_fit_raises_with_guidance():
    pipe = Pipeline(sketch="misra_gries", mechanism="pmg", k=8,
                    epsilon=1.0, delta=1e-6)
    pipe.fit(np.arange(100, dtype=np.int64), workers=2)
    with pytest.raises(SketchStateError, match="workers"):
        pipe.fit(np.arange(10, dtype=np.int64))


def test_sharded_fit_honors_spec_dict_k():
    """The spec dict's k must drive the shard size, like the sequential fit."""
    stream = np.asarray([v % 100 for v in range(2000)] + [0] * 200, dtype=np.int64)
    pipe = Pipeline(sketch={"name": "misra_gries", "k": 128}, mechanism="pmg",
                    epsilon=1.0, delta=1e-6)  # only the spec carries k
    pipe.fit(stream, workers=2)
    # k=128 > 100 distinct keys: nothing may be evicted by the shard merge.
    assert len(pipe.counters()) == 100


def test_sketch_list_merge_rejects_untrusted_strategy():
    untrusted = Pipeline(mechanism={"name": "merged", "strategy": "untrusted"},
                         k=8, epsilon=1.0, delta=1e-6).fit([1, 2, 3])
    with pytest.raises(ParameterError, match="untrusted"):
        untrusted.merge({4: 1.0})
    trusted = Pipeline(mechanism="merged", k=8, epsilon=1.0, delta=1e-6).fit([1, 2])
    with pytest.raises(ParameterError, match="untrusted"):
        trusted.merge(Pipeline(mechanism={"name": "merged", "strategy": "untrusted"},
                               k=8, epsilon=1.0, delta=1e-6).fit([5, 6]))
