"""Integration tests for the distributed / merging pipelines (Section 7)."""

import json

import pytest

from repro.analysis import summarize_errors
from repro.api import Pipeline, decode
from repro.api.framing import StreamingMerger
from repro.api.registry import make_mechanism
from repro.api.wire import encode_counters, encode_sketch
from repro.cli import main
from repro.core import MergeStrategy, PrivateMergedRelease
from repro.sketches import ExactCounter, MisraGriesSketch
from repro.streams import split_contiguous, split_round_robin, zipf_stream


@pytest.fixture(scope="module")
def workload():
    stream = zipf_stream(60_000, 1_000, exponent=1.3, rng=0)
    truth = ExactCounter.from_stream(stream).counters()
    return stream, truth


class TestDistributedAggregation:
    @pytest.mark.parametrize("splitter", [split_contiguous, split_round_robin])
    def test_trusted_merge_accuracy_independent_of_split(self, workload, splitter):
        stream, truth = workload
        k = 64
        release = PrivateMergedRelease(epsilon=1.0, delta=1e-6, k=k,
                                       strategy=MergeStrategy.TRUSTED_MERGED)
        errors = []
        for parts_count in (4, 16):
            parts = splitter(stream, parts_count)
            sketches = [MisraGriesSketch.from_stream(k, part) for part in parts]
            histogram = release.release(sketches, rng=parts_count)
            errors.append(summarize_errors(histogram, truth).max_error)
        # Error should stay in the same ballpark when the number of servers
        # quadruples (it is dominated by N/(k+1), not by the merge count).
        assert errors[1] <= 2.0 * errors[0] + 200

    def test_untrusted_vs_trusted_coverage_gap(self, workload):
        # With 32 servers and an untrusted aggregator, each sketch pays its
        # own per-release threshold before merging, so far fewer of the top
        # elements survive than with either trusted regime.
        stream, truth = workload
        k = 64
        parts = split_contiguous(stream, 32)
        sketches = [MisraGriesSketch.from_stream(k, part) for part in parts]
        top = sorted(truth, key=truth.get, reverse=True)[:20]

        def surviving_top_elements(strategy, seed):
            release = PrivateMergedRelease(epsilon=0.5, delta=1e-6, k=k, strategy=strategy)
            histogram = release.release(sketches, rng=seed)
            return sum(1 for element in top if element in histogram)

        untrusted = surviving_top_elements(MergeStrategy.UNTRUSTED, 1)
        trusted_sum = surviving_top_elements(MergeStrategy.TRUSTED_SUM, 1)
        trusted_merged = surviving_top_elements(MergeStrategy.TRUSTED_MERGED, 1)
        assert trusted_sum > untrusted
        assert trusted_merged > untrusted

    def test_total_stream_length_aggregated(self, workload):
        stream, _ = workload
        k = 32
        parts = split_contiguous(stream, 8)
        sketches = [MisraGriesSketch.from_stream(k, part) for part in parts]
        release = PrivateMergedRelease(epsilon=1.0, delta=1e-6, k=k)
        histogram = release.release(sketches, rng=0)
        assert histogram.metadata.stream_length == len(stream)

    def test_single_stream_degenerates_to_plain_release(self, workload):
        stream, truth = workload
        k = 64
        sketch = MisraGriesSketch.from_stream(k, stream)
        release = PrivateMergedRelease(epsilon=1.0, delta=1e-6, k=k,
                                       strategy=MergeStrategy.TRUSTED_MERGED)
        histogram = release.release([sketch], rng=2)
        summary = summarize_errors(histogram, truth)
        assert summary.max_error <= len(stream) / (k + 1) + 3 * histogram.metadata.threshold


class TestReleaseIgnoresTheInputRoute:
    """Integer sketches handed over as counter dicts or as columnar wire
    payloads release the identical histogram: keys, values, dict order and
    metadata.  The int-encoded envelopes reach the fold as ``(keys,
    values)`` array pairs and the token-encoded ones as dicts."""

    K = 16

    @pytest.fixture(scope="class")
    def exports(self):
        stream = zipf_stream(9_000, 300, exponent=1.2, rng=5)
        sketches = [MisraGriesSketch.from_stream(self.K, part)
                    for part in split_contiguous(stream, 3)]
        columnar = [encode_counters(sketch) for sketch in sketches]
        token = [dict(envelope, key_encoding="token",
                      keys=[f"i:{key}" for key in envelope["keys"]])
                 for envelope in columnar]
        assert all(decode(envelope).columnar() is not None for envelope in columnar)
        assert all(decode(envelope).columnar() is None for envelope in token)
        return sketches, columnar, token

    @staticmethod
    def _same(left, right):
        assert list(left.counts.items()) == list(right.counts.items())
        assert left.metadata == right.metadata

    def test_pipeline_merge(self, exports):
        sketches, columnar, token = exports
        for mechanism in ("merged", "gshm"):
            released = []
            for inputs in ([sketch.counters() for sketch in sketches],
                           [decode(envelope) for envelope in columnar],
                           [decode(envelope) for envelope in token]):
                pipeline = Pipeline(mechanism=mechanism, k=self.K, epsilon=1.0,
                                    delta=1e-6, **({"l": self.K} if mechanism == "gshm" else {}))
                released.append(pipeline.merge(inputs).release(rng=3))
            # Plain dicts carry no stream length; the payloads carry theirs.
            assert list(released[0].counts.items()) == list(released[1].counts.items())
            self._same(released[1], released[2])

    def test_streaming_merger_matches_the_buffered_release(self, exports):
        sketches, columnar, _ = exports
        mechanism = PrivateMergedRelease(epsilon=1.0, delta=1e-6, k=self.K)
        merger = StreamingMerger(self.K).consume(
            decode(envelope) for envelope in columnar)
        length = sum(sketch.stream_length for sketch in sketches)
        buffered = mechanism.release([sketch.counters() for sketch in sketches],
                                     rng=9, total_stream_length=length)
        pairs = mechanism.release([decode(envelope).columnar() for envelope in columnar],
                                  rng=9, total_stream_length=length)
        self._same(merger.release(mechanism, rng=9), buffered)
        self._same(pairs, buffered)
        assert buffered.metadata.notes == f"streams=3, GSHM with l=k={self.K}"

    def test_cli_merge_buffered_and_framed(self, exports, tmp_path):
        _, columnar, token = exports
        outputs = []
        for name, envelopes in (("columnar", columnar), ("token", token)):
            paths = []
            for index, envelope in enumerate(envelopes):
                path = tmp_path / f"{name}{index}.json"
                path.write_text(json.dumps(envelope))
                paths.append(str(path))
            framed = tmp_path / f"{name}.frames"
            assert main(["pack", "--out", str(framed), *paths]) == 0
            for args in (paths, ["--framed", str(framed)]):
                out = tmp_path / f"{name}-{len(outputs)}.hist.json"
                assert main(["merge", "--epsilon", "1.0", "--delta", "1e-6",
                             "--seed", "4", "--out", str(out), *args]) == 0
                outputs.append(json.loads(out.read_text()))
        assert all(output == outputs[0] for output in outputs[1:])
        assert outputs[0]["meta"]["notes"] == f"streams=3, GSHM with l=k={self.K}"

    def test_merged_adapter_without_a_stream_length(self, exports):
        """Called with no ``stream_length``, the ``merged`` adapter reports
        the inputs' own lengths, whether a payload reaches the fold as its
        column pair or as a sketch."""
        sketches, columnar, _ = exports
        mechanism = make_mechanism({"name": "merged", "k": self.K})
        padded = MisraGriesSketch.from_stream(self.K, [1, 2, 3] * 40)
        payloads = [decode(encode_sketch(sketch)) for sketch in sketches + [padded]]
        # The padded export keeps its dummy keys, so it reaches the fold as
        # a sketch; the others as column pairs.
        assert payloads[-1].columnar() is None
        assert all(payload.columnar() is not None for payload in payloads[:-1])
        as_sketches = mechanism.release(sketches + [padded], rng=2)
        for inputs in (payloads, [sketches[0]] + payloads[1:]):
            self._same(mechanism.release(inputs, rng=2), as_sketches)
        assert as_sketches.metadata.stream_length == 9_000 + 120
        self._same(mechanism.release(payloads[:-1], rng=2),
                   mechanism.release(sketches, rng=2))
