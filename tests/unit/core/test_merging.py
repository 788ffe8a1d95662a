"""Unit tests for the Section 7 private merging strategies."""

import pytest

from repro.core import MergeStrategy, PrivateMergedRelease, merge_sketches
from repro.exceptions import ParameterError
from repro.sketches import ExactCounter, MisraGriesSketch
from repro.streams import split_contiguous, zipf_stream


@pytest.fixture
def distributed_sketches():
    stream = zipf_stream(20_000, 500, exponent=1.3, rng=0)
    parts = split_contiguous(stream, 8)
    sketches = [MisraGriesSketch.from_stream(32, part) for part in parts]
    truth = ExactCounter.from_stream(stream).counters()
    return stream, sketches, truth


class TestMergeSketches:
    def test_reexport_matches_merge_many(self, distributed_sketches):
        _, sketches, _ = distributed_sketches
        merged = merge_sketches(sketches, 32)
        assert len(merged) <= 32

    def test_empty_input(self):
        assert merge_sketches([], 8) == {}


class TestPrivateMergedRelease:
    def test_strategy_coercion_from_string(self):
        release = PrivateMergedRelease(epsilon=1.0, delta=1e-6, k=8, strategy="untrusted")
        assert release.strategy is MergeStrategy.UNTRUSTED

    def test_requires_sketches(self):
        release = PrivateMergedRelease(epsilon=1.0, delta=1e-6, k=8)
        with pytest.raises(ParameterError):
            release.release([])

    @pytest.mark.parametrize("strategy", list(MergeStrategy))
    def test_all_strategies_produce_histograms(self, distributed_sketches, strategy):
        stream, sketches, truth = distributed_sketches
        release = PrivateMergedRelease(epsilon=1.0, delta=1e-6, k=32, strategy=strategy)
        histogram = release.release(sketches, rng=1)
        assert len(histogram) > 0
        assert histogram.metadata.stream_length == len(stream)

    @pytest.mark.parametrize("strategy", list(MergeStrategy))
    def test_reproducible(self, distributed_sketches, strategy):
        _, sketches, _ = distributed_sketches
        release = PrivateMergedRelease(epsilon=1.0, delta=1e-6, k=32, strategy=strategy)
        assert (release.release(sketches, rng=5).as_dict()
                == release.release(sketches, rng=5).as_dict())

    def test_trusted_strategies_reasonably_accurate(self, distributed_sketches):
        stream, sketches, truth = distributed_sketches
        n, k = len(stream), 32
        for strategy in (MergeStrategy.TRUSTED_SUM, MergeStrategy.TRUSTED_MERGED):
            release = PrivateMergedRelease(epsilon=1.0, delta=1e-6, k=k, strategy=strategy)
            histogram = release.release(sketches, rng=2)
            # Error is dominated by the sketch term n/(k+1); allow noise slack.
            assert histogram.max_error_against(truth) <= n / (k + 1) + 600

    def test_heaviest_element_recovered_by_all_strategies(self, distributed_sketches):
        stream, sketches, truth = distributed_sketches
        heaviest = max(truth, key=truth.get)
        for strategy in MergeStrategy:
            release = PrivateMergedRelease(epsilon=1.0, delta=1e-6, k=32, strategy=strategy)
            histogram = release.release(sketches, rng=3)
            assert heaviest in histogram

    def test_untrusted_error_grows_with_stream_count(self):
        # Error of the untrusted strategy scales with the number of sketches:
        # each per-stream release pays its own threshold, so moderately heavy
        # elements get dropped once the stream is split too finely.  Measure
        # the summed error over the ten heaviest elements.
        stream = zipf_stream(40_000, 200, exponent=1.5, rng=4)
        counter = ExactCounter.from_stream(stream)
        truth = counter.counters()
        top_elements = [element for element, _ in counter.top(10)]
        k = 32

        def top_error(strategy, num_parts, seed):
            parts = split_contiguous(stream, num_parts)
            sketches = [MisraGriesSketch.from_stream(k, part) for part in parts]
            release = PrivateMergedRelease(epsilon=0.5, delta=1e-6, k=k, strategy=strategy)
            histogram = release.release(sketches, rng=seed)
            return sum(abs(histogram.estimate(element) - truth[element])
                       for element in top_elements)

        untrusted_few = sum(top_error(MergeStrategy.UNTRUSTED, 2, seed) for seed in range(3))
        untrusted_many = sum(top_error(MergeStrategy.UNTRUSTED, 32, seed) for seed in range(3))
        trusted_few = sum(top_error(MergeStrategy.TRUSTED_SUM, 2, seed) for seed in range(3))
        trusted_many = sum(top_error(MergeStrategy.TRUSTED_SUM, 32, seed) for seed in range(3))
        assert untrusted_many > 1.5 * untrusted_few
        # The trusted aggregator's error does not blow up the same way.
        assert trusted_many < 1.5 * trusted_few + 100

    def test_metadata_mentions_strategy(self, distributed_sketches):
        _, sketches, _ = distributed_sketches
        release = PrivateMergedRelease(epsilon=1.0, delta=1e-6, k=32,
                                       strategy=MergeStrategy.TRUSTED_SUM)
        histogram = release.release(sketches, rng=0)
        assert "TrustedSum" in histogram.metadata.mechanism

    def test_accepts_plain_counter_dicts(self):
        counters = [{1: 50.0, 2: 20.0}, {1: 30.0, 3: 10.0}]
        release = PrivateMergedRelease(epsilon=1.0, delta=1e-6, k=4)
        histogram = release.release(counters, rng=0, total_stream_length=110)
        assert histogram.metadata.stream_length == 110

