"""Equivalence proofs for the optimized Misra-Gries engine.

The production engine (lazy offset + value buckets + zero-key heap + NumPy
batch path) must produce *byte-identical* observable state — ``raw_counters``,
``stream_length`` and ``decrement_rounds`` — to the frozen reference
implementation in :mod:`repro.sketches._reference`, which is a direct O(k)
transcription of Algorithm 1.  These property tests drive both engines with
randomized streams (negative ints, strings, mixed universes) and adversarial
all-distinct streams, plus the batch path against the sequential path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ContinualHeavyHitters
from repro.sketches import MisraGriesSketch, SpaceSavingSketch
from repro.sketches._ordering import DummyKey, eviction_order
from repro.sketches._reference import ReferenceMisraGries
from repro.api.wire import encode_sketch, payload_to_sketch

KS = st.integers(min_value=1, max_value=8)
INTS = st.integers(min_value=-25, max_value=25)
STRINGS = st.text(alphabet="abcdef", min_size=0, max_size=3)
MIXED = st.one_of(INTS, STRINGS)


def assert_same_state(reference: ReferenceMisraGries, sketch: MisraGriesSketch) -> None:
    assert sketch.raw_counters() == reference.raw_counters()
    assert sketch.stream_length == reference.stream_length
    assert sketch.decrement_rounds == reference.decrement_rounds
    assert sketch.stored_keys() == reference.stored_keys()


class TestEngineMatchesReference:
    @settings(deadline=None)
    @given(k=KS, stream=st.lists(INTS, max_size=150))
    def test_integer_streams(self, k, stream):
        assert_same_state(ReferenceMisraGries.from_stream(k, stream),
                          MisraGriesSketch.from_stream(k, stream))

    @settings(deadline=None)
    @given(k=KS, stream=st.lists(STRINGS, max_size=150))
    def test_string_streams(self, k, stream):
        assert_same_state(ReferenceMisraGries.from_stream(k, stream),
                          MisraGriesSketch.from_stream(k, stream))

    @settings(deadline=None)
    @given(k=KS, stream=st.lists(MIXED, max_size=150))
    def test_mixed_type_streams(self, k, stream):
        assert_same_state(ReferenceMisraGries.from_stream(k, stream),
                          MisraGriesSketch.from_stream(k, stream))

    @pytest.mark.parametrize("k", [1, 7, 32, 257])
    def test_adversarial_all_distinct(self, k):
        # Every element is new: after the first k arrivals the stream
        # alternates one decrement round with k evictions — the worst case
        # for the seed engine's O(k) branches.
        stream = list(range(4 * k + 11))
        reference = ReferenceMisraGries.from_stream(k, stream)
        sketch = MisraGriesSketch.from_stream(k, stream)
        assert_same_state(reference, sketch)
        assert reference.decrement_rounds > 0

    def test_zero_one_oscillation_exercises_stale_heap_entries(self):
        # Keys repeatedly leave and re-enter the zero set, creating duplicate
        # and stale heap entries that lazy deletion must skip over.
        stream = []
        for round_index in range(60):
            stream.extend([0, 1, 2])        # refill counters
            stream.append(100 + round_index)  # decrement round -> all zero
            stream.append(200 + round_index)  # eviction of the smallest zero
        assert_same_state(ReferenceMisraGries.from_stream(3, stream),
                          MisraGriesSketch.from_stream(3, stream))


class TestBatchMatchesSequential:
    @settings(deadline=None)
    @given(k=KS, stream=st.lists(INTS, min_size=1, max_size=200))
    def test_batch_bit_identical(self, k, stream):
        sequential = MisraGriesSketch(k)
        for element in stream:
            sequential.update(element)
        batched = MisraGriesSketch(k)
        batched.update_batch(np.asarray(stream, dtype=np.int64))
        assert batched.raw_counters() == sequential.raw_counters()
        assert batched.stream_length == sequential.stream_length
        assert batched.decrement_rounds == sequential.decrement_rounds

    def test_update_all_dispatches_lists_of_ints(self):
        stream = [5, -3, 5, 7, 5, -3, 9, 11, 13] * 30
        via_list = MisraGriesSketch(4).update_all(stream)
        via_loop = MisraGriesSketch(4)
        for element in stream:
            via_loop.update(element)
        assert via_list.raw_counters() == via_loop.raw_counters()
        assert via_list.decrement_rounds == via_loop.decrement_rounds

    def test_update_all_falls_back_on_mixed_streams(self):
        stream = [1, "a", 2, "b", 1]
        sketch = MisraGriesSketch(3).update_all(stream)
        reference = ReferenceMisraGries.from_stream(3, stream)
        assert sketch.raw_counters() == reference.raw_counters()

    def test_update_all_falls_back_on_bool_payloads(self):
        # NumPy coerces [2, True] to an int array, but True is not the int 1
        # for eviction ordering; such streams must take the sequential path.
        from repro._batching import as_int_array

        assert as_int_array([2, True, 2, False, 3]) is None
        stream = [2, True, 3]  # both counters stay stored: True survives
        sketch = MisraGriesSketch(2).update_all(stream)
        reference = ReferenceMisraGries.from_stream(2, stream)
        assert sketch.raw_counters() == reference.raw_counters()
        assert any(key is True for key in sketch.stored_keys())

    def test_batch_rejects_non_integer_arrays(self):
        from repro.exceptions import ParameterError

        with pytest.raises(ParameterError):
            MisraGriesSketch(2).update_batch(np.asarray([1.5, 2.5]))
        with pytest.raises(ParameterError):
            MisraGriesSketch(2).update_batch(np.zeros((2, 2), dtype=np.int64))

    def test_batch_empty_input_is_a_noop(self):
        sketch = MisraGriesSketch(2)
        sketch.update_batch([])  # float64-inferred dtype must not be rejected
        sketch.update_batch(np.empty(0, dtype=np.int64))
        assert sketch.stream_length == 0
        assert sketch.decrement_rounds == 0

    def test_batch_spans_multiple_chunks(self):
        rng = np.random.default_rng(7)
        stream = rng.integers(0, 40, size=20_000)
        batched = MisraGriesSketch(16).update_batch(stream)
        sequential = MisraGriesSketch(16)
        for element in stream.tolist():
            sequential.update(element)
        assert batched.raw_counters() == sequential.raw_counters()
        assert batched.decrement_rounds == sequential.decrement_rounds


class TestEvictionOrderFix:
    def test_negative_numbers_order_numerically(self):
        # -5 < -3, so -5 must be evicted first; the old fixed-width string
        # keys compared "-0...3" < "-0...5" and evicted -3 instead.
        assert eviction_order(-5) < eviction_order(-3)
        sketch = MisraGriesSketch(2)
        sketch.update_all([-5, -3, 7])   # decrement round: both counters hit 0
        sketch.update(8)                 # evicts the smallest zero key
        assert -5 not in sketch.stored_keys()
        assert -3 in sketch.stored_keys()

    def test_numbers_sort_before_strings_and_dummies_last(self):
        assert eviction_order(3) < eviction_order("a")
        assert eviction_order("a") < eviction_order(DummyKey(1))
        assert eviction_order(DummyKey(1)) < eviction_order(DummyKey(2))

    def test_mixed_type_order_never_raises(self):
        keys = [-2, 3.5, "b", DummyKey(2), 0, "a", DummyKey(1)]
        ordered = sorted(keys, key=eviction_order)
        assert ordered == [-2, 0, 3.5, "a", "b", DummyKey(1), DummyKey(2)]

    def test_ints_beyond_float_range(self):
        huge, huger = 10 ** 400, 10 ** 400 + 1
        assert eviction_order(huge) < eviction_order(huger)
        assert eviction_order(-huge) < eviction_order(-3)
        assert eviction_order(1e308) < eviction_order(huge)
        ordered = sorted([huger, 5, -huge, huge], key=eviction_order)
        assert ordered == [-huge, 5, huge, huger]
        sketch = SpaceSavingSketch(2)
        sketch.update_all([huge, huger, 5])  # seed repr-key code survived this
        assert sketch.stream_length == 3
        mg = MisraGriesSketch.from_stream(2, [huge, huger, 5, 7])
        assert mg.stream_length == 4


class TestSerializationContinuesUpdating:
    def test_roundtrip_then_update_matches_straight_through(self):
        prefix = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
        suffix = [8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6]
        restored = payload_to_sketch(encode_sketch(
            MisraGriesSketch.from_stream(3, prefix)))
        restored.update_all(suffix)
        straight = MisraGriesSketch.from_stream(3, prefix + suffix)
        assert restored.raw_counters() == straight.raw_counters()
        assert restored.stream_length == straight.stream_length


class TestContinualBatchPath:
    def test_batched_process_stream_matches_per_element(self):
        stream = (np.arange(700) % 37).tolist()
        batched = ContinualHeavyHitters(k=8, epsilon=1.0, delta=1e-6,
                                        block_size=100, rng=0)
        batched.process_stream(np.asarray(stream, dtype=np.int64))
        sequential = ContinualHeavyHitters(k=8, epsilon=1.0, delta=1e-6,
                                           block_size=100, rng=0)
        for element in stream:
            sequential.process(element)
        assert batched.closed_blocks == sequential.closed_blocks
        assert batched.elements_processed == sequential.elements_processed
        assert [h.as_dict() for h in batched.releases] == \
               [h.as_dict() for h in sequential.releases]


class ReferenceSpaceSaving:
    """O(k) min-scan SpaceSaving used as the specification for the heap."""

    def __init__(self, k: int) -> None:
        self._k = k
        self._counters = {}

    def update(self, element) -> None:
        if element in self._counters:
            self._counters[element] += 1.0
            return
        if len(self._counters) < self._k:
            self._counters[element] = 1.0
            return
        victim = min(self._counters,
                     key=lambda key: (self._counters[key], eviction_order(key)))
        minimum = self._counters.pop(victim)
        self._counters[element] = minimum + 1.0


class TestSpaceSavingHeap:
    @settings(deadline=None)
    @given(k=KS, stream=st.lists(INTS, max_size=200))
    def test_matches_min_scan_reference(self, k, stream):
        reference = ReferenceSpaceSaving(k)
        sketch = SpaceSavingSketch(k)
        for element in stream:
            reference.update(element)
            sketch.update(element)
        assert sketch.counters() == reference._counters
        assert sketch.stream_length == len(stream)

    def test_heap_compaction_keeps_state_consistent(self):
        # Enough churn to trigger several compactions at 4k + 64 entries.
        k = 4
        stream = [index % 11 for index in range(5_000)]
        reference = ReferenceSpaceSaving(k)
        sketch = SpaceSavingSketch(k)
        for element in stream:
            reference.update(element)
            sketch.update(element)
        assert sketch.counters() == reference._counters
        assert len(sketch._heap) <= 4 * k + 64 + 1


class TestLargeIntTieBreak:
    def test_ints_beyond_float_precision_evict_identically(self):
        """Distinct ints >= 2**53 collapse to equal floats; the exact-key
        tie-break must still match the reference engine's min() scan."""
        from repro.sketches import MisraGriesSketch
        from repro.sketches._reference import ReferenceMisraGries
        stream = [9, 2 ** 53 + 1, 7, 2 ** 53 + 1, 2 ** 53, 9, 7]
        optimized = MisraGriesSketch.from_stream(2, stream)
        reference = ReferenceMisraGries.from_stream(2, stream)
        assert optimized.raw_counters() == reference.raw_counters()

    def test_eviction_order_distinguishes_large_ints(self):
        from repro.sketches._ordering import eviction_order
        assert eviction_order(2 ** 53) < eviction_order(2 ** 53 + 1)

    def test_nan_keys_evict_identically(self):
        """A NaN key must not break the total eviction order."""
        import math
        from repro.sketches import MisraGriesSketch
        from repro.sketches._reference import ReferenceMisraGries
        stream = [7.0, math.nan, 3.0, 2.0, 9.0, 1.0, 5.0, 3.0, 7.0, 2.0] * 6
        optimized = MisraGriesSketch.from_stream(4, stream)
        reference = ReferenceMisraGries.from_stream(4, stream)
        assert list(optimized.raw_counters()) == list(reference.raw_counters())
