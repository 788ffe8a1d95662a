"""Unit tests for the Agarwal et al. merging algorithm."""

import numpy as np
import pytest

from repro.exceptions import ParameterError, SketchStateError
from repro.sketches import ExactCounter, MisraGriesSketch
from repro.sketches.merge import (
    merge_many,
    merge_misra_gries,
    merge_tree,
    sum_counters,
)
from repro.streams import zipf_stream, split_contiguous


class TestMergeTwo:
    def test_small_inputs_simply_sum(self):
        merged = merge_misra_gries({"a": 2.0}, {"a": 1.0, "b": 3.0}, k=4)
        assert merged == {"a": 3.0, "b": 3.0}

    def test_reduction_to_k_counters(self):
        first = {"a": 10.0, "b": 5.0, "c": 2.0}
        second = {"d": 7.0, "e": 1.0}
        merged = merge_misra_gries(first, second, k=2)
        assert len(merged) <= 2
        # The (k+1) = 3rd largest combined counter is 5, so a -> 5, d -> 2.
        assert merged == {"a": 5.0, "d": 2.0}

    def test_accepts_sketch_objects(self):
        left = MisraGriesSketch.from_stream(4, [1, 1, 2])
        right = MisraGriesSketch.from_stream(4, [1, 3])
        merged = merge_misra_gries(left, right, k=4)
        assert merged[1] == 3.0

    def test_rejects_negative_counters(self):
        with pytest.raises(SketchStateError):
            merge_misra_gries({"a": -1.0}, {}, k=2)

    def test_rejects_bad_k(self):
        with pytest.raises(ParameterError):
            merge_misra_gries({}, {}, k=0)

    def test_rejects_non_mapping(self):
        with pytest.raises(ParameterError):
            merge_misra_gries([("a", 1.0)], {}, k=2)


class TestMergeMany:
    def test_empty_list(self):
        assert merge_many([], k=4) == {}

    def test_single_oversized_input_reduced(self):
        counters = {i: float(i + 1) for i in range(10)}
        merged = merge_many([counters], k=3)
        assert len(merged) <= 3

    def test_error_bound_preserved_across_merges(self):
        # Lemma 29: merged sketches have error at most N/(k+1).
        stream = zipf_stream(6_000, 150, exponent=1.2, rng=0)
        truth = ExactCounter.from_stream(stream)
        k = 16
        parts = split_contiguous(stream, 6)
        sketches = [MisraGriesSketch.from_stream(k, part) for part in parts]
        merged = merge_many(sketches, k)
        bound = len(stream) / (k + 1)
        for element in range(150):
            estimate = merged.get(element, 0.0)
            exact = truth.estimate(element)
            assert exact - bound - 1e-9 <= estimate <= exact + 1e-9

    def test_merge_order_keeps_guarantee(self):
        stream = zipf_stream(2_000, 60, exponent=1.3, rng=1)
        truth = ExactCounter.from_stream(stream)
        k = 8
        parts = split_contiguous(stream, 4)
        sketches = [MisraGriesSketch.from_stream(k, part) for part in parts]
        forward = merge_many(sketches, k)
        backward = merge_many(list(reversed(sketches)), k)
        bound = len(stream) / (k + 1)
        for merged in (forward, backward):
            for element in range(60):
                assert truth.estimate(element) - bound - 1e-9 <= merged.get(element, 0.0)

    def test_result_size_bounded(self):
        sketches = [{i + offset: 1.0 for i in range(10)} for offset in (0, 5, 10)]
        assert len(merge_many(sketches, k=5)) <= 5


class TestMergeManyPairs:
    def test_matches_dict_merge(self):
        keys_list = [np.array([1, 2, 3]), np.array([2, 4])]
        values_list = [np.array([2.0, 5.0, 1.0]), np.array([3.0, 7.0])]
        dicts = [dict(zip(keys.tolist(), values.tolist()))
                 for keys, values in zip(keys_list, values_list)]
        assert merge_many(list(zip(keys_list, values_list)), 3) == merge_many(dicts, 3)

    def test_empty_collection(self):
        assert merge_many([], 4) == {}

    def test_single_sketch_passthrough(self):
        merged = merge_many([(np.array([5, 6]), np.array([1.0, 0.0]))], 4)
        assert merged == {5: 1.0, 6: 0.0}  # seed keeps zeros for a single input

    def test_negative_counter_raises(self):
        with pytest.raises(SketchStateError):
            merge_many([(np.array([1]), np.array([1.0])),
                        (np.array([2]), np.array([-2.0]))], 4)

    def test_negative_counter_raises_beside_a_nan(self):
        # The seed fold refuses every negative counter of a multi-sketch
        # input; a NaN elsewhere must not hide it.
        with pytest.raises(SketchStateError, match="negative counter for 2"):
            merge_many([(np.array([1]), np.array([float("nan")])),
                        (np.array([2]), np.array([-2.0]))], 4)
        with pytest.raises(SketchStateError, match="negative counter for 2"):
            merge_many([{1: float("nan")}, {2: -2.0}], 4)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ParameterError):
            merge_many([(np.array([1]),)], 4)
        with pytest.raises(ParameterError):
            merge_many([(np.array([1, 2]), np.array([1.0]))], 4)

    def test_non_integer_keys_raise(self):
        with pytest.raises(ParameterError):
            merge_many([(np.array([1.5]), np.array([1.0]))], 4)

    def test_wide_key_range_uses_unique_interning(self):
        keys_list = [np.array([0, 2 ** 60]), np.array([2 ** 60, -2 ** 60])]
        values_list = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        dicts = [dict(zip(keys.tolist(), values.tolist()))
                 for keys, values in zip(keys_list, values_list)]
        assert merge_many(list(zip(keys_list, values_list)), 8) == merge_many(dicts, 8)

    def test_pairs_and_mappings_mix(self):
        pairs = [(np.array([1, 2, 3]), np.array([2.0, 5.0, 1.0])),
                 (np.array([2, 4]), np.array([3.0, 7.0]))]
        dicts = [dict(zip(keys.tolist(), values.tolist())) for keys, values in pairs]
        expected = merge_many(dicts, 3)
        for mixed in ([pairs[0], dicts[1]], [dicts[0], pairs[1]]):
            merged = merge_many(mixed, 3)
            assert merged == expected and list(merged) == list(expected)
        assert merge_tree(pairs, 3) == merge_tree(dicts, 3)

    @pytest.mark.parametrize("position", [0, 1])
    def test_repeated_key_is_refused(self, position):
        repeated = (np.array([7, 7, 2]), np.array([2.0, 3.0, 1.0]))
        other = (np.array([1, 2]), np.array([1.0, 1.0]))
        sketches = [other, other]
        sketches[position] = repeated
        for items in (sketches, [repeated]):
            with pytest.raises(SketchStateError, match="key 7 appears twice") as caught:
                merge_many(items, 4)
            assert caught.value.code == "repeated_key"


class TestMergeTree:
    def test_matches_pairwise_reduction_guarantee(self):
        stream = zipf_stream(4_000, 100, exponent=1.2, rng=3)
        truth = ExactCounter.from_stream(stream)
        k = 12
        parts = split_contiguous(stream, 8)
        sketches = [MisraGriesSketch.from_stream(k, part) for part in parts]
        merged = merge_tree(sketches, k)
        assert len(merged) <= k
        bound = len(stream) / (k + 1)
        for element in range(100):
            estimate = merged.get(element, 0.0)
            assert truth.estimate(element) - bound - 1e-9 <= estimate

    def test_empty_and_single(self):
        assert merge_tree([], 4) == {}
        assert merge_tree([{"a": 2.0}], 4) == {"a": 2.0}

    def test_odd_count_carries_last_sketch(self):
        sketches = [{i: 1.0} for i in range(5)]
        merged = merge_tree(sketches, 8)
        assert merged == {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0}

    def test_result_size_bounded(self):
        sketches = [{i + offset: 1.0 for i in range(10)} for offset in (0, 5, 10)]
        assert len(merge_tree(sketches, k=5)) <= 5


class TestSumCounters:
    def test_plain_sum(self):
        total = sum_counters([{"a": 1.0, "b": 2.0}, {"a": 3.0}])
        assert total == {"a": 4.0, "b": 2.0}

    def test_accepts_sketches(self):
        left = MisraGriesSketch.from_stream(4, [1, 1])
        right = MisraGriesSketch.from_stream(4, [1])
        assert sum_counters([left, right])[1] == 3.0

    def test_empty(self):
        assert sum_counters([]) == {}


class TestMergeManyPairDtypeSafety:
    def test_empty_float_key_array_does_not_poison_dtype(self):
        merged = merge_many(
            [(np.array([2 ** 53, 2 ** 53 + 1]), np.array([5.0, 7.0])),
             (np.array([]), np.array([]))], 10)
        assert merged == {2 ** 53: 5.0, 2 ** 53 + 1: 7.0}

    def test_mixed_signed_unsigned_keys_stay_exact(self):
        merged = merge_many(
            [(np.array([2 ** 53, 1], dtype=np.int64), np.array([5.0, 1.0])),
             (np.array([2 ** 53 + 1, 1], dtype=np.uint64), np.array([7.0, 2.0]))], 10)
        assert merged == {2 ** 53: 5.0, 2 ** 53 + 1: 7.0, 1: 3.0}
        assert all(type(key) is int for key in merged)

    def test_all_empty_sketches(self):
        assert merge_many([(np.array([]), np.array([])),
                           (np.array([]), np.array([]))], 4) == {}
