"""Bit-identity of the vectorized aggregation tier vs the frozen seed fold.

The vectorized key-interning merge (:func:`repro.sketches.merge.merge_many`),
fed counter dicts, ``(keys, values)`` array pairs or a mix of both, and the
single-pass :func:`~repro.sketches.merge.sum_counters` must produce
*exactly* the results of the seed dict-based implementations preserved in
:mod:`repro.sketches._reference_merge` — same keys in the same dict
iteration order, exactly equal float values (the per-key float operations
are performed in the same order, so no tolerance is needed anywhere in this
file).  Iteration order matters downstream: the DP releases pair sequential
noise draws with dict order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import SketchStateError
from repro.sketches.merge import merge_many, merge_tree, sum_counters
from repro.sketches._reference_merge import (
    reference_merge_many,
    reference_sum_counters,
)

# Small universes make key collisions across sketches frequent; negative ints
# exercise the dense-offset interning, large ints the np.unique path.
small_ints = st.integers(min_value=-12, max_value=12)
wide_ints = st.integers(min_value=-(10 ** 14), max_value=10 ** 14)
strings = st.text(alphabet="abcdef", min_size=0, max_size=4)
mixed_keys = st.one_of(small_ints, strings, st.booleans(),
                       st.tuples(st.integers(0, 3), st.integers(0, 3)))

# Values include exact zeros (dropped by the merge), integers and awkward
# fractions; non-negative, as the merge requires.
values = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=30).map(float),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
)

sketch_sizes = st.integers(min_value=1, max_value=8)


def _collections(keys):
    # max_size above k so single- and multi-sketch inputs are over-sized often.
    sketch = st.dictionaries(keys, values, min_size=0, max_size=24)
    return st.lists(sketch, min_size=0, max_size=6)


@given(sketches=_collections(small_ints), k=sketch_sizes)
@settings(max_examples=300, deadline=None)
def test_merge_many_matches_seed_fold_small_ints(sketches, k):
    got = merge_many([dict(s) for s in sketches], k)
    expected = reference_merge_many([dict(s) for s in sketches], k)
    assert list(got.items()) == list(expected.items())


@given(sketches=_collections(wide_ints), k=sketch_sizes)
@settings(max_examples=150, deadline=None)
def test_merge_many_matches_seed_fold_wide_ints(sketches, k):
    got = merge_many([dict(s) for s in sketches], k)
    expected = reference_merge_many([dict(s) for s in sketches], k)
    assert list(got.items()) == list(expected.items())


@given(sketches=_collections(strings), k=sketch_sizes)
@settings(max_examples=150, deadline=None)
def test_merge_many_matches_seed_fold_strings(sketches, k):
    got = merge_many([dict(s) for s in sketches], k)
    expected = reference_merge_many([dict(s) for s in sketches], k)
    assert list(got.items()) == list(expected.items())


@given(sketches=_collections(mixed_keys), k=sketch_sizes)
@settings(max_examples=300, deadline=None)
def test_merge_many_matches_seed_fold_mixed_keys(sketches, k):
    got = merge_many([dict(s) for s in sketches], k)
    expected = reference_merge_many([dict(s) for s in sketches], k)
    assert list(got.items()) == list(expected.items())


@given(counters=st.dictionaries(small_ints, values, min_size=0, max_size=30),
       k=sketch_sizes)
@settings(max_examples=200, deadline=None)
def test_single_oversized_input_matches_seed(counters, k):
    got = merge_many([dict(counters)], k)
    expected = reference_merge_many([dict(counters)], k)
    assert list(got.items()) == list(expected.items())


def _as_pair(sketch, dtype=np.int64):
    return (np.fromiter(sketch.keys(), dtype=dtype, count=len(sketch)),
            np.fromiter(sketch.values(), dtype=np.float64, count=len(sketch)))


def _fold_every_way(sketches, k, as_pair, mask):
    """Fold ``sketches`` as dicts, as pairs and as the mix ``mask`` picks
    (a pair where it is true); each must be the seed fold, order included."""
    expected = list(reference_merge_many([dict(s) for s in sketches], k).items())
    mix = [as_pair(s) if pick else dict(s)
           for s, pick in zip(sketches, mask + [True] * len(sketches))]
    for items in ([dict(s) for s in sketches], [as_pair(s) for s in sketches], mix):
        assert list(merge_many(items, k).items()) == expected


@given(sketches=_collections(small_ints), k=sketch_sizes,
       mask=st.lists(st.booleans(), max_size=6))
@settings(max_examples=200, deadline=None)
def test_merge_many_pairs_and_mixes_match_seed_fold(sketches, k, mask):
    _fold_every_way(sketches, k, _as_pair, mask)


@given(sketches=_collections(wide_ints), k=sketch_sizes,
       mask=st.lists(st.booleans(), max_size=6))
@settings(max_examples=100, deadline=None)
def test_merge_many_pairs_and_mixes_match_seed_fold_wide_ints(sketches, k, mask):
    _fold_every_way(sketches, k, _as_pair, mask)


@given(sketches=_collections(st.integers(0, 2 ** 64 - 1)), k=sketch_sizes,
       mask=st.lists(st.booleans(), max_size=6))
@settings(max_examples=100, deadline=None)
def test_merge_many_uint64_pairs_fold_as_exact_ints(sketches, k, mask):
    """uint64 pairs beside int64 ones must not promote to float64."""
    def as_pair(sketch):
        wide = any(key >= 2 ** 63 for key in sketch)
        return _as_pair(sketch, np.uint64 if wide else np.int64)
    _fold_every_way(sketches, k, as_pair, mask)


@given(sketches=_collections(mixed_keys))
@settings(max_examples=300, deadline=None)
def test_sum_counters_matches_seed(sketches):
    got = sum_counters([dict(s) for s in sketches])
    expected = reference_sum_counters([dict(s) for s in sketches])
    assert list(got.items()) == list(expected.items())


@given(sketches=_collections(wide_ints))
@settings(max_examples=150, deadline=None)
def test_sum_counters_matches_seed_wide_ints(sketches):
    got = sum_counters([dict(s) for s in sketches])
    expected = reference_sum_counters([dict(s) for s in sketches])
    assert list(got.items()) == list(expected.items())


@given(sketches=_collections(small_ints), k=sketch_sizes)
@settings(max_examples=150, deadline=None)
def test_merge_tree_keeps_size_bound_and_key_subset(sketches, k):
    """The tree merge returns at most k counters drawn from the input keys."""
    merged = merge_tree([dict(s) for s in sketches], k)
    if len(sketches) != 1:
        assert len(merged) <= k
    all_keys = {key for sketch in sketches for key in sketch}
    assert set(merged) <= all_keys
    assert all(value > 0 for value in merged.values()) or len(sketches) == 1


@given(sketches=_collections(small_ints), k=sketch_sizes)
@settings(max_examples=100, deadline=None)
def test_negative_counters_raise_like_seed(sketches, k):
    """Planting a negative counter raises in both implementations alike."""
    sketches = [dict(s) for s in sketches]
    if len(sketches) < 2:
        sketches = sketches + [{0: 1.0}, {1: 2.0}]
    sketches[-1] = dict(sketches[-1])
    sketches[-1][99] = -1.0
    with pytest.raises(SketchStateError):
        reference_merge_many([dict(s) for s in sketches], k)
    with pytest.raises(SketchStateError):
        merge_many([dict(s) for s in sketches], k)
