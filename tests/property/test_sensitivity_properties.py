"""Property-based tests for the sensitivity results (Lemmas 15, 16, 17, 26, 27)."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.api import framing, wire
from repro.core import PrivacyAwareMisraGries, reduce_sensitivity
from repro.dp.sensitivity import l1_distance
from repro.sketches import MisraGriesSketch
from repro.sketches.merge import merge_many
from repro.streams.user_streams import flatten_user_stream, user_stream_total_length

streams = st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=80)
small_k = st.integers(min_value=1, max_value=6)

# User-level streams: each user contributes a set of 1-3 distinct small ints.
user_sets = st.sets(st.integers(min_value=0, max_value=9), min_size=1, max_size=3)
user_streams = st.lists(user_sets.map(frozenset), min_size=1, max_size=40)


# ---------------------------------------------------------------------------
# Algorithm 3 (Lemmas 15 and 16)
# ---------------------------------------------------------------------------

@given(stream=streams, k=small_k)
@settings(max_examples=200, deadline=None)
def test_lemma15_reduced_sketch_error_bound(stream, k):
    """Post-processed estimates stay within [f - n/(k+1), f]."""
    reduced = reduce_sensitivity(MisraGriesSketch.from_stream(k, stream))
    truth = Counter(stream)
    bound = len(stream) / (k + 1)
    for element in set(stream) | set(reduced):
        estimate = reduced.get(element, 0.0)
        exact = truth.get(element, 0)
        assert exact - bound - 1e-9 <= estimate <= exact + 1e-9


@given(stream=streams, k=small_k, position=st.integers(min_value=0, max_value=79))
@settings(max_examples=300, deadline=None)
def test_lemma16_reduced_sensitivity_below_two(stream, k, position):
    """The l1 distance of the post-processed sketches of neighbouring streams is < 2."""
    index = position % len(stream)
    neighbour = stream[:index] + stream[index + 1:]
    reduced = reduce_sensitivity(MisraGriesSketch.from_stream(k, stream))
    reduced_neighbour = reduce_sensitivity(MisraGriesSketch.from_stream(k, neighbour))
    assert l1_distance(reduced, reduced_neighbour) < 2.0 + 1e-9


# ---------------------------------------------------------------------------
# Merging (Lemma 17 / Corollary 18)
# ---------------------------------------------------------------------------

@given(stream=st.lists(st.integers(min_value=0, max_value=8), min_size=2, max_size=80),
       k=small_k,
       num_parts=st.integers(min_value=2, max_value=4),
       position=st.integers(min_value=0, max_value=79))
@settings(max_examples=200, deadline=None)
def test_corollary18_merged_counters_differ_by_at_most_one(stream, k, num_parts, position):
    """Merged sketches for neighbouring inputs differ by at most 1 per counter,
    with all differences sharing the same sign."""
    index = position % len(stream)
    # Split into contiguous parts, then delete one element from its part.
    part_length = max(len(stream) // num_parts, 1)
    parts = [stream[i:i + part_length] for i in range(0, len(stream), part_length)]
    affected = min(index // part_length, len(parts) - 1)
    offset = index - affected * part_length
    neighbour_parts = [list(part) for part in parts]
    if offset < len(neighbour_parts[affected]):
        del neighbour_parts[affected][offset]
    sketches = [MisraGriesSketch.from_stream(k, part).counters() for part in parts]
    sketches_neighbour = [MisraGriesSketch.from_stream(k, part).counters()
                          for part in neighbour_parts]
    merged = merge_many(sketches, k)
    merged_neighbour = merge_many(sketches_neighbour, k)
    keys = set(merged) | set(merged_neighbour)
    diffs = [merged.get(key, 0.0) - merged_neighbour.get(key, 0.0) for key in keys]
    assert all(abs(diff) <= 1.0 + 1e-9 for diff in diffs)
    positive = any(diff > 1e-9 for diff in diffs)
    negative = any(diff < -1e-9 for diff in diffs)
    assert not (positive and negative)


_BACKENDS = pytest.mark.parametrize("backend", [
    "python",
    pytest.param("cc", marks=pytest.mark.skipif(
        not kernels.available(), reason="no C toolchain on this host")),
])

# Sessions of frames of element indices; an index maps to a key through the
# drawn layout: dense, or spread past 2**23 (and over most of int64).
histories = st.lists(
    st.lists(st.lists(st.integers(min_value=0, max_value=8), max_size=30),
             min_size=1, max_size=4),
    min_size=1, max_size=4)
layouts = st.sampled_from([(0, 1), (-5, 1), (0, (1 << 23) + 1),
                           (-(1 << 62), 1 << 59)])


def _neighbouring_histories(history, session, frame, position):
    """``history`` and a copy with one element deleted from one frame of
    one session (none when that frame is empty)."""
    neighbour = [[list(part) for part in frames] for frames in history]
    frames = neighbour[session % len(neighbour)]
    part = frames[frame % len(frames)]
    if part:
        del part[position % len(part)]
    return history, neighbour


def _frame_columns(history, k, layout):
    """Each session's frames as int64 ``(keys, values)`` Misra-Gries
    sketches of size ``k``, keys laid out as ``base + index * step``."""
    base, step = layout
    sessions = []
    for frames in history:
        columns = []
        for part in frames:
            counters = MisraGriesSketch.from_stream(k, part).counters()
            keys = np.array([base + index * step for index in counters],
                            dtype=np.int64)
            columns.append((keys, np.array(list(counters.values()))))
        sessions.append(columns)
    return sessions


def _assert_neighbouring(merged, merged_neighbour, k):
    """Lemma 17 / Corollary 18: at most ``k`` counters differ, each by at
    most 1, all in one direction."""
    keys = set(merged) | set(merged_neighbour)
    diffs = [merged.get(key, 0.0) - merged_neighbour.get(key, 0.0)
             for key in keys]
    changed = [diff for diff in diffs if abs(diff) > 1e-9]
    assert all(abs(diff) <= 1.0 + 1e-9 for diff in changed)
    assert all(diff > 0 for diff in changed) or all(diff < 0 for diff in changed)
    assert len(changed) <= k
    assert all(type(key) is int for key in keys)


@_BACKENDS
@given(history=histories, layout=layouts, k=small_k,
       session=st.integers(min_value=0, max_value=3),
       frame=st.integers(min_value=0, max_value=3),
       position=st.integers(min_value=0, max_value=29))
@settings(max_examples=120, deadline=None)
def test_corollary18_flat_merge_of_column_pairs(backend, history, layout, k,
                                                session, frame, position):
    """The batch merge of int64 column pairs over neighbouring histories."""
    merged = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(kernels.ENV_VAR, backend)
        for variant in _neighbouring_histories(history, session, frame,
                                               position):
            pairs = [pair for columns in _frame_columns(variant, k, layout)
                     for pair in columns]
            merged.append(merge_many(pairs, k))
    _assert_neighbouring(*merged, k)


@_BACKENDS
@given(history=histories, layout=layouts, k=small_k,
       session=st.integers(min_value=0, max_value=3),
       frame=st.integers(min_value=0, max_value=3),
       position=st.integers(min_value=0, max_value=29))
@settings(max_examples=120, deadline=None)
def test_corollary18_served_two_level_fold(backend, history, layout, k,
                                           session, frame, position):
    """The served fold over neighbouring histories: each session's binary
    frames into its own ``StreamingMerger``, the sessions combined."""
    merged = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(kernels.ENV_VAR, backend)
        for variant in _neighbouring_histories(history, session, frame,
                                               position):
            mergers = []
            for columns in _frame_columns(variant, k, layout):
                merger = framing.StreamingMerger(k)
                for keys, values in columns:
                    envelope = wire.encode_counters(
                        dict(zip(keys.tolist(), values.tolist())), k=k)
                    merger.add(framing.decode_payload_body(
                        framing.payload_frame_body(envelope)))
                mergers.append(merger)
            merged.append(framing.combine_mergers(mergers, k).merged())
    _assert_neighbouring(*merged, k)


@given(stream=streams, k=small_k, num_parts=st.integers(min_value=2, max_value=4))
@settings(max_examples=150, deadline=None)
def test_lemma29_merged_error_bound(stream, k, num_parts):
    """Merged sketches keep the N/(k+1) error bound for any split."""
    part_length = max(len(stream) // num_parts, 1)
    parts = [stream[i:i + part_length] for i in range(0, len(stream), part_length)]
    sketches = [MisraGriesSketch.from_stream(k, part).counters() for part in parts]
    merged = merge_many(sketches, k)
    truth = Counter(stream)
    bound = len(stream) / (k + 1)
    for element in set(stream) | set(merged):
        estimate = merged.get(element, 0.0)
        exact = truth.get(element, 0)
        assert exact - bound - 1e-9 <= estimate <= exact + 1e-9


# ---------------------------------------------------------------------------
# PAMG (Lemmas 26 and 27)
# ---------------------------------------------------------------------------

@given(stream=user_streams, k=st.integers(min_value=3, max_value=8))
@settings(max_examples=200, deadline=None)
def test_lemma26_pamg_error_bound(stream, k):
    """PAMG estimates lie in [f - floor(N/(k+1)), f]."""
    sketch = PrivacyAwareMisraGries.from_stream(k, stream)
    truth = Counter()
    for user in stream:
        truth.update(user)
    total = user_stream_total_length(stream)
    bound = total // (k + 1)
    for element in set(truth) | set(sketch.counters()):
        estimate = sketch.estimate(element)
        exact = truth.get(element, 0)
        assert exact - bound - 1e-9 <= estimate <= exact + 1e-9


@given(stream=user_streams, k=st.integers(min_value=3, max_value=8),
       position=st.integers(min_value=0, max_value=39))
@settings(max_examples=300, deadline=None)
def test_lemma27_pamg_neighbouring_structure(stream, k, position):
    """Neighbouring PAMG sketches: one key set contains the other and every
    counter differs by at most 1, all in the same direction."""
    index = position % len(stream)
    neighbour = stream[:index] + stream[index + 1:]
    counters = PrivacyAwareMisraGries.from_stream(k, stream).counters()
    counters_neighbour = PrivacyAwareMisraGries.from_stream(k, neighbour).counters()
    keys = set(counters) | set(counters_neighbour)
    diffs = {key: counters.get(key, 0.0) - counters_neighbour.get(key, 0.0) for key in keys}
    assert all(abs(diff) <= 1.0 + 1e-9 for diff in diffs.values())
    positive = any(diff > 1e-9 for diff in diffs.values())
    negative = any(diff < -1e-9 for diff in diffs.values())
    assert not (positive and negative)
    # Key-set containment (condition (1) or (2) of Lemma 27).
    assert set(counters_neighbour) <= set(counters) or set(counters) <= set(counters_neighbour)


@given(stream=user_streams, k=st.integers(min_value=3, max_value=8))
@settings(max_examples=150, deadline=None)
def test_pamg_matches_flattened_truth_direction(stream, k):
    """PAMG never overestimates the number of users containing an element."""
    sketch = PrivacyAwareMisraGries.from_stream(k, stream)
    truth = Counter()
    for user in stream:
        truth.update(user)
    for element, estimate in sketch.counters().items():
        assert estimate <= truth.get(element, 0) + 1e-9
