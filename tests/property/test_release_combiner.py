"""Property: the server's incremental combine equals the from-scratch fold.

:class:`~repro.api.framing.MergerCombiner` keeps the left fold of the live
committed parts between releases and absorbs only the parts committed since
the previous release, rebuilding whenever a new commit sorts in before the
cached prefix.  Every release must still be bit-identical — keys, values,
dict order, metadata — to ``combine_mergers(committed_mergers())`` released
with the same seed.  Hypothesis interleaves commits and releases with random
ordinals (out of order, anonymous, duplicate ties) and relay sessions that
carry several parts; the combiner-level properties add empty parts, the
one-part pass-through and an ``absorb`` that fails half-way.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.framing import MergerCombiner, StreamingMerger, combine_mergers
from repro.api.wire import encode_counters, encode_histogram
from repro.core.merging import MergeStrategy, PrivateMergedRelease
from repro.exceptions import RemoteError, SketchStateError
from repro.net import AggregatorServer

EPSILON, DELTA = 1.0, 1e-6

_KEYS = st.integers(min_value=-50, max_value=50)
_VALUES = st.one_of(
    st.integers(min_value=1, max_value=1000).map(float),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False))
_EXPORT = st.dictionaries(_KEYS, _VALUES, max_size=10)
# One merger: the fold of 1-3 exports (a client session or one relay part).
_PART = st.lists(_EXPORT, min_size=1, max_size=3)
_COMMIT = st.tuples(
    st.just("commit"),
    st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    st.lists(_PART, min_size=1, max_size=3))
_RELEASE = st.tuples(st.just("release"), st.integers(min_value=0, max_value=2 ** 31 - 1))
_HISTORY = st.lists(st.one_of(_COMMIT, _COMMIT, _RELEASE), min_size=1, max_size=16)


def _merger(exports, k):
    merger = StreamingMerger(k)
    for index, counters in enumerate(exports):
        merger.add(encode_counters(counters, k=k, stream_length=3 * index + 1))
    return merger


def _state(merger):
    """Everything observable about a merger, for no-mutation checks."""
    return (merger.frames, merger.total_stream_length,
            list(merger.merged().items()))


def _mechanism(k):
    return PrivateMergedRelease(epsilon=EPSILON, delta=DELTA, k=k,
                                strategy=MergeStrategy.TRUSTED_MERGED)


def _encoded(histogram):
    # json.dumps keeps dict order, so equal strings mean equal keys, values,
    # order and metadata.
    return json.dumps(encode_histogram(histogram))


class _FinishedSession:
    """The part of a finished session that ``AggregatorServer.commit`` reads."""

    client = None

    def __init__(self, ordinal, parts):
        self.ordinal = ordinal
        self._parts = parts

    def take_parts(self):
        return tuple(self._parts)

    def take_journal(self):
        return None


@given(history=_HISTORY, k=st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_incremental_release_matches_from_scratch(history, k):
    server = AggregatorServer(epsilon=EPSILON, delta=DELTA, k=k, metrics=True)
    snapshots = []
    for operation in history:
        if operation[0] == "commit":
            _, ordinal, part_exports = operation
            parts = [_merger(exports, k) for exports in part_exports]
            snapshots.extend((part, _state(part)) for part in parts)
            server.commit(_FinishedSession(ordinal, parts))
            continue
        seed = operation[1]
        parts = server.committed_mergers()
        if not parts:
            with pytest.raises(RemoteError):
                server.perform_release(seed)
            continue
        served = json.dumps(server.perform_release(seed))
        expected = _encoded(combine_mergers(parts, k).release(_mechanism(k), rng=seed))
        assert served == expected
    # Releases only read the committed parts.
    for part, state in snapshots:
        assert _state(part) == state


@given(part_lists=st.lists(st.lists(st.one_of(_PART, st.just([])), max_size=5),
                           min_size=1, max_size=6),
       k=st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_combiner_matches_one_shot_fold_over_any_sequence(part_lists, k):
    """Lists that extend, shrink or reorder parts; empty parts never count."""
    pool = []
    combiner = MergerCombiner(k)
    for exports_list in part_lists:
        # Reuse earlier parts (by identity) so extensions of a prefix occur.
        fresh = [_merger(exports, k) if exports else StreamingMerger(k)
                 for exports in exports_list]
        parts = pool + fresh if len(pool) % 2 == 0 else fresh + pool
        pool = parts
        states = [_state(part) for part in parts]
        combined = combiner.combine(parts)
        reference = combine_mergers(parts, k)
        live = [part for part in parts if part.frames]
        if len(live) == 1:
            assert combined is live[0]
        assert _state(combined) == _state(reference)
        if combined.frames:
            assert _encoded(combined.release(_mechanism(k), rng=5)) == \
                _encoded(reference.release(_mechanism(k), rng=5))
        assert [_state(part) for part in parts] == states


@given(good=st.lists(st.dictionaries(_KEYS, _VALUES, min_size=1, max_size=6),
                     min_size=3, max_size=3),
       k=st.integers(min_value=2, max_value=8))
@settings(max_examples=30, deadline=None)
def test_failed_absorb_drops_the_cache(good, k):
    first, second, third = (_merger([counters], k) for counters in good)
    negative = _merger([{7: -1.0}], k)
    combiner = MergerCombiner(k)
    combiner.combine([first, second])
    # absorb bumps the frame count before it rejects the negative counter,
    # so a cache kept across the failure would report too many frames.
    with pytest.raises(SketchStateError):
        combiner.combine([first, second, negative])
    combined = combiner.combine([first, second, third])
    reference = combine_mergers([first, second, third], k)
    assert _state(combined) == _state(reference)
    assert _encoded(combined.release(_mechanism(k), rng=3)) == \
        _encoded(reference.release(_mechanism(k), rng=3))


def test_release_absorbs_only_new_parts_until_a_commit_sorts_first():
    k = 4
    server = AggregatorServer(epsilon=EPSILON, delta=DELTA, k=k)
    absorbed = []

    def commit_and_release(ordinal, seed):
        server.commit(_FinishedSession(ordinal, [_merger([{ordinal: 5.0}], k)]))
        server.perform_release(seed)
        absorbed.append(server._combiner.last_absorbed)

    commit_and_release(2, 1)   # one live part: passed through, not absorbed
    commit_and_release(4, 2)   # first combine folds both parts
    commit_and_release(6, 3)   # prefix kept: only the new part
    commit_and_release(8, 4)
    commit_and_release(0, 5)   # sorts before the prefix: rebuild
    commit_and_release(9, 6)
    assert absorbed == [0, 2, 1, 1, 5, 1]
    counters = server.stats()["metrics"]["counters"]
    assert counters["server.release_parts_absorbed_total"] == sum(absorbed)
