"""Property: every compiled kernel is bit-identical to its python engine.

The compiled tier (:mod:`repro.kernels`) is only allowed to exist because it
changes *nothing*: same keys, same float bits, same dict iteration order as
the pure-python engines on every input.  Hypothesis drives every kernel:

* ``mg_update`` — chunked ``update_batch`` streams under
  ``REPRO_KERNELS=cc`` against the vectorized python engine, including
  small sketches kept overfull so the eviction tie-breaks decide the state.
* ``fold_step`` runs — ``merge_many`` over dicts and over array pairs,
  and ``merge_tree``, under ``REPRO_KERNELS=cc`` against
  ``REPRO_KERNELS=python``, including the NaN inputs whose steps must
  route around the kernel.  A sketch that repeats a key is refused with
  the same ``repeated_key`` error on both, served frame or pair.
* ``fold_step`` steps — frame sequences folded through
  :class:`~repro.sketches.merge.FoldState` with the cc step and the numpy
  step: same outcome per frame (the same summary or the same error), same
  live order, same accumulator bits, same zero-valued first-frame counters,
  across the switch from offset ids to the key table.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import kernels
from repro.api import framing, wire
from repro.exceptions import SketchStateError
from repro.sketches import MisraGriesSketch
from repro.sketches._reference_merge import reference_merge_many
from repro.sketches.merge import _DENSE_SPAN_LIMIT, FoldState, merge_many, merge_tree

COMPILED = kernels.available()

needs_compiled = pytest.mark.skipif(
    not COMPILED, reason="no C toolchain on this host")


@contextlib.contextmanager
def _kernels_env(backend):
    """Run the block under ``REPRO_KERNELS=backend``.

    A manual :class:`pytest.MonkeyPatch` (not the fixture), so Hypothesis
    can rerun a test body freely without the function-scoped-fixture health
    check firing.
    """
    patch = pytest.MonkeyPatch()
    try:
        patch.setenv(kernels.ENV_VAR, backend)
        yield
    finally:
        patch.undo()


# Small universes force collisions and decrement rounds; the extremes force
# the int64 edge handling (keys near +/- 2**63 stay exact in the kernels).
_ELEMENTS = st.one_of(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)
_STREAMS = st.lists(_ELEMENTS, min_size=0, max_size=300)
_SIZES = st.integers(min_value=1, max_value=48)
# Few distinct keys over a small k keep the sketch overfull, so the eviction
# tie-breaks (real keys before dummies, then the smallest key) decide it.
_OVERFULL = st.tuples(st.lists(st.integers(0, 12), max_size=300),
                      st.integers(1, 8))


def _chunked(stream, chunk_size):
    for start in range(0, len(stream), chunk_size):
        yield np.asarray(stream[start:start + chunk_size], dtype=np.int64)


def _identical_sketches(left: MisraGriesSketch, right: MisraGriesSketch):
    assert left.counters() == right.counters()
    assert list(left.counters()) == list(right.counters())
    assert left.stream_length == right.stream_length


# ---------------------------------------------------------------------------
# mg_update
# ---------------------------------------------------------------------------

@needs_compiled
@given(stream_k=st.tuples(_STREAMS, _SIZES) | _OVERFULL,
       chunk_size=st.integers(1, 64))
@example(stream_k=([1, 2, 0, 0, 0, 1, 5, 4, 6, 3, 4, 6, 5, 4, 3, 3, 6, 1, 5,
                    4, 0, 2, 6, 3, 0, 5, 5, 5, 1, 0, 6, 0, 3, 0, 2, 3, 2, 2],
                   6),
         chunk_size=1)
@settings(max_examples=60, deadline=None)
def test_compiled_update_batch_is_bit_identical(stream_k, chunk_size):
    stream, k = stream_k
    python = MisraGriesSketch(k)
    compiled = MisraGriesSketch(k)
    for chunk in _chunked(stream, chunk_size):
        with _kernels_env("python"):
            python.update_batch(chunk)
        with _kernels_env("cc"):
            compiled.update_batch(chunk)
    _identical_sketches(python, compiled)


@needs_compiled
@given(stream=_STREAMS, k=_SIZES)
@settings(max_examples=20, deadline=None)
def test_compiled_sketch_interoperates_with_sequential_updates(stream, k):
    """Mixing per-element updates (python engine) into a compiled sketch
    keeps the state exact: the kernel rebuilds from whatever dict it finds."""
    python = MisraGriesSketch(k)
    compiled = MisraGriesSketch(k)
    for index, element in enumerate(stream):
        if index % 3 == 0:
            python.update(element)
            compiled.update(element)
        else:
            chunk = np.asarray([element], dtype=np.int64)
            with _kernels_env("python"):
                python.update_batch(chunk)
            with _kernels_env("cc"):
                compiled.update_batch(chunk)
    _identical_sketches(python, compiled)


# ---------------------------------------------------------------------------
# fold_step runs (the batch merges)
# ---------------------------------------------------------------------------

_VALUES = st.one_of(
    st.floats(min_value=0.0, max_value=1e15, allow_nan=False),
    st.integers(min_value=0, max_value=10**12).map(float),
    st.just(0.0),
)
_SUMMARIES = st.lists(
    st.dictionaries(st.integers(min_value=-(2**40), max_value=2**40),
                    _VALUES, max_size=40),
    min_size=0, max_size=8)


@needs_compiled
@given(summaries=_SUMMARIES, k=_SIZES)
@settings(max_examples=60, deadline=None)
def test_compiled_merge_fold_is_bit_identical(summaries, k):
    with _kernels_env("python"):
        python = merge_many(summaries, k)
    with _kernels_env("cc"):
        compiled = merge_many(summaries, k)
    assert python == compiled
    assert list(python) == list(compiled)
    assert all(type(value) is float for value in compiled.values())


@needs_compiled
@given(summaries=_SUMMARIES, k=_SIZES)
@settings(max_examples=30, deadline=None)
def test_compiled_columnar_and_tree_merges_are_bit_identical(summaries, k):
    pairs = [(np.fromiter(s.keys(), dtype=np.int64, count=len(s)),
              np.fromiter(s.values(), dtype=np.float64, count=len(s)))
             for s in summaries]
    with _kernels_env("python"):
        python = merge_many(pairs, k)
        tree_python = merge_tree(summaries, k)
    with _kernels_env("cc"):
        compiled = merge_many(pairs, k)
        tree_compiled = merge_tree(summaries, k)
    assert python == compiled and list(python) == list(compiled)
    assert tree_python == tree_compiled
    assert list(tree_python) == list(tree_compiled)


@needs_compiled
@given(summaries=_SUMMARIES, k=_SIZES, position=st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_nan_values_route_around_the_kernel_identically(summaries, k,
                                                        position):
    summaries = [dict(s) for s in summaries if s]
    if not summaries:
        summaries = [{0: 1.0}]
    target = summaries[position % len(summaries)]
    target[sorted(target)[position % len(target)]] = float("nan")
    with _kernels_env("python"):
        python = merge_many(summaries, k)
    with _kernels_env("cc"):
        compiled = merge_many(summaries, k)
    assert list(python) == list(compiled)
    for left, right in zip(python.values(), compiled.values()):
        assert (left != left and right != right) or left == right


# ---------------------------------------------------------------------------
# fold_step
# ---------------------------------------------------------------------------

_NAN = float("nan")
_TOP = 2**63 - 1
_BOTTOM = -(2**63)
_STEP_VALUES = st.one_of(
    st.just(0.0),
    st.integers(min_value=1, max_value=30).map(float),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False,
              allow_infinity=False),
)
_STEP_FRAMES = st.lists(
    st.dictionaries(st.integers(0, 24), _STEP_VALUES, max_size=14),
    max_size=7)
# Where the frames' keys sit: around zero, or against either int64 end.
_KEY_BASES = st.sampled_from([-12, -12, 0, _TOP - 24, _BOTTOM])
# (frame index, key) insertions that force the id space to grow on either
# side: -3M..+5M stays dense, a span reaching an int64 end does not.
_FAR_KEYS = st.lists(
    st.tuples(st.integers(0, 6),
              st.sampled_from([-3_000_000, 2_500_000, 5_000_000, _BOTTOM,
                               _TOP])),
    max_size=2)
# (frame index, key position, value) overwrites planting negatives and NaNs.
_POISON = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 13),
                             st.sampled_from([-1.0, -0.5, _NAN])),
                   max_size=3)
# (frame index, key position, at) insertions listing that key once more at
# ``at``: a malformed frame both steps must refuse alike.
_REPEATS = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 13),
                              st.integers(0, 14)), max_size=1)


def _step_binders():
    """The numpy step, and the cc step when it builds."""
    binders = {"numpy": None}
    if COMPILED:
        with _kernels_env("cc"):
            binders["cc"] = kernels.get_kernel("fold_step")
    return binders


def _frame_arrays(frames, base=0, far=(), poison=(), repeats=()):
    frames = [{base + key: value for key, value in frame.items()}
              for frame in frames]
    for index, key in far:
        if index < len(frames):
            frames[index][key] = 1.0
    for index, position, value in poison:
        if index < len(frames) and frames[index]:
            keys = list(frames[index])
            frames[index][keys[position % len(keys)]] = value
    arrays = [(np.fromiter(frame.keys(), dtype=np.int64, count=len(frame)),
               np.fromiter(frame.values(), dtype=np.float64, count=len(frame)))
              for frame in frames]
    for index, position, at in repeats:
        if index < len(arrays) and arrays[index][0].size:
            keys, values = arrays[index]
            at %= keys.size + 1
            arrays[index] = (np.insert(keys, at, keys[position % keys.size]),
                             np.insert(values, at, 1.0))
    return arrays


def _summary(state):
    """The folded summary: ``first``, the keys in dict order and the bits
    of their values."""
    keys, values = state.arrays()
    if isinstance(keys, np.ndarray):
        keys = keys.tolist()
    return state.first, keys, values.view(np.int64).tolist()


def _fold_trace(frames, size, binder):
    """Fold ``frames`` step by step; the per-step summary and state."""
    state = FoldState(size)
    state._binder = binder
    trace = []
    for keys, values in frames:
        try:
            state.step(keys, values)
        except SketchStateError as error:
            trace.append(("error", str(error)))
            break
        if state.acc is None:
            snapshot = (state.first, None)
        else:
            zeros = int(state._state[1])
            snapshot = (state.first, state.low, state.active.tolist(),
                        state.acc.view(np.int64).tolist(),
                        state._zero_live[:zeros].tolist())
        trace.append((_summary(state), snapshot))
    return trace


@given(frames=_STEP_FRAMES, base=_KEY_BASES, far=_FAR_KEYS, poison=_POISON,
       repeats=_REPEATS, k=st.integers(1, 10))
@example(frames=[{1: 0.0, 2: 3.0}, {1: 2.0, 3: 1.0}], base=0, far=[],
         poison=[], repeats=[], k=4)
@example(frames=[{1: 4.0, 2: 1.0, 3: 2.0}, {4: 1.0}], base=0, far=[],
         poison=[], repeats=[], k=2)
@example(frames=[{1: 2.0}, {2: 1.0}], base=0, far=[], poison=[(0, 0, -1.0)],
         repeats=[], k=4)
@example(frames=[{1: 2.0, 2: 1.0, 3: 5.0}], base=0, far=[],
         poison=[(0, 1, -1.0)], repeats=[], k=2)
@example(frames=[{1: 2.0}, {2: 1.0}, {3: 4.0}], base=0, far=[],
         poison=[(0, 0, _NAN)], repeats=[], k=4)
@example(frames=[{}, {1: 1.0}, {2: 2.0}], base=0,
         far=[(1, 5_000_000), (2, -3_000_000)], poison=[], repeats=[], k=3)
@example(frames=[{1: 1.0, 3: 1.0}, {7: 2.0, 2: 1.0}], base=0, far=[],
         poison=[], repeats=[(1, 0, 1)], k=4)
@settings(max_examples=200, deadline=None)
def test_fold_step_backends_agree(frames, base, far, poison, repeats, k):
    frames = _frame_arrays(frames, base, far, poison, repeats)
    traces = {name: _fold_trace(frames, k, binder)
              for name, binder in _step_binders().items()}
    expected = traces.pop("numpy")
    for name, trace in traces.items():
        assert trace == expected, name


@given(frames=_STEP_FRAMES, base=_KEY_BASES, far=_FAR_KEYS, poison=_POISON,
       repeats=_REPEATS, k=st.integers(1, 10))
@example(frames=[{1: 2.0}, {2: 1.0}, {3: 4.0, 4: 1.0}, {1: 1.0}], base=0,
         far=[(3, 5_000_000)], poison=[(2, 0, _NAN)], repeats=[], k=2)
@settings(max_examples=150, deadline=None)
def test_fold_run_matches_the_step_loop(frames, base, far, poison, repeats,
                                        k):
    """``FoldState.run`` over the frames laid end to end folds exactly what
    a ``step`` per frame folds: the same error, or the same summary — the
    compiled run stopping and resuming at every refused frame.  The id
    layouts may differ: a run covers all its keys before it starts."""
    frames = _frame_arrays(frames, base, far, poison, repeats)
    keys = np.concatenate([keys for keys, _ in frames] + [
        np.empty(0, dtype=np.int64)])
    values = np.concatenate([values for _, values in frames] + [
        np.empty(0, dtype=np.float64)])
    lengths = [keys.size for keys, _ in frames]
    for name, binder in _step_binders().items():
        trace = _fold_trace(frames, k, binder)
        state = FoldState(k)
        state._binder = binder
        try:
            state.run(keys, values, lengths)
        except SketchStateError as error:
            assert trace[-1] == ("error", str(error)), name
            continue
        if trace:
            assert trace[-1][0] == _summary(state), name


def _repeated_frame():
    """A served binary frame whose keys are ``[7, 7, 2]``."""
    envelope = {"format": 2, "kind": "counters", "k": 4, "key_encoding": "int",
                "keys": [7, 7, 2], "values": [2.0, 3.0, 1.0],
                "meta": {"stream_length": 6}}
    body = framing.payload_frame_body(envelope)
    assert body[0] == framing.BINARY_FRAME_TAG
    return framing.decode_payload_body(body)


@pytest.mark.parametrize("backend", ["python", "cc"] if COMPILED else ["python"])
@pytest.mark.parametrize("first", [{1: 1.0, 2: 2.0}, {7: 1.0, 2: 2.0}, None])
def test_repeated_key_frame_and_pair_share_one_error(backend, first):
    """The served fold and ``merge_many`` refuse a repeated key with one
    coded error, first frame or later, on either backend."""
    payload = _repeated_frame()
    with _kernels_env(backend):
        merger = framing.StreamingMerger(4)
        pairs = [payload.columnar()]
        if first is not None:
            merger.add(wire.encode_counters(first, k=4))
            pairs.insert(0, (np.array(list(first)), np.array(list(first.values()))))
        before = merger.merged()
        errors = []
        for fold in (lambda: merger.add(payload), lambda: merge_many(pairs, 4)):
            with pytest.raises(SketchStateError) as caught:
                fold()
            errors.append((caught.value.code, str(caught.value)))
        assert merger.merged() == before
    assert errors == [("repeated_key", "key 7 appears twice in one sketch")] * 2


def test_fold_step_span_limit_switches_to_the_key_table():
    far = _DENSE_SPAN_LIMIT
    expected = reference_merge_many([{0: 1.0, 1: 2.0}, {2: 1.0}, {far: 1.0}],
                                    4)
    for name, binder in _step_binders().items():
        state = FoldState(4)
        state._binder = binder
        state.step(np.array([0, 1], dtype=np.int64), np.array([1.0, 2.0]))
        state.step(np.array([2], dtype=np.int64), np.array([1.0]))
        keys, values = state.arrays()
        assert keys.tolist() == [0, 1, 2] and values.tolist() == [1.0, 2.0, 1.0]
        assert state._index is None, name  # offset ids
        state.step(np.array([far], dtype=np.int64), np.array([1.0]))
        assert state._id_keys == [0, 1, 2, far], name  # the key table
        assert all(type(key) is int for key in state.counters()), name
        assert state.low == 0, name
        assert list(state.counters().items()) == list(expected.items()), name


@needs_compiled
@given(frames=st.lists(st.dictionaries(st.integers(0, 40), _STEP_VALUES,
                                       min_size=1, max_size=14),
                       min_size=1, max_size=6),
       k=st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_served_fold_runs_every_later_frame_in_the_cc_step(frames, k):
    """m integer frames inside the first frame's key range: the first step
    runs in numpy, the other m - 1 each make exactly one cc step call."""
    frames[0].update({0: 1.0, 40: 1.0})
    calls = []
    real = kernels.get_kernel

    def counting(name):
        binder = real(name)
        if name != "fold_step":
            return binder

        def bind(*buffers):
            bound = binder(*buffers)

            def step(keys, values, low):
                calls.append(keys.size)
                return bound(keys, values, low)
            return step
        return bind

    patch = pytest.MonkeyPatch()
    try:
        patch.setenv(kernels.ENV_VAR, "cc")
        patch.setattr(kernels, "get_kernel", counting)
        merger = framing.StreamingMerger(k)
        for counters in frames:
            merger.add(wire.encode_counters(counters, k=k))
    finally:
        patch.undo()
    assert len(calls) == len(frames) - 1
    expected = merge_many(frames, k)
    assert merger.merged() == expected
    assert list(merger.merged()) == list(expected)
