"""Property: every compiled kernel is bit-identical to its python engine.

The compiled tier (:mod:`repro.kernels`) is only allowed to exist because it
changes *nothing*: same keys, same float bits, same dict iteration order as
the pure-python engines on every input.  Hypothesis drives every kernel:

* ``mg_update`` — chunked ``update_batch`` streams through the compiled
  backend and through the shared njit-able source in
  :mod:`repro.kernels._engine` (the numba provider compiles exactly that
  text), against the vectorized python engine.
* ``fold_interned`` — ``merge_many`` / ``merge_many_arrays`` / ``merge_tree``
  under ``backend="compiled"`` against ``backend="python"``, including the
  NaN inputs that must route around the kernel.
* ``fold_step`` — frame sequences folded through
  :class:`~repro.sketches.merge.FoldState` with every compiled step, the
  numpy step and the python spec ``_engine.fold_step``: same outcome per
  frame (folded, too wide, or the same error), same live order, same
  accumulator bits, same zero-valued first-frame counters.
* ``scan_binary_header`` — binary columnar frames decoded with and without
  the kernel, on canonical frames and on byte-corrupted ones, where *both*
  paths must agree on the result or raise the same error with the same
  message.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import kernels
from repro.api import framing, wire
from repro.exceptions import SketchStateError
from repro.kernels import _engine
from repro.sketches import MisraGriesSketch
from repro.sketches.merge import (_DENSE_SPAN_LIMIT, FoldState, merge_many,
                                  merge_many_arrays, merge_tree)

COMPILED = kernels.available()

needs_compiled = pytest.mark.skipif(
    not COMPILED, reason="no compiled kernel provider in this environment")

# Small universes force collisions and decrement rounds; the extremes force
# the int64 edge handling (keys near +/- 2**63 stay exact in the kernels).
_ELEMENTS = st.one_of(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)
_STREAMS = st.lists(_ELEMENTS, min_size=0, max_size=300)
_SIZES = st.integers(min_value=1, max_value=48)


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
@given(stream=_STREAMS, k=_SIZES, chunk_size=st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_compiled_update_batch_is_bit_identical(stream, k, chunk_size):
    python = MisraGriesSketch(k, backend="python")
    compiled = MisraGriesSketch(k, backend="compiled")
    assert compiled.resolved_backend() != "python"
    for chunk in _chunked(stream, chunk_size):
        python.update_batch(chunk)
        compiled.update_batch(chunk)
    _identical_sketches(python, compiled)


@given(stream=_STREAMS, k=_SIZES, chunk_size=st.integers(1, 64))
@settings(max_examples=40, deadline=None)
def test_engine_spec_update_is_bit_identical(stream, k, chunk_size):
    """The shared njit-able source (what numba compiles) matches python."""
    python = MisraGriesSketch(k, backend="python")
    engine = MisraGriesSketch(k, backend="python")
    for chunk in _chunked(stream, chunk_size):
        python.update_batch(chunk)
        state = engine._export_kernel_state()
        assert state is not None
        keys, dummy, stored, ins_seq, io = state
        assert _engine.mg_update(keys, dummy, stored, ins_seq, io, chunk) == 0
        engine._import_kernel_state(keys, dummy, stored, ins_seq, io,
                                    int(chunk.size))
    _identical_sketches(python, engine)


@needs_compiled
@given(stream=_STREAMS, k=_SIZES)
@settings(max_examples=20, deadline=None)
def test_compiled_sketch_interoperates_with_sequential_updates(stream, k):
    """Mixing per-element updates (python engine) into a compiled sketch
    keeps the state exact: the kernel rebuilds from whatever dict it finds."""
    python = MisraGriesSketch(k, backend="python")
    compiled = MisraGriesSketch(k, backend="compiled")
    for index, element in enumerate(stream):
        if index % 3 == 0:
            python.update(element)
            compiled.update(element)
        else:
            chunk = np.asarray([element], dtype=np.int64)
            python.update_batch(chunk)
            compiled.update_batch(chunk)
    _identical_sketches(python, compiled)


# ---------------------------------------------------------------------------
# fold_interned
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
    python = merge_many(summaries, k, backend="python")
    compiled = merge_many(summaries, k, backend="compiled")
    assert python == compiled
    assert list(python) == list(compiled)
    assert all(type(value) is float for value in compiled.values())


@needs_compiled
@given(summaries=_SUMMARIES, k=_SIZES)
@settings(max_examples=30, deadline=None)
def test_compiled_columnar_and_tree_merges_are_bit_identical(summaries, k):
    keys_list = [np.fromiter(s.keys(), dtype=np.int64, count=len(s))
                 for s in summaries]
    values_list = [np.fromiter(s.values(), dtype=np.float64, count=len(s))
                   for s in summaries]
    python = merge_many_arrays(keys_list, values_list, k, backend="python")
    compiled = merge_many_arrays(keys_list, values_list, k, backend="compiled")
    assert python == compiled and list(python) == list(compiled)
    tree_python = merge_tree(summaries, k, backend="python")
    tree_compiled = merge_tree(summaries, k, backend="compiled")
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
    python = merge_many(summaries, k, backend="python")
    compiled = merge_many(summaries, k, backend="compiled")
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


def _step_binders():
    """The numpy step, the python spec, and every available compiled step."""
    binders = {"numpy": None,
               "spec": _engine.bind_fold_step(_engine.fold_step)}
    for name in ("cc", "numba"):
        if kernels.kernel_info()["providers"][name]["available"]:
            binders[name] = kernels.get_kernel("fold_step", name)
    return binders


def _frame_arrays(frames, base=0, far=(), poison=()):
    frames = [{base + key: value for key, value in frame.items()}
              for frame in frames]
    for index, key in far:
        if index < len(frames):
            frames[index][key] = 1.0
    for index, position, value in poison:
        if index < len(frames) and frames[index]:
            keys = list(frames[index])
            frames[index][keys[position % len(keys)]] = value
    return [(np.fromiter(frame.keys(), dtype=np.int64, count=len(frame)),
             np.fromiter(frame.values(), dtype=np.float64, count=len(frame)))
            for frame in frames]


def _fold_trace(frames, size, binder):
    """Fold ``frames`` step by step; the per-step outcome and state."""
    state = FoldState(size)
    state._binder = binder
    trace = []
    for keys, values in frames:
        try:
            outcome = state.step(keys, values)
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
        trace.append((outcome, snapshot))
        if not outcome:
            break  # a merger leaves the dense fold for the pairwise one
    return trace


@given(frames=_STEP_FRAMES, base=_KEY_BASES, far=_FAR_KEYS, poison=_POISON,
       k=st.integers(1, 10))
@example(frames=[{1: 0.0, 2: 3.0}, {1: 2.0, 3: 1.0}], base=0, far=[],
         poison=[], k=4)
@example(frames=[{1: 4.0, 2: 1.0, 3: 2.0}, {4: 1.0}], base=0, far=[],
         poison=[], k=2)
@example(frames=[{1: 2.0}, {2: 1.0}], base=0, far=[], poison=[(0, 0, -1.0)],
         k=4)
@example(frames=[{1: 2.0, 2: 1.0, 3: 5.0}], base=0, far=[],
         poison=[(0, 1, -1.0)], k=2)
@example(frames=[{1: 2.0}, {2: 1.0}, {3: 4.0}], base=0, far=[],
         poison=[(0, 0, _NAN)], k=4)
@example(frames=[{}, {1: 1.0}, {2: 2.0}], base=0,
         far=[(1, 5_000_000), (2, -3_000_000)], poison=[], k=3)
@settings(max_examples=200, deadline=None)
def test_fold_step_backends_agree(frames, base, far, poison, k):
    frames = _frame_arrays(frames, base, far, poison)
    traces = {name: _fold_trace(frames, k, binder)
              for name, binder in _step_binders().items()}
    expected = traces.pop("numpy")
    for name, trace in traces.items():
        assert trace == expected, name


def test_fold_step_span_limit_drops_to_pairwise():
    for name, binder in _step_binders().items():
        state = FoldState(4)
        state._binder = binder
        assert state.step(np.array([0, 1], dtype=np.int64),
                          np.array([1.0, 2.0]))
        assert state.step(np.array([2], dtype=np.int64), np.array([1.0]))
        far = np.array([_DENSE_SPAN_LIMIT], dtype=np.int64)
        assert not state.step(far, np.array([1.0])), name
        keys, values = state.arrays()
        assert keys.tolist() == [0, 1, 2] and values.tolist() == [1.0, 2.0, 1.0]


_CC = kernels.kernel_info()["providers"]["cc"]["available"]


@pytest.mark.skipif(not _CC, reason="no C toolchain on this host")
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

    def counting(name, backend=None):
        binder = real(name, "cc")
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


# ---------------------------------------------------------------------------
# scan_binary_header
# ---------------------------------------------------------------------------

def _decode_both_ways(body):
    """Decode once with the kernel eligible and once forced pure-python.

    Uses a manual :class:`pytest.MonkeyPatch` (not the fixture) so Hypothesis
    can rerun the test body freely without the function-scoped-fixture
    health check firing.
    """
    outcomes = []
    for backend in (None, "python"):
        patch = pytest.MonkeyPatch()
        try:
            if backend:
                patch.setenv(kernels.ENV_VAR, backend)
            else:
                patch.delenv(kernels.ENV_VAR, raising=False)
            try:
                payload = framing.decode_payload_body(bytes(body))
                outcomes.append(("ok", payload))
            except framing.FramingError as error:
                outcomes.append(("error", str(error)))
        finally:
            patch.undo()
    return outcomes


def _assert_same_outcome(with_kernel, without_kernel):
    assert with_kernel[0] == without_kernel[0]
    if with_kernel[0] == "error":
        assert with_kernel[1] == without_kernel[1]
        return
    left, right = with_kernel[1], without_kernel[1]
    assert left.kind == right.kind and left.k == right.k
    assert left.meta == right.meta
    assert np.array_equal(left.key_array, right.key_array)
    assert np.array_equal(left.values, right.values)


_COUNTERS = st.dictionaries(st.integers(min_value=-(2**62), max_value=2**62),
                            st.integers(0, 10**9).map(float), max_size=20)


@needs_compiled
@given(counters=_COUNTERS,
       k=st.none() | st.integers(1, 4096),
       stream_length=st.none() | st.integers(0, 10**12))
@settings(max_examples=60, deadline=None)
def test_scanner_decodes_canonical_frames_identically(counters, k,
                                                      stream_length):
    payload = wire.encode_counters(counters, k=k, stream_length=stream_length)
    body = framing._binary_frame_body(payload)
    with_kernel, without_kernel = _decode_both_ways(body)
    assert with_kernel[0] == "ok", with_kernel
    _assert_same_outcome(with_kernel, without_kernel)


@needs_compiled
@given(counters=_COUNTERS, position=st.integers(0, 10**6),
       replacement=st.integers(0, 255))
@settings(max_examples=80, deadline=None)
def test_scanner_agrees_with_python_on_corrupted_frames(counters, position,
                                                        replacement):
    body = bytearray(framing._binary_frame_body(
        wire.encode_counters(counters, k=32)))
    body[position % len(body)] = replacement
    _assert_same_outcome(*_decode_both_ways(body))


@needs_compiled
@given(counters=_COUNTERS, cut=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_scanner_agrees_with_python_on_truncated_frames(counters, cut):
    body = framing._binary_frame_body(wire.encode_counters(counters))
    truncated = body[:cut % (len(body) + 1)]
    _assert_same_outcome(*_decode_both_ways(truncated))
