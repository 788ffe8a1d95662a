"""The paper's variant of the Misra-Gries sketch (Algorithm 1).

The variant differs from textbook Misra-Gries in two ways that matter only
for the *privacy* analysis, not for the estimates it produces:

* the sketch always stores exactly ``k`` key/counter pairs, starting from
  ``k`` dummy keys (outside the universe) with counters at zero;
* keys whose counter reaches zero are *not* evicted immediately; a zero-count
  key is only replaced when a new element arrives and the sketch has to make
  room, and then the *smallest* zero-count key is replaced (any stream
  independent tie-breaking rule works; smallest-key matches the paper).

Lemma 8 of the paper shows that with these rules the sketches of neighbouring
streams share at least ``k - 2`` keys and their counters differ either by +1
in one position or by -1 everywhere, which is what Algorithm 2 exploits.

Complexity
----------
Updates are **O(1) amortized** (matching the paper's cost model) via the
classic lazy-offset representation:

* counters are stored relative to a global ``_base`` offset, so the
  decrement-all branch (Branch 2) is a single ``base += 1`` instead of an
  O(k) sweep;
* keys are bucketed by their *stored* (offset) value, so the keys that reach
  zero after a lazy decrement are found in O(#newly-zero) time;
* zero-count keys live in a min-heap of precomputed
  :func:`~repro.sketches._ordering.eviction_order` keys, making each
  eviction (Branch 3) O(log k) with no repeated ``repr``/format calls.

:meth:`MisraGriesSketch.update_batch` additionally vectorizes integer
streams with NumPy (run-length grouping of stored keys, bulk increments)
while producing *bit-identical* sketch state to the sequential algorithm;
``tests/unit/sketches/test_misra_gries_equivalence.py`` proves the
equivalence against the frozen reference implementation in
:mod:`repro.sketches._reference`.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterable, List, Set, Tuple

import numpy as np

from .. import kernels as _kernels
from ..kernels._c_src import MG_OK
from .._validation import check_positive_int
from ..exceptions import ParameterError, SketchStateError
from ._ordering import DummyKey, eviction_order
from .base import FrequencySketch

__all__ = ["DummyKey", "MisraGriesSketch"]

# Backwards-compatible alias: earlier revisions defined the sort key here.
_eviction_order = eviction_order

#: Elements per NumPy chunk in :meth:`MisraGriesSketch.update_batch`.
_BATCH_CHUNK = 8192


class MisraGriesSketch(FrequencySketch):
    """Misra-Gries sketch of size ``k`` (paper variant, Algorithm 1).

    Parameters
    ----------
    k:
        Number of counters.  The sketch guarantees
        ``estimate(x) in [f(x) - n/(k+1), f(x)]`` for every element ``x``
        where ``n`` is the stream length (Fact 7).

    :meth:`update_batch` runs the compiled ``mg_update`` kernel when the
    ``REPRO_KERNELS`` environment variable resolves to one (see
    :mod:`repro.kernels`), and the NumPy/python engine otherwise; both
    produce bit-identical sketch state.

    Examples
    --------
    >>> sketch = MisraGriesSketch(2)
    >>> sketch.update_all(["a", "b", "a", "c", "a"])  # doctest: +ELLIPSIS
    <repro.sketches.misra_gries.MisraGriesSketch object at ...>
    >>> sketch.estimate("a") >= sketch.stream_length / 3 - 1
    True
    """

    def __init__(self, k: int) -> None:
        self._k = check_positive_int(k, "k")
        # Lazy decrement offset: the counter of a key is `stored - base`.
        self._base = 0
        self._stored: Dict[Hashable, int] = {DummyKey(i): 0 for i in range(1, self._k + 1)}
        # Keys grouped by stored value; the bucket at `_base` is the zero set.
        self._buckets: Dict[int, Set[Hashable]] = {0: set(self._stored)}
        # Min-heap of (eviction_order, seq, key) over zero-count keys; entries
        # go stale when a key leaves the zero set and are discarded lazily.
        self._heap_seq = self._k
        self._zero_heap: List[Tuple[Tuple, int, Hashable]] = [
            (eviction_order(key), index, key) for index, key in enumerate(self._stored)]
        heapq.heapify(self._zero_heap)
        self._stream_length = 0
        self._decrement_rounds = 0

    # ------------------------------------------------------------------
    # FrequencySketch interface
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """The number of counters ``k``."""
        return self._k

    @property
    def stream_length(self) -> int:
        return self._stream_length

    @property
    def decrement_rounds(self) -> int:
        """Number of times the decrement-all branch (Branch 2) has executed."""
        return self._decrement_rounds

    def update(self, element: Hashable) -> None:
        """Process a single stream element (Branches 1-3 of Algorithm 1)."""
        if isinstance(element, DummyKey):
            raise SketchStateError("dummy keys cannot appear in the input stream")
        self._stream_length += 1
        self._apply_one(element)

    def update_batch(self, values) -> "MisraGriesSketch":
        """Vectorized update for a 1-D integer array; returns ``self``.

        Produces exactly the same sketch state (counters, eviction choices,
        ``decrement_rounds``) as calling :meth:`update` on every element in
        order: within any maximal span of elements that are all currently
        stored, every update takes Branch 1 and the increments commute, so
        they can be applied as bulk per-key additions; the remaining elements
        are replayed through the sequential engine.
        """
        array = np.asarray(values)
        if array.ndim != 1:
            raise ParameterError(
                f"update_batch expects a one-dimensional array, got shape {array.shape}")
        if array.size == 0:
            return self
        if array.dtype.kind not in "iu":
            raise ParameterError(
                f"update_batch expects an integer array, got dtype {array.dtype}")
        if self._kernel_batch(array):
            return self
        for start in range(0, len(array), _BATCH_CHUNK):
            self._apply_chunk(array[start:start + _BATCH_CHUNK])
        return self

    def estimate(self, element: Hashable) -> float:
        """Estimated frequency of ``element`` (0 for unstored elements)."""
        if isinstance(element, DummyKey):
            return 0.0
        value = self._stored.get(element)
        if value is None:
            return 0.0
        return float(value - self._base)

    def counters(self) -> Dict[Hashable, float]:
        """Stored real keys and their counters (dummy keys removed)."""
        base = self._base
        return {key: float(value - base) for key, value in self._stored.items()
                if not isinstance(key, DummyKey)}

    def raw_counters(self) -> Dict[Hashable, float]:
        """All ``k`` stored key/counter pairs, including dummy keys.

        This is the view Algorithm 2 operates on: noise is added to every
        stored counter and dummy keys are discarded afterwards as
        post-processing.
        """
        base = self._base
        return {key: float(value - base) for key, value in self._stored.items()}

    def stored_keys(self) -> Set[Hashable]:
        """The key set ``T`` of Algorithm 1 (includes dummy keys)."""
        return set(self._stored.keys())

    # ------------------------------------------------------------------
    # Convenience constructors / helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_stream(cls, k: int, stream: Iterable[Hashable]) -> "MisraGriesSketch":
        """Build a sketch of size ``k`` from an iterable of elements.

        Integer ndarrays (and plain lists of ints) are routed through
        :meth:`update_batch` automatically by ``update_all``.
        """
        sketch = cls(k)
        sketch.update_all(stream)
        return sketch

    def error_bound(self) -> float:
        """The worst-case underestimation ``n / (k + 1)`` from Fact 7."""
        return self._stream_length / (self._k + 1)

    def memory_words(self) -> int:
        """Memory use measured in words, ``2k`` (one key and one counter each)."""
        return 2 * self._k

    def __repr__(self) -> str:
        stored = len(self.counters())
        return (f"MisraGriesSketch(k={self._k}, stored={stored}, "
                f"n={self._stream_length})")

    # ------------------------------------------------------------------
    # Sequential engine
    # ------------------------------------------------------------------

    def _apply_one(self, element: Hashable) -> None:
        """Branches 1-3 for one element; ``_stream_length`` handled by callers."""
        stored = self._stored
        value = stored.get(element)
        if value is not None:
            # Branch 1: increment the stored counter.
            self._move(element, value, value + 1)
            return
        base = self._base
        zeros = self._buckets.get(base)
        if not zeros:
            # Branch 2: all counters >= 1; decrement everything lazily.
            self._decrement_rounds += 1
            base += 1
            self._base = base
            newly_zero = self._buckets.get(base)
            if newly_zero:
                heap, seq = self._zero_heap, self._heap_seq
                for key in newly_zero:
                    heapq.heappush(heap, (eviction_order(key), seq, key))
                    seq += 1
                self._heap_seq = seq
                if len(heap) > 4 * self._k + 64:
                    self._compact_heap()
            return
        # Branch 3: replace the smallest zero-count key with the new element.
        heap = self._zero_heap
        while heap:
            _, _, victim = heapq.heappop(heap)
            if victim in zeros:
                break
        else:
            raise SketchStateError("zero-key heap exhausted; sketch state is corrupt")
        zeros.discard(victim)
        if not zeros:
            del self._buckets[base]
        del stored[victim]
        value = base + 1
        stored[element] = value
        bucket = self._buckets.get(value)
        if bucket is None:
            self._buckets[value] = {element}
        else:
            bucket.add(element)

    def _move(self, element: Hashable, old: int, new: int) -> None:
        """Reassign ``element`` from stored value ``old`` to ``new``."""
        self._stored[element] = new
        bucket = self._buckets[old]
        bucket.discard(element)
        if not bucket:
            del self._buckets[old]
        target = self._buckets.get(new)
        if target is None:
            self._buckets[new] = {element}
        else:
            target.add(element)

    def _compact_heap(self) -> None:
        """Drop stale heap entries; cost O(k), amortized O(1) per update."""
        zeros = self._buckets.get(self._base, ())
        self._zero_heap = [(eviction_order(key), index, key)
                           for index, key in enumerate(zeros)]
        heapq.heapify(self._zero_heap)
        self._heap_seq = len(self._zero_heap)

    # ------------------------------------------------------------------
    # Compiled kernel engine
    # ------------------------------------------------------------------

    def _kernel_batch(self, array: np.ndarray) -> bool:
        """Run one ``update_batch`` call through a compiled kernel.

        Returns ``False`` (leaving the state untouched) whenever the call
        cannot take the native path — no compiled provider, a key universe
        the int64 state cannot represent, or non-integer stored values from
        a deserialized sketch — so the python engine handles it instead.
        The kernel replays Branches 1-3 element by element, which is
        bit-identical to the chunked python path (itself property-tested
        equal to the sequential engine).
        """
        kernel = _kernels.get_kernel("mg_update")
        if kernel is None:
            return False
        chunk = self._as_int64_chunk(array)
        if chunk is None:
            return False
        state = self._export_kernel_state()
        if state is None:
            return False
        keys, dummy, stored, ins_seq, io = state
        status = kernel(keys, dummy, stored, ins_seq, io, chunk)
        if status != MG_OK:
            raise SketchStateError("zero-key heap exhausted; sketch state is corrupt")
        self._import_kernel_state(keys, dummy, stored, ins_seq, io, int(array.size))
        return True

    @staticmethod
    def _as_int64_chunk(array: np.ndarray) -> "np.ndarray | None":
        """``array`` as a contiguous int64 view/copy, or ``None`` if lossy."""
        if array.dtype == np.int64:
            return np.ascontiguousarray(array)
        if array.dtype.kind == "i":
            return array.astype(np.int64)
        # Unsigned: uint64 values beyond int64 range must stay in python.
        if array.dtype.itemsize == 8 and array.size and int(array.max()) > 2**63 - 1:
            return None
        return array.astype(np.int64)

    def _export_kernel_state(self):
        """Sketch state as the kernel's parallel int64 arrays, or ``None``.

        Only pure ``int``-keyed, ``int``-valued state qualifies; anything
        else (string keys from sequential updates, float counters from
        ``_restore_state``, numpy scalar keys) falls back to the python
        engine, preserving exact key objects and semantics.
        """
        k = self._k
        keys = np.empty(k, dtype=np.int64)
        dummy = np.zeros(k, dtype=np.int64)
        stored = np.empty(k, dtype=np.int64)
        index = 0
        for key, value in self._stored.items():
            if type(value) is not int:
                return None
            if type(key) is int:
                if not (-(2**63) <= key < 2**63):
                    return None
                keys[index] = key
            elif isinstance(key, DummyKey):
                dummy[index] = 1
                keys[index] = key.index
            else:
                return None
            stored[index] = value
            index += 1
        ins_seq = np.arange(k, dtype=np.int64)
        io = np.array([self._base, self._decrement_rounds, k], dtype=np.int64)
        return keys, dummy, stored, ins_seq, io

    def _import_kernel_state(self, keys, dummy, stored, ins_seq, io, n: int) -> None:
        """Rebuild the dict/bucket/heap state from the kernel arrays.

        ``ins_seq`` reproduces dict insertion order exactly: surviving slots
        keep their original position, evicted slots re-append in eviction
        order — the same order the python engine's ``del``/insert pairs
        produce.
        """
        order = np.argsort(ins_seq).tolist()
        key_list = keys.tolist()
        dummy_list = dummy.tolist()
        value_list = stored.tolist()
        stored_dict = {}
        buckets = {}
        for slot in order:
            key = DummyKey(key_list[slot]) if dummy_list[slot] else key_list[slot]
            value = value_list[slot]
            stored_dict[key] = value
            bucket = buckets.get(value)
            if bucket is None:
                buckets[value] = {key}
            else:
                bucket.add(key)
        self._stored = stored_dict
        self._buckets = buckets
        self._base = int(io[0])
        self._decrement_rounds = int(io[1])
        self._compact_heap()
        self._stream_length += n

    # ------------------------------------------------------------------
    # Vectorized engine
    # ------------------------------------------------------------------

    def _apply_chunk(self, chunk: np.ndarray) -> None:
        stored = self._stored
        unique = np.unique(chunk)
        unique_list = unique.tolist()
        missing = [value for value in unique_list if value not in stored]
        if not missing:
            self._bulk_segment(chunk)
            return
        if 4 * len(missing) >= len(unique_list):
            # Missing-dense chunk (e.g. adversarial all-distinct streams):
            # the sequential engine is already O(1) amortized per element.
            for value in chunk.tolist():
                self._stream_length += 1
                self._apply_one(value)
            return
        # Spans between positions holding a missing value consist purely of
        # Branch-1 increments and are applied in bulk.
        flagged = np.flatnonzero(np.isin(chunk, np.asarray(missing, dtype=chunk.dtype)))
        position = 0
        for index in flagged.tolist():
            if index > position:
                self._bulk_segment(chunk[position:index])
            self._stream_length += 1
            self._apply_one(int(chunk[index]))
            position = index + 1
        if position < len(chunk):
            self._bulk_segment(chunk[position:])

    def _bulk_segment(self, segment: np.ndarray) -> None:
        """Apply a segment expected to contain only stored keys.

        Branch-1 increments of distinct keys commute, so the segment collapses
        to one bulk addition per unique key.  A Branch-3 eviction earlier in
        the chunk can invalidate the expectation for a key that re-appears
        later; such segments are replayed sequentially to stay bit-identical.
        """
        stored = self._stored
        unique, counts = np.unique(segment, return_counts=True)
        pairs = list(zip(unique.tolist(), counts.tolist()))
        if all(value in stored for value, _ in pairs):
            for value, count in pairs:
                self._move(value, stored[value], stored[value] + count)
            self._stream_length += int(len(segment))
            return
        for value in segment.tolist():
            self._stream_length += 1
            self._apply_one(value)

    # ------------------------------------------------------------------
    # State restoration (serialization support)
    # ------------------------------------------------------------------

    def _restore_state(self, counters: Dict[Hashable, float], stream_length: int,
                       decrement_rounds: int) -> None:
        """Rebuild internal structures from a deserialized counter mapping."""
        if len(counters) != self._k:
            raise SketchStateError(
                f"paper-variant sketch must store exactly k={self._k} counters, "
                f"got {len(counters)}")
        self._base = 0
        self._stored = {}
        self._buckets = {}
        for key, value in counters.items():
            if value < 0:
                raise SketchStateError(f"negative counter for {key!r}")
            count = int(value) if float(value).is_integer() else value
            self._stored[key] = count
            bucket = self._buckets.get(count)
            if bucket is None:
                self._buckets[count] = {key}
            else:
                bucket.add(key)
        self._compact_heap()
        self._stream_length = int(stream_length)
        self._decrement_rounds = int(decrement_rounds)
