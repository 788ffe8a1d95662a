"""Merging of Misra-Gries style sketches (Agarwal et al., "Mergeable summaries").

Given two size-``k`` sketches the merge sums all counters (up to ``2k`` of
them), subtracts the ``(k+1)``-th largest value from every counter and drops
counters that are no longer positive, leaving at most ``k`` counters.  Merged
sketches keep the Misra-Gries guarantee: estimates are within ``N / (k+1)`` of
the truth where ``N`` is the combined stream length (Lemma 29 in the paper).

Section 7 of the paper shows that for neighbouring inputs the merged counters
differ by at most 1 in at most ``k`` positions (Lemma 17 / Corollary 18),
which is what the private merged release relies on.

Performance
-----------
:func:`merge_many` is the aggregator hot path of the distributed setting
(``m`` users each ship a size-``k`` sketch).  It is implemented as a
*key-interning* fold: all keys across the ``m`` sketches are mapped to integer
ids once (via ``np.unique`` for integer universes, a dict otherwise), the
counters live in one dense float array, and each fold step is a handful of
NumPy bulk operations (fancy-indexed add, ``np.union1d``, ``np.partition`` for
the (k+1)-th largest, one mask).  The result is equal — same key set, exactly
equal float values — to the seed dict-based left fold, which is preserved
verbatim in :mod:`repro.sketches._reference_merge` and property-tested against
this implementation in ``tests/property/test_merge_equivalence.py``.

For very large ``m``, :func:`merge_tree` performs the same reduction as a
balanced pairwise tree (any merge order keeps the Lemma 29 guarantee); tree
rounds are embarrassingly parallel and keep every intermediate at ``<= 2k``
counters.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .. import kernels as _kernels
from ..kernels._c_src import FOLD_NAN, FOLD_NEGATIVE, FOLD_RANGE
from .._validation import check_positive_int
from ..exceptions import ParameterError, SketchStateError
from .base import FrequencySketch

CounterMapping = Mapping[Hashable, float]
SketchLike = Union[CounterMapping, FrequencySketch]


def _as_counters(sketch: SketchLike) -> Dict[Hashable, float]:
    """Normalize a sketch object or mapping to a plain counter dict."""
    if isinstance(sketch, FrequencySketch):
        return sketch.counters()
    if isinstance(sketch, Mapping):
        return {key: float(value) for key, value in sketch.items()}
    raise ParameterError(f"expected a FrequencySketch or mapping, got {type(sketch)!r}")


def merge_misra_gries(first: SketchLike, second: SketchLike, k: int) -> Dict[Hashable, float]:
    """Merge two Misra-Gries summaries into one of size at most ``k``.

    Parameters
    ----------
    first, second:
        Counter mappings (or sketches) to merge.  Zero-valued and dummy
        counters should already have been stripped (``counters()`` does this).
    k:
        Target sketch size.  The merge keeps at most ``k`` counters.

    Returns
    -------
    dict
        The merged counters.  Estimates of elements missing from the result
        are implicitly zero.
    """
    size = check_positive_int(k, "k")
    combined: Dict[Hashable, float] = {}
    for counters in (_as_counters(first), _as_counters(second)):
        for key, value in counters.items():
            if value < 0:
                raise SketchStateError(f"negative counter for {key!r} cannot be merged")
            combined[key] = combined.get(key, 0.0) + float(value)
    if len(combined) <= size:
        return {key: value for key, value in combined.items() if value > 0}
    # Subtract the (k+1)-th largest counter from every counter.  np.partition
    # selects it in O(m) instead of the O(m log m) full sort.
    values = np.fromiter(combined.values(), dtype=float, count=len(combined))
    position = len(values) - 1 - size  # ascending index of the (k+1)-th largest
    offset = float(np.partition(values, position)[position])
    merged = {key: value - offset for key, value in combined.items() if value - offset > 0}
    return merged


# ---------------------------------------------------------------------------
# Key interning
# ---------------------------------------------------------------------------

#: Widest dense id space (``key - low``): the batch interner's dense-offset
#: bound and the widest :class:`FoldState` the streaming fold grows to.
_DENSE_SPAN_LIMIT = 1 << 23

#: The int64 key range; a dense id space never reaches beyond it.
_INT64_MIN = -(1 << 63)
_INT64_END = 1 << 63


def _concat_keys(counters_list: Sequence[Dict[Hashable, float]]) -> List[Hashable]:
    all_keys: List[Hashable] = []
    for counters in counters_list:
        all_keys.extend(counters.keys())
    return all_keys


def _as_int_key_array(all_keys: List[Hashable]) -> Optional[np.ndarray]:
    """``all_keys`` as an integer ndarray, or ``None`` when that is unsafe.

    Only plain-integer universes qualify: for any other inferred dtype NumPy
    would silently coerce (floats truncating, ints stringifying, ...) and
    conflate keys that dict semantics keep distinct.
    """
    if not all_keys:
        return np.empty(0, dtype=np.int64)
    try:
        array = np.asarray(all_keys)
    except (TypeError, ValueError, OverflowError):
        return None
    if array.ndim != 1 or array.dtype.kind not in "iu" or array.size != len(all_keys):
        return None
    return array


def _intern_generic(all_keys: List[Hashable]) -> Tuple[List[Hashable], np.ndarray]:
    """Intern arbitrary hashable keys with a dict (dict hashing semantics)."""
    index: Dict[Hashable, int] = {}
    keys: List[Hashable] = []
    ids = np.empty(len(all_keys), dtype=np.intp)
    for slot, key in enumerate(all_keys):
        key_id = index.setdefault(key, len(keys))
        if key_id == len(keys):
            keys.append(key)
        ids[slot] = key_id
    return keys, ids


def _counter_views(sketches: Sequence[SketchLike]) -> List[Mapping[Hashable, float]]:
    """Per-sketch counter mappings, without copying plain dicts."""
    views: List[Mapping[Hashable, float]] = []
    for sketch in sketches:
        if isinstance(sketch, FrequencySketch):
            views.append(sketch.counters())
        elif isinstance(sketch, Mapping):
            views.append(sketch)
        else:
            raise ParameterError(
                f"expected a FrequencySketch or mapping, got {type(sketch)!r}")
    return views


def _intern_ids(views: Sequence[Mapping[Hashable, float]]) -> Tuple[np.ndarray, int, Tuple]:
    """Map every key across all sketches to an integer id.

    Returns ``(flat_ids, domain, resolver)`` where ``flat_ids`` covers the
    concatenated sketches, ``domain`` is the id-space size and ``resolver``
    describes how to turn ids back into keys:

    * ``("dense", low)`` — integer keys in a bounded range; ``key = low + id``
      (no ``np.unique`` pass at all);
    * ``("unique", uniques)`` — integer keys in a wide range, interned through
      ``np.unique``;
    * ``("generic", keys)`` — arbitrary hashable keys interned with a dict.
    """
    all_keys = _concat_keys(views)
    array = _as_int_key_array(all_keys)
    if array is not None:
        return _intern_int_keys(array)
    keys, ids = _intern_generic(all_keys)
    return ids, len(keys), ("generic", keys)


def _intern_int_keys(flat_keys: np.ndarray) -> Tuple[np.ndarray, int, Tuple]:
    """Intern an integer key array: dense offset when bounded, else unique."""
    if flat_keys.size == 0:
        return np.empty(0, dtype=np.intp), 0, ("dense", 0)
    low = int(flat_keys.min())
    span = int(flat_keys.max()) - low + 1
    if span <= max(4 * flat_keys.size, 1 << 20) and span <= _DENSE_SPAN_LIMIT:
        return np.asarray(flat_keys - low, dtype=np.intp), span, ("dense", low)
    uniques, inverse = np.unique(flat_keys, return_inverse=True)
    return inverse.astype(np.intp, copy=False), len(uniques), ("unique", uniques)


def _resolve_keys(active: np.ndarray, resolver: Tuple) -> List[Hashable]:
    """Turn surviving integer ids back into dict keys."""
    kind = resolver[0]
    if kind == "dense":
        low = resolver[1]
        return [low + key_id for key_id in active.tolist()]
    if kind == "unique":
        return resolver[1][active].tolist()
    keys = resolver[1]
    return [keys[key_id] for key_id in active.tolist()]


def _raise_negative(views: Sequence[Mapping[Hashable, float]]) -> None:
    """Locate the first negative counter and raise like the seed fold."""
    for view in views:
        for key, value in view.items():
            if value < 0:
                raise SketchStateError(f"negative counter for {key!r} cannot be merged")
    raise SketchStateError("negative counter cannot be merged")


# ---------------------------------------------------------------------------
# Vectorized many-way merge
# ---------------------------------------------------------------------------

def _raise_negative_key(keys: np.ndarray, values: np.ndarray) -> None:
    """Raise like the seed fold on the first negative counter of a sketch."""
    offender = int(keys[int(np.flatnonzero(values < 0.0)[0])])
    raise SketchStateError(f"negative counter for {offender!r} cannot be merged")


class FoldState:
    """The Agarwal left fold over integer-keyed sketches, one step at a time.

    ``acc`` is a dense float array over the id space ``key - low``, with the
    invariant ``acc[id] > 0 iff id is live`` (zeroed when a counter dies);
    ``active`` holds the live ids in the seed dict's *insertion order*
    (survivors keep their relative position, new keys append in sketch
    order).  Every per-key float operation matches the seed dict fold, so
    the resulting dict is exactly the seed's — same iteration order, same
    float bits.

    The wrinkles are the seed's first step, which passes the first sketch
    through verbatim (reducing it only when over-sized):

    * its zero-valued counters stay live until the second step's ``> 0``
      filter drops them, keeping their dict position if that step refills
      them — those ids sit in ``active`` with ``acc == 0`` and are listed in
      ``zero_live`` so the second step does not take them for fresh keys;
    * its negative counters are let through and raise at the second step.

    :meth:`step` folds one sketch.  After the first step it runs the
    compiled ``fold_step`` kernel when one resolves (bound once to this
    state's buffers); the numpy step below is the no-compiler path and the
    route for NaN counters.  Both are bit-identical.
    """

    def __init__(self, size: int, domain: Optional[int] = None) -> None:
        self.size = size
        #: Whether the next step is the fold's first.
        self.first = True
        #: Smallest key of the id space; ``acc`` is ``None`` until the first
        #: non-empty sketch places it.  The batch fold passes ``domain``
        #: instead: its keys are interned ids in ``[0, domain)`` and its
        #: caller has refused negative counters, so neither is checked again.
        self.low = 0
        self.acc: Optional[np.ndarray] = (
            None if domain is None else np.zeros(domain, dtype=np.float64))
        self._interned = domain is not None
        self._first_negative = False
        # [live count, count of first-sketch zero counters still live]
        self._state = np.zeros(2, dtype=np.int64)
        self._zero_live = np.empty(0, dtype=np.int64)
        # ``active`` and the kernel's scratch share one capacity, at least
        # the live count plus the frame length.
        self._capacity = 0
        self._active = np.empty(0, dtype=np.int64)
        self._scratch_ids = np.empty(0, dtype=np.int64)
        self._scratch_vals = np.empty(0, dtype=np.float64)
        self._binder = _kernels.get_kernel("fold_step")
        self._kernel = None

    @property
    def active(self) -> np.ndarray:
        """Live ids in the seed dict's insertion order (a view)."""
        return self._active[:int(self._state[0])]

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The folded summary as fresh (keys, values) arrays, in dict order."""
        if self.acc is None:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        active = self.active
        return active + self.low, self.acc[active]

    def step(self, keys: np.ndarray, values: np.ndarray,
             frame: Optional[Tuple[bytes, int]] = None) -> bool:
        """Fold one sketch: unique int64 ``keys`` and float64 ``values``.

        Returns ``False``, with the state untouched, when the id space
        cannot grow to cover ``keys`` within ``_DENSE_SPAN_LIMIT``.  Raises
        :class:`~repro.exceptions.SketchStateError` on a negative counter
        wherever the seed fold would.  ``frame`` is ``(body, at)`` when the
        arrays are the columns of the bytes ``body`` from byte ``at`` on
        (a decoded binary frame): the compiled step then reads the body.
        """
        n = keys.shape[0]
        if self.acc is None and n == 0:
            # No id space yet: an empty sketch only uses up the first step.
            self.first = False
            return True
        if (self._binder is None or self.first or self._first_negative
                or self.acc is None):
            if n and not self._interned and not self._grow(keys):
                return False
            self._reserve(n)
            self._numpy_step(keys, values)
            return True
        self._reserve(n)
        status = self._kernel_step(keys, values, frame)
        if status == FOLD_RANGE:
            if not self._grow(keys):
                return False
            status = self._kernel_step(keys, values, frame)
        if status == FOLD_NEGATIVE:
            _raise_negative_key(keys, values)
        if status == FOLD_NAN:
            self._numpy_step(keys, values)
        return True

    def _kernel_step(self, keys, values, frame) -> int:
        """One compiled step; ``frame`` goes along only when there is one,
        so array input keeps the binder's three-argument call."""
        bound = self._bound()
        if frame is None:
            return bound(keys, values, self.low)
        return bound(keys, values, self.low, frame)

    # -- buffers ------------------------------------------------------------

    def _bound(self):
        """The kernel bound to the current buffers (rebound after a change)."""
        if self._kernel is None:
            self._kernel = self._binder(
                self.size, self.acc, self._active, self._scratch_ids,
                self._scratch_vals, self._zero_live, self._state)
        return self._kernel

    def _reserve(self, length: int) -> None:
        """Make room for the live ids plus a ``length``-key sketch."""
        needed = int(self._state[0]) + length
        if needed <= self._capacity:
            return
        capacity = max(needed, 2 * self._capacity)
        active = np.empty(capacity, dtype=np.int64)
        active[:self._state[0]] = self.active
        self._active = active
        self._scratch_ids = np.empty(capacity, dtype=np.int64)
        self._scratch_vals = np.empty(capacity, dtype=np.float64)
        self._capacity = capacity
        self._kernel = None

    def _grow(self, keys: np.ndarray) -> bool:
        """Extend the id space to cover ``keys`` (ids shift with ``low``)."""
        low = int(keys.min())
        high = int(keys.max()) + 1
        if self.acc is None:
            if high - low > _DENSE_SPAN_LIMIT:
                return False
            self.low = low
            self.acc = np.zeros(high - low, dtype=np.float64)
            self._kernel = None
            return True
        old_low, old_high = self.low, self.low + self.acc.size
        new_low, new_high = min(low, old_low), max(high, old_high)
        if new_high - new_low > _DENSE_SPAN_LIMIT:
            return False
        if new_low == old_low and new_high == old_high:
            return True
        # Grow geometrically (at least double the span, capped at the dense
        # limit and the int64 key range) with the headroom on the side(s)
        # that forced the growth, so a stream of monotonically expanding key
        # ranges reallocates O(log) times instead of copying on every frame.
        needed = new_high - new_low
        slack = min(_DENSE_SPAN_LIMIT, max(needed, 2 * self.acc.size)) - needed
        if slack:
            down, up = new_low < old_low, new_high > old_high
            low_slack = slack // 2 if (down and up) else (slack if down else 0)
            new_low = max(new_low - low_slack, _INT64_MIN)
            new_high = min(new_high + slack - low_slack, _INT64_END)
        grown = np.zeros(new_high - new_low, dtype=np.float64)
        offset = old_low - new_low
        grown[offset:offset + self.acc.size] = self.acc
        if offset:
            self._active[:self._state[0]] += offset
            self._zero_live += offset
        self.low = new_low
        self.acc = grown
        self._kernel = None
        return True

    def _set_active(self, ids: np.ndarray) -> None:
        self._active[:ids.size] = ids
        self._state[0] = ids.size
        self._state[1] = 0

    # -- the numpy step -----------------------------------------------------

    def _numpy_step(self, keys: np.ndarray, values: np.ndarray) -> None:
        """One fold step in numpy; ``keys`` are covered and room reserved."""
        size = self.size
        acc = self.acc
        ids = keys - self.low if self.low else keys
        if self.first:
            self.first = False
            length = ids.size
            if length == 0:
                return
            self._first_negative = (not self._interned
                                    and bool((values < 0.0).any()))
            if length > size:
                # The seed reduces an over-sized single input through a
                # merge with nothing, which validates it immediately.
                if self._first_negative:
                    _raise_negative_key(keys, values)
                scratch = values.copy()
                scratch.partition(length - 1 - size)
                shifted = values - scratch[length - 1 - size]
                keep = shifted > 0.0
                acc[ids] = np.where(keep, shifted, 0.0)
                self._set_active(ids[keep])
                return
            acc[ids] = values
            self._set_active(ids)
            zeros = values == 0.0
            if zeros.any():
                self._zero_live = ids[zeros].astype(np.int64, copy=False)
                self._state[1] = self._zero_live.size
                self._kernel = None
            return
        active = self.active
        if self._first_negative:
            # The seed's second fold step revisits the first sketch's
            # counters and raises on the negative it let through.
            bad = int(np.flatnonzero(acc[active] < 0.0)[0])
            raise SketchStateError(
                f"negative counter for {int(active[bad]) + self.low!r} "
                "cannot be merged")
        n_zero = int(self._state[1])
        if ids.size == 0:
            # The seed's merge with an empty summary still drops any
            # zero-valued counters carried over from the first sketch.
            if n_zero:
                self._set_active(active[acc[active] > 0.0])
            return
        if not self._interned and bool((values < 0.0).any()):
            _raise_negative_key(keys, values)
        before = acc[ids]
        if n_zero:
            fresh = ids[(before == 0.0)
                        & ~np.isin(ids, self._zero_live[:n_zero])]
        else:
            fresh = ids[before == 0.0]
        # Keys are unique within one sketch, so a fancy-indexed add matches
        # the seed's per-key ``combined.get(key, 0.0) + value``.
        acc[ids] = before + values
        combined = np.concatenate((active, fresh)) if fresh.size else active
        count = combined.size
        if count > size:
            # Subtract the (k+1)-th largest combined counter, drop <= 0.
            current = acc[combined]
            scratch = current.copy()
            scratch.partition(count - 1 - size)
            shifted = current - scratch[count - 1 - size]
            keep = shifted > 0.0
            acc[combined] = np.where(keep, shifted, 0.0)
            combined = combined[keep]
        elif n_zero or not bool(values.min() > 0.0):
            # Zero-valued (or non-finite) counters are dropped and zeroed so
            # the ``acc == 0`` membership invariant holds.  Strictly positive
            # inputs cannot create zero-valued counters.
            current = acc[combined]
            keep = current > 0.0
            acc[combined] = np.where(keep, current, 0.0)
            combined = combined[keep]
        self._set_active(combined)


def _fold_interned(flat_ids: np.ndarray, flat_values: np.ndarray,
                   lengths: Sequence[int], domain: int,
                   size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Left fold of the Agarwal merge over interned (id, value) sketches.

    Dispatches to the compiled ``fold_interned`` kernel
    (:mod:`repro.kernels`) when one is available — the kernel loops the
    same step body as the compiled ``fold_step``, bit-identical to
    :class:`FoldState` — and otherwise (or for NaN-valued counters, where
    the kernel's quickselect would disagree with ``np.partition``'s NaN
    ordering) runs the steps of :class:`FoldState`.
    """
    if domain and flat_ids.size:
        kernel = _kernels.get_kernel("fold_interned")
        if kernel is not None and not np.isnan(flat_values).any():
            return _fold_interned_kernel(
                kernel, flat_ids, flat_values, lengths, domain, size)
    return _fold_interned_python(flat_ids, flat_values, lengths, domain, size)


def _fold_interned_kernel(kernel, flat_ids: np.ndarray, flat_values: np.ndarray,
                          lengths: Sequence[int], domain: int,
                          size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Run the compiled fold kernel; allocates its fixed-size work buffers."""
    lengths_array = np.ascontiguousarray(np.asarray(lengths, dtype=np.int64))
    ids = np.ascontiguousarray(flat_ids, dtype=np.int64)
    values = np.ascontiguousarray(flat_values, dtype=np.float64)
    acc = np.zeros(domain, dtype=np.float64)
    # The live set never exceeds ``size`` counters; scratch holds one step's
    # combined (live + fresh) ids, bounded by ``size + max(lengths)``.
    active = np.empty(size + 1, dtype=np.int64)
    scratch_cap = size + int(lengths_array.max()) + 1
    scratch_ids = np.empty(scratch_cap, dtype=np.int64)
    scratch_values = np.empty(scratch_cap, dtype=np.float64)
    zero_live = np.empty(size + 1, dtype=np.int64)
    count = kernel(ids, values, lengths_array, size, acc, active,
                   scratch_ids, scratch_values, zero_live)
    return active[:count], acc


def _fold_interned_python(flat_ids: np.ndarray, flat_values: np.ndarray,
                          lengths: Sequence[int], domain: int,
                          size: int) -> Tuple[np.ndarray, np.ndarray]:
    """The left fold as a loop of :class:`FoldState` steps.

    A compiled step hands any frame with a NaN in it (or in the live
    counters) back to the numpy step.  Returns ``(active_ids, acc)``.
    """
    state = FoldState(size, domain=domain)
    start = 0
    for length in lengths:
        end = start + length
        state.step(flat_ids[start:end], flat_values[start:end])
        start = end
    return state.active, state.acc


def merge_many(sketches: Sequence[SketchLike], k: int) -> Dict[Hashable, float]:
    """Fold :func:`merge_misra_gries` over a sequence of sketches, vectorized.

    The error guarantee holds for any merge order; the fold matches the
    ordering used in the paper's experiments and keeps memory at ``O(k)``
    live counters (plus the interning table).  The result is equal to the
    seed dict-based left fold preserved in
    :func:`repro.sketches._reference_merge.reference_merge_many` — the per-key
    float operations are performed in the same order, so the values agree
    exactly, not just approximately.

    Sketches that already live in columnar form (key and value arrays, e.g.
    deserialized straight off the aggregator's wire protocol) should go
    through :func:`merge_many_arrays`, which skips the per-object dict
    traversal entirely.
    """
    size = check_positive_int(k, "k")
    if not sketches:
        return {}
    if len(sketches) == 1:
        result = _as_counters(sketches[0])
        if len(result) > size:
            # A single over-sized input is reduced through a merge with nothing.
            return merge_misra_gries(result, {}, size)
        return result
    views = _counter_views(sketches)
    lengths = [len(view) for view in views]
    total = sum(lengths)
    flat_ids, domain, resolver = _intern_ids(views)
    flat_values = np.fromiter(
        itertools.chain.from_iterable(view.values() for view in views),
        dtype=np.float64, count=total)
    if bool((flat_values < 0.0).any()):
        _raise_negative(views)
    active, acc = _fold_interned(flat_ids, flat_values, lengths, domain, size)
    return dict(zip(_resolve_keys(active, resolver), acc[active].tolist()))


def merge_many_arrays(keys_list: Sequence[np.ndarray],
                      values_list: Sequence[np.ndarray],
                      k: int) -> Dict[int, float]:
    """Columnar :func:`merge_many`: sketches as parallel (keys, values) arrays.

    This is the aggregator's wire path for the distributed setting of
    Section 7: ``m`` users each ship a size-``k`` sketch as an integer key
    array plus a float counter array (the natural serialization of
    ``counters()``), and the merge runs entirely on NumPy arrays — no per-key
    Python object traversal at all, which is where the dict path spends about
    half its time.  The result is exactly the left fold the seed computes on
    the corresponding dicts, i.e. ``merge_many([dict(zip(ks, vs)), ...], k)``,
    and is property-tested against the frozen seed reference.

    Keys must be unique within each sketch (``counters()`` guarantees this).
    Negative values raise :class:`~repro.exceptions.SketchStateError` exactly
    where :func:`merge_many` would: multi-sketch inputs are checked, while a
    single sketch is passed through unvalidated like the seed fold does.
    """
    size = check_positive_int(k, "k")
    if len(keys_list) != len(values_list):
        raise ParameterError(
            f"got {len(keys_list)} key arrays but {len(values_list)} value arrays")
    if not keys_list:
        return {}
    key_arrays: List[np.ndarray] = []
    value_arrays: List[np.ndarray] = []
    for keys, values in zip(keys_list, values_list):
        key_array = np.asarray(keys)
        value_array = np.asarray(values, dtype=np.float64)
        if key_array.ndim != 1 or value_array.ndim != 1:
            raise ParameterError("sketch key/value arrays must be one-dimensional")
        if key_array.size != value_array.size:
            raise ParameterError(
                f"sketch has {key_array.size} keys but {value_array.size} values")
        if key_array.size and key_array.dtype.kind not in "iu":
            raise ParameterError(
                f"sketch keys must be integers, got dtype {key_array.dtype}")
        key_arrays.append(key_array)
        value_arrays.append(value_array)
    if len(key_arrays) == 1:
        result = dict(zip(key_arrays[0].tolist(), value_arrays[0].tolist()))
        if len(result) > size:
            return merge_misra_gries(result, {}, size)
        return result
    lengths = [array.size for array in key_arrays]
    # Empty arrays are excluded from the concatenation: their (arbitrary)
    # dtype must not participate in promotion.  The zero entries stay in
    # ``lengths`` so the fold still sees those sketches as no-op steps.
    non_empty = [array for array in key_arrays if array.size]
    if not non_empty:
        return {}
    flat_keys = np.concatenate(non_empty)
    if flat_keys.dtype.kind not in "iu":
        # Mixed signed/unsigned inputs promote to float64, which would
        # corrupt keys beyond 2**53; take the exact dict route instead.
        return merge_many(
            [dict(zip(keys.tolist(), values.tolist()))
             for keys, values in zip(key_arrays, value_arrays)], size)
    flat_values = np.concatenate([array for array in value_arrays if array.size])
    if bool((flat_values < 0.0).any()):
        _raise_negative_key(flat_keys, flat_values)
    flat_ids, domain, resolver = _intern_int_keys(flat_keys)
    active, acc = _fold_interned(flat_ids, flat_values, lengths, domain, size)
    return dict(zip(_resolve_keys(active, resolver), acc[active].tolist()))


def merge_tree(sketches: Sequence[SketchLike], k: int) -> Dict[Hashable, float]:
    """Merge as a balanced pairwise tree instead of a left fold.

    Lemma 29 holds for *any* merge order, so the tree result carries the same
    ``N/(k+1)`` guarantee as :func:`merge_many` (the values themselves differ
    from the left fold in general).  Trees are preferable for very large
    ``m``: every intermediate holds at most ``2k`` counters, rounds are
    embarrassingly parallel, and each element participates in only
    ``O(log m)`` reductions.
    """
    size = check_positive_int(k, "k")
    if not sketches:
        return {}
    level: List[Dict[Hashable, float]] = [_as_counters(sketch) for sketch in sketches]
    while len(level) > 1:
        next_level: List[Dict[Hashable, float]] = []
        for index in range(0, len(level) - 1, 2):
            next_level.append(merge_many([level[index], level[index + 1]], size))
        if len(level) % 2:
            next_level.append(level[-1])
        level = next_level
    result = level[0]
    if len(result) > size:
        result = merge_misra_gries(result, {}, size)
    return result


def merge_tree_arrays(keys_list: Sequence[np.ndarray],
                      values_list: Sequence[np.ndarray],
                      k: int) -> Dict[int, float]:
    """Columnar :func:`merge_tree`: sketches as parallel (keys, values) arrays.

    The zero-copy sharded fit path hands the parent process one
    ``(keys, values)`` array pair per shard, viewed directly over shared
    memory; this entry point runs the first (widest) tree round on those
    views through :func:`merge_many_arrays` — no per-key dict is ever built
    from the raw shard exports — and finishes the remaining rounds on the
    ``<= k``-counter intermediates.  The result equals
    ``merge_tree([dict(zip(ks, vs)), ...], k)`` exactly, dict order included.
    """
    size = check_positive_int(k, "k")
    if len(keys_list) != len(values_list):
        raise ParameterError(
            f"got {len(keys_list)} key arrays but {len(values_list)} value arrays")
    if not keys_list:
        return {}
    next_level: List[Dict[Hashable, float]] = []
    for index in range(0, len(keys_list) - 1, 2):
        next_level.append(merge_many_arrays(
            [keys_list[index], keys_list[index + 1]],
            [values_list[index], values_list[index + 1]], size))
    if len(keys_list) % 2:
        carry = np.asarray(keys_list[-1])
        next_level.append(dict(zip(carry.tolist(),
                                   np.asarray(values_list[-1],
                                              dtype=np.float64).tolist())))
    return merge_tree(next_level, size)


def sum_counters(sketches: Iterable[SketchLike]) -> Dict[Hashable, float]:
    """Plain counter-wise sum of several summaries (no size reduction).

    Used by the trusted-aggregator merging path of Section 7 where the
    aggregator may keep more than ``k`` counters.  Integer key universes are
    aggregated with ``np.unique`` + ``np.bincount`` in one pass; other key
    types fall back to a single C-level :class:`collections.Counter` pass
    (no per-key ``dict.get`` in Python).  Both paths add each key's values in
    first-appearance order and build the result dict in first-appearance key
    order, exactly like the seed loop preserved in
    :func:`repro.sketches._reference_merge.reference_sum_counters` — this
    matters downstream, where the trusted-sum release pairs sequential noise
    draws with the aggregate's iteration order.
    """
    counters_list = [_as_counters(sketch) for sketch in sketches]
    if not counters_list:
        return {}
    all_keys = _concat_keys(counters_list)
    array = _as_int_key_array(all_keys)
    if array is not None:
        if array.size == 0:
            return {}
        uniques, first_seen, inverse = np.unique(
            array, return_index=True, return_inverse=True)
        values = np.concatenate(
            [np.fromiter(counters.values(), dtype=np.float64, count=len(counters))
             for counters in counters_list])
        # np.bincount adds weights in input order, matching the seed's
        # left-to-right accumulation per key.
        sums = np.bincount(inverse, weights=values, minlength=len(uniques))
        order = np.argsort(first_seen, kind="stable")
        return dict(zip(uniques[order].tolist(), sums[order].tolist()))
    total: Counter = Counter()
    for counters in counters_list:
        total.update(counters)
    return dict(total)
