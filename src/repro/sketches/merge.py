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
(``m`` users each ship a size-``k`` sketch).  It runs the sketches through
:class:`FoldState`, the one fold engine: keys map to integer ids through
one first-seen key table (compiled for int64 keys), the counters live in
one dense float array, and each fold step is a handful of NumPy bulk
operations (fancy-indexed add, ``np.partition`` for the (k+1)-th
largest, one mask) or one call into the compiled fold kernel.  The result
is equal — same key set, same order, exactly equal float values — to the
seed dict-based left fold, which is preserved verbatim in
:mod:`repro.sketches._reference_merge` and property-tested against this
implementation in ``tests/property/test_merge_equivalence.py``.  The
batch merge folds its sketches as one :meth:`FoldState.run`; the served
:class:`~repro.api.framing.StreamingMerger` one :meth:`FoldState.step`
per frame.  A sketch that lists a key twice is malformed and refused
(code ``repeated_key``).

For very large ``m``, :func:`merge_tree` performs the same reduction as a
balanced pairwise tree (any merge order keeps the Lemma 29 guarantee); tree
rounds are embarrassingly parallel and keep every intermediate at ``<= 2k``
counters.
"""

from __future__ import annotations

import itertools
import secrets
from collections import Counter
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .. import kernels as _kernels
from ..kernels._c_src import FOLD_OK, FOLD_TABLE_FACTOR as _TABLE_FACTOR
from .._validation import check_positive_int
from ..exceptions import ParameterError, SketchStateError
from .base import FrequencySketch

CounterMapping = Mapping[Hashable, float]
#: A sketch as parallel integer-key and float-value arrays.
ColumnPair = Tuple[np.ndarray, np.ndarray]
SketchLike = Union[CounterMapping, FrequencySketch, ColumnPair]


def _pair_columns(pair: ColumnPair) -> Tuple[np.ndarray, np.ndarray]:
    """The checked key and float64 value arrays of a ``(keys, values)`` pair."""
    if len(pair) != 2:
        raise ParameterError(
            f"a sketch pair holds (keys, values), got {len(pair)} items")
    keys, values = pair
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
    return key_array, value_array


def _repeated_key(keys: Iterable[Hashable]) -> SketchStateError:
    """The error for a sketch that lists a key twice (code ``repeated_key``),
    naming the first repeat.  An engine export never repeats a key, so
    only malformed outside input does."""
    seen = set()
    for key in keys:
        if key in seen:
            break
        seen.add(key)
    error = SketchStateError(f"key {key!r} appears twice in one sketch")
    error.code = "repeated_key"
    return error


def _as_counters(sketch: SketchLike) -> Dict[Hashable, float]:
    """Normalize a sketch object, mapping or column pair to a counter dict."""
    if isinstance(sketch, FrequencySketch):
        return sketch.counters()
    if isinstance(sketch, Mapping):
        return {key: float(value) for key, value in sketch.items()}
    if isinstance(sketch, tuple):
        keys, values = _pair_columns(sketch)
        key_list = keys.tolist()
        counters = dict(zip(key_list, values.tolist()))
        if len(counters) != len(key_list):
            raise _repeated_key(key_list)
        return counters
    raise ParameterError("expected a FrequencySketch, mapping or (keys, values) "
                         f"pair, got {type(sketch)!r}")


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


def _first_step(counters: Dict[Hashable, float], size: int) -> Dict[Hashable, float]:
    """The seed fold's first step on a counter dict: ``counters`` as they
    are, unless over-sized, which a merge with nothing reduces (and checks)."""
    return merge_misra_gries(counters, {}, size) if len(counters) > size else counters


# ---------------------------------------------------------------------------
# Key columns
# ---------------------------------------------------------------------------

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


def _key_column(keys) -> Union[np.ndarray, List[Hashable]]:
    """``keys`` as an int64 array when every key is a plain int in the int64
    range, else as a list of the keys themselves."""
    if isinstance(keys, np.ndarray):
        array = keys
    else:
        keys = keys if isinstance(keys, list) else list(keys)
        array = _as_int_key_array(keys)
        if array is None:
            return keys
    if array.dtype.kind == "i" or (array.dtype.kind == "u" and (
            not array.size or int(array.max()) < 1 << 63)):
        return array.astype(np.int64, copy=False)
    return array.tolist()


def _columns(sketches: Sequence[SketchLike]):
    """Every sketch's keys and float64 values laid end to end, and each
    sketch's length.

    Integer key arrays concatenate as they are; empty ones stay out of the
    dtype promotion (their zero lengths still count as steps).  Signed and
    unsigned arrays together would promote to float64, which corrupts keys
    past 2**53, and any mapping among the sketches makes a key list: the
    keys then go as exact python objects.
    """
    key_parts: List = []
    value_parts: List[np.ndarray] = []
    lengths: List[int] = []
    for sketch in sketches:
        if isinstance(sketch, tuple):
            keys, values = _pair_columns(sketch)
        else:
            if isinstance(sketch, FrequencySketch):
                sketch = sketch.counters()
            elif not isinstance(sketch, Mapping):
                raise ParameterError(
                    "expected a FrequencySketch, mapping or (keys, values) "
                    f"pair, got {type(sketch)!r}")
            keys = sketch.keys()
            values = np.fromiter(sketch.values(), dtype=np.float64,
                                 count=len(sketch))
        lengths.append(values.size)
        if values.size:
            key_parts.append(keys)
            value_parts.append(values)
    if not value_parts:
        return np.empty(0, dtype=np.int64), np.empty(0), lengths
    values = np.concatenate(value_parts)
    if all(isinstance(part, np.ndarray) for part in key_parts):
        flat_keys = np.concatenate(key_parts)
        if flat_keys.dtype.kind in "iu":
            return flat_keys, values, lengths
    flat_keys = []
    for part in key_parts:
        flat_keys.extend(part.tolist() if isinstance(part, np.ndarray) else part)
    return flat_keys, values, lengths


# ---------------------------------------------------------------------------
# The fold
# ---------------------------------------------------------------------------

class FoldState:
    """The Agarwal left fold, one step at a time, over its own key ids.

    Keys map to ids through one first-seen key table: the compiled
    ``fold_step``'s own while every key is an int64 and the kernel
    resolves, else a dict (``1``, ``1.0`` and ``True`` are one key).  Both
    give every key the same id.  Before every step, a table of more than
    ``_TABLE_FACTOR * size`` keys is compacted: the live keys take ids
    ``0..n-1`` in active order, the dead ones leave the table.

    ``acc`` is a dense float array over the ids, with the invariant
    ``acc[id] > 0 iff id is live`` (zeroed when a counter dies);
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

    Later steps run in the compiled ``fold_step`` while its table serves,
    else in the bit-identical numpy step.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        #: Whether the next step is the fold's first.
        self.first = True
        #: Empty until the first non-empty sketch starts the key table.
        self.acc = np.zeros(0)
        # The dict table (``None`` under the kernel's): key -> id, id -> key.
        self._index: Optional[Dict[Hashable, int]] = None
        self._dict_keys: List[Hashable] = []
        # The kernel's table: the key of every id, and its probe slots.
        self._table = np.empty(0, dtype=np.int64)
        self._slots = np.empty(0, dtype=np.int32)
        self._first_negative = False
        # [live count, count of first-sketch zero counters still live,
        #  table ids, steps the kernel's last run applied]
        self._state = np.zeros(4, dtype=np.int64)
        self._zero_live = np.empty(0, dtype=np.int64)
        # ``active`` and the kernel's scratch hold the live ids and a
        # sketch's; a step's ids are as long as the table.
        self._active = np.empty(0, dtype=np.int64)
        self._scratch_ids = np.empty(0, dtype=np.int64)
        self._scratch_vals = np.empty(0, dtype=np.float64)
        self._ids = np.empty(0, dtype=np.int64)
        self._binder = _kernels.get_kernel("fold_step")
        self._kernel = None
        # The kernel table's own hash multiplier: no client can pick colliding keys.
        self._multiplier = secrets.randbits(64) | 1

    @property
    def active(self) -> np.ndarray:
        """Live ids in the seed dict's insertion order (a view)."""
        return self._active[:int(self._state[0])]

    @property
    def _id_keys(self) -> Union[np.ndarray, List[Hashable]]:
        """The key of every table id, in id order."""
        return (self._table[:int(self._state[2])] if self._index is None
                else self._dict_keys)

    def arrays(self) -> Tuple[Union[np.ndarray, List[Hashable]], np.ndarray]:
        """The folded summary as fresh (keys, values), in dict order; the
        keys are an int64 array under the kernel's table, else a list."""
        active = self.active
        return self._keys_of(active), self.acc[active]

    def counters(self) -> Dict[Hashable, float]:
        """The folded summary as the seed fold's dict."""
        active = self.active
        return dict(zip(_as_list(self._keys_of(active)),
                        self.acc[active].tolist()))

    def step(self, keys, values: np.ndarray,
             frame: Optional[Tuple[bytes, int]] = None) -> None:
        """Fold one sketch: unique ``keys`` (an int array, or any hashables)
        and float64 ``values``.

        Raises :class:`~repro.exceptions.SketchStateError` on a negative
        counter wherever the seed fold would, and on a repeated key (code
        ``repeated_key``) with the summary untouched.  ``frame`` is ``(body, at)``
        when the arrays are the columns of the bytes ``body`` from byte
        ``at`` on (a decoded binary frame): the compiled step then reads
        the body.
        """
        keys = _key_column(keys)
        n = len(keys)
        if not (self.acc.size or n):
            # No key table yet: an empty sketch only uses up the first step.
            self.first = False
            return
        self._prepare(keys, n)
        if self._index is not None or self.first or self._first_negative:
            self._numpy_step(self._intern(keys), values)
        elif self._bound()(keys, values, frame) != FOLD_OK:
            # Refused: the numpy step raises the same error or folds NaNs.
            self._numpy_step(self._ids[:n], values)

    def run(self, keys, values: np.ndarray, lengths: Sequence[int]) -> None:
        """:meth:`step` on each sketch laid end to end in ``keys``/``values``
        (sketch ``i`` is the next ``lengths[i]`` entries), the compiled steps
        in one kernel call, which compacts the key table before a step as
        :meth:`step` does.  It stops at a sketch it refuses, which is
        folded on its own before the run resumes.
        """
        keys = _key_column(keys)
        lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        spans = lengths.tolist()
        ends = list(itertools.accumulate(spans))
        longest = max(spans, default=0)
        done = 0
        while done < len(ends):
            start = ends[done - 1] if done else 0
            self._prepare(keys[start:ends[done]], longest)
            if self._index is not None or self.first or self._first_negative:
                ids = self._intern(keys[start:ends[done]])
            else:
                status, applied = self._bound().run(
                    keys[start:], values[start:], lengths[done:])
                done += applied
                if status == FOLD_OK:
                    break
                start = ends[done - 1] if done else 0
                ids = self._ids[:ends[done] - start]  # the refused step's
            self._numpy_step(ids, values[start:ends[done]])
            done += 1

    # -- buffers ------------------------------------------------------------

    def _bound(self):
        """The kernel bound to the current buffers (rebound after a change)."""
        if self._kernel is None:
            self._kernel = self._binder(
                self.size, self.acc, self._active, self._scratch_ids,
                self._scratch_vals, self._zero_live, self._state,
                self._table, self._slots, self._ids, self._multiplier)
        return self._kernel

    def _prepare(self, keys: Union[np.ndarray, List[Hashable]],
                 longest: int) -> None:
        """Start, switch (to a dict, for keys not int64) or compact the key
        table for ``keys``, with room for sketches of ``longest`` keys."""
        if not self.acc.size:
            if self._binder is None or not isinstance(keys, np.ndarray):
                self._index = {}
        elif self._index is None and not isinstance(keys, np.ndarray):
            # Every id keeps its key: the dict takes over the table.
            self._dict_keys = self._id_keys.tolist()
            self._index = dict(zip(self._dict_keys, itertools.count()))
        if self._index is not None and self._state[2] > _TABLE_FACTOR * self.size:
            self._relabel()  # the kernel compacts its table before a step
        # Room up to the next compaction and a sketch past it: a served
        # table is sized once.
        room = _TABLE_FACTOR * self.size + max(longest, self.size)
        if room > self.acc.size:
            self._size_table(max(room, 2 * self.acc.size))
        # No step leaves more than ``size`` ids live.
        needed = self.size + longest
        if needed > self._active.size:
            capacity = max(needed, 2 * self._active.size)
            active = np.empty(capacity, dtype=np.int64)
            active[:self._state[0]] = self.active
            self._active = active
            self._scratch_ids = np.empty(capacity, dtype=np.int64)
            self._scratch_vals = np.empty(capacity)
            self._kernel = None

    def _size_table(self, size: int) -> None:
        """Room for ``size`` table ids in ``acc`` and the kernel's table,
        whose slots (half full at most: short probes) are rebuilt."""
        acc = np.zeros(size)
        acc[:self.acc.size] = self.acc
        self.acc = acc
        self._kernel = None
        if self._index is None:
            keys = self._id_keys
            self._table = np.empty(size, dtype=np.int64)
            self._ids = np.empty(size, dtype=np.int64)
            self._slots = np.zeros(1 << (2 * size - 1).bit_length(),
                                   dtype=np.int32)
            # Interned again into the empty slots, the keys keep their ids.
            self._state[2] = 0
            self._bound().intern(keys)

    def _set_active(self, ids: np.ndarray) -> None:
        self._active[:ids.size] = ids
        self._state[0] = ids.size
        self._state[1] = 0

    # -- the key table ------------------------------------------------------

    def _keys_of(self, ids: np.ndarray) -> Union[np.ndarray, List[Hashable]]:
        """The keys of ``ids``: an int64 array, or a list under the dict."""
        if self._index is None:
            return self._table[ids]
        dict_keys = self._dict_keys
        return [dict_keys[key_id] for key_id in ids.tolist()]

    def _intern(self, keys: Union[np.ndarray, List[Hashable]]) -> np.ndarray:
        """The ids of ``keys``, which new keys join the table with."""
        if self._index is None:
            return self._bound().intern(keys)
        setdefault, add_key = self._index.setdefault, self._dict_keys.append
        count = int(self._state[2])
        ids = []
        for key in _as_list(keys):
            key_id = setdefault(key, count)
            if key_id == count:
                add_key(key)
                count += 1
            ids.append(key_id)
        self._state[2] = count
        return np.array(ids, dtype=np.int64)

    def _relabel(self) -> None:
        """Compact the dict table to the live keys, with ids ``0..n-1`` in
        active order, as the kernel compacts its own.  No zero counter of
        the first sketch is live: it left too few ids."""
        active = self.active
        count = active.size
        live = self._keys_of(active)
        values = self.acc[active]
        self.acc[active] = 0.0  # dead ids are zero already
        self.acc[:count] = values
        self._active[:count] = np.arange(count)
        self._dict_keys = live
        self._index = {key: key_id for key_id, key in enumerate(live)}
        self._state[2] = count

    # -- the numpy step -----------------------------------------------------

    def _negative(self, ids: np.ndarray, values: np.ndarray) -> SketchStateError:
        """The seed fold's error for the first negative of ``values``, the
        counters of ``ids``."""
        bad = int(np.flatnonzero(values < 0.0)[0])
        key = _as_list(self._keys_of(ids[bad:bad + 1]))[0]
        return SketchStateError(f"negative counter for {key!r} cannot be merged")

    def _refuse_repeats(self, ids: np.ndarray) -> None:
        """Raise when ``ids`` lists an id twice."""
        ordered = np.sort(ids)
        if (ordered[1:] == ordered[:-1]).any():
            raise _repeated_key(_as_list(self._keys_of(ids)))

    def _numpy_step(self, ids: np.ndarray, values: np.ndarray) -> None:
        """One fold step in numpy; ``ids`` are covered and room reserved."""
        size = self.size
        acc = self.acc
        if self.first:
            length = ids.size
            self._refuse_repeats(ids)
            self.first = False
            if length == 0:
                return
            self._first_negative = bool((values < 0.0).any())
            if length > size:
                # The seed reduces an over-sized single input through a
                # merge with nothing, which validates it immediately.
                if self._first_negative:
                    raise self._negative(ids, values)
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
            raise self._negative(active, acc[active])
        n_zero = int(self._state[1])
        if ids.size == 0:
            # The seed's merge with an empty summary still drops any
            # zero-valued counters carried over from the first sketch.
            if n_zero:
                self._set_active(active[acc[active] > 0.0])
            return
        if bool((values < 0.0).any()):
            raise self._negative(ids, values)
        self._refuse_repeats(ids)
        before = acc[ids]
        if n_zero:
            fresh = ids[(before == 0.0)
                        & ~np.isin(ids, self._zero_live[:n_zero])]
        else:
            fresh = ids[before == 0.0]
        # Keys are unique within one sketch (checked above), so a
        # fancy-indexed add matches the seed's per-key
        # ``combined.get(key, 0.0) + value``.
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


def _as_list(keys: Union[np.ndarray, List[Hashable]]) -> List[Hashable]:
    """Keys as python objects (an int64 array's as python ints)."""
    return keys if isinstance(keys, list) else keys.tolist()


def merge_many(sketches: Sequence[SketchLike], k: int) -> Dict[Hashable, float]:
    """Fold :func:`merge_misra_gries` over a sequence of sketches, vectorized.

    Each sketch is a :class:`~repro.sketches.base.FrequencySketch`, a
    counter mapping, or a ``(keys, values)`` array pair with integer keys
    (e.g. decoded straight off the aggregator's wire protocol).  Integer
    key arrays concatenate with no per-key Python, which is where a fold
    over dicts spends about half its time.

    The error guarantee holds for any merge order; the fold matches the
    ordering used in the paper's experiments and keeps memory at ``O(k)``
    live counters (plus the key table).  The result is equal to the
    seed dict-based left fold preserved in
    :func:`repro.sketches._reference_merge.reference_merge_many` on the
    corresponding dicts — the per-key float operations are performed in the
    same order, so the values agree exactly, not just approximately.

    Negative values raise :class:`~repro.exceptions.SketchStateError`
    exactly where the seed fold would: multi-sketch inputs are checked,
    while a single sketch is passed through unvalidated.  A pair that lists
    a key twice raises it with ``code == "repeated_key"``.
    """
    size = check_positive_int(k, "k")
    if not sketches:
        return {}
    if len(sketches) == 1:
        return _first_step(_as_counters(sketches[0]), size)
    keys, values, lengths = _columns(sketches)
    state = FoldState(size)
    state.run(keys, values, lengths)
    return state.counters()


def merge_tree(sketches: Sequence[SketchLike], k: int) -> Dict[Hashable, float]:
    """Merge as a balanced pairwise tree instead of a left fold.

    Takes the same sketches as :func:`merge_many`.  Lemma 29 holds for
    *any* merge order, so the tree result carries the same ``N/(k+1)``
    guarantee as :func:`merge_many` (the values themselves differ from the
    left fold in general).  Trees are preferable for very large
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
    return _first_step(level[0], size)


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
    array = _as_int_key_array(list(itertools.chain.from_iterable(counters_list)))
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
