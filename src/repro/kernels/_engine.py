"""Kernel implementations in plain python (the executable specification).

Every kernel in this module is written in a restricted "array style" that
maps one to one onto C: ndarray parameters, scalar locals, explicit loops,
no dicts/strings/exceptions.  The module serves two roles:

* imported normally it runs as plain Python — the *executable spec* the
  property tests exercise even when no compiler is present;
* :mod:`repro.kernels._c_provider` mirrors the same algorithms in C
  (:mod:`repro.kernels._c_src`); this module is the reference the C code is
  property-tested against.

Bit-identity
------------
The kernels must produce *exactly* the state the pure-python engines produce
(same keys, same float bits, same dict insertion order).  That is feasible
because every float operation here is a plain add/subtract/compare performed
in the same order as the python engine (the C build uses no fast-math
flags, so the compiler may not reassociate), and every tie-break is a total
order on the data itself (never on hash-iteration order):

* ``mg_update`` replays Branches 1-3 of Algorithm 1 element by element;
  ``update_batch`` is already property-tested bit-identical to the
  sequential engine, so matching the sequential engine matches both.
* ``fold_step`` mirrors one step of :class:`repro.sketches.merge.FoldState`
  per-id, and ``fold_interned`` is a loop over the same step body: ids are
  unique within one sketch, so the vectorized fancy-indexed adds decompose
  into the independent scalar adds performed here, and the (k+1)-th-largest
  selection is an order statistic — any correct selection algorithm returns
  the same value as ``np.partition``.
* ``scan_binary_header`` parses only the canonical header grammar emitted
  by ``json.dumps(..., sort_keys=True)``; anything unexpected returns the
  FALLBACK status and the caller re-parses with ``json.loads``, so error
  behaviour is byte-for-byte the python path's.
"""

from __future__ import annotations

import numpy as np

# Status codes shared by all kernels (and the C mirror).
MG_OK = 0
MG_CORRUPT = 1
SCAN_OK = 0
SCAN_FALLBACK = 1

# ``fold_step`` statuses, in precedence order.  Every status but FOLD_OK
# leaves the state untouched: FOLD_RANGE means a key lies outside
# ``[low, low + domain)``, FOLD_NEGATIVE a negative counter in the frame,
# FOLD_NAN a NaN in the frame or the live counters (the quickselect assumes
# a total order).
FOLD_OK = 0
FOLD_RANGE = 1
FOLD_NEGATIVE = 2
FOLD_NAN = 3

# ``scan_binary_header`` output slots (int64[16]).
SCAN_HAS_FORMAT = 0
SCAN_FORMAT = 1
SCAN_KIND_START = 2
SCAN_KIND_LEN = 3
SCAN_HAS_K = 4
SCAN_K = 5
SCAN_HAS_COUNT = 6
SCAN_COUNT = 7
SCAN_HAS_META = 8
SCAN_HAS_STREAM_LENGTH = 9
SCAN_STREAM_LENGTH = 10
SCAN_HAS_DECREMENT_ROUNDS = 11
SCAN_DECREMENT_ROUNDS = 12
SCAN_SKETCH_START = 13
SCAN_SKETCH_LEN = 14
SCAN_OUT_SLOTS = 16


def _pow2_at_least(n):
    cap = 16
    while cap < n:
        cap <<= 1
    return cap


def _hash_int(key, mask):
    # Mixed in int64-safe pieces: every product stays below 2**62, so the
    # arithmetic is identical under python bigints and C int64.
    lo = key & 0x3FFFFFFF
    mid = (key >> 30) & 0x3FFFFFFF
    hi = (key >> 60) & 0xF
    x = lo * 0x61C88647 + mid * 0x3243F6A9 + hi * 0x9E3779B9
    x ^= x >> 31
    x = (x & 0x3FFFFFFF) * 0x45D9F3B + (x >> 30)
    x ^= x >> 16
    return x & mask


def _map_find(tkey, tval, mask, key):
    """Index of ``key`` in an open-addressed map, or -1 (values >= 0 live,
    -1 empty, -2 tombstone)."""
    i = _hash_int(key, mask)
    while True:
        v = tval[i]
        if v == -1:
            return -1
        if v != -2 and tkey[i] == key:
            return i
        i = (i + 1) & mask


def _heap_le(rank_a, key_a, rank_b, key_b):
    """Eviction order: real keys before dummies, then smallest key/index."""
    if rank_a != rank_b:
        return rank_a < rank_b
    return key_a <= key_b


def _map_put(tkey, tval, mask, key, value):
    """Insert an *absent* key; returns 1 if an empty cell was consumed."""
    i = _hash_int(key, mask)
    while True:
        v = tval[i]
        if v == -1:
            tkey[i] = key
            tval[i] = value
            return 1
        if v == -2:
            tkey[i] = key
            tval[i] = value
            return 0
        i = (i + 1) & mask


def mg_update(keys, dummy, stored, ins_seq, io, chunk):
    """Branches 1-3 of Algorithm 1 over ``chunk``, on exported sketch state.

    State arrays (all ``int64[k]``, mutated in place):

    * ``keys``    — the stored key of each slot (a dummy's *index* when
      ``dummy[slot]`` is 1);
    * ``dummy``   — 1 for the paper's padding keys, 0 for real keys;
    * ``stored``  — stored (offset) counter values;
    * ``ins_seq`` — dict insertion order; evicting slots get fresh maximal
      sequence numbers so the importer can rebuild the exact dict order.

    ``io`` carries ``[base, decrement_rounds, next_seq]`` in and out.
    Returns ``MG_OK`` or ``MG_CORRUPT`` (zero-key heap exhausted).
    """
    k = keys.shape[0]
    base = io[0]
    rounds = io[1]
    next_seq = io[2]

    # Key -> slot open-addressed map (real keys only).
    kcap = _pow2_at_least(4 * k)
    kmask = kcap - 1
    kh_key = np.zeros(kcap, np.int64)
    kh_slot = np.full(kcap, -1, np.int64)
    kh_used = 0
    for slot in range(k):
        if dummy[slot] == 0:
            kh_used += _map_put(kh_key, kh_slot, kmask, keys[slot], slot)

    # Stored-value -> bucket map; buckets are intrusive doubly-linked slot
    # lists (bnext/bprev), mirroring the python engine's ``_buckets`` sets.
    vcap = _pow2_at_least(4 * k)
    vmask = vcap - 1
    vh_val = np.zeros(vcap, np.int64)
    vh_head = np.full(vcap, -1, np.int64)
    vh_used = 0
    bnext = np.full(k, -1, np.int64)
    bprev = np.full(k, -1, np.int64)
    for slot in range(k):
        value = stored[slot]
        vi = _map_find(vh_val, vh_head, vmask, value)
        if vi == -1:
            vh_used += _map_put(vh_val, vh_head, vmask, value, slot)
        else:
            head = vh_head[vi]
            bnext[slot] = head
            bprev[head] = slot
            vh_head[vi] = slot

    # Min-heap of zero-count eviction candidates ordered by
    # (dummy-last, smallest key/index first); entries invalidate lazily via
    # per-slot generation stamps, like the python engine's ``_zero_heap``.
    gen = np.zeros(k, np.int64)
    hcap = 4 * k + 64
    h_rank = np.zeros(hcap, np.int64)
    h_key = np.zeros(hcap, np.int64)
    h_slot = np.zeros(hcap, np.int64)
    h_gen = np.zeros(hcap, np.int64)
    h_len = 0

    # Seed the heap with the current zero set (the bucket at ``base``).
    vi = _map_find(vh_val, vh_head, vmask, base)
    if vi != -1:
        slot = vh_head[vi]
        while slot != -1:
            pos = h_len
            h_len += 1
            rank = dummy[slot]
            key = keys[slot]
            while pos > 0:
                parent = (pos - 1) >> 1
                if _heap_le(h_rank[parent], h_key[parent], rank, key):
                    break
                h_rank[pos] = h_rank[parent]
                h_key[pos] = h_key[parent]
                h_slot[pos] = h_slot[parent]
                h_gen[pos] = h_gen[parent]
                pos = parent
            h_rank[pos] = rank
            h_key[pos] = key
            h_slot[pos] = slot
            h_gen[pos] = gen[slot]
            slot = bnext[slot]

    n = chunk.shape[0]
    for index in range(n):
        element = chunk[index]

        # Rebuild a map once tombstones crowd it (amortized O(1) per update).
        if kh_used * 4 >= kcap * 3:
            for i in range(kcap):
                kh_slot[i] = -1
            kh_used = 0
            for slot in range(k):
                if dummy[slot] == 0:
                    kh_used += _map_put(kh_key, kh_slot, kmask, keys[slot], slot)
        if vh_used * 4 >= vcap * 3:
            for i in range(vcap):
                vh_head[i] = -1
            vh_used = 0
            for slot in range(k):
                bnext[slot] = -1
                bprev[slot] = -1
            for slot in range(k):
                value = stored[slot]
                vi = _map_find(vh_val, vh_head, vmask, value)
                if vi == -1:
                    vh_used += _map_put(vh_val, vh_head, vmask, value, slot)
                else:
                    head = vh_head[vi]
                    bnext[slot] = head
                    bprev[head] = slot
                    bprev[slot] = -1
                    vh_head[vi] = slot

        ki = _map_find(kh_key, kh_slot, kmask, element)
        if ki != -1:
            # Branch 1: increment the stored counter (move between buckets).
            slot = kh_slot[ki]
            value = stored[slot]
            prev = bprev[slot]
            nxt = bnext[slot]
            if prev == -1:
                vi = _map_find(vh_val, vh_head, vmask, value)
                if nxt == -1:
                    vh_head[vi] = -2
                else:
                    vh_head[vi] = nxt
                    bprev[nxt] = -1
            else:
                bnext[prev] = nxt
                if nxt != -1:
                    bprev[nxt] = prev
            value += 1
            stored[slot] = value
            vi = _map_find(vh_val, vh_head, vmask, value)
            if vi == -1:
                vh_used += _map_put(vh_val, vh_head, vmask, value, slot)
                bnext[slot] = -1
                bprev[slot] = -1
            else:
                head = vh_head[vi]
                bnext[slot] = head
                bprev[head] = slot
                bprev[slot] = -1
                vh_head[vi] = slot
            continue

        zi = _map_find(vh_val, vh_head, vmask, base)
        if zi == -1:
            # Branch 2: no zero-count key; decrement all counters lazily and
            # drop the element.  Keys that just reached zero join the heap.
            rounds += 1
            base += 1
            vi = _map_find(vh_val, vh_head, vmask, base)
            if vi != -1:
                slot = vh_head[vi]
                while slot != -1:
                    if h_len == hcap:
                        # Compact: rebuild from the (complete) zero bucket
                        # and stop pushing — the rebuild covers every slot
                        # this loop had left to visit.
                        h_len = 0
                        zslot = vh_head[vi]
                        while zslot != -1:
                            pos = h_len
                            h_len += 1
                            rank = dummy[zslot]
                            key = keys[zslot]
                            while pos > 0:
                                parent = (pos - 1) >> 1
                                if _heap_le(h_rank[parent], h_key[parent], rank, key):
                                    break
                                h_rank[pos] = h_rank[parent]
                                h_key[pos] = h_key[parent]
                                h_slot[pos] = h_slot[parent]
                                h_gen[pos] = h_gen[parent]
                                pos = parent
                            h_rank[pos] = rank
                            h_key[pos] = key
                            h_slot[pos] = zslot
                            h_gen[pos] = gen[zslot]
                            zslot = bnext[zslot]
                        break
                    pos = h_len
                    h_len += 1
                    rank = dummy[slot]
                    key = keys[slot]
                    while pos > 0:
                        parent = (pos - 1) >> 1
                        if _heap_le(h_rank[parent], h_key[parent], rank, key):
                            break
                        h_rank[pos] = h_rank[parent]
                        h_key[pos] = h_key[parent]
                        h_slot[pos] = h_slot[parent]
                        h_gen[pos] = h_gen[parent]
                        pos = parent
                    h_rank[pos] = rank
                    h_key[pos] = key
                    h_slot[pos] = slot
                    h_gen[pos] = gen[slot]
                    slot = bnext[slot]
            continue

        # Branch 3: evict the smallest zero-count key (dummies last), then
        # store the new element with counter base + 1.
        victim = -1
        while h_len > 0:
            top_slot = h_slot[0]
            top_gen = h_gen[0]
            # Pop the heap root.
            h_len -= 1
            last = h_len
            if last > 0:
                rank = h_rank[last]
                key = h_key[last]
                slot2 = h_slot[last]
                gen2 = h_gen[last]
                pos = 0
                while True:
                    child = 2 * pos + 1
                    if child >= last:
                        break
                    right = child + 1
                    if right < last and not _heap_le(
                            h_rank[child], h_key[child], h_rank[right], h_key[right]):
                        child = right
                    if _heap_le(rank, key, h_rank[child], h_key[child]):
                        break
                    h_rank[pos] = h_rank[child]
                    h_key[pos] = h_key[child]
                    h_slot[pos] = h_slot[child]
                    h_gen[pos] = h_gen[child]
                    pos = child
                h_rank[pos] = rank
                h_key[pos] = key
                h_slot[pos] = slot2
                h_gen[pos] = gen2
            # A heap entry is live iff the slot still holds the same key
            # (generation stamp) and that key still counts zero.
            if gen[top_slot] == top_gen and stored[top_slot] == base:
                victim = top_slot
                break
        if victim == -1:
            io[0] = base
            io[1] = rounds
            io[2] = next_seq
            return MG_CORRUPT

        # Unlink the victim from the zero bucket.
        prev = bprev[victim]
        nxt = bnext[victim]
        if prev == -1:
            if nxt == -1:
                vh_head[zi] = -2
            else:
                vh_head[zi] = nxt
                bprev[nxt] = -1
        else:
            bnext[prev] = nxt
            if nxt != -1:
                bprev[nxt] = prev
        if dummy[victim] == 0:
            kd = _map_find(kh_key, kh_slot, kmask, keys[victim])
            kh_slot[kd] = -2
        keys[victim] = element
        dummy[victim] = 0
        gen[victim] += 1
        ins_seq[victim] = next_seq
        next_seq += 1
        value = base + 1
        stored[victim] = value
        kh_used += _map_put(kh_key, kh_slot, kmask, element, victim)
        vi = _map_find(vh_val, vh_head, vmask, value)
        if vi == -1:
            vh_used += _map_put(vh_val, vh_head, vmask, value, victim)
            bnext[victim] = -1
            bprev[victim] = -1
        else:
            head = vh_head[vi]
            bnext[victim] = head
            bprev[head] = victim
            bprev[victim] = -1
            vh_head[vi] = victim

    io[0] = base
    io[1] = rounds
    io[2] = next_seq
    return MG_OK


def _select_kth(buf, n, pos):
    """The ``pos``-th smallest of ``buf[:n]`` (the same order statistic
    ``np.partition`` selects); scrambles ``buf``.  No NaNs (callers filter)."""
    lo = 0
    hi = n - 1
    while lo < hi:
        mid = (lo + hi) >> 1
        # Median-of-three pivot.
        a = buf[lo]
        b = buf[mid]
        c = buf[hi]
        if a > b:
            t = a
            a = b
            b = t
        if b > c:
            b = c
        if a > b:
            b = a
        pivot = b
        # Three-way partition around the pivot value.
        i = lo
        lt = lo
        gt = hi
        while i <= gt:
            v = buf[i]
            if v < pivot:
                buf[i] = buf[lt]
                buf[lt] = v
                lt += 1
                i += 1
            elif v > pivot:
                buf[i] = buf[gt]
                buf[gt] = v
                gt -= 1
                # Do not advance i: the swapped-in element is unexamined.
            else:
                i += 1
        if pos < lt:
            hi = lt - 1
        elif pos > gt:
            lo = gt + 1
        else:
            return pivot
    return buf[lo]


def _fold_step_body(keys, values, low, size, acc, active, n_active,
                    scratch_ids, scratch_vals, zero_live, n_zero):
    """One Agarwal fold step after the first; returns the new live count.

    Folds the sketch ``(keys, values)`` (``id = key - low``) into the live
    ids ``active[:n_active]``.  ``zero_live[:n_zero]`` are the first
    sketch's zero-valued counters, still live at the second step.  Callers
    guarantee every id lies in ``acc``, no NaNs and no negative values, and
    ``scratch_ids``/``scratch_vals``/``active`` hold ``n_active + len(keys)``.
    """
    length = keys.shape[0]
    if length == 0:
        # A merge with an empty summary still drops the first sketch's
        # zero-valued counters.
        if n_zero > 0:
            w = 0
            for j in range(n_active):
                if acc[active[j]] > 0.0:
                    active[w] = active[j]
                    w += 1
            n_active = w
        return n_active
    # Ids are unique within one sketch, so the vectorized gather-add
    # decomposes into these independent per-id scalar adds.
    n_comb = n_active
    for j in range(n_active):
        scratch_ids[j] = active[j]
    all_positive = True
    for j in range(length):
        idv = keys[j] - low
        value = values[j]
        if not (value > 0.0):
            all_positive = False
        before = acc[idv]
        fresh = before == 0.0
        if fresh and n_zero > 0:
            for t in range(n_zero):
                if zero_live[t] == idv:
                    fresh = False
                    break
        acc[idv] = before + value
        if fresh:
            scratch_ids[n_comb] = idv
            n_comb += 1
    if n_comb > size:
        # Subtract the (k+1)-th largest combined counter, drop <= 0.
        pos = n_comb - 1 - size
        for j in range(n_comb):
            scratch_vals[j] = acc[scratch_ids[j]]
        offset = _select_kth(scratch_vals, n_comb, pos)
        w = 0
        for j in range(n_comb):
            idv = scratch_ids[j]
            shifted = acc[idv] - offset
            if shifted > 0.0:
                acc[idv] = shifted
                active[w] = idv
                w += 1
            else:
                acc[idv] = 0.0
        return w
    if n_zero == 0 and all_positive:
        # Strictly positive inputs cannot create zero counters.
        for j in range(n_comb):
            active[j] = scratch_ids[j]
        return n_comb
    w = 0
    for j in range(n_comb):
        idv = scratch_ids[j]
        if acc[idv] > 0.0:
            active[w] = idv
            w += 1
        else:
            acc[idv] = 0.0
    return w


def fold_step(keys, values, low, size, acc, active, scratch_ids,
              scratch_vals, zero_live, state):
    """One fold step of :class:`repro.sketches.merge.FoldState` after the first.

    ``state`` is ``int64[2]``: the live count and the count of zero-valued
    first-sketch counters still live.  The whole frame (and the live
    counters) is scanned before anything is written, and any status but
    FOLD_OK returns with the state untouched, in this precedence: FOLD_RANGE
    when a key lies outside ``[low, low + len(acc))``, FOLD_NEGATIVE when a
    value is negative, FOLD_NAN when a value or a live counter is NaN.
    """
    length = keys.shape[0]
    # The id space never ends past the int64 range, so ``last`` is exact.
    last = low + (acc.shape[0] - 1)
    nan = False
    negative = False
    for j in range(length):
        key = keys[j]
        if key < low or key > last:
            return FOLD_RANGE
        value = values[j]
        if value < 0.0:
            negative = True
        elif value != value:
            nan = True
    if negative:
        return FOLD_NEGATIVE
    n_active = state[0]
    for j in range(n_active):
        live = acc[active[j]]
        if live != live:
            nan = True
    if nan:
        return FOLD_NAN
    state[0] = _fold_step_body(keys, values, low, size, acc, active, n_active,
                               scratch_ids, scratch_vals, zero_live, state[1])
    state[1] = 0
    return FOLD_OK


def bind_fold_step(step):
    """The ``fold_step`` table entry for an array-signature ``step``.

    A provider's ``fold_step`` entry binds one state's buffers once:
    ``bind(size, acc, active, scratch_ids, scratch_vals, zero_live, state)``
    returns ``bound(keys, values, low[, frame]) -> status``, which the state
    calls per frame.  ``frame`` is ``(body, at)`` when ``keys``/``values``
    are the columns of the bytes ``body`` from byte ``at`` on: the C provider
    reads the body directly (its buffer addresses are resolved at bind
    time); this adapter serves the python spec, which reads the arrays.
    """
    def bind(size, acc, active, scratch_ids, scratch_vals, zero_live, state):
        def bound(keys, values, low, frame=None):
            return step(keys, values, low, size, acc, active, scratch_ids,
                        scratch_vals, zero_live, state)
        return bound
    return bind


def fold_interned(flat_ids, flat_values, lengths, size, acc, active,
                  scratch_ids, scratch_vals, zero_live):
    """Scalar replica of :func:`repro.sketches.merge._fold_interned`.

    ``acc`` (``float64[domain]``, zeroed), ``active`` (``int64[>=size]``),
    ``scratch_ids``/``scratch_vals`` (``>= size + max(lengths)``) and
    ``zero_live`` (``>= size``) are caller-allocated.  Returns the number of
    live ids written to ``active`` (in the seed dict's insertion order).
    Callers must route NaN values to the python path: the quickselect's
    comparisons assume a total order.
    """
    n_active = 0
    n_zero = 0
    first = True
    start = 0
    for step in range(lengths.shape[0]):
        length = lengths[step]
        end = start + length
        ids = flat_ids[start:end]
        values = flat_values[start:end]
        start = end
        if not first:
            n_active = _fold_step_body(ids, values, 0, size, acc, active,
                                       n_active, scratch_ids, scratch_vals,
                                       zero_live, n_zero)
            n_zero = 0
            continue
        first = False
        if length == 0:
            continue
        if length > size:
            # Over-sized first sketch: reduce through a merge with {}.
            pos = length - 1 - size
            for j in range(length):
                scratch_vals[j] = values[j]
            offset = _select_kth(scratch_vals, length, pos)
            n_active = 0
            for j in range(length):
                shifted = values[j] - offset
                if shifted > 0.0:
                    acc[ids[j]] = shifted
                    active[n_active] = ids[j]
                    n_active += 1
                else:
                    acc[ids[j]] = 0.0
        else:
            # Passed through verbatim; zero-valued counters stay live
            # until the second step drops (or refills) them.
            for j in range(length):
                idv = ids[j]
                acc[idv] = values[j]
                active[j] = idv
                if values[j] == 0.0:
                    zero_live[n_zero] = idv
                    n_zero += 1
            n_active = length
    return n_active


# ---------------------------------------------------------------------------
# Binary frame header scanner
# ---------------------------------------------------------------------------
#
# The canonical header is ``json.dumps(header, sort_keys=True)`` of a flat
# object with keys drawn from (count, format, k, key_encoding, kind, meta),
# where meta is itself flat with keys from (decrement_rounds, sketch,
# stream_length).  The scanner accepts exactly that grammar — ASCII strings
# without escapes, int64-range integers, nulls, canonical key order — and
# reports SCAN_FALLBACK for anything else, handing the frame back to the
# ``json.loads`` path so non-canonical and malformed frames keep byte-exact
# python error behaviour.

def _scan_ws(buf, pos, end):
    while pos < end:
        c = buf[pos]
        if c != 32 and c != 9 and c != 10 and c != 13:
            break
        pos += 1
    return pos


def _scan_int(buf, pos, end):
    """Parse a JSON integer; returns (newpos, value, status)."""
    neg = False
    if pos < end and buf[pos] == 45:  # '-'
        neg = True
        pos += 1
    first = pos
    value = 0
    while pos < end:
        c = buf[pos]
        if c < 48 or c > 57:
            break
        # Widen before arithmetic: ``c`` is a uint8 scalar under numpy, and
        # uint8 would silently infect ``value`` and wrap mod 256.
        digit = np.int64(c) - 48
        if value > 922337203685477580 or (value == 922337203685477580 and digit > 7):
            return pos, 0, SCAN_FALLBACK  # beyond int64: python handles it
        value = value * 10 + digit
        pos += 1
    if pos == first:
        return pos, 0, SCAN_FALLBACK
    if buf[first] == 48 and pos - first > 1:
        return pos, 0, SCAN_FALLBACK  # leading zeros are invalid JSON
    if pos < end:
        c = buf[pos]
        if c == 46 or c == 101 or c == 69:  # '.', 'e', 'E': a float
            return pos, 0, SCAN_FALLBACK
    if neg:
        value = -value
    return pos, value, SCAN_OK


def _scan_string(buf, pos, end):
    """Parse a plain ASCII JSON string; returns (newpos, start, length, status)."""
    if pos >= end or buf[pos] != 34:  # '"'
        return pos, 0, 0, SCAN_FALLBACK
    pos += 1
    begin = pos
    while pos < end:
        c = buf[pos]
        if c == 34:
            return pos + 1, begin, pos - begin, SCAN_OK
        if c == 92 or c < 32 or c > 126:  # escapes / control / non-ASCII
            return pos, 0, 0, SCAN_FALLBACK
        pos += 1
    return pos, 0, 0, SCAN_FALLBACK


# Exact byte matchers for the canonical vocabulary.  Written as explicit
# indexed comparisons (not arrays/strings) so they translate 1:1 to the C
# mirror.

def _is_count(buf, s, n):  # "count"
    return (n == 5 and buf[s] == 99 and buf[s + 1] == 111 and buf[s + 2] == 117
            and buf[s + 3] == 110 and buf[s + 4] == 116)


def _is_format(buf, s, n):  # "format"
    return (n == 6 and buf[s] == 102 and buf[s + 1] == 111 and buf[s + 2] == 114
            and buf[s + 3] == 109 and buf[s + 4] == 97 and buf[s + 5] == 116)


def _is_k(buf, s, n):  # "k"
    return n == 1 and buf[s] == 107


def _is_key_encoding(buf, s, n):  # "key_encoding"
    return (n == 12 and buf[s] == 107 and buf[s + 1] == 101 and buf[s + 2] == 121
            and buf[s + 3] == 95 and buf[s + 4] == 101 and buf[s + 5] == 110
            and buf[s + 6] == 99 and buf[s + 7] == 111 and buf[s + 8] == 100
            and buf[s + 9] == 105 and buf[s + 10] == 110 and buf[s + 11] == 103)


def _is_kind(buf, s, n):  # "kind"
    return (n == 4 and buf[s] == 107 and buf[s + 1] == 105 and buf[s + 2] == 110
            and buf[s + 3] == 100)


def _is_meta(buf, s, n):  # "meta"
    return (n == 4 and buf[s] == 109 and buf[s + 1] == 101 and buf[s + 2] == 116
            and buf[s + 3] == 97)


def _is_null_at(buf, pos, end):  # "null"
    return (pos + 4 <= end and buf[pos] == 110 and buf[pos + 1] == 117
            and buf[pos + 2] == 108 and buf[pos + 3] == 108)


def _is_decrement_rounds(buf, s, n):  # "decrement_rounds"
    return (n == 16 and buf[s] == 100 and buf[s + 1] == 101 and buf[s + 2] == 99
            and buf[s + 3] == 114 and buf[s + 4] == 101 and buf[s + 5] == 109
            and buf[s + 6] == 101 and buf[s + 7] == 110 and buf[s + 8] == 116
            and buf[s + 9] == 95 and buf[s + 10] == 114 and buf[s + 11] == 111
            and buf[s + 12] == 117 and buf[s + 13] == 110 and buf[s + 14] == 100
            and buf[s + 15] == 115)


def _is_sketch(buf, s, n):  # "sketch"
    return (n == 6 and buf[s] == 115 and buf[s + 1] == 107 and buf[s + 2] == 101
            and buf[s + 3] == 116 and buf[s + 4] == 99 and buf[s + 5] == 104)


def _is_stream_length(buf, s, n):  # "stream_length"
    return (n == 13 and buf[s] == 115 and buf[s + 1] == 116 and buf[s + 2] == 114
            and buf[s + 3] == 101 and buf[s + 4] == 97 and buf[s + 5] == 109
            and buf[s + 6] == 95 and buf[s + 7] == 108 and buf[s + 8] == 101
            and buf[s + 9] == 110 and buf[s + 10] == 103 and buf[s + 11] == 116
            and buf[s + 12] == 104)


def scan_binary_header(buf, out):
    """Scan a canonical binary-frame header into ``out`` (int64[16]).

    Returns SCAN_OK with the slots documented at the top of this module
    filled in, or SCAN_FALLBACK when the header deviates from the canonical
    grammar in any way.  The provider's table entry takes the frame body
    and the header's place in it instead, ``scan_binary_header(body, start,
    length)``, and returns the slots as a list (``None`` for fallback).
    """
    for i in range(SCAN_OUT_SLOTS):
        out[i] = 0
    out[SCAN_KIND_LEN] = -1
    out[SCAN_SKETCH_LEN] = -1
    end = buf.shape[0]

    pos = _scan_ws(buf, 0, end)
    if pos >= end or buf[pos] != 123:  # '{'
        return SCAN_FALLBACK
    pos = _scan_ws(buf, pos + 1, end)
    if pos < end and buf[pos] == 125:  # empty object
        pos = _scan_ws(buf, pos + 1, end)
        if pos != end:
            return SCAN_FALLBACK
        return SCAN_OK
    # Canonical key order makes "seen" tracking a simple monotone index:
    # count(0) < format(1) < k(2) < key_encoding(3) < kind(4) < meta(5).
    last_key = -1
    while True:
        pos, kstart, klen, status = _scan_string(buf, pos, end)
        if status != SCAN_OK:
            return SCAN_FALLBACK
        pos = _scan_ws(buf, pos, end)
        if pos >= end or buf[pos] != 58:  # ':'
            return SCAN_FALLBACK
        pos = _scan_ws(buf, pos + 1, end)
        if pos >= end:
            return SCAN_FALLBACK
        if _is_count(buf, kstart, klen):
            if last_key >= 0:
                return SCAN_FALLBACK
            last_key = 0
            pos, value, status = _scan_int(buf, pos, end)
            if status != SCAN_OK:
                return SCAN_FALLBACK
            out[SCAN_HAS_COUNT] = 1
            out[SCAN_COUNT] = value
        elif _is_format(buf, kstart, klen):
            if last_key >= 1:
                return SCAN_FALLBACK
            last_key = 1
            if buf[pos] == 110:  # null -> header.get("format") is None
                if not _is_null_at(buf, pos, end):
                    return SCAN_FALLBACK
                pos += 4
            else:
                pos, value, status = _scan_int(buf, pos, end)
                if status != SCAN_OK:
                    return SCAN_FALLBACK
                out[SCAN_HAS_FORMAT] = 1
                out[SCAN_FORMAT] = value
        elif _is_k(buf, kstart, klen):
            if last_key >= 2:
                return SCAN_FALLBACK
            last_key = 2
            if buf[pos] == 110:
                if not _is_null_at(buf, pos, end):
                    return SCAN_FALLBACK
                pos += 4
            else:
                pos, value, status = _scan_int(buf, pos, end)
                if status != SCAN_OK:
                    return SCAN_FALLBACK
                out[SCAN_HAS_K] = 1
                out[SCAN_K] = value
        elif _is_key_encoding(buf, kstart, klen):
            if last_key >= 3:
                return SCAN_FALLBACK
            last_key = 3
            pos, _, _, status = _scan_string(buf, pos, end)
            if status != SCAN_OK:  # the python decoder ignores the value
                return SCAN_FALLBACK
        elif _is_kind(buf, kstart, klen):
            if last_key >= 4:
                return SCAN_FALLBACK
            last_key = 4
            pos, vstart, vlen, status = _scan_string(buf, pos, end)
            if status != SCAN_OK:
                return SCAN_FALLBACK
            out[SCAN_KIND_START] = vstart
            out[SCAN_KIND_LEN] = vlen
        elif _is_meta(buf, kstart, klen):
            if last_key >= 5:
                return SCAN_FALLBACK
            last_key = 5
            if pos >= end or buf[pos] != 123:
                return SCAN_FALLBACK
            pos = _scan_ws(buf, pos + 1, end)
            out[SCAN_HAS_META] = 1
            if pos < end and buf[pos] == 125:
                pos += 1
            else:
                meta_last = -1
                while True:
                    pos, mstart, mlen, status = _scan_string(buf, pos, end)
                    if status != SCAN_OK:
                        return SCAN_FALLBACK
                    pos = _scan_ws(buf, pos, end)
                    if pos >= end or buf[pos] != 58:
                        return SCAN_FALLBACK
                    pos = _scan_ws(buf, pos + 1, end)
                    if pos >= end:
                        return SCAN_FALLBACK
                    if _is_decrement_rounds(buf, mstart, mlen):
                        if meta_last >= 0:
                            return SCAN_FALLBACK
                        meta_last = 0
                        pos, value, status = _scan_int(buf, pos, end)
                        if status != SCAN_OK:
                            return SCAN_FALLBACK
                        out[SCAN_HAS_DECREMENT_ROUNDS] = 1
                        out[SCAN_DECREMENT_ROUNDS] = value
                    elif _is_sketch(buf, mstart, mlen):
                        if meta_last >= 1:
                            return SCAN_FALLBACK
                        meta_last = 1
                        pos, vstart, vlen, status = _scan_string(buf, pos, end)
                        if status != SCAN_OK:
                            return SCAN_FALLBACK
                        out[SCAN_SKETCH_START] = vstart
                        out[SCAN_SKETCH_LEN] = vlen
                    elif _is_stream_length(buf, mstart, mlen):
                        if meta_last >= 2:
                            return SCAN_FALLBACK
                        meta_last = 2
                        pos, value, status = _scan_int(buf, pos, end)
                        if status != SCAN_OK:
                            return SCAN_FALLBACK
                        out[SCAN_HAS_STREAM_LENGTH] = 1
                        out[SCAN_STREAM_LENGTH] = value
                    else:
                        return SCAN_FALLBACK
                    pos = _scan_ws(buf, pos, end)
                    if pos < end and buf[pos] == 44:  # ','
                        pos = _scan_ws(buf, pos + 1, end)
                        continue
                    if pos < end and buf[pos] == 125:  # '}'
                        pos += 1
                        break
                    return SCAN_FALLBACK
        else:
            return SCAN_FALLBACK
        pos = _scan_ws(buf, pos, end)
        if pos < end and buf[pos] == 44:
            pos = _scan_ws(buf, pos + 1, end)
            continue
        if pos < end and buf[pos] == 125:
            pos = _scan_ws(buf, pos + 1, end)
            break
        return SCAN_FALLBACK
    if pos != end:
        return SCAN_FALLBACK
    return SCAN_OK
