"""The compiled kernels' C source, embedded as text, and the kernel ABI.

:mod:`repro.kernels._c_provider` compiles this translation unit once with the
system C compiler (``cc -O2 -fPIC -shared``) into a cached shared object and
loads it through :mod:`ctypes`.  The ABI — every status code — is defined
here once, as python ints; the C ``#define`` block is rendered from them,
and the python callers import them from this module.

Bit-identity
------------
Each kernel must produce *exactly* the state its python engine produces
(same keys, same float bits, same dict insertion order), and
``tests/property/test_kernel_parity.py`` compares the two directly.  That is
feasible because every float operation is a plain add, subtract or compare
performed in the engine's order, and every tie-break is a total order on the
data itself, never on hash-iteration order:

* ``-ffast-math`` is never passed.  Under the default strict floating-point
  semantics the compiler may not reassociate, so the doubles hit the same
  bits as numpy's adds and subtracts.
* ``repro_mg_update`` replays Branches 1-3 of Algorithm 1 element by
  element, evicting real keys before dummies and then the smallest key or
  index; ``update_batch`` is property-tested equal to the sequential engine,
  so matching one matches both.
* ``repro_fold_step`` folds a run of sketches, each one step of
  :class:`repro.sketches.merge.FoldState` per id (the served per-frame step
  is a run of one).  Ids are unique within one sketch, so numpy's
  fancy-indexed adds decompose into the independent scalar adds done here.
  The (k+1)-th-largest threshold is an order statistic: any correct
  selection returns the value ``np.partition`` returns on the same
  multiset, so the quickselect matches it.  NaNs have no total order, so
  they return ``FOLD_NAN`` and numpy folds that sketch.  A sketch that
  repeats an id is malformed and returns ``FOLD_REPEAT``: the step marks
  each id it adds to by flipping the sign of its (non-negative) counter
  and clears the marks as it settles the combined counters, so a mark
  seen again is a repeat, found with no extra pass over a clean sketch
  when the step reduces (sign flips and ``fabs`` are exact).

Keep ``SOURCE_VERSION`` in sync with behavioural changes: the provider keys
its build cache on a hash of the source text, so editing the C automatically
invalidates stale binaries.
"""

SOURCE_VERSION = 7

# ``repro_mg_update`` statuses.
MG_OK = 0
MG_CORRUPT = 1
MG_NOMEM = 2

# ``repro_fold_step`` statuses per step of a run, in precedence order.
# Every status but FOLD_OK stops the run and leaves that step's state
# untouched: FOLD_RANGE means a key lies outside ``[low, low + domain)``,
# FOLD_NEGATIVE a negative counter in the sketch, FOLD_REPEAT a key the
# sketch lists twice, FOLD_NAN a NaN in the sketch or the live counters
# (the quickselect assumes a total order).
FOLD_OK = 0
FOLD_RANGE = 1
FOLD_NEGATIVE = 2
FOLD_NAN = 3
FOLD_REPEAT = 4

# The C side of the ABI: one ``#define`` per int above, in that order.
_ABI_DEFINES = "".join(
    f"#define {name} {value}\n" for name, value in globals().items()
    if name.startswith(("MG_", "FOLD_")))

C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

""" + _ABI_DEFINES + r"""
/* ------------------------------------------------------------------ */
/* Shared open-addressed int64 -> int64 map (-1 empty, -2 tombstone). */
/* ------------------------------------------------------------------ */

static int64_t pow2_at_least(int64_t n) {
    int64_t cap = 16;
    while (cap < n) cap <<= 1;
    return cap;
}

static int64_t hash_int(int64_t key, int64_t mask) {
    /* Mixed in int64-safe pieces: every product stays below 2**62. */
    int64_t lo = key & 0x3FFFFFFFLL;
    int64_t mid = (key >> 30) & 0x3FFFFFFFLL;
    int64_t hi = (key >> 60) & 0xFLL;
    int64_t x = lo * 0x61C88647LL + mid * 0x3243F6A9LL + hi * 0x9E3779B9LL;
    x ^= x >> 31;
    x = (x & 0x3FFFFFFFLL) * 0x45D9F3BLL + (x >> 30);
    x ^= x >> 16;
    return x & mask;
}

static int64_t map_find(const int64_t *tkey, const int64_t *tval,
                        int64_t mask, int64_t key) {
    int64_t i = hash_int(key, mask);
    for (;;) {
        int64_t v = tval[i];
        if (v == -1) return -1;
        if (v != -2 && tkey[i] == key) return i;
        i = (i + 1) & mask;
    }
}

static int64_t map_put(int64_t *tkey, int64_t *tval, int64_t mask,
                       int64_t key, int64_t value) {
    int64_t i = hash_int(key, mask);
    for (;;) {
        int64_t v = tval[i];
        if (v == -1) { tkey[i] = key; tval[i] = value; return 1; }
        if (v == -2) { tkey[i] = key; tval[i] = value; return 0; }
        i = (i + 1) & mask;
    }
}

/* Eviction order: real keys before dummies, then smallest key/index. */
static int heap_le(int64_t rank_a, int64_t key_a, int64_t rank_b, int64_t key_b) {
    if (rank_a != rank_b) return rank_a < rank_b;
    return key_a <= key_b;
}

typedef struct {
    int64_t *rank;
    int64_t *key;
    int64_t *slot;
    int64_t *gen;
    int64_t len;
    int64_t cap;
} Heap;

static void heap_push(Heap *h, int64_t rank, int64_t key, int64_t slot, int64_t gen) {
    int64_t pos = h->len++;
    while (pos > 0) {
        int64_t parent = (pos - 1) >> 1;
        if (heap_le(h->rank[parent], h->key[parent], rank, key)) break;
        h->rank[pos] = h->rank[parent];
        h->key[pos] = h->key[parent];
        h->slot[pos] = h->slot[parent];
        h->gen[pos] = h->gen[parent];
        pos = parent;
    }
    h->rank[pos] = rank;
    h->key[pos] = key;
    h->slot[pos] = slot;
    h->gen[pos] = gen;
}

static void heap_pop(Heap *h, int64_t *top_slot, int64_t *top_gen) {
    *top_slot = h->slot[0];
    *top_gen = h->gen[0];
    int64_t last = --h->len;
    if (last <= 0) return;
    int64_t rank = h->rank[last], key = h->key[last];
    int64_t slot = h->slot[last], gen = h->gen[last];
    int64_t pos = 0;
    for (;;) {
        int64_t child = 2 * pos + 1;
        if (child >= last) break;
        int64_t right = child + 1;
        if (right < last &&
            !heap_le(h->rank[child], h->key[child], h->rank[right], h->key[right]))
            child = right;
        if (heap_le(rank, key, h->rank[child], h->key[child])) break;
        h->rank[pos] = h->rank[child];
        h->key[pos] = h->key[child];
        h->slot[pos] = h->slot[child];
        h->gen[pos] = h->gen[child];
        pos = child;
    }
    h->rank[pos] = rank;
    h->key[pos] = key;
    h->slot[pos] = slot;
    h->gen[pos] = gen;
}

/* ------------------------------------------------------------------ */
/* Misra-Gries update kernel (Branches 1-3 of Algorithm 1).           */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t k;
    int64_t *keys, *dummy, *stored, *ins_seq;
    int64_t kcap, kmask, kh_used;
    int64_t *kh_key, *kh_slot;
    int64_t vcap, vmask, vh_used;
    int64_t *vh_val, *vh_head;
    int64_t *bnext, *bprev, *gen;
    Heap heap;
} MGState;

static void mg_bucket_insert(MGState *st, int64_t slot, int64_t value) {
    int64_t vi = map_find(st->vh_val, st->vh_head, st->vmask, value);
    if (vi == -1) {
        st->vh_used += map_put(st->vh_val, st->vh_head, st->vmask, value, slot);
        st->bnext[slot] = -1;
        st->bprev[slot] = -1;
    } else {
        int64_t head = st->vh_head[vi];
        st->bnext[slot] = head;
        st->bprev[head] = slot;
        st->bprev[slot] = -1;
        st->vh_head[vi] = slot;
    }
}

static void mg_bucket_remove(MGState *st, int64_t slot, int64_t value) {
    int64_t prev = st->bprev[slot], next = st->bnext[slot];
    if (prev == -1) {
        int64_t vi = map_find(st->vh_val, st->vh_head, st->vmask, value);
        if (next == -1) {
            st->vh_head[vi] = -2; /* bucket emptied: tombstone the entry */
        } else {
            st->vh_head[vi] = next;
            st->bprev[next] = -1;
        }
    } else {
        st->bnext[prev] = next;
        if (next != -1) st->bprev[next] = prev;
    }
}

static void mg_rebuild_keys(MGState *st) {
    for (int64_t i = 0; i < st->kcap; i++) st->kh_slot[i] = -1;
    st->kh_used = 0;
    for (int64_t slot = 0; slot < st->k; slot++)
        if (st->dummy[slot] == 0)
            st->kh_used += map_put(st->kh_key, st->kh_slot, st->kmask,
                                   st->keys[slot], slot);
}

static void mg_rebuild_buckets(MGState *st) {
    for (int64_t i = 0; i < st->vcap; i++) st->vh_head[i] = -1;
    st->vh_used = 0;
    for (int64_t slot = 0; slot < st->k; slot++) {
        st->bnext[slot] = -1;
        st->bprev[slot] = -1;
    }
    for (int64_t slot = 0; slot < st->k; slot++)
        mg_bucket_insert(st, slot, st->stored[slot]);
}

/* Rebuild the heap from the (complete) zero bucket at map index vi. */
static void mg_compact_heap(MGState *st, int64_t vi) {
    st->heap.len = 0;
    int64_t slot = st->vh_head[vi];
    while (slot != -1) {
        heap_push(&st->heap, st->dummy[slot], st->keys[slot], slot, st->gen[slot]);
        slot = st->bnext[slot];
    }
}

int64_t repro_mg_update(int64_t *keys, int64_t *dummy, int64_t *stored,
                        int64_t *ins_seq, int64_t *io, int64_t k,
                        const int64_t *chunk, int64_t n) {
    MGState st;
    int64_t base = io[0], rounds = io[1], next_seq = io[2];
    st.k = k;
    st.keys = keys;
    st.dummy = dummy;
    st.stored = stored;
    st.ins_seq = ins_seq;
    st.kcap = pow2_at_least(4 * k);
    st.kmask = st.kcap - 1;
    st.vcap = pow2_at_least(4 * k);
    st.vmask = st.vcap - 1;
    int64_t hcap = 4 * k + 64;
    int64_t cells = 2 * st.kcap + 2 * st.vcap + 3 * k + 4 * hcap;
    int64_t *block = (int64_t *) malloc((size_t) cells * sizeof(int64_t));
    if (block == NULL) return MG_NOMEM;
    int64_t *cursor = block;
    st.kh_key = cursor; cursor += st.kcap;
    st.kh_slot = cursor; cursor += st.kcap;
    st.vh_val = cursor; cursor += st.vcap;
    st.vh_head = cursor; cursor += st.vcap;
    st.bnext = cursor; cursor += k;
    st.bprev = cursor; cursor += k;
    st.gen = cursor; cursor += k;
    st.heap.rank = cursor; cursor += hcap;
    st.heap.key = cursor; cursor += hcap;
    st.heap.slot = cursor; cursor += hcap;
    st.heap.gen = cursor;
    st.heap.len = 0;
    st.heap.cap = hcap;
    for (int64_t slot = 0; slot < k; slot++) st.gen[slot] = 0;
    mg_rebuild_keys(&st);
    mg_rebuild_buckets(&st);

    /* Seed the heap with the current zero set (the bucket at base). */
    {
        int64_t vi = map_find(st.vh_val, st.vh_head, st.vmask, base);
        if (vi != -1) mg_compact_heap(&st, vi);
    }

    for (int64_t index = 0; index < n; index++) {
        int64_t element = chunk[index];
        if (st.kh_used * 4 >= st.kcap * 3) mg_rebuild_keys(&st);
        if (st.vh_used * 4 >= st.vcap * 3) mg_rebuild_buckets(&st);

        int64_t ki = map_find(st.kh_key, st.kh_slot, st.kmask, element);
        if (ki != -1) {
            /* Branch 1: increment the stored counter. */
            int64_t slot = st.kh_slot[ki];
            int64_t value = stored[slot];
            mg_bucket_remove(&st, slot, value);
            stored[slot] = value + 1;
            mg_bucket_insert(&st, slot, value + 1);
            continue;
        }
        int64_t zi = map_find(st.vh_val, st.vh_head, st.vmask, base);
        if (zi == -1) {
            /* Branch 2: decrement everything lazily; drop the element. */
            rounds += 1;
            base += 1;
            int64_t vi = map_find(st.vh_val, st.vh_head, st.vmask, base);
            if (vi != -1) {
                int64_t slot = st.vh_head[vi];
                while (slot != -1) {
                    if (st.heap.len == st.heap.cap) {
                        /* The compaction re-pushes the whole zero bucket,
                           covering everything this loop had left. */
                        mg_compact_heap(&st, vi);
                        break;
                    }
                    heap_push(&st.heap, dummy[slot], keys[slot], slot,
                              st.gen[slot]);
                    slot = st.bnext[slot];
                }
            }
            continue;
        }
        /* Branch 3: evict the smallest zero-count key. */
        int64_t victim = -1;
        while (st.heap.len > 0) {
            int64_t top_slot, top_gen;
            heap_pop(&st.heap, &top_slot, &top_gen);
            if (st.gen[top_slot] == top_gen && stored[top_slot] == base) {
                victim = top_slot;
                break;
            }
        }
        if (victim == -1) {
            free(block);
            io[0] = base; io[1] = rounds; io[2] = next_seq;
            return MG_CORRUPT;
        }
        mg_bucket_remove(&st, victim, base);
        if (dummy[victim] == 0) {
            int64_t kd = map_find(st.kh_key, st.kh_slot, st.kmask, keys[victim]);
            st.kh_slot[kd] = -2;
        }
        keys[victim] = element;
        dummy[victim] = 0;
        st.gen[victim] += 1;
        ins_seq[victim] = next_seq++;
        stored[victim] = base + 1;
        st.kh_used += map_put(st.kh_key, st.kh_slot, st.kmask, element, victim);
        mg_bucket_insert(&st, victim, base + 1);
    }

    free(block);
    io[0] = base; io[1] = rounds; io[2] = next_seq;
    return MG_OK;
}

/* ------------------------------------------------------------------ */
/* Agarwal fold (scalar replica of merge.FoldState's numpy step).     */
/* ------------------------------------------------------------------ */

/* The pos-th smallest of buf[:n] — the order statistic np.partition
   selects.  Callers guarantee no NaNs.  Each round splits off the values
   below the pivot, then those equal to it, with branch-free swaps: the
   comparisons follow the data, so branches on them would mispredict. */
static double select_kth(double *buf, int64_t n, int64_t pos) {
    int64_t lo = 0, hi = n;
    while (hi - lo > 1) {
        double a = buf[lo], b = buf[lo + ((hi - lo) >> 1)], c = buf[hi - 1];
        if (a > b) { double t = a; a = b; b = t; }
        if (b > c) b = c;
        if (a > b) b = a;
        double pivot = b;
        int64_t lt = lo;
        for (int64_t i = lo; i < hi; i++) {
            double v = buf[i];
            buf[i] = buf[lt];
            buf[lt] = v;
            lt += v < pivot;
        }
        if (pos < lt) { hi = lt; continue; }
        int64_t eq = lt;
        for (int64_t i = lt; i < hi; i++) {
            double v = buf[i];
            buf[i] = buf[eq];
            buf[eq] = v;
            eq += v == pivot;
        }
        if (pos < eq) return pivot;
        lo = eq;
    }
    return buf[lo];
}

/* One fold step after the first; returns the new live count, or -1 when
   a key lies outside [low, last] or a value is negative or NaN, and -2
   when an id repeats.  A refused step changes nothing but the first
   sketch's zero counters, reset to +0.0 (which folds to the same bits).
   Callers guarantee NaN-free live counters and room for n_active + length
   entries in active and both scratch arrays. */
static int64_t fold_step_body(const int64_t *keys, const double *values,
                              int64_t length, int64_t low, int64_t last,
                              int64_t size, double *acc, int64_t *active,
                              int64_t n_active, int64_t *scratch_ids,
                              double *scratch_vals, const int64_t *zero_live,
                              int64_t n_zero) {
    if (length == 0) {
        if (n_zero > 0) {
            int64_t w = 0;
            for (int64_t j = 0; j < n_active; j++)
                if (acc[active[j]] > 0.0) active[w++] = active[j];
            n_active = w;
        }
        return n_active;
    }
    int64_t n_comb = n_active;
    for (int64_t j = 0; j < n_active; j++) scratch_ids[j] = active[j];
    /* The first sketch's zero counters may be -0.0, which would read as a
       mark below. */
    for (int64_t t = 0; t < n_zero; t++) acc[zero_live[t]] = 0.0;
    int all_positive = 1;
    for (int64_t j = 0; j < length; j++) {
        int64_t key = keys[j];
        double value = values[j];
        int bad = key < low || key > last || !(value >= 0.0);
        if (bad || signbit(acc[key - low])) {
            /* Put back the counters this step changed, bit for bit. */
            for (int64_t t = 0; t < j; t++)
                acc[keys[t] - low] = scratch_vals[t];
            return bad ? -1 : -2;
        }
        if (!(value > 0.0)) all_positive = 0;
        int64_t idv = key - low;
        double before = acc[idv];
        scratch_vals[j] = before;
        int fresh = before == 0.0;
        if (fresh && n_zero > 0) {
            for (int64_t t = 0; t < n_zero; t++) {
                if (zero_live[t] == idv) { fresh = 0; break; }
            }
        }
        /* Marked: every sum is +0.0 or more, so its negation has the
           sign bit set.  Every id added to is in scratch_ids, and fabs
           reads a marked sum back exactly; each path below clears the
           marks. */
        acc[idv] = -(before + value);
        if (fresh) scratch_ids[n_comb++] = idv;
    }
    if (n_comb > size) {
        int64_t pos = n_comb - 1 - size;
        for (int64_t j = 0; j < n_comb; j++)
            scratch_vals[j] = fabs(acc[scratch_ids[j]]);
        double offset = select_kth(scratch_vals, n_comb, pos);
        int64_t w = 0;
        for (int64_t j = 0; j < n_comb; j++) {
            int64_t idv = scratch_ids[j];
            double shifted = fabs(acc[idv]) - offset;
            if (shifted > 0.0) {
                acc[idv] = shifted;
                active[w++] = idv;
            } else {
                acc[idv] = 0.0;
            }
        }
        return w;
    }
    if (n_zero == 0 && all_positive) {
        for (int64_t j = 0; j < length; j++) acc[keys[j] - low] *= -1.0;
        for (int64_t j = 0; j < n_comb; j++) active[j] = scratch_ids[j];
        return n_comb;
    }
    int64_t w = 0;
    for (int64_t j = 0; j < n_comb; j++) {
        int64_t idv = scratch_ids[j];
        double count = fabs(acc[idv]);
        if (count > 0.0) {
            acc[idv] = count;
            active[w++] = idv;
        } else {
            acc[idv] = 0.0;
        }
    }
    return w;
}

/* FoldState steps after the first, over a run of n_sketches sketches
   laid end to end (lengths == NULL: one sketch of n keys); state =
   {n_active, n_zero}.  The keys start keys_at bytes into keys_buf and the
   values values_at bytes into values_buf: a frame body and its two column
   offsets, or two array addresses at offset 0.  A status other than
   FOLD_OK stops the run with that step's state untouched, and *applied
   counts the steps folded before it.  The live counters are scanned for
   NaN once: a step over NaN-free input leaves none live. */
int64_t repro_fold_step(const char *keys_buf, int64_t keys_at,
                        const char *values_buf, int64_t values_at, int64_t n,
                        const int64_t *lengths, int64_t n_sketches,
                        int64_t low, int64_t domain, int64_t size, double *acc,
                        int64_t *active, int64_t *scratch_ids,
                        double *scratch_vals, const int64_t *zero_live,
                        int64_t *state, int64_t *applied) {
    const int64_t *keys = (const int64_t *) (keys_buf + keys_at);
    const double *values = (const double *) (values_buf + values_at);
    /* The id space never ends past the int64 range, so last is exact. */
    int64_t last = low + (domain - 1);
    int live_nan = 0;
    for (int64_t j = 0; j < state[0]; j++)
        if (acc[active[j]] != acc[active[j]]) live_nan = 1;
    *applied = 0;
    for (int64_t step = 0; step < n_sketches; step++) {
        int64_t length = lengths ? lengths[step] : n;
        int64_t live = live_nan ? -1 : fold_step_body(
            keys, values, length, low, last, size, acc, active, state[0],
            scratch_ids, scratch_vals, zero_live, state[1]);
        if (live < 0) {
            /* Why it was refused, in precedence order. */
            int negative = 0;
            for (int64_t j = 0; j < length; j++) {
                if (keys[j] < low || keys[j] > last) return FOLD_RANGE;
                if (values[j] < 0.0) negative = 1;
            }
            if (negative) return FOLD_NEGATIVE;
            return live == -2 ? FOLD_REPEAT : FOLD_NAN;
        }
        state[0] = live;
        state[1] = 0;
        *applied = step + 1;
        keys += length;
        values += length;
    }
    return FOLD_OK;
}
"""
