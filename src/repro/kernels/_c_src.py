"""The compiled kernels' C source, embedded as text, and the kernel ABI.

:mod:`repro.kernels._c_provider` compiles this translation unit once with the
system C compiler (``cc -O2 -fPIC -shared``) into a cached shared object and
loads it through :mod:`ctypes`.  The ABI — every status code and the
header-scan slot indices — is defined here once, as python ints; the C
``#define`` block is rendered from them, and the python callers import them
from this module.

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
* ``repro_fold_step`` is one step of
  :class:`repro.sketches.merge.FoldState` per id, and
  ``repro_fold_interned`` loops over the same step body.  Ids are unique
  within one sketch, so numpy's fancy-indexed adds decompose into the
  independent scalar adds done here.  The (k+1)-th-largest threshold is an
  order statistic: any correct selection returns the value ``np.partition``
  returns on the same multiset, so the quickselect matches it.  NaNs have
  no total order, so they return ``FOLD_NAN`` and numpy folds that frame.
* ``repro_scan_header`` accepts only the canonical header grammar that
  ``json.dumps(..., sort_keys=True)`` emits.  Anything else returns
  ``SCAN_FALLBACK`` and the caller parses with ``json.loads``, so malformed
  frames raise byte-for-byte the python path's errors.

Keep ``SOURCE_VERSION`` in sync with behavioural changes: the provider keys
its build cache on a hash of the source text, so editing the C automatically
invalidates stale binaries.
"""

SOURCE_VERSION = 3

# Status codes shared by all kernels.
MG_OK = 0
MG_CORRUPT = 1
MG_NOMEM = 2
SCAN_OK = 0
SCAN_FALLBACK = 1

# ``repro_fold_step`` statuses, in precedence order.  Every status but
# FOLD_OK leaves the state untouched: FOLD_RANGE means a key lies outside
# ``[low, low + domain)``, FOLD_NEGATIVE a negative counter in the frame,
# FOLD_NAN a NaN in the frame or the live counters (the quickselect assumes
# a total order).
FOLD_OK = 0
FOLD_RANGE = 1
FOLD_NEGATIVE = 2
FOLD_NAN = 3

# ``repro_scan_header`` output slots (int64[SCAN_OUT_SLOTS]).
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

# The C side of the ABI: one ``#define`` per int above, in that order.
_ABI_DEFINES = "".join(
    f"#define {name} {value}\n" for name, value in globals().items()
    if name.startswith(("MG_", "FOLD_", "SCAN_")))

C_SOURCE = r"""
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
   selects.  Callers guarantee no NaNs. */
static double select_kth(double *buf, int64_t n, int64_t pos) {
    int64_t lo = 0, hi = n - 1;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        double a = buf[lo], b = buf[mid], c = buf[hi];
        if (a > b) { double t = a; a = b; b = t; }
        if (b > c) b = c;
        if (a > b) b = a;
        double pivot = b;
        int64_t i = lo, lt = lo, gt = hi;
        while (i <= gt) {
            double v = buf[i];
            if (v < pivot) {
                buf[i] = buf[lt];
                buf[lt] = v;
                lt++; i++;
            } else if (v > pivot) {
                buf[i] = buf[gt];
                buf[gt] = v;
                gt--; /* the swapped-in element is unexamined */
            } else {
                i++;
            }
        }
        if (pos < lt) hi = lt - 1;
        else if (pos > gt) lo = gt + 1;
        else return pivot;
    }
    return buf[lo];
}

/* One fold step after the first; returns the new live count.  Callers
   guarantee in-range ids (id = key - low), no NaNs, no negatives, and
   room for n_active + length entries in active and both scratch arrays. */
static int64_t fold_step_body(const int64_t *keys, const double *values,
                              int64_t length, int64_t low, int64_t size,
                              double *acc, int64_t *active, int64_t n_active,
                              int64_t *scratch_ids, double *scratch_vals,
                              const int64_t *zero_live, int64_t n_zero) {
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
    int all_positive = 1;
    for (int64_t j = 0; j < length; j++) {
        int64_t idv = keys[j] - low;
        double value = values[j];
        if (!(value > 0.0)) all_positive = 0;
        double before = acc[idv];
        int fresh = before == 0.0;
        if (fresh && n_zero > 0) {
            for (int64_t t = 0; t < n_zero; t++) {
                if (zero_live[t] == idv) { fresh = 0; break; }
            }
        }
        acc[idv] = before + value;
        if (fresh) scratch_ids[n_comb++] = idv;
    }
    if (n_comb > size) {
        int64_t pos = n_comb - 1 - size;
        for (int64_t j = 0; j < n_comb; j++)
            scratch_vals[j] = acc[scratch_ids[j]];
        double offset = select_kth(scratch_vals, n_comb, pos);
        int64_t w = 0;
        for (int64_t j = 0; j < n_comb; j++) {
            int64_t idv = scratch_ids[j];
            double shifted = acc[idv] - offset;
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
        for (int64_t j = 0; j < n_comb; j++) active[j] = scratch_ids[j];
        return n_comb;
    }
    int64_t w = 0;
    for (int64_t j = 0; j < n_comb; j++) {
        int64_t idv = scratch_ids[j];
        if (acc[idv] > 0.0) active[w++] = idv;
        else acc[idv] = 0.0;
    }
    return w;
}

/* One FoldState step after the first; state = {n_active, n_zero}.  The
   keys start keys_at bytes into keys_buf and the values values_at bytes
   into values_buf: a frame body and its two column offsets, or two array
   addresses at offset 0.  Scans the frame (and the live counters) first;
   every status but FOLD_OK leaves the state untouched (precedence: range,
   negative, NaN). */
int64_t repro_fold_step(const char *keys_buf, int64_t keys_at,
                        const char *values_buf, int64_t values_at, int64_t n,
                        int64_t low, int64_t domain, int64_t size, double *acc,
                        int64_t *active, int64_t *scratch_ids,
                        double *scratch_vals, const int64_t *zero_live,
                        int64_t *state) {
    const int64_t *keys = (const int64_t *) (keys_buf + keys_at);
    const double *values = (const double *) (values_buf + values_at);
    /* The id space never ends past the int64 range, so last is exact. */
    int64_t last = low + (domain - 1);
    int nan = 0, negative = 0;
    for (int64_t j = 0; j < n; j++) {
        int64_t key = keys[j];
        if (key < low || key > last) return FOLD_RANGE;
        double value = values[j];
        if (value < 0.0) negative = 1;
        else if (value != value) nan = 1;
    }
    if (negative) return FOLD_NEGATIVE;
    int64_t n_active = state[0];
    for (int64_t j = 0; j < n_active; j++) {
        double live = acc[active[j]];
        if (live != live) nan = 1;
    }
    if (nan) return FOLD_NAN;
    state[0] = fold_step_body(keys, values, n, low, size, acc, active,
                              n_active, scratch_ids, scratch_vals, zero_live,
                              state[1]);
    state[1] = 0;
    return FOLD_OK;
}

int64_t repro_fold_interned(const int64_t *flat_ids, const double *flat_values,
                            const int64_t *lengths, int64_t n_sketches,
                            int64_t size, double *acc, int64_t *active,
                            int64_t *scratch_ids, double *scratch_vals,
                            int64_t *zero_live, int64_t *out_n) {
    int64_t n_active = 0, n_zero = 0, start = 0;
    int first = 1;
    for (int64_t step = 0; step < n_sketches; step++) {
        int64_t length = lengths[step];
        const int64_t *ids = flat_ids + start;
        const double *values = flat_values + start;
        start += length;
        if (!first) {
            n_active = fold_step_body(ids, values, length, 0, size, acc,
                                      active, n_active, scratch_ids,
                                      scratch_vals, zero_live, n_zero);
            n_zero = 0;
            continue;
        }
        first = 0;
        if (length == 0) continue;
        if (length > size) {
            int64_t pos = length - 1 - size;
            for (int64_t j = 0; j < length; j++) scratch_vals[j] = values[j];
            double offset = select_kth(scratch_vals, length, pos);
            n_active = 0;
            for (int64_t j = 0; j < length; j++) {
                double shifted = values[j] - offset;
                if (shifted > 0.0) {
                    acc[ids[j]] = shifted;
                    active[n_active++] = ids[j];
                } else {
                    acc[ids[j]] = 0.0;
                }
            }
        } else {
            for (int64_t j = 0; j < length; j++) {
                int64_t idv = ids[j];
                acc[idv] = values[j];
                active[j] = idv;
                if (values[j] == 0.0) zero_live[n_zero++] = idv;
            }
            n_active = length;
        }
    }
    *out_n = n_active;
    return MG_OK;
}

/* ------------------------------------------------------------------ */
/* Canonical binary-frame header scanner.                             */
/* ------------------------------------------------------------------ */

static int64_t scan_ws(const uint8_t *buf, int64_t pos, int64_t end) {
    while (pos < end) {
        uint8_t c = buf[pos];
        if (c != 32 && c != 9 && c != 10 && c != 13) break;
        pos++;
    }
    return pos;
}

static int scan_int(const uint8_t *buf, int64_t *pos_io, int64_t end,
                    int64_t *value_out) {
    int64_t pos = *pos_io;
    int neg = 0;
    if (pos < end && buf[pos] == '-') { neg = 1; pos++; }
    int64_t first = pos, value = 0;
    while (pos < end) {
        uint8_t c = buf[pos];
        if (c < '0' || c > '9') break;
        int64_t digit = c - '0';
        if (value > 922337203685477580LL ||
            (value == 922337203685477580LL && digit > 7))
            return SCAN_FALLBACK; /* beyond int64: python handles it */
        value = value * 10 + digit;
        pos++;
    }
    if (pos == first) return SCAN_FALLBACK;
    if (buf[first] == '0' && pos - first > 1) return SCAN_FALLBACK;
    if (pos < end) {
        uint8_t c = buf[pos];
        if (c == '.' || c == 'e' || c == 'E') return SCAN_FALLBACK;
    }
    *value_out = neg ? -value : value;
    *pos_io = pos;
    return SCAN_OK;
}

static int scan_string(const uint8_t *buf, int64_t *pos_io, int64_t end,
                       int64_t *start_out, int64_t *len_out) {
    int64_t pos = *pos_io;
    if (pos >= end || buf[pos] != '"') return SCAN_FALLBACK;
    pos++;
    int64_t begin = pos;
    while (pos < end) {
        uint8_t c = buf[pos];
        if (c == '"') {
            *start_out = begin;
            *len_out = pos - begin;
            *pos_io = pos + 1;
            return SCAN_OK;
        }
        if (c == '\\' || c < 32 || c > 126) return SCAN_FALLBACK;
        pos++;
    }
    return SCAN_FALLBACK;
}

static int match_lit(const uint8_t *buf, int64_t start, int64_t length,
                     const char *lit, int64_t lit_len) {
    if (length != lit_len) return 0;
    for (int64_t i = 0; i < length; i++)
        if (buf[start + i] != (uint8_t) lit[i]) return 0;
    return 1;
}

static int is_null_at(const uint8_t *buf, int64_t pos, int64_t end) {
    return pos + 4 <= end && buf[pos] == 'n' && buf[pos + 1] == 'u'
        && buf[pos + 2] == 'l' && buf[pos + 3] == 'l';
}

static int64_t scan_header(const uint8_t *buf, int64_t end, int64_t *out) {
    for (int64_t i = 0; i < SCAN_OUT_SLOTS; i++) out[i] = 0;
    out[SCAN_KIND_LEN] = -1;
    out[SCAN_SKETCH_LEN] = -1;
    int64_t pos = scan_ws(buf, 0, end);
    if (pos >= end || buf[pos] != '{') return SCAN_FALLBACK;
    pos = scan_ws(buf, pos + 1, end);
    if (pos < end && buf[pos] == '}') {
        pos = scan_ws(buf, pos + 1, end);
        return pos == end ? SCAN_OK : SCAN_FALLBACK;
    }
    /* Canonical (sorted) key order turns "seen" tracking into a monotone
       index: count(0) < format(1) < k(2) < key_encoding(3) < kind(4)
       < meta(5). */
    int64_t last_key = -1;
    for (;;) {
        int64_t kstart, klen;
        if (scan_string(buf, &pos, end, &kstart, &klen) != SCAN_OK)
            return SCAN_FALLBACK;
        pos = scan_ws(buf, pos, end);
        if (pos >= end || buf[pos] != ':') return SCAN_FALLBACK;
        pos = scan_ws(buf, pos + 1, end);
        if (pos >= end) return SCAN_FALLBACK;
        if (match_lit(buf, kstart, klen, "count", 5)) {
            if (last_key >= 0) return SCAN_FALLBACK;
            last_key = 0;
            int64_t value;
            if (scan_int(buf, &pos, end, &value) != SCAN_OK)
                return SCAN_FALLBACK;
            out[SCAN_HAS_COUNT] = 1;
            out[SCAN_COUNT] = value;
        } else if (match_lit(buf, kstart, klen, "format", 6)) {
            if (last_key >= 1) return SCAN_FALLBACK;
            last_key = 1;
            if (buf[pos] == 'n') {
                if (!is_null_at(buf, pos, end)) return SCAN_FALLBACK;
                pos += 4;
            } else {
                int64_t value;
                if (scan_int(buf, &pos, end, &value) != SCAN_OK)
                    return SCAN_FALLBACK;
                out[SCAN_HAS_FORMAT] = 1;
                out[SCAN_FORMAT] = value;
            }
        } else if (match_lit(buf, kstart, klen, "k", 1)) {
            if (last_key >= 2) return SCAN_FALLBACK;
            last_key = 2;
            if (buf[pos] == 'n') {
                if (!is_null_at(buf, pos, end)) return SCAN_FALLBACK;
                pos += 4;
            } else {
                int64_t value;
                if (scan_int(buf, &pos, end, &value) != SCAN_OK)
                    return SCAN_FALLBACK;
                out[SCAN_HAS_K] = 1;
                out[SCAN_K] = value;
            }
        } else if (match_lit(buf, kstart, klen, "key_encoding", 12)) {
            if (last_key >= 3) return SCAN_FALLBACK;
            last_key = 3;
            int64_t vstart, vlen; /* value is ignored by the decoder */
            if (scan_string(buf, &pos, end, &vstart, &vlen) != SCAN_OK)
                return SCAN_FALLBACK;
        } else if (match_lit(buf, kstart, klen, "kind", 4)) {
            if (last_key >= 4) return SCAN_FALLBACK;
            last_key = 4;
            int64_t vstart, vlen;
            if (scan_string(buf, &pos, end, &vstart, &vlen) != SCAN_OK)
                return SCAN_FALLBACK;
            out[SCAN_KIND_START] = vstart;
            out[SCAN_KIND_LEN] = vlen;
        } else if (match_lit(buf, kstart, klen, "meta", 4)) {
            if (last_key >= 5) return SCAN_FALLBACK;
            last_key = 5;
            if (pos >= end || buf[pos] != '{') return SCAN_FALLBACK;
            pos = scan_ws(buf, pos + 1, end);
            out[SCAN_HAS_META] = 1;
            if (pos < end && buf[pos] == '}') {
                pos++;
            } else {
                int64_t meta_last = -1;
                for (;;) {
                    int64_t mstart, mlen;
                    if (scan_string(buf, &pos, end, &mstart, &mlen) != SCAN_OK)
                        return SCAN_FALLBACK;
                    pos = scan_ws(buf, pos, end);
                    if (pos >= end || buf[pos] != ':') return SCAN_FALLBACK;
                    pos = scan_ws(buf, pos + 1, end);
                    if (pos >= end) return SCAN_FALLBACK;
                    if (match_lit(buf, mstart, mlen, "decrement_rounds", 16)) {
                        if (meta_last >= 0) return SCAN_FALLBACK;
                        meta_last = 0;
                        int64_t value;
                        if (scan_int(buf, &pos, end, &value) != SCAN_OK)
                            return SCAN_FALLBACK;
                        out[SCAN_HAS_DECREMENT_ROUNDS] = 1;
                        out[SCAN_DECREMENT_ROUNDS] = value;
                    } else if (match_lit(buf, mstart, mlen, "sketch", 6)) {
                        if (meta_last >= 1) return SCAN_FALLBACK;
                        meta_last = 1;
                        int64_t vstart, vlen;
                        if (scan_string(buf, &pos, end, &vstart, &vlen) != SCAN_OK)
                            return SCAN_FALLBACK;
                        out[SCAN_SKETCH_START] = vstart;
                        out[SCAN_SKETCH_LEN] = vlen;
                    } else if (match_lit(buf, mstart, mlen, "stream_length", 13)) {
                        if (meta_last >= 2) return SCAN_FALLBACK;
                        meta_last = 2;
                        int64_t value;
                        if (scan_int(buf, &pos, end, &value) != SCAN_OK)
                            return SCAN_FALLBACK;
                        out[SCAN_HAS_STREAM_LENGTH] = 1;
                        out[SCAN_STREAM_LENGTH] = value;
                    } else {
                        return SCAN_FALLBACK;
                    }
                    pos = scan_ws(buf, pos, end);
                    if (pos < end && buf[pos] == ',') {
                        pos = scan_ws(buf, pos + 1, end);
                        continue;
                    }
                    if (pos < end && buf[pos] == '}') { pos++; break; }
                    return SCAN_FALLBACK;
                }
            }
        } else {
            return SCAN_FALLBACK;
        }
        pos = scan_ws(buf, pos, end);
        if (pos < end && buf[pos] == ',') {
            pos = scan_ws(buf, pos + 1, end);
            continue;
        }
        if (pos < end && buf[pos] == '}') {
            pos = scan_ws(buf, pos + 1, end);
            break;
        }
        return SCAN_FALLBACK;
    }
    return pos == end ? SCAN_OK : SCAN_FALLBACK;
}

/* Scan the header frame[start, start + length); positions in out count
   from start. */
int64_t repro_scan_header(const uint8_t *frame, int64_t start, int64_t length,
                          int64_t *out) {
    return scan_header(frame + start, length, out);
}
"""
