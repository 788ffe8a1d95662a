"""Performance suite: sketch engine, aggregation/release tier, runner.

Workload groups (select with ``run_bench.py --workloads``):

``sketch``
    Update throughput of the optimized Misra-Gries engine against the frozen
    O(k) reference (the seed engine preserved in
    :mod:`repro.sketches._reference`) on the adversarial all-distinct stream,
    the E11 Zipf workload and a hot-set stream, plus the SpaceSaving baseline.

``merge``
    The aggregator hot path of Section 7: ``m = 256`` size-``k = 1024``
    per-user sketch exports (E11-style Zipf traffic) merged into one summary.
    The vectorized key-interning fold over dict inputs
    (:func:`repro.sketches.merge.merge_many`) and over columnar wire inputs
    (:func:`repro.sketches.merge.merge_many_arrays`) are measured against the
    frozen seed dict-based left fold preserved in
    :mod:`repro.sketches._reference_merge`; all three produce exactly the
    same merged summary.

``framed_merge``
    The streaming transport of the distributed setting: the same ``m = 256``
    sketch exports shipped as one length-prefix framed stream
    (:mod:`repro.api.framing`, binary columnar frames) and folded one frame
    at a time by :class:`~repro.api.framing.StreamingMerger`, against the
    seed aggregator pipeline — per-sketch v1 JSON envelopes (token-keyed
    counter objects) decoded key by key and folded with the frozen seed dict
    left fold.  Both paths start from serialized bytes and produce the same
    merged summary.

``release``
    The DP release of a large aggregated histogram: one bulk-noise
    mask-filter pass (:func:`repro.core.merging._noisy_threshold_filter`)
    against the frozen seed per-key loop preserved in
    :mod:`repro.core._reference` — plus a registry sweep: one
    release-throughput row per registered mechanism
    (``release_<name>`` workloads, every ``list_mechanisms()`` entry, no
    floor; the cross-PR trajectory shows which mechanisms drift) — plus the
    served-release cycle (``release_served_auth``): ``m = 64`` size-``k =
    256`` exports pushed over a Unix socket and released, once on an open
    server (the baseline) and once with token auth required on every
    session.  Both cycles release bit-identically (asserted); the floor is
    auth-on >= 0.9x auth-off throughput, so requiring tokens stays in the
    noise.

``net_aggregate``
    The live aggregation service (:mod:`repro.net`): the same ``m = 256``
    sketch exports pushed over a localhost Unix socket by 4 concurrent
    clients into an :class:`~repro.net.AggregatorServer` (per-session
    ``StreamingMerger`` folds + ordinal combine + DP release) against the
    offline framed-file fold of the same chunked exports.  Both produce the
    bit-identical histogram (asserted); the ratio is the cost of moving the
    bytes through real sockets and the asyncio control protocol.

``durability``
    The cost of crash safety: the ``net_aggregate`` push workload (``m =
    256`` size-``k = 1024`` exports, 4 concurrent Unix-socket clients) run
    against a plain in-memory server and against one with the write-ahead
    log enabled (``--wal-dir``: per-session spools, fsync-per-burst commits,
    sqlite checkpoint ledger).  Both runs release bit-identically (asserted),
    and one WAL run is additionally recovered by a fresh server on the same
    wal dir to prove the durable state releases identically too.  The
    acceptance floor is WAL-on >= 0.5x WAL-off throughput; the record gains
    a ``durability`` stanza (backend, fsync, spool bytes, recovery check).

``kernels``
    The compiled kernel tier (:mod:`repro.kernels`) against the vectorized
    python engines it replaces, on the two interpreter-bound hot loops: the
    E11 Zipf stream through ``update_batch`` at the small-``k`` regime
    (``k = 64``, where per-chunk python overhead dominates the vectorized
    path) and the interned columnar merge fold
    (:func:`repro.sketches.merge._fold_interned`, the stage behind
    ``merge_many_arrays``) at ``m = 256`` / ``k = 1024``.  Rows select their
    backend through ``REPRO_KERNELS`` (``python`` vs ``cc``).  Both backends
    produce bit-identical results (asserted before timing), so every ratio
    is pure engine speed.  The compiled rows are skipped — and their floors
    waived — when the C provider cannot be built.

``runner``
    An :class:`repro.analysis.ExperimentRunner` sweep executed sequentially
    and with ``workers=2`` process-level parallelism (recorded for the
    trajectory; no floor — the win depends on core count).

Each invocation appends one JSON record to ``BENCH_sketch.json`` at the repo
root so the performance trajectory is preserved across PRs.  Every record
carries a ``kernels`` stanza (resolved backend, provider availability) so
trajectory comparisons know which engine produced each row, and
``run_bench.py`` adds ``src_lines`` (lines of ``src/repro/**/*.py``) so
code size sits on the same trajectory as speed.
Run it with::

    PYTHONPATH=src python benchmarks/run_bench.py [--quick] [--workloads ...]

The record includes the speedup ratios the acceptance criteria track:
``all_distinct_k1024_batch`` (>= 10x), ``zipf_e11_k1024_batch`` (>= 3x),
``merge_m256_k1024_arrays`` (>= 10x),
``framed_merge_m256_k1024_streaming`` (>= 8x),
``release_trusted_sum_k1024_vectorized`` (>= 3x),
``release_served_auth_k256_auth_on`` (>= 0.9x auth-off),
``durability_m256_k1024_wal_sqlite_4clients`` (>= 0.5x WAL-off),
``kernels_update_zipf_k64_compiled_batch`` (>= 8x over the seed),
``kernels_update_zipf_k64_compiled_vs_python`` (>= 3x) and
``kernels_fold_m256_k1024_compiled_vs_python`` (>= 2x).
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:  # direct invocation without PYTHONPATH
    sys.path.insert(0, str(_REPO_ROOT / "src"))

import numpy as np

from repro.analysis import ExperimentRunner, SweepSpec
from repro.core._reference import reference_trusted_sum_filter
from repro.core.merging import _noisy_threshold_filter
from repro.dp.thresholds import stability_histogram_threshold
from repro.sketches import MisraGriesSketch, SpaceSavingSketch, merge_many
from repro.sketches.merge import merge_many_arrays
from repro.sketches._reference import ReferenceMisraGries
from repro.sketches._reference_merge import reference_merge_many
from repro.streams import uniform_stream, zipf_stream

BENCH_PATH = _REPO_ROOT / "BENCH_sketch.json"

#: All workload groups, in report order.
WORKLOAD_GROUPS = ("sketch", "merge", "framed_merge", "net_aggregate",
                   "durability", "relay", "release", "kernels", "runner",
                   "loadgen")

#: The E11 workload parameters (benchmarks/bench_e11_performance.py).
E11_N = 100_000
E11_UNIVERSE = 50_000
E11_EXPONENT = 1.2
E11_RNG = 50

#: The merge workload shape pinned by the ISSUE 2 acceptance criteria.
MERGE_M = 256
MERGE_K = 1024


def _elems_per_sec(ingest: Callable[[], object], n: int, repeats: int = 1) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        ingest()
        best = min(best, time.perf_counter() - start)
    return n / best if best > 0 else float("inf")


def _measure(workload: str, k: int, n: int, mode: str,
             ingest: Callable[[], object], repeats: int = 1) -> Dict:
    """One result row; ``repeats > 1`` takes the best of several runs (used
    for the sub-second aggregation workloads, where scheduler noise on a
    busy machine would otherwise dominate a single measurement)."""
    return {"workload": workload, "k": k, "n": n, "mode": mode,
            "elems_per_sec": round(_elems_per_sec(ingest, n, repeats), 1)}


# ---------------------------------------------------------------------------
# sketch group (the PR-1 suite)
# ---------------------------------------------------------------------------

def _run_sketch_group(rows: List[Dict], quick: bool) -> None:
    k = 1024

    # -- adversarial all-distinct stream (decrement-heavy) -------------------
    n_opt = 50_000 if quick else 200_000
    n_ref = 5_000 if quick else 20_000
    distinct_opt = np.arange(n_opt, dtype=np.int64)
    distinct_list = distinct_opt.tolist()
    rows.append(_measure("all_distinct", k, n_ref, "reference_seed",
                         lambda: ReferenceMisraGries.from_stream(k, range(n_ref))))
    rows.append(_measure("all_distinct", k, n_opt, "optimized_sequential",
                         lambda: _sequential(MisraGriesSketch(k), distinct_list)))
    rows.append(_measure("all_distinct", k, n_opt, "optimized_batch",
                         lambda: MisraGriesSketch(k).update_batch(distinct_opt)))

    # -- E11 Zipf workload ----------------------------------------------------
    zipf = zipf_stream(E11_N // 4 if quick else E11_N, E11_UNIVERSE,
                       exponent=E11_EXPONENT, rng=E11_RNG, as_array=True)
    zipf_list = zipf.tolist()
    zipf_ref = zipf_list[:n_ref]
    for size in (64, 256, 1024):
        rows.append(_measure("zipf_e11", size, len(zipf_ref), "reference_seed",
                             lambda size=size: ReferenceMisraGries.from_stream(size, zipf_ref)))
        rows.append(_measure("zipf_e11", size, len(zipf), "optimized_sequential",
                             lambda size=size: _sequential(MisraGriesSketch(size), zipf_list)))
        rows.append(_measure("zipf_e11", size, len(zipf), "optimized_batch",
                             lambda size=size: MisraGriesSketch(size).update_batch(zipf)))

    # -- hot-set stream: universe fits in the sketch, pure Branch-1 traffic ---
    # This is where the vectorized path collapses whole chunks into one bulk
    # increment per key (production-style traffic over a bounded key space).
    hot = uniform_stream(4 * n_opt, 512, rng=7, as_array=True)
    hot_list = hot.tolist()
    rows.append(_measure("hot_set", k, n_ref, "reference_seed",
                         lambda: ReferenceMisraGries.from_stream(k, hot_list[:n_ref])))
    rows.append(_measure("hot_set", k, len(hot), "optimized_sequential",
                         lambda: _sequential(MisraGriesSketch(k), hot_list)))
    rows.append(_measure("hot_set", k, len(hot), "optimized_batch",
                         lambda: MisraGriesSketch(k).update_batch(hot)))

    # -- SpaceSaving baseline (heap eviction) ---------------------------------
    rows.append(_measure("all_distinct_space_saving", k, n_opt, "optimized_heap",
                         lambda: _sequential(SpaceSavingSketch(k), distinct_list)))


# ---------------------------------------------------------------------------
# merge group (ISSUE 2: m sketches in, one summary out)
# ---------------------------------------------------------------------------

def _per_user_sketch_exports(m: int, k: int, n_per_user: int):
    """Wire-form exports of real per-user sketches under E11-style traffic.

    Each of the ``m`` users sketches its own Zipf stream (the paper's traffic
    model: the heavy hitters are shared across users, each tail is not) and
    exports ``counters()`` as a (keys, values) array pair — exactly what a
    production edge server would ship to the aggregator.
    """
    keys_list, values_list = [], []
    for user in range(m):
        stream = zipf_stream(n_per_user, E11_UNIVERSE, exponent=E11_EXPONENT,
                             rng=100 + user, as_array=True)
        counters = MisraGriesSketch.from_stream(k, stream).counters()
        keys_list.append(np.fromiter(counters.keys(), dtype=np.int64,
                                     count=len(counters)))
        values_list.append(np.fromiter(counters.values(), dtype=np.float64,
                                       count=len(counters)))
    return keys_list, values_list


def _run_merge_group(rows: List[Dict], quick: bool) -> None:
    """m sketch exports in, one merged summary out (all three agree exactly).

    The seed path must materialize per-sketch dicts before its left fold, so
    that conversion is part of its measurement; ``optimized_dicts`` pays the
    same conversion into the vectorized fold; ``optimized_arrays`` is the
    columnar wire path (:func:`repro.sketches.merge.merge_many_arrays`).
    """
    m, k = MERGE_M, MERGE_K
    keys_list, values_list = _per_user_sketch_exports(
        m, k, n_per_user=5_000 if quick else 20_000)
    pairs = int(sum(keys.size for keys in keys_list))

    def _as_dicts():
        return [dict(zip(keys.tolist(), values.tolist()))
                for keys, values in zip(keys_list, values_list)]

    rows.append(_measure(f"merge_m{m}", k, pairs, "reference_seed",
                         lambda: reference_merge_many(_as_dicts(), k), repeats=3))
    rows.append(_measure(f"merge_m{m}", k, pairs, "optimized_dicts",
                         lambda: merge_many(_as_dicts(), k), repeats=3))
    rows.append(_measure(f"merge_m{m}", k, pairs, "optimized_arrays",
                         lambda: merge_many_arrays(keys_list, values_list, k),
                         repeats=3))


# ---------------------------------------------------------------------------
# framed_merge group (ISSUE 4: streaming wire transport into the merge fold)
# ---------------------------------------------------------------------------

def _run_framed_merge_group(rows: List[Dict], quick: bool) -> None:
    """m framed sketch exports in, one merged summary out, frame by frame.

    The seed aggregator reads one v1 JSON envelope per sketch — a token-keyed
    ``{"i:123": count}`` object decoded key by key — and folds the dicts with
    the frozen seed left fold.  The streaming path reads the same exports as
    one framed stream (binary columnar frames) through ``FrameReader`` +
    ``StreamingMerger``, holding only the current frame plus the ``<= k``
    accumulator.  Both start from serialized bytes and end at the *same*
    merged summary (asserted below), so the ratio is transport + fold against
    transport + fold.
    """
    import io
    import json as json_module

    from repro.api.framing import FrameReader, FrameWriter, StreamingMerger
    from repro.api.wire import encode_counters
    from repro.sketches.serialization import _decode_key

    m, k = MERGE_M, MERGE_K
    keys_list, values_list = _per_user_sketch_exports(
        m, k, n_per_user=5_000 if quick else 20_000)
    pairs = int(sum(keys.size for keys in keys_list))
    counters_list = [dict(zip(keys.tolist(), values.tolist()))
                     for keys, values in zip(keys_list, values_list)]

    buffer = io.BytesIO()
    with FrameWriter(buffer, k=k, frames=m) as writer:
        for counters in counters_list:
            writer.write_payload(encode_counters(counters, k=k))
    framed = buffer.getvalue()

    v1_blobs = [json_module.dumps(
        {"format_version": 1, "kind": "counters", "k": k,
         "counters": {f"i:{key}": value for key, value in counters.items()}})
        for counters in counters_list]

    def _seed_fold():
        dicts = []
        for blob in v1_blobs:
            payload = json_module.loads(blob)
            dicts.append({_decode_key(token): float(value)
                          for token, value in payload["counters"].items()})
        return reference_merge_many(dicts, k)

    def _streamed_fold():
        return StreamingMerger(k).consume(FrameReader(io.BytesIO(framed))).merged()

    assert _seed_fold() == _streamed_fold()  # same summary, same key order
    rows.append(_measure(f"framed_merge_m{m}", k, pairs, "reference_seed",
                         _seed_fold, repeats=3))
    rows.append(_measure(f"framed_merge_m{m}", k, pairs, "optimized_streaming",
                         _streamed_fold, repeats=3))


# ---------------------------------------------------------------------------
# net_aggregate group (ISSUE 5: the live socket service vs the offline fold)
# ---------------------------------------------------------------------------

def _run_net_aggregate_group(rows: List[Dict], quick: bool) -> None:
    """m sketch exports over a localhost socket vs the offline framed fold.

    The same chunked exports (4 framed chunks, one per client), the same
    two-level fold (per-chunk ``StreamingMerger`` + ordinal combine), the
    same seeded release — once folded straight off in-memory framed bytes,
    once pushed through the full asyncio service (Unix socket, framed
    control protocol, per-session folds, RELEASE round-trip).  The two
    histograms are asserted bit-identical, so the ratio isolates transport
    and protocol cost; the acceptance floor is >= 0.5x offline throughput.
    """
    import asyncio
    import io
    import tempfile

    from repro.api.framing import (
        FrameReader,
        FrameWriter,
        StreamingMerger,
        combine_mergers,
    )
    from repro.api.wire import encode_counters
    from repro.core.merging import PrivateMergedRelease
    from repro.net import AggregatorClient, AggregatorServer

    m, k, clients = MERGE_M, MERGE_K, 4
    keys_list, values_list = _per_user_sketch_exports(
        m, k, n_per_user=5_000 if quick else 20_000)
    pairs = int(sum(keys.size for keys in keys_list))
    chunk_bytes = []
    for indices in np.array_split(np.arange(m), clients):
        buffer = io.BytesIO()
        with FrameWriter(buffer, k=k, frames=len(indices)) as writer:
            for index in indices:
                writer.write_payload(encode_counters(
                    dict(zip(keys_list[index].tolist(),
                             values_list[index].tolist())), k=k))
        chunk_bytes.append(buffer.getvalue())

    def _offline():
        parts = [StreamingMerger(k).consume(FrameReader(io.BytesIO(blob)))
                 for blob in chunk_bytes]
        mechanism = PrivateMergedRelease(epsilon=1.0, delta=1e-6, k=k)
        return combine_mergers(parts, k).release(mechanism, rng=7)

    async def _over_socket():
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as sockdir:
            server = AggregatorServer(epsilon=1.0, delta=1e-6, k=k)
            async with await server.start(f"unix:{sockdir}/agg.sock"):

                async def push(ordinal: int, blob: bytes) -> None:
                    async with AggregatorClient(server.address, k=k,
                                                ordinal=ordinal) as client:
                        await client.push_raw(
                            list(FrameReader(io.BytesIO(blob), raw=True)))

                await asyncio.gather(*[push(ordinal, blob) for ordinal, blob
                                       in enumerate(chunk_bytes)])
                async with AggregatorClient(server.address) as client:
                    return await client.request_release(seed=7)

    def _networked():
        return asyncio.run(_over_socket())

    offline, networked = _offline(), _networked()
    assert list(offline.as_dict().items()) == list(networked.as_dict().items())
    rows.append(_measure(f"net_aggregate_m{m}", k, pairs, "reference_seed",
                         _offline, repeats=3))
    rows.append(_measure(f"net_aggregate_m{m}", k, pairs,
                         f"optimized_socket_{clients}clients", _networked,
                         repeats=3))


# ---------------------------------------------------------------------------
# durability group (ISSUE 7: the WAL-backed service vs the in-memory service)
# ---------------------------------------------------------------------------

def _run_durability_group(rows: List[Dict], quick: bool) -> Optional[Dict]:
    """The push workload with and without the write-ahead log.

    Same exports, same 4-client Unix-socket push cycle, same seeded release
    — once on a plain in-memory server (the ``reference_seed`` mode here:
    durability off is the baseline the floor is measured against), once with
    ``wal_dir`` set, so every accepted frame is spooled verbatim and every
    burst is fsync-committed to the sqlite ledger before its ACK.  The two
    releases are asserted bit-identical, and a fresh server recovering the
    WAL run's directory must release identically again — the throughput
    ratio is therefore the pure price of crash safety (floor: >= 0.5x).
    Returns the record's ``durability`` stanza.
    """
    import asyncio
    import io
    import tempfile
    from pathlib import Path as _Path

    from repro.api.framing import FrameReader, FrameWriter
    from repro.api.wire import encode_counters
    from repro.net import AggregatorClient, AggregatorServer

    m, k, clients = MERGE_M, MERGE_K, 4
    keys_list, values_list = _per_user_sketch_exports(
        m, k, n_per_user=5_000 if quick else 20_000)
    pairs = int(sum(keys.size for keys in keys_list))
    chunks = []
    for indices in np.array_split(np.arange(m), clients):
        buffer = io.BytesIO()
        with FrameWriter(buffer, k=k, frames=len(indices)) as writer:
            for index in indices:
                writer.write_payload(encode_counters(
                    dict(zip(keys_list[index].tolist(),
                             values_list[index].tolist())), k=k))
        buffer.seek(0)
        chunks.append(list(FrameReader(buffer, raw=True)))

    async def _push_cycle(wal_dir):
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as sockdir:
            server = AggregatorServer(epsilon=1.0, delta=1e-6, k=k,
                                      wal_dir=wal_dir)
            async with await server.start(f"unix:{sockdir}/agg.sock"):

                async def push(ordinal: int, bodies) -> None:
                    async with AggregatorClient(server.address, k=k,
                                                ordinal=ordinal) as client:
                        await client.push_raw(bodies)

                await asyncio.gather(*[push(ordinal, bodies) for ordinal,
                                       bodies in enumerate(chunks)])
                async with AggregatorClient(server.address) as client:
                    return await client.request_release(seed=7)

    async def _recovered_release(wal_dir):
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as sockdir:
            server = AggregatorServer(epsilon=1.0, delta=1e-6, k=k,
                                      wal_dir=wal_dir)
            async with await server.start(f"unix:{sockdir}/agg.sock"):
                async with AggregatorClient(server.address) as client:
                    return await client.request_release(seed=7)

    def _wal_off():
        return asyncio.run(_push_cycle(None))

    def _wal_on():
        with tempfile.TemporaryDirectory(prefix="repro-bench-wal-") as wal:
            return asyncio.run(_push_cycle(wal))

    # Identity + recovery sanity before any clock starts.
    baseline = _wal_off()
    with tempfile.TemporaryDirectory(prefix="repro-bench-wal-") as wal:
        durable = asyncio.run(_push_cycle(wal))
        recovered = asyncio.run(_recovered_release(wal))
        wal_bytes = sum(path.stat().st_size
                        for path in _Path(wal).glob("*.spool"))
    assert list(baseline.as_dict().items()) == list(durable.as_dict().items())
    recovery_identical = (
        list(durable.as_dict().items()) == list(recovered.as_dict().items())
        and durable.metadata.as_dict() == recovered.metadata.as_dict())
    assert recovery_identical

    rows.append(_measure(f"durability_m{m}", k, pairs, "reference_seed",
                         _wal_off, repeats=3))
    rows.append(_measure(f"durability_m{m}", k, pairs,
                         f"optimized_wal_sqlite_{clients}clients", _wal_on,
                         repeats=3))
    return {"durability": {
        "store_backend": "sqlite",
        "fsync": True,
        "clients": clients,
        "frames": m,
        "spool_bytes": int(wal_bytes),
        "recovered_release_identical": recovery_identical,
    }}


# ---------------------------------------------------------------------------
# relay group (ISSUE 8: aggregator-of-aggregators scale-out)
# ---------------------------------------------------------------------------

def _run_relay_group(rows: List[Dict], quick: bool) -> None:
    """A 2-leaves x 4-clients relay tree vs one flat 8-client server.

    The same 8 chunked per-user exports, the same seeded release — once
    pushed straight at a flat aggregation server by 8 clients
    (``reference_seed``: the single-tier service is the baseline the floor
    is measured against), once through two relay leaves that each fold 4
    client sessions and forward per-origin-session summary frames to the
    root on release.  The two histograms are asserted bit-identical before
    any clock starts, so the ratio isolates the cost of the extra hop
    (summary re-encode, leaf-to-root push, proxied RELEASE); the acceptance
    floor is >= 0.7x flat throughput.
    """
    import asyncio
    import io
    import tempfile

    from repro.api.framing import FrameReader, FrameWriter
    from repro.api.wire import encode_counters
    from repro.net import AggregatorClient, AggregatorServer
    from repro.net.relay import RelayAggregatorServer

    m, k, clients, leaves = MERGE_M, MERGE_K, 8, 2
    per_leaf = clients // leaves
    keys_list, values_list = _per_user_sketch_exports(
        m, k, n_per_user=5_000 if quick else 20_000)
    pairs = int(sum(keys.size for keys in keys_list))
    chunks = []
    for indices in np.array_split(np.arange(m), clients):
        buffer = io.BytesIO()
        with FrameWriter(buffer, k=k, frames=len(indices)) as writer:
            for index in indices:
                writer.write_payload(encode_counters(
                    dict(zip(keys_list[index].tolist(),
                             values_list[index].tolist())), k=k))
        buffer.seek(0)
        chunks.append(list(FrameReader(buffer, raw=True)))

    async def _push(address: str, ordinal: int, bodies) -> None:
        async with AggregatorClient(address, k=k, ordinal=ordinal) as client:
            await client.push_raw(bodies)

    async def _flat_cycle():
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as sockdir:
            server = AggregatorServer(epsilon=1.0, delta=1e-6, k=k)
            async with await server.start(f"unix:{sockdir}/flat.sock"):
                await asyncio.gather(*[
                    _push(server.address, ordinal, bodies)
                    for ordinal, bodies in enumerate(chunks)])
                async with AggregatorClient(server.address) as client:
                    return await client.request_release(seed=7)

    async def _relay_cycle():
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as sockdir:
            root = AggregatorServer(epsilon=1.0, delta=1e-6, k=k,
                                    accept_relays=True)
            async with await root.start(f"unix:{sockdir}/root.sock"):
                relays = [RelayAggregatorServer(
                    epsilon=1.0, delta=1e-6, k=k, upstream=root.address,
                    relay_ordinal=leaf) for leaf in range(leaves)]
                started = [await relay.start(f"unix:{sockdir}/leaf{leaf}.sock")
                           for leaf, relay in enumerate(relays)]
                try:
                    # Leaf-major client placement: global ordinal order over
                    # the tree matches the flat server's release order, so
                    # the releases are bit-identical.
                    await asyncio.gather(*[
                        _push(relays[ordinal // per_leaf].address, ordinal,
                              bodies)
                        for ordinal, bodies in enumerate(chunks)])
                    for relay in relays[:-1]:
                        await relay.forward_flush()
                    async with AggregatorClient(relays[-1].address) as client:
                        return await client.request_release(seed=7)
                finally:
                    for relay in started:
                        await relay.aclose()

    def _flat():
        return asyncio.run(_flat_cycle())

    def _relayed():
        return asyncio.run(_relay_cycle())

    flat, relayed = _flat(), _relayed()
    assert list(flat.as_dict().items()) == list(relayed.as_dict().items())
    assert flat.metadata.as_dict() == relayed.metadata.as_dict()
    rows.append(_measure(f"relay_m{m}", k, pairs, "reference_seed",
                         _flat, repeats=3))
    rows.append(_measure(f"relay_m{m}", k, pairs,
                         f"optimized_relay_{leaves}x{per_leaf}", _relayed,
                         repeats=3))


# ---------------------------------------------------------------------------
# release group (bulk noise + threshold filter over a large aggregate)
# ---------------------------------------------------------------------------

def _run_release_group(rows: List[Dict], quick: bool) -> None:
    keys = 20_000 if quick else 100_000
    generator = np.random.default_rng(77)
    aggregate = dict(zip(range(keys),
                         generator.integers(1, 500, size=keys).astype(np.float64).tolist()))
    epsilon, delta = 1.0, 1e-6
    scale = 2.0 / epsilon
    threshold = stability_histogram_threshold(epsilon, delta, sensitivity=2.0)
    rows.append(_measure("release_trusted_sum", MERGE_K, keys, "reference_seed",
                         lambda: reference_trusted_sum_filter(
                             aggregate, scale, threshold, np.random.default_rng(3)),
                         repeats=3))
    rows.append(_measure("release_trusted_sum", MERGE_K, keys, "optimized_vectorized",
                         lambda: _noisy_threshold_filter(
                             aggregate, scale, threshold, np.random.default_rng(3)),
                         repeats=3))
    _run_registry_release_sweep(rows, quick)


def _run_registry_release_sweep(rows: List[Dict], quick: bool) -> None:
    """One release-throughput row per registered mechanism.

    Every ``list_mechanisms()`` entry — the paper's releases and all
    baselines — is constructed from one shared parameter grab-bag, fitted
    with input matching its ``consumes`` tag, and timed over its private
    release.  New mechanisms join the sweep automatically when registered;
    the rows carry no floor (mechanisms differ by orders of magnitude by
    design) but extend the cross-PR trajectory per mechanism.
    """
    from repro.api import Pipeline, list_mechanisms, mechanism_entry

    n = 2_000 if quick else 5_000
    universe, k = 512, 256
    stream = zipf_stream(n, universe, exponent=1.2, rng=11, as_array=True)
    stream_list = stream.tolist()
    users = [frozenset(stream_list[index:index + 4])
             for index in range(0, n, 4)]
    params = dict(epsilon=1.0, delta=1e-6, k=k, universe_size=universe,
                  max_contribution=4, phi=0.01, block_size=max(1, n // 4))
    for name in sorted(list_mechanisms()):
        consumes = mechanism_entry(name).consumes
        pipeline = Pipeline(mechanism=name, **params)
        if consumes == "user_stream":
            pipeline.fit(users)
            units = len(users)
        elif consumes in ("stream", "checkpointed_stream"):
            pipeline.fit(stream_list)
            units = n
        else:  # sketch / sketch_list mechanisms ride the batch fit
            pipeline.fit(stream)
            units = n
        rows.append(_measure(f"release_{name}", k, units, "registry_release",
                             lambda pipeline=pipeline: pipeline.release(
                                 rng=np.random.default_rng(0)),
                             repeats=3))
    _run_auth_release_bench(rows, quick)


def _run_auth_release_bench(rows: List[Dict], quick: bool) -> None:
    """The served-release cycle with and without token auth.

    Same exports, same Unix-socket push + RELEASE round-trip — once on an
    open server (the ``reference_seed`` baseline here: auth off), once with
    ``auth_token`` required and every client presenting it.  The released
    histograms are asserted bit-identical, so the ratio is the pure price
    of the HELLO token check (one ``hmac.compare_digest`` per session); the
    acceptance floor is auth-on >= 0.9x auth-off throughput.
    """
    import asyncio
    import io
    import tempfile

    from repro.api.framing import FrameReader, FrameWriter
    from repro.api.wire import encode_counters
    from repro.net import AggregatorClient, AggregatorServer

    m, k, clients, token = 64, 256, 4, "bench-token"
    keys_list, values_list = _per_user_sketch_exports(
        m, k, n_per_user=2_000 if quick else 5_000)
    pairs = int(sum(keys.size for keys in keys_list))
    chunk_bytes = []
    for indices in np.array_split(np.arange(m), clients):
        buffer = io.BytesIO()
        with FrameWriter(buffer, k=k, frames=len(indices)) as writer:
            for index in indices:
                writer.write_payload(encode_counters(
                    dict(zip(keys_list[index].tolist(),
                             values_list[index].tolist())), k=k))
        chunk_bytes.append(buffer.getvalue())

    async def _serve_cycle(auth: bool):
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as sockdir:
            server = AggregatorServer(epsilon=1.0, delta=1e-6, k=k,
                                      auth_token=token if auth else None)
            client_token = token if auth else None
            async with await server.start(f"unix:{sockdir}/agg.sock"):

                async def push(ordinal: int, blob: bytes) -> None:
                    async with AggregatorClient(
                            server.address, k=k, ordinal=ordinal,
                            auth_token=client_token) as client:
                        await client.push_raw(
                            list(FrameReader(io.BytesIO(blob), raw=True)))

                await asyncio.gather(*[push(ordinal, blob) for ordinal, blob
                                       in enumerate(chunk_bytes)])
                async with AggregatorClient(server.address,
                                            auth_token=client_token) as client:
                    return await client.request_release(seed=7)

    def _open_cycle():
        return asyncio.run(_serve_cycle(False))

    def _auth_cycle():
        return asyncio.run(_serve_cycle(True))

    open_release, auth_release = _open_cycle(), _auth_cycle()
    assert (list(open_release.as_dict().items())
            == list(auth_release.as_dict().items()))
    # Best-of-5: the whole cycle (server startup, 5 sessions, release) runs
    # in milliseconds, so scheduler noise straddles the 0.9x floor at lower
    # repeat counts even though the token check itself is nanoseconds.
    rows.append(_measure("release_served_auth", k, pairs, "reference_seed",
                         _open_cycle, repeats=5))
    rows.append(_measure("release_served_auth", k, pairs, "optimized_auth_on",
                         _auth_cycle, repeats=5))


# ---------------------------------------------------------------------------
# kernels group (ISSUE 6: the compiled tier against the python engines)
# ---------------------------------------------------------------------------

def _kernel_tier_info() -> Dict:
    """The ``kernels`` stanza recorded with every run: which backend the hot
    paths resolved to and whether the C provider was available."""
    from repro import kernels as kernel_tier

    info = kernel_tier.kernel_info()
    return {
        "available": kernel_tier.available(),
        "backend": info["backend"],
        "providers": {name: provider["available"]
                      for name, provider in info["providers"].items()},
    }


@contextlib.contextmanager
def _kernels_env(backend: str):
    """Run the block under ``REPRO_KERNELS=backend``, then restore it."""
    from repro import kernels as kernel_tier

    previous = os.environ.get(kernel_tier.ENV_VAR)
    os.environ[kernel_tier.ENV_VAR] = backend
    try:
        yield
    finally:
        if previous is None:
            del os.environ[kernel_tier.ENV_VAR]
        else:
            os.environ[kernel_tier.ENV_VAR] = previous


def _run_kernels_group(rows: List[Dict], quick: bool) -> None:
    """The compiled kernel tier against the vectorized python engines.

    Both backends are bit-identical (same counters, same float bits, same
    dict order — asserted here before any clock starts), so the ratios are
    pure engine speed.  Update rows run the E11 Zipf stream at ``k = 64``:
    the small-``k`` regime is where the vectorized python path is weakest
    (its per-chunk overhead is amortized over fewer stored keys) and where
    the seed's per-element dict loop was slowest, hence the >= 8x-over-seed
    floor.  Fold rows time the post-interning fold stage
    (:func:`repro.sketches.merge._fold_interned`) on columnar input — the
    stage the compiled kernel replaces — with the shared ``np.unique``
    interning kept out of both measurements.
    """
    from repro import kernels as kernel_tier
    from repro.sketches import merge as merge_module

    compiled = kernel_tier.available()

    # -- update_batch on the E11 Zipf stream at small k ----------------------
    k = 64
    n_ref = 5_000 if quick else 20_000
    zipf = zipf_stream(E11_N // 4 if quick else E11_N, E11_UNIVERSE,
                       exponent=E11_EXPONENT, rng=E11_RNG, as_array=True)
    zipf_ref = zipf.tolist()[:n_ref]
    rows.append(_measure("kernels_update_zipf", k, n_ref, "reference_seed",
                         lambda: ReferenceMisraGries.from_stream(k, zipf_ref)))
    with _kernels_env("python"):
        rows.append(_measure("kernels_update_zipf", k, len(zipf),
                             "optimized_python_batch",
                             lambda: MisraGriesSketch(k).update_batch(zipf),
                             repeats=3))
    if compiled:
        with _kernels_env("python"):
            expected = MisraGriesSketch(k).update_batch(zipf)
        with _kernels_env("cc"):
            got = MisraGriesSketch(k).update_batch(zipf)
            assert got.counters() == expected.counters()
            assert list(got.counters()) == list(expected.counters())
            rows.append(_measure("kernels_update_zipf", k, len(zipf),
                                 "optimized_compiled_batch",
                                 lambda: MisraGriesSketch(k).update_batch(zipf),
                                 repeats=3))

    # -- the interned fold behind merge_many_arrays at m=256, k=1024 ---------
    m, size = MERGE_M, MERGE_K
    keys_list, values_list = _per_user_sketch_exports(
        m, size, n_per_user=5_000 if quick else 20_000)
    flat_keys = np.concatenate(keys_list)
    flat_values = np.concatenate(values_list).astype(np.float64)
    lengths = [keys.size for keys in keys_list]
    domain_keys, flat_ids = np.unique(flat_keys, return_inverse=True)
    domain = int(domain_keys.size)
    pairs = int(flat_keys.size)

    def _fold():
        return merge_module._fold_interned(flat_ids, flat_values, lengths,
                                           domain, size)

    with _kernels_env("python"):
        rows.append(_measure(f"kernels_fold_m{m}", size, pairs,
                             "optimized_python_fold", _fold, repeats=3))
    if compiled:
        with _kernels_env("python"):
            py_active, py_acc = _fold()
        with _kernels_env("cc"):
            cc_active, cc_acc = _fold()
            assert np.array_equal(py_active, cc_active)
            assert np.array_equal(py_acc[py_active], cc_acc[cc_active])
            rows.append(_measure(f"kernels_fold_m{m}", size, pairs,
                                 "optimized_compiled_fold", _fold, repeats=3))


# ---------------------------------------------------------------------------
# runner group (process-parallel sweep execution)
# ---------------------------------------------------------------------------

def _runner_trial(rng, k, exponent):
    """Sketch a Zipf stream and report the stored-key count (picklable)."""
    stream = zipf_stream(20_000, 5_000, exponent=exponent, rng=rng, as_array=True)
    sketch = MisraGriesSketch.from_stream(k, stream)
    return {"stored": float(len(sketch.counters()))}


def _run_runner_group(rows: List[Dict], quick: bool) -> None:
    repetitions = 2 if quick else 3
    sweep = SweepSpec({"k": [64, 256], "exponent": [1.1, 1.3]})
    trials = len(sweep.combinations()) * repetitions
    rows.append(_measure("runner_sweep", 0, trials, "optimized_sequential",
                         lambda: ExperimentRunner(repetitions=repetitions, rng=5)
                         .run(_runner_trial, sweep)))
    rows.append(_measure("runner_sweep", 0, trials, "optimized_workers2",
                         lambda: ExperimentRunner(repetitions=repetitions, rng=5, workers=2)
                         .run(_runner_trial, sweep)))


# ---------------------------------------------------------------------------
# loadgen group (ISSUE 10: the load harness + the obs-overhead floor)
# ---------------------------------------------------------------------------

def _run_obs_overhead_bench(rows: List[Dict], quick: bool) -> None:
    """The served-release cycle with observability on vs off.

    Same exports, same Unix-socket push + RELEASE round-trip — once with
    ``metrics=False`` (the ``reference_seed`` baseline: obs off), once with
    ``metrics=True`` and a JSON trace stream attached.  The released
    histograms are asserted bit-identical (obs is read-side only), so the
    ratio is the pure price of the counters/histograms/spans; the
    acceptance floor is obs-on >= 0.9x obs-off throughput.
    """
    import asyncio
    import io
    import tempfile

    from repro.api.framing import FrameReader, FrameWriter
    from repro.api.wire import encode_counters
    from repro.net import AggregatorClient, AggregatorServer

    m, k, clients = 64, 256, 4
    keys_list, values_list = _per_user_sketch_exports(
        m, k, n_per_user=2_000 if quick else 5_000)
    pairs = int(sum(keys.size for keys in keys_list))
    chunk_bytes = []
    for indices in np.array_split(np.arange(m), clients):
        buffer = io.BytesIO()
        with FrameWriter(buffer, k=k, frames=len(indices)) as writer:
            for index in indices:
                writer.write_payload(encode_counters(
                    dict(zip(keys_list[index].tolist(),
                             values_list[index].tolist())), k=k))
        chunk_bytes.append(buffer.getvalue())

    async def _serve_cycle(obs: bool):
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as sockdir:
            log = io.StringIO() if obs else None
            server = AggregatorServer(epsilon=1.0, delta=1e-6, k=k,
                                      metrics=obs, log_json=log)
            async with await server.start(f"unix:{sockdir}/agg.sock"):

                async def push(ordinal: int, blob: bytes) -> None:
                    async with AggregatorClient(
                            server.address, k=k, ordinal=ordinal,
                            metrics=obs) as client:
                        await client.push_raw(
                            list(FrameReader(io.BytesIO(blob), raw=True)))

                await asyncio.gather(*[push(ordinal, blob) for ordinal, blob
                                       in enumerate(chunk_bytes)])
                async with AggregatorClient(server.address) as client:
                    return await client.request_release(seed=7)

    def _off_cycle():
        return asyncio.run(_serve_cycle(False))

    def _on_cycle():
        return asyncio.run(_serve_cycle(True))

    off_release, on_release = _off_cycle(), _on_cycle()
    assert (list(off_release.as_dict().items())
            == list(on_release.as_dict().items()))
    assert off_release.metadata.as_dict() == on_release.metadata.as_dict()
    # Best-of-5 for the same reason as the auth bench: the whole cycle is
    # milliseconds, and scheduler noise would straddle the 0.9x floor.
    rows.append(_measure("obs_serve", k, pairs, "reference_seed",
                         _off_cycle, repeats=5))
    rows.append(_measure("obs_serve", k, pairs, "optimized_obs_on",
                         _on_cycle, repeats=5))


def _run_loadgen_group(rows: List[Dict], quick: bool) -> Optional[Dict]:
    """The ``repro loadgen`` harness as a benchmark workload.

    ``reference_seed`` is the closed loop at concurrency 1 (one client at a
    time, the degenerate harness); ``optimized_concurrent`` is the same
    population driven at the default bounded concurrency.  ``n`` is the
    client count, so ``elems_per_sec`` reads as *sessions per second* and
    the speedup is the concurrency win of the harness itself.  The returned
    ``loadgen`` stanza records the sustained quick-profile numbers (frames/s
    plus client-side latency percentiles) alongside the rows.
    """
    from repro.obs.loadgen import LoadgenConfig, run_loadgen

    k = 64
    ref_clients = 60 if quick else 150
    conc_clients = 400 if quick else 2_000

    def _config(clients: int, concurrency: int) -> LoadgenConfig:
        return LoadgenConfig(clients=clients, concurrency=concurrency,
                             stream_length=50, universe=1_000, k=k, seed=17,
                             releases=1, payload_pool=16, timeout=60.0)

    rows.append(_measure("loadgen_flat", k, ref_clients, "reference_seed",
                         lambda: run_loadgen(_config(ref_clients, 1))))
    report = run_loadgen(_config(conc_clients, 32))
    assert report.clients_failed == 0, report.errors
    start = time.perf_counter()
    report = run_loadgen(_config(conc_clients, 32))
    elapsed = time.perf_counter() - start
    rows.append({"workload": "loadgen_flat", "k": k, "n": conc_clients,
                 "mode": "optimized_concurrent",
                 "elems_per_sec": round(conc_clients / elapsed, 1)})
    _run_obs_overhead_bench(rows, quick)
    return {"loadgen": {
        "clients": conc_clients,
        "concurrency": 32,
        "sustained_clients_per_sec": round(report.sustained_clients_per_sec, 1),
        "sustained_frames_per_sec": round(report.sustained_frames_per_sec, 1),
        "latencies": report.latencies,
    }}


_GROUP_RUNNERS = {
    "sketch": _run_sketch_group,
    "merge": _run_merge_group,
    "framed_merge": _run_framed_merge_group,
    "net_aggregate": _run_net_aggregate_group,
    "durability": _run_durability_group,
    "relay": _run_relay_group,
    "release": _run_release_group,
    "kernels": _run_kernels_group,
    "runner": _run_runner_group,
    "loadgen": _run_loadgen_group,
}


def run_suite(quick: bool = False,
              workloads: Optional[Iterable[str]] = None) -> Dict:
    """Run the selected workload groups once and return the JSON-ready record."""
    selected = list(WORKLOAD_GROUPS) if workloads is None else list(workloads)
    unknown = [name for name in selected if name not in _GROUP_RUNNERS]
    if unknown:
        raise ValueError(f"unknown workload group(s) {unknown}; "
                         f"choose from {WORKLOAD_GROUPS}")
    rows: List[Dict] = []
    stanzas: Dict[str, Dict] = {}
    for name in WORKLOAD_GROUPS:
        if name in selected:
            extra = _GROUP_RUNNERS[name](rows, quick)
            if extra:
                # Group runners may return extra record stanzas (e.g. the
                # durability group's WAL/recovery summary).
                stanzas.update(extra)
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "quick": quick,
        "workloads": [name for name in WORKLOAD_GROUPS if name in selected],
        "kernels": _kernel_tier_info(),
        **stanzas,
        "results": rows,
        "speedups": _speedups(rows),
    }
    return record


def _sequential(sketch, elements: List[int]):
    update = sketch.update
    for element in elements:
        update(element)
    return sketch


def _speedups(rows: List[Dict]) -> Dict[str, float]:
    """Optimized-vs-reference throughput ratios per workload/k, plus
    compiled-vs-python ratios wherever a workload measured the same mode
    under both backends (``optimized_python_<x>`` / ``optimized_compiled_<x>``
    row pairs from the ``kernels`` group)."""
    by_key: Dict = {}
    for row in rows:
        by_key[(row["workload"], row["k"], row["mode"])] = row["elems_per_sec"]
    speedups: Dict[str, float] = {}
    for (workload, k, mode), rate in sorted(by_key.items()):
        if mode == "reference_seed":
            continue
        reference = by_key.get((workload, k, "reference_seed"))
        if reference:
            speedups[f"{workload}_k{k}_{mode.replace('optimized_', '')}"] = round(
                rate / reference, 2)
        if mode.startswith("optimized_compiled_"):
            python_rate = by_key.get((workload, k, mode.replace(
                "optimized_compiled_", "optimized_python_")))
            if python_rate:
                speedups[f"{workload}_k{k}_compiled_vs_python"] = round(
                    rate / python_rate, 2)
    return speedups


def append_record(record: Dict, path: Path = BENCH_PATH) -> Path:
    """Append ``record`` to the JSON history file (a list of run records).

    An unreadable history file (e.g. truncated by an interrupted write) is
    moved aside to ``<name>.corrupt`` rather than silently overwritten, so
    the cross-PR trajectory is never destroyed by one bad run.
    """
    history: List[Dict] = []
    if path.exists():
        try:
            history = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError):
            backup = path.with_name(path.name + ".corrupt")
            path.replace(backup)
            print(f"warning: {path} was unreadable; moved it to {backup} "
                  "and started a fresh history", file=sys.stderr)
        if not isinstance(history, list):
            history = [history]
    history.append(record)
    path.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")
    return path


def format_record(record: Dict) -> str:
    lines = [f"sketch perf suite @ {record['timestamp']} "
             f"(python {record['python']}, quick={record['quick']}, "
             f"workloads={','.join(record.get('workloads', []))})"]
    for row in record["results"]:
        lines.append(f"  {row['workload']:>28s}  k={row['k']:<5d} "
                     f"{row['mode']:<21s} {row['elems_per_sec']:>14,.0f} elem/s")
    lines.append("  speedups vs seed engine:")
    for name, ratio in record["speedups"].items():
        lines.append(f"    {name:<42s} {ratio:>8.1f}x")
    return "\n".join(lines)
