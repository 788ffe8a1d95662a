"""Property: the networked release is bit-identical to the offline framed fold.

The aggregation service folds each client session through its own
:class:`~repro.api.framing.StreamingMerger` and combines the summaries in
ordinal order; ``repro merge --framed`` over one framed file per client does
exactly the same (per-file fold, argument-order combine).  For the same
exports, the same split into N clients and the same seeded rng, the released
histograms must match bit for bit — keys, values and dict order — for N in
{1, 2, 4}, regardless of how the concurrent pushes interleave on the wire.

The offline comparator here is the library path the CLI calls
(per-file ``StreamingMerger`` + :func:`~repro.api.framing.combine_mergers`
+ :meth:`~repro.api.framing.StreamingMerger.release`); the CLI-binary
equivalence on top of it is covered by
``tests/integration/test_net_aggregation.py``.
"""

from __future__ import annotations

import asyncio
import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.framing import (
    FrameReader,
    FrameWriter,
    StreamingMerger,
    combine_mergers,
    summary_payload,
)
from repro.api.wire import encode_counters
from repro.core.merging import MergeStrategy, PrivateMergedRelease
from repro.net import AggregatorClient, AggregatorServer, RelayAggregatorServer

pytestmark = pytest.mark.net(seconds=240)

_KEYS = st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1)
_VALUES = st.one_of(
    st.integers(min_value=0, max_value=10 ** 6).map(float),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False))
_COUNTERS = st.dictionaries(_KEYS, _VALUES, min_size=0, max_size=12)
_EXPORT_LISTS = st.lists(_COUNTERS, min_size=1, max_size=8)


def _chunks(items, n):
    """Split ``items`` into n contiguous chunks (some possibly empty)."""
    size, extra = divmod(len(items), n)
    chunks, start = [], 0
    for index in range(n):
        stop = start + size + (1 if index < extra else 0)
        chunks.append(items[start:stop])
        start = stop
    return chunks


def _offline_release(chunked_exports, k, seed):
    """The `repro merge --framed` fold: per-file merger, ordered combine."""
    parts = []
    for chunk in chunked_exports:
        buffer = io.BytesIO()
        with FrameWriter(buffer, k=k, frames=len(chunk)) as writer:
            for envelope in chunk:
                writer.write_payload(envelope)
        parts.append(StreamingMerger(k).consume(FrameReader(io.BytesIO(buffer.getvalue()))))
    merger = combine_mergers(parts, k)
    mechanism = PrivateMergedRelease(epsilon=1.0, delta=1e-6, k=k,
                                     strategy=MergeStrategy.TRUSTED_MERGED)
    return merger.release(mechanism, rng=seed)


async def _network_release(chunked_exports, k, seed):
    """N concurrent pushing clients + one release client, in-process server."""
    async with await AggregatorServer(epsilon=1.0, delta=1e-6,
                                      k=k).start("127.0.0.1:0") as server:

        async def push_chunk(ordinal, chunk):
            if not chunk:
                return
            async with AggregatorClient(server.address, k=k,
                                        ordinal=ordinal) as client:
                await client.push(chunk)

        await asyncio.gather(*[push_chunk(ordinal, chunk)
                               for ordinal, chunk in enumerate(chunked_exports)])
        async with AggregatorClient(server.address) as client:
            return await client.request_release(seed=seed)


@given(counters_list=_EXPORT_LISTS, k=st.integers(min_value=1, max_value=16),
       seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_network_release_bit_identical_for_n_clients(counters_list, k, seed):
    exports = [encode_counters(counters, k=k, stream_length=37 * index)
               for index, counters in enumerate(counters_list)]
    for clients in (1, 2, 4):
        chunked = _chunks(exports, clients)
        offline = _offline_release(chunked, k, seed)
        networked = asyncio.run(_network_release(chunked, k, seed))
        assert list(networked.as_dict().items()) == list(offline.as_dict().items())
        assert networked.metadata.stream_length == offline.metadata.stream_length
        assert networked.metadata.notes == offline.metadata.notes


@given(counters_list=st.lists(
    st.dictionaries(st.text(min_size=1, max_size=4), _VALUES, max_size=8),
    min_size=1, max_size=6), k=st.integers(min_value=1, max_value=8))
@settings(max_examples=10, deadline=None)
def test_network_release_matches_offline_for_token_keys(counters_list, k):
    """String-keyed exports (dict key table in both folds) — still identical."""
    exports = [encode_counters(counters, k=k) for counters in counters_list]
    chunked = _chunks(exports, 2)
    offline = _offline_release(chunked, k, seed=9)
    networked = asyncio.run(_network_release(chunked, k, seed=9))
    assert list(networked.as_dict().items()) == list(offline.as_dict().items())


# ---------------------------------------------------------------------------
# Relay tier: N leaves x M clients releases bit-identically to one flat server
# ---------------------------------------------------------------------------

async def _relay_tree_release(chunked_exports, k, seed, leaves):
    """``leaves`` relay leaves, each serving a contiguous share of the client
    chunks with leaf-major ordinals, releasing through the last leaf."""
    per_leaf, extra = divmod(len(chunked_exports), leaves)
    assert extra == 0
    async with await AggregatorServer(
            epsilon=1.0, delta=1e-6, k=k,
            accept_relays=True).start("127.0.0.1:0") as root:
        relays = []
        try:
            for leaf in range(leaves):
                relay = RelayAggregatorServer(
                    epsilon=1.0, delta=1e-6, k=k, upstream=root.address,
                    relay_ordinal=leaf)
                await relay.start("127.0.0.1:0")
                relays.append(relay)

            async def push_chunk(leaf, offset, chunk):
                if not chunk:
                    return
                async with AggregatorClient(relays[leaf].address, k=k,
                                            ordinal=offset) as client:
                    await client.push(chunk)

            await asyncio.gather(*[
                push_chunk(index // per_leaf, index, chunk)
                for index, chunk in enumerate(chunked_exports)])
            # A release through one leaf flushes that leaf only; flush the
            # siblings first so the root covers the whole tree.
            for relay in relays[:-1]:
                await relay.forward_flush()
            async with AggregatorClient(relays[-1].address) as client:
                return await client.request_release(seed=seed)
        finally:
            for relay in relays:
                await relay.aclose()


async def _relay_chain_release(chunked_exports, k, seed):
    """Depth-2 chain (clients -> leaf -> mid -> root), release via the leaf."""
    async with await AggregatorServer(
            epsilon=1.0, delta=1e-6, k=k,
            accept_relays=True).start("127.0.0.1:0") as root:
        mid = leaf = None
        try:
            mid = RelayAggregatorServer(
                epsilon=1.0, delta=1e-6, k=k, upstream=root.address,
                relay_ordinal=0, accept_relays=True)
            await mid.start("127.0.0.1:0")
            leaf = RelayAggregatorServer(
                epsilon=1.0, delta=1e-6, k=k, upstream=mid.address,
                relay_ordinal=0)
            await leaf.start("127.0.0.1:0")

            async def push_chunk(ordinal, chunk):
                if not chunk:
                    return
                async with AggregatorClient(leaf.address, k=k,
                                            ordinal=ordinal) as client:
                    await client.push(chunk)

            await asyncio.gather(*[push_chunk(ordinal, chunk)
                                   for ordinal, chunk
                                   in enumerate(chunked_exports)])
            async with AggregatorClient(leaf.address) as client:
                # The RELEASE cascades: leaf flushes to mid and proxies, mid
                # flushes to root and proxies, root releases.
                return await client.request_release(seed=seed)
        finally:
            for relay in (leaf, mid):
                if relay is not None:
                    await relay.aclose()


@given(counters_list=_EXPORT_LISTS, k=st.integers(min_value=1, max_value=16),
       seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=8, deadline=None)
def test_relay_tree_release_bit_identical_over_shapes(counters_list, k, seed):
    """{1x4, 2x2, 4x1} relay trees == one flat 4-client server == offline."""
    exports = [encode_counters(counters, k=k, stream_length=41 * index)
               for index, counters in enumerate(counters_list)]
    chunked = _chunks(exports, 4)
    offline = _offline_release(chunked, k, seed)
    flat = asyncio.run(_network_release(chunked, k, seed))
    assert list(flat.as_dict().items()) == list(offline.as_dict().items())
    for leaves in (1, 2, 4):
        tree = asyncio.run(_relay_tree_release(chunked, k, seed, leaves))
        assert list(tree.as_dict().items()) == list(flat.as_dict().items())
        assert tree.metadata.stream_length == flat.metadata.stream_length
        assert tree.metadata.notes == flat.metadata.notes
        assert tree.metadata.as_dict() == flat.metadata.as_dict()


@given(counters_list=_EXPORT_LISTS, k=st.integers(min_value=1, max_value=12),
       seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=6, deadline=None)
def test_relay_chain_depth_two_bit_identical(counters_list, k, seed):
    exports = [encode_counters(counters, k=k, stream_length=13 * index)
               for index, counters in enumerate(counters_list)]
    chunked = _chunks(exports, 2)
    offline = _offline_release(chunked, k, seed)
    chained = asyncio.run(_relay_chain_release(chunked, k, seed))
    assert list(chained.as_dict().items()) == list(offline.as_dict().items())
    assert chained.metadata.as_dict() == offline.metadata.as_dict()


# ---------------------------------------------------------------------------
# The fold algebra behind the relay: forwarding trees are shape-invariant,
# pre-reduction is not
# ---------------------------------------------------------------------------

def _session_parts(counters_list, k):
    """One release part per session, as the servers build them."""
    parts = []
    for index, counters in enumerate(counters_list):
        envelope = encode_counters(counters, k=k, stream_length=29 * index)
        parts.append(StreamingMerger(k).add(envelope))
    return parts


def _forward_tree(parts, k, splits):
    """Relay ``parts`` through a random-shape forwarding tree.

    Each internal node forwards its children's parts upstream as summary
    frames (one ``summary_payload`` -> ``add_summary`` round trip per part,
    order preserved) — exactly what a relay hop does.  ``splits`` drives the
    tree shape; the flat part sequence must come out bit-identical no matter
    the shape, because every summary frame is a fixed point of the fold.
    """
    if len(parts) <= 1 or not splits:
        forwarded = parts
    else:
        cut = 1 + splits[0] % (len(parts) - 1)
        forwarded = (_forward_tree(parts[:cut], k, splits[1::2])
                     + _forward_tree(parts[cut:], k, splits[2::2]))
    return [StreamingMerger(k).add_summary(summary_payload(part))
            for part in forwarded]


@given(counters_list=st.lists(_COUNTERS.filter(bool), min_size=1, max_size=8),
       k=st.integers(min_value=1, max_value=16),
       splits=st.lists(st.integers(min_value=0, max_value=7), max_size=6),
       seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_forwarding_tree_shape_never_changes_the_release(counters_list, k,
                                                         splits, seed):
    """Any binary forwarding tree over the same (ordinal, commit order) part
    sequence combines bit-identically to the flat fold."""
    flat = combine_mergers(_session_parts(counters_list, k), k)
    treed = combine_mergers(
        _forward_tree(_session_parts(counters_list, k), k, splits), k)
    assert treed.merged() == flat.merged()
    assert list(treed.merged().items()) == list(flat.merged().items())
    assert treed.frames == flat.frames
    assert treed.total_stream_length == flat.total_stream_length
    mechanism = PrivateMergedRelease(epsilon=1.0, delta=1e-6, k=k,
                                     strategy=MergeStrategy.TRUSTED_MERGED)
    released_flat = flat.release(mechanism, rng=seed)
    released_tree = treed.release(mechanism, rng=seed)
    assert list(released_tree.as_dict().items()) == \
        list(released_flat.as_dict().items())


def test_pre_reduced_tree_fold_changes_the_answer():
    """Regression for the design constraint: the Agarwal merge is *not*
    associative before compaction, so a leaf that pre-combined its sessions
    into one blob would change the released values.  At k=1 the flat fold
    keeps a survivor; the pre-reduced pairing cancels everything."""
    k = 1
    sessions = [{1: 1.0}, {2: 2.0}, {3: 3.0}, {4: 4.0}]
    flat = combine_mergers(_session_parts(sessions, k), k).merged()
    assert flat == {4: 2.0}
    parts = _session_parts(sessions, k)
    left = combine_mergers(parts[:2], k)
    right = combine_mergers(parts[2:], k)
    pre_reduced = combine_mergers([left, right], k).merged()
    assert pre_reduced != flat
    assert pre_reduced == {}
