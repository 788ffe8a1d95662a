"""Property: observability is pure read-side — it never changes a release.

The standing design constraint for ``repro.obs`` (DESIGN.md
"Observability"): metrics and trace spans only *read* clocks and counters
around the existing fold/commit/release calls, so a server constructed with
``metrics=True`` and a JSON trace log attached must release **bit
identically** — keys, values, dict order, metadata — to a server with
``metrics=False`` over the same exports, the same client split and the same
seed.  Hypothesis drives export contents, k and seed; both servers run the
same concurrent push schedule in-process.
"""

from __future__ import annotations

import asyncio
import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.wire import encode_counters
from repro.net import AggregatorClient, AggregatorServer

pytestmark = pytest.mark.net(seconds=240)

_KEYS = st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1)
_VALUES = st.one_of(
    st.integers(min_value=0, max_value=10 ** 6).map(float),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False))
_COUNTERS = st.dictionaries(_KEYS, _VALUES, min_size=0, max_size=12)
_EXPORT_LISTS = st.lists(_COUNTERS, min_size=1, max_size=8)


def _chunks(items, n):
    size, extra = divmod(len(items), n)
    chunks, start = [], 0
    for index in range(n):
        stop = start + size + (1 if index < extra else 0)
        chunks.append(items[start:stop])
        start = stop
    return chunks


async def _release(chunked_exports, k, seed, *, metrics, log_json=None):
    """N concurrent pushing clients + one release, with obs on or off."""
    async with await AggregatorServer(
            epsilon=1.0, delta=1e-6, k=k, metrics=metrics,
            log_json=log_json).start("127.0.0.1:0") as server:

        async def push_chunk(ordinal, chunk):
            if not chunk:
                return
            async with AggregatorClient(server.address, k=k, ordinal=ordinal,
                                        metrics=metrics) as client:
                await client.push(chunk)

        await asyncio.gather(*[push_chunk(ordinal, chunk)
                               for ordinal, chunk in enumerate(chunked_exports)])
        async with AggregatorClient(server.address) as client:
            release = await client.request_release(seed=seed)
        stats = server.stats()
        return release, stats


@given(counters_list=_EXPORT_LISTS, k=st.integers(min_value=1, max_value=16),
       seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=15, deadline=None)
def test_instrumented_release_bit_identical(counters_list, k, seed):
    exports = [encode_counters(counters, k=k, stream_length=37 * index)
               for index, counters in enumerate(counters_list)]
    chunked = _chunks(exports, 2)
    trace_log = io.StringIO()
    plain, plain_stats = asyncio.run(
        _release(chunked, k, seed, metrics=False))
    instrumented, obs_stats = asyncio.run(
        _release(chunked, k, seed, metrics=True, log_json=trace_log))
    # Bit identity: keys, values, dict order, metadata.
    assert list(instrumented.as_dict().items()) == list(plain.as_dict().items())
    assert instrumented.metadata.as_dict() == plain.metadata.as_dict()
    assert instrumented.metadata.stream_length == plain.metadata.stream_length
    assert instrumented.metadata.notes == plain.metadata.notes
    # The obs-off server carries no metrics stanza; the obs-on one does,
    # and actually recorded the work it watched.
    assert plain_stats["metrics"] is None
    counters = obs_stats["metrics"]["counters"]
    assert counters["server.frames_total"] == len(exports)
    assert counters["server.releases_total"] == 1
    # Spans reached the JSON log (at least the release span).
    assert '"span": "release"' in trace_log.getvalue()
    # Everything the two servers agree on outside obs is identical too.
    for key in ("frames", "stream_length", "sessions_committed", "releases"):
        assert obs_stats[key] == plain_stats[key]


@given(counters_list=st.lists(
    st.dictionaries(st.text(min_size=1, max_size=4), _VALUES, max_size=8),
    min_size=1, max_size=6), k=st.integers(min_value=1, max_value=8))
@settings(max_examples=8, deadline=None)
def test_instrumented_release_identical_for_token_keys(counters_list, k):
    """String-keyed exports (dict key table) — still obs-invariant."""
    exports = [encode_counters(counters, k=k) for counters in counters_list]
    chunked = _chunks(exports, 2)
    plain, _ = asyncio.run(_release(chunked, k, seed=9, metrics=False))
    instrumented, _ = asyncio.run(_release(chunked, k, seed=9, metrics=True))
    assert list(instrumented.as_dict().items()) == list(plain.as_dict().items())
    assert instrumented.metadata.as_dict() == plain.metadata.as_dict()


async def _release_after_each_commit(exports, k, seed, *, metrics):
    """Commit one session at a time, releasing after each (incremental combine)."""
    async with await AggregatorServer(
            epsilon=1.0, delta=1e-6, k=k, metrics=metrics).start("127.0.0.1:0") as server:
        releases = []
        for ordinal, export in enumerate(exports):
            async with AggregatorClient(server.address, k=k,
                                        ordinal=ordinal) as client:
                await client.push([export])
            async with AggregatorClient(server.address) as client:
                releases.append(await client.request_release(seed=seed + ordinal))
        return releases, server.stats()


@given(counters_list=st.lists(_COUNTERS.filter(bool), min_size=1, max_size=5),
       k=st.integers(min_value=1, max_value=16),
       seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=8, deadline=None)
def test_release_stage_metrics_are_read_side(counters_list, k, seed):
    exports = [encode_counters(counters, k=k, stream_length=11 * index)
               for index, counters in enumerate(counters_list)]
    plain, _ = asyncio.run(
        _release_after_each_commit(exports, k, seed, metrics=False))
    instrumented, stats = asyncio.run(
        _release_after_each_commit(exports, k, seed, metrics=True))
    for served, expected in zip(instrumented, plain):
        assert list(served.as_dict().items()) == list(expected.as_dict().items())
        assert served.metadata.as_dict() == expected.metadata.as_dict()
    releases = len(exports)
    histograms = stats["metrics"]["histograms"]
    for name in ("server.release_seconds", "server.release_combine_seconds",
                 "server.release_noise_seconds"):
        assert histograms[name]["count"] == releases
    # One session per release: the first passes through, the second folds
    # both parts, every later one absorbs only the new session.
    absorbed = stats["metrics"]["counters"].get(
        "server.release_parts_absorbed_total", 0)
    assert absorbed == (0 if releases == 1 else releases)
