"""Relay tier units: role gating, summary frames, forward queue, stats.

Everything here drives real servers on ephemeral loopback ports inside one
event loop — a root (``accept_relays``) plus one or more
:class:`~repro.net.RelayAggregatorServer` leaves — and asserts the pieces
the end-to-end property suite (``tests/property/test_net_equivalence.py``)
builds on: relay sessions are opt-in, each forwarded summary frame folds
into its own release part, the durable forward queue survives restarts
without re-forwarding, and STATS exposes the forward state.
"""

import asyncio
import contextlib
import sqlite3

import pytest
from _frozen_forward_spool import write_batch
from _lost_ack import LosesFirstByeAck

from repro.api.framing import (StreamingMerger, payload_frame_body,
                               summary_payload)
from repro.api.wire import decode, encode_counters
from repro.exceptions import (FramingError, NetworkError, ParameterError,
                              RemoteError)
from repro.net import (
    AggregatorClient,
    AggregatorServer,
    MemoryCheckpointStore,
    RelayAggregatorServer,
    SqliteCheckpointStore,
)
from repro.net.relay import ANON_OFFSET, FORWARD_ROW_PREFIX, STRIDE

pytestmark = pytest.mark.net

EPSILON, DELTA, K = 1.0, 1e-6, 16


def _export(counters, stream_length=None):
    if stream_length is None:
        stream_length = int(sum(counters.values()))
    return encode_counters(counters, k=K, stream_length=stream_length)


def _run(coroutine):
    return asyncio.run(coroutine)


async def _started_root(**kwargs):
    kwargs.setdefault("accept_relays", True)
    server = AggregatorServer(epsilon=EPSILON, delta=DELTA, k=K, **kwargs)
    await server.start("127.0.0.1:0")
    return server


async def _started_relay(upstream, **kwargs):
    relay = RelayAggregatorServer(epsilon=EPSILON, delta=DELTA, k=K,
                                  upstream=upstream, **kwargs)
    await relay.start("127.0.0.1:0")
    return relay


def _forward_rows(wal_dir):
    """The leaf ledger's forward-queue rows, ``id -> (root ordinal,
    covered seq, acked)``."""
    with SqliteCheckpointStore(wal_dir / "sessions.db") as store:
        return {record.session_id: (record.ordinal, record.commit_seq,
                                    record.committed_frames)
                for record in store.scan()
                if record.session_id.startswith(FORWARD_ROW_PREFIX)}


def _queue(relay):
    return [(batch.index, batch.root_ordinal, batch.covered_seq, batch.acked)
            for batch in relay._batches]


class FailingForwardStore(MemoryCheckpointStore):
    """A ledger whose forward-row puts fail while ``armed``."""

    armed = False

    def put(self, *records):
        if self.armed and any(record.session_id.startswith(FORWARD_ROW_PREFIX)
                              for record in records):
            raise sqlite3.OperationalError("disk I/O error")
        super().put(*records)


class TestSummaryFrames:
    def test_summary_payload_is_a_fold_fixed_point(self):
        merger = StreamingMerger(K)
        merger.add(_export({1: 10.0, 2: 6.0}))
        merger.add(_export({1: 3.0, 5: 4.0}))
        envelope = summary_payload(merger)
        refolded = StreamingMerger(K).add_summary(envelope)
        assert refolded.merged() == merger.merged()
        assert list(refolded.merged().items()) == list(merger.merged().items())
        assert refolded.frames == merger.frames == 2
        assert refolded.total_stream_length == merger.total_stream_length

    def test_summary_payload_declares_origin_frames(self):
        merger = StreamingMerger(K)
        for index in range(3):
            merger.add(_export({index: 2.0}))
        envelope = summary_payload(merger)
        assert envelope["meta"]["relay"] == {"frames": 3}

    def test_summary_of_empty_merger_rejected(self):
        with pytest.raises(ParameterError):
            summary_payload(StreamingMerger(K))

    def test_add_summary_rejects_bad_origin_frame_count(self):
        envelope = _export({1: 2.0})
        envelope["meta"]["relay"] = {"frames": 0}
        with pytest.raises(FramingError):
            StreamingMerger(K).add_summary(envelope)

    def test_add_summary_accepts_decoded_payloads(self):
        envelope = summary_payload(StreamingMerger(K).add(_export({7: 9.0})))
        merger = StreamingMerger(K).add_summary(decode(envelope))
        assert merger.merged() == {7: 9.0}
        assert merger.frames == 1


class TestRoleGating:
    def test_relay_session_rejected_without_accept_relays(self):
        async def scenario():
            async with await _started_root(accept_relays=False) as server:
                with pytest.raises(RemoteError) as caught:
                    async with AggregatorClient(server.address, k=K,
                                                role="relay"):
                        pass
                assert caught.value.code == "relay_not_accepted"
                # The server survives and still serves plain sessions.
                async with AggregatorClient(server.address, k=K,
                                            ordinal=0) as client:
                    await client.push([_export({1: 5.0})])
                assert server.stats()["sessions_committed"] == 1
        _run(scenario())

    def test_unknown_role_rejected(self):
        async def scenario():
            async with await _started_root() as server:
                with pytest.raises(RemoteError):
                    async with AggregatorClient(server.address, k=K,
                                                role="observer"):
                        pass
        _run(scenario())

    def test_relay_role_resume_mismatch_rejected(self, tmp_path):
        """A WAL ordinal spooled as a relay session cannot be resumed as a
        plain client: the frames would fold with the wrong granularity."""
        from repro.api import framing as framing_module
        from repro.api.framing import FrameHeader
        from repro.net.protocol import FrameChannel

        async def scenario():
            async with await _started_root(
                    wal_dir=tmp_path / "wal") as server:
                # A relay session that commits one durable burst and then
                # dies mid-push: its ledger record stays open (resumable).
                host, port = server.address.split(":")
                reader, writer = await asyncio.open_connection(host, int(port))
                channel = FrameChannel(reader, writer)
                await channel.send_prefix(FrameHeader(
                    framing=framing_module.FRAMING_VERSION, frames=None, k=K))
                await channel.send_control("hello", k=K, ordinal=3,
                                           role="relay")
                await channel.read_prefix()
                await channel.next_event()  # ok re=hello
                await channel.send_control("push", frames=1)
                await channel.send_payload(summary_payload(
                    StreamingMerger(K).add(_export({1: 5.0}))))
                await channel.next_event()  # ok re=push (durable)
                await channel.send_control("push", frames=2)
                await channel.send_payload(summary_payload(
                    StreamingMerger(K).add(_export({2: 5.0}))))
                await channel.close()  # burst cut short -> session rejected
                await asyncio.sleep(0.05)
                with pytest.raises(RemoteError) as caught:
                    async with AggregatorClient(server.address, k=K,
                                                ordinal=3):
                        pass
                assert caught.value.code == "role_mismatch"
                # Resuming with the matching role still works.
                async with AggregatorClient(server.address, k=K, ordinal=3,
                                            role="relay") as client:
                    assert client.committed == 1
        _run(scenario())

    def test_bad_relay_parameters_rejected(self):
        with pytest.raises(ParameterError):
            RelayAggregatorServer(EPSILON, DELTA, K, upstream="127.0.0.1:1",
                                  forward_on="sometimes")
        with pytest.raises(ParameterError):
            RelayAggregatorServer(EPSILON, DELTA, K, upstream="127.0.0.1:1",
                                  relay_ordinal=-1)


class TestRelayForwarding:
    def test_forward_retry_after_a_lost_bye_ack_folds_once(self):
        """A plain root (no WAL) commits the first forwarded batch but its
        BYE ack never arrives; the relay's retry sees the root ordinal
        complete, and the root releases exactly what a flat server does."""
        sessions = [(0, {1: 500.0, 2: 300.0}), (1, {2: 400.0, 3: 100.0})]

        async def scenario():
            root = LosesFirstByeAck(epsilon=EPSILON, delta=DELTA, k=K,
                                     accept_relays=True)
            await root.start("127.0.0.1:0")
            async with root:
                relay = await _started_relay(root.address)
                try:
                    for ordinal, counters in sessions:
                        async with AggregatorClient(relay.address, k=K,
                                                    ordinal=ordinal) as client:
                            await client.push([_export(counters)])
                    async with AggregatorClient(relay.address) as client:
                        tree = await client.request_release(seed=5)
                finally:
                    await relay.aclose()
                committed = root.stats()["sessions_committed"]
            async with await _started_root(accept_relays=False) as flat:
                for ordinal, counters in sessions:
                    async with AggregatorClient(flat.address, k=K,
                                                ordinal=ordinal) as client:
                        await client.push([_export(counters)])
                async with AggregatorClient(flat.address) as client:
                    reference = await client.request_release(seed=5)
            return root.lost, committed, tree, reference
        lost, committed, tree, reference = _run(scenario())
        assert lost
        assert committed == len(sessions)
        assert tree.counts == reference.counts
        assert list(tree.counts) == list(reference.counts)
        assert tree.metadata.as_dict() == reference.metadata.as_dict()

    def test_release_through_leaf_forwards_and_proxies(self):
        async def scenario():
            async with await _started_root() as root:
                relay = await _started_relay(root.address)
                try:
                    async with AggregatorClient(relay.address, k=K,
                                                ordinal=0) as client:
                        await client.push([_export({1: 500.0, 2: 300.0})])
                    async with AggregatorClient(relay.address) as client:
                        histogram = await client.request_release(seed=5)
                    # The root folded the forwarded summary as its own part
                    # and served the actual release.
                    root_stats = root.stats()
                    assert root_stats["sessions_committed"] == 1
                    assert root_stats["releases"] == 1
                    assert root_stats["sessions"][0]["ordinal"] == 0
                    assert root_stats["sessions"][0]["client"] == "relay-0"
                    direct = await AggregatorClient(
                        root.address).connect()
                    try:
                        again = await direct.request_release_payload(5)
                    finally:
                        await direct.close()
                    assert histogram.metadata.stream_length == 800
                    assert decode(
                        summary_payload(StreamingMerger(K).add(
                            _export({1: 500.0, 2: 300.0})))).stream_length == 800
                    assert again.stream_length == 800
                finally:
                    await relay.aclose()
        _run(scenario())

    def test_forward_on_commit_pushes_eagerly(self):
        async def scenario():
            async with await _started_root() as root:
                relay = await _started_relay(root.address, forward_on="commit")
                try:
                    async with AggregatorClient(relay.address, k=K,
                                                ordinal=2) as client:
                        await client.push([_export({4: 100.0})])
                    # The eager forward runs as a background task; wait for
                    # the root to see the committed relay session.
                    for _ in range(200):
                        if root.stats()["sessions_committed"]:
                            break
                        await asyncio.sleep(0.01)
                    root_stats = root.stats()
                    assert root_stats["sessions_committed"] == 1
                    assert root_stats["sessions"][0]["ordinal"] == 2
                    assert relay.stats()["forward"]["acked"] == 1
                finally:
                    await relay.aclose()
        _run(scenario())

    def test_root_ordinals_embed_leaf_position(self):
        async def scenario():
            async with await _started_root() as root:
                relay = await _started_relay(root.address, relay_ordinal=3)
                try:
                    async with AggregatorClient(relay.address, k=K,
                                                ordinal=7) as client:
                        await client.push([_export({1: 9.0})])
                    # Anonymous sessions land in the leaf's counter band.
                    async with AggregatorClient(relay.address, k=K) as client:
                        await client.push([_export({2: 8.0})])
                    await relay.forward_flush()
                    ordinals = [entry["ordinal"]
                                for entry in root.stats()["sessions"]]
                    assert ordinals == [3 * STRIDE + 7,
                                        3 * STRIDE + ANON_OFFSET + 0]
                finally:
                    await relay.aclose()
        _run(scenario())

    def test_relay_frames_count_origin_exports(self):
        """A relay session pushing one summary of F origin frames must leave
        the root's frame counters at F, same as the flat server's."""
        async def scenario():
            async with await _started_root() as root:
                relay = await _started_relay(root.address)
                try:
                    async with AggregatorClient(relay.address, k=K,
                                                ordinal=0) as client:
                        await client.push([_export({1: 5.0}),
                                           _export({1: 3.0}),
                                           _export({2: 4.0})])
                    await relay.forward_flush()
                    root_stats = root.stats()
                    assert root_stats["frames"] == 3
                    assert root_stats["sessions"][0]["frames"] == 3
                finally:
                    await relay.aclose()
        _run(scenario())


class TestForwardQueueDurability:
    def test_staged_batches_survive_restart_without_refolding(self, tmp_path):
        """A leaf killed after staging (upstream down) re-pushes the staged
        batch on restart — and never re-batches the same commit seq."""
        wal_dir = tmp_path / "leafwal"

        async def stage_with_upstream_down():
            relay = RelayAggregatorServer(
                epsilon=EPSILON, delta=DELTA, k=K,
                upstream="127.0.0.1:1",  # nothing listens here
                wal_dir=wal_dir, forward_max_elapsed=0.2)
            await relay.start("127.0.0.1:0")
            try:
                async with AggregatorClient(relay.address, k=K,
                                            ordinal=0) as client:
                    await client.push([_export({1: 700.0, 2: 100.0})])
                with pytest.raises(Exception):
                    await relay.forward_flush()
                stats = relay.stats()["forward"]
                assert stats["queued"] == 1
                assert stats["acked"] == 0
            finally:
                await relay.aclose()

        _run(stage_with_upstream_down())
        assert not (wal_dir / "forward").exists()
        assert _forward_rows(wal_dir) == {"::forward:00000000": (0, 1, 0)}

        async def restart_and_release():
            async with await _started_root() as root:
                relay = RelayAggregatorServer(
                    epsilon=EPSILON, delta=DELTA, k=K,
                    upstream=root.address, wal_dir=wal_dir)
                await relay.start("127.0.0.1:0")
                try:
                    # WAL recovery restored the committed session; the
                    # forward-queue scan must see it as already batched.
                    assert relay.stats()["forward"]["queued"] == 1
                    async with AggregatorClient(relay.address) as client:
                        histogram = await client.request_release(seed=11)
                    assert root.stats()["sessions_committed"] == 1
                    assert root.stats()["frames"] == 1
                    assert relay.stats()["forward"] == {
                        **relay.stats()["forward"],
                        "queued": 0, "acked": 1, "error": None}
                    return histogram
                finally:
                    await relay.aclose()

        histogram = _run(restart_and_release())
        assert histogram.metadata.stream_length == 800
        assert _forward_rows(wal_dir) == {"::forward:00000000": (0, 1, 1)}

    def test_acked_batches_never_repush(self, tmp_path):
        wal_dir = tmp_path / "leafwal"

        async def first_run():
            async with await _started_root(
                    wal_dir=tmp_path / "rootwal") as root:
                relay = RelayAggregatorServer(
                    epsilon=EPSILON, delta=DELTA, k=K,
                    upstream=root.address, wal_dir=wal_dir)
                await relay.start("127.0.0.1:0")
                try:
                    async with AggregatorClient(relay.address, k=K,
                                                ordinal=0) as client:
                        await client.push([_export({3: 50.0})])
                    await relay.forward_flush()
                    return root.address
                finally:
                    await relay.aclose()

        _run(first_run())

        async def second_run():
            async with await _started_root(
                    wal_dir=tmp_path / "rootwal") as root:
                relay = RelayAggregatorServer(
                    epsilon=EPSILON, delta=DELTA, k=K,
                    upstream=root.address, wal_dir=wal_dir)
                await relay.start("127.0.0.1:0")
                try:
                    assert await relay.forward_flush() == 0  # nothing to do
                    stats = root.stats()
                    assert stats["sessions_committed"] == 1  # WAL replay only
                    assert stats["frames"] == 1
                finally:
                    await relay.aclose()

        _run(second_run())


    def test_anonymous_batches_repush_under_their_root_ordinals(self, tmp_path):
        """Anonymous sessions staged while the upstream is down re-push after
        a restart under the root ordinals their rows recorded, and the root
        commits each origin session exactly once."""
        wal_dir = tmp_path / "leafwal"
        base = 2 * STRIDE + ANON_OFFSET

        async def leaf_run(upstream, keys=()):
            relay = RelayAggregatorServer(
                epsilon=EPSILON, delta=DELTA, k=K, upstream=upstream,
                relay_ordinal=2, wal_dir=wal_dir, forward_max_elapsed=0.2)
            await relay.start("127.0.0.1:0")
            try:
                for key in keys:
                    async with AggregatorClient(relay.address, k=K) as client:
                        await client.push([_export({key: 10.0 + key})])
                try:
                    return await relay.forward_flush()
                except NetworkError:
                    return None
            finally:
                await relay.aclose()

        async def scenario():
            async with await _started_root() as root:
                assert await leaf_run(root.address, keys=[1]) == 1
                # Upstream down: the first pending session is staged (its
                # row durable) before its push fails; the second waits.
                assert await leaf_run("127.0.0.1:1", keys=[2, 3]) is None
                assert _forward_rows(wal_dir) == {
                    "::forward:00000000": (base + 0, 1, 1),
                    "::forward:00000001": (base + 1, 2, 0)}
                assert await leaf_run(root.address) == 2
                assert await leaf_run(root.address) == 0
                stats = root.stats()
                committed = {entry.ordinal: entry.parts[0].merged()
                             for entry in root._committed}
            return stats, committed

        stats, committed = _run(scenario())
        assert stats["sessions_committed"] == 3
        assert stats["frames"] == 3
        assert committed == {base + 0: {1: 11.0}, base + 1: {2: 12.0},
                             base + 2: {3: 13.0}}
        assert _forward_rows(wal_dir) == {
            f"::forward:{index:08d}": (base + index, index + 1, 1)
            for index in range(3)}

    def test_failed_staging_put_refuses_release_and_pushes_nothing(self,
                                                                   tmp_path):
        store = FailingForwardStore()

        async def scenario():
            async with await _started_root() as root:
                relay = await _started_relay(
                    root.address, wal_dir=tmp_path / "leafwal", store=store)
                try:
                    async with AggregatorClient(relay.address, k=K,
                                                ordinal=0) as client:
                        await client.push([_export({1: 9.0})])
                    store.armed = True
                    async with AggregatorClient(relay.address) as client:
                        with pytest.raises(RemoteError) as caught:
                            await client.request_release(seed=3)
                        assert caught.value.code == "wal_commit_failed"
                        assert root.stats()["sessions_committed"] == 0
                        assert relay._batches == []
                        assert relay.stats()["forward"]["queued"] == 1
                        # The refusal kept the session: once the store
                        # heals, the same client's release goes through.
                        store.armed = False
                        again = await client.request_release(seed=3)
                        assert again.metadata.stream_length == 9
                    async with AggregatorClient(relay.address) as client:
                        histogram = await client.request_release(seed=3)
                    assert histogram.metadata.stream_length == 9
                    assert root.stats()["sessions_committed"] == 1
                    assert _queue(relay) == [(0, 0, 1, True)]
                finally:
                    await relay.aclose()
        _run(scenario())

    def test_failed_eager_put_is_reported_and_retried(self, tmp_path):
        store = FailingForwardStore()
        store.armed = True

        async def scenario():
            async with await _started_root() as root:
                relay = await _started_relay(
                    root.address, wal_dir=tmp_path / "leafwal", store=store,
                    forward_on="commit")
                try:
                    async with AggregatorClient(relay.address, k=K,
                                                ordinal=0) as client:
                        await client.push([_export({1: 9.0})])
                    for _ in range(300):
                        if relay.stats()["forward"]["error"]:
                            break
                        await asyncio.sleep(0.01)
                    error = relay.stats()["forward"]["error"]
                    assert "could not persist forward batch 0" in error
                    assert root.stats()["sessions_committed"] == 0
                    store.armed = False
                    assert await relay.forward_flush() == 1
                    assert relay.stats()["forward"]["error"] is None
                    assert root.stats()["sessions_committed"] == 1
                finally:
                    await relay.aclose()
        _run(scenario())

    def test_earlier_forward_spool_dir_upconverts_to_rows(self, tmp_path):
        """A leaf dir whose queue is an earlier release's ``forward/`` files
        starts with the same queue, and drops the directory."""
        wal_dir = tmp_path / "leafwal"

        async def leaf(upstream):
            relay = RelayAggregatorServer(
                epsilon=EPSILON, delta=DELTA, k=K, upstream=upstream,
                relay_ordinal=1, wal_dir=wal_dir, forward_max_elapsed=0.2)
            await relay.start("127.0.0.1:0")
            return relay

        async def scenario():
            async with await _started_root() as root:
                relay = await leaf(root.address)
                try:
                    async with AggregatorClient(relay.address, k=K,
                                                ordinal=4) as client:
                        await client.push([_export({1: 5.0})])
                    await relay.forward_flush()
                finally:
                    await relay.aclose()
                relay = await leaf("127.0.0.1:1")
                try:
                    async with AggregatorClient(relay.address, k=K) as client:
                        await client.push([_export({2: 6.0})])
                    with pytest.raises(NetworkError):
                        await relay.forward_flush()
                    queue = _queue(relay)
                    bodies = {entry.seq: [payload_frame_body(
                        summary_payload(part)) for part in entry.parts]
                        for entry in relay._committed}
                finally:
                    await relay.aclose()
                # Rewrite the queue in the earlier layout.
                with SqliteCheckpointStore(wal_dir / "sessions.db") as store:
                    for session_id in _forward_rows(wal_dir):
                        store.delete(session_id)
                for index, root_ordinal, seq, acked in queue:
                    write_batch(wal_dir / "forward", index=index,
                                root_ordinal=root_ordinal, covered_seq=seq,
                                leaf=1, k=K, bodies=bodies[seq], acked=acked)
                (wal_dir / "forward" / "fwd-00000002.tmp").write_bytes(b"x")
                relay = await leaf(root.address)
                try:
                    assert not (wal_dir / "forward").exists()
                    assert _queue(relay) == queue
                    assert await relay.forward_flush() == 1
                finally:
                    await relay.aclose()
                ordinals = [entry["ordinal"]
                            for entry in root.stats()["sessions"]]
            return queue, ordinals

        queue, ordinals = _run(scenario())
        assert queue == [(0, STRIDE + 4, 1, True),
                         (1, STRIDE + ANON_OFFSET, 2, False)]
        assert ordinals == [STRIDE + 4, STRIDE + ANON_OFFSET]
        assert _forward_rows(wal_dir) == {
            "::forward:00000000": (STRIDE + 4, 1, 1),
            "::forward:00000001": (STRIDE + ANON_OFFSET, 2, 1)}

    def test_forward_spool_file_without_batch_meta_is_refused(self, tmp_path):
        wal_dir = tmp_path / "leafwal"
        path = write_batch(wal_dir / "forward", index=0, root_ordinal=0,
                           covered_seq=1, leaf=0, k=K, bodies=[])
        path.write_bytes(path.read_bytes().replace(b"covered_seq",
                                                   b"covered_xyz"))
        relay = RelayAggregatorServer(EPSILON, DELTA, K,
                                      upstream="127.0.0.1:1", wal_dir=wal_dir)
        with pytest.raises(FramingError, match="relay batch metadata"):
            _run(relay.start("127.0.0.1:0"))
        relay.wal.close()
        assert (wal_dir / "forward").is_dir()


    def test_wal_inspect_renders_forward_rows(self, tmp_path, capsys):
        """``repro wal inspect`` on a leaf dir shows forward-queue rows as
        such, next to the privacy-budget row."""
        from repro.cli import main
        from repro.dp.accounting import PrivacyParams
        from repro.net import BudgetAccountant

        wal_dir = tmp_path / "leafwal"

        async def leaf_run(upstream, ordinal):
            relay = RelayAggregatorServer(
                epsilon=EPSILON, delta=DELTA, k=K, upstream=upstream,
                wal_dir=wal_dir, forward_max_elapsed=0.2)
            await relay.start("127.0.0.1:0")
            try:
                async with AggregatorClient(relay.address, k=K,
                                            ordinal=ordinal) as client:
                    await client.push([_export({1: 5.0})])
                with contextlib.suppress(NetworkError):
                    await relay.forward_flush()
            finally:
                await relay.aclose()

        async def scenario():
            async with await _started_root() as root:
                await leaf_run(root.address, 3)
            await leaf_run("127.0.0.1:1", None)

        _run(scenario())
        with SqliteCheckpointStore(wal_dir / "sessions.db") as store:
            BudgetAccountant(PrivacyParams(epsilon=EPSILON, delta=DELTA),
                             store=store).charge()
        capsys.readouterr()
        assert main(["wal", "inspect", str(wal_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"{wal_dir}: 2 session(s), 2 spool file(s)" in lines[0]
        assert "  ::forward:00000000: forward batch 0 root_ordinal=3 " \
            "covered_seq=1 acked" in lines
        assert f"  ::forward:00000001: forward batch 1 root_ordinal=" \
            f"{ANON_OFFSET} covered_seq=2 queued" in lines
        assert "  ::privacy-budget: 1 release(s) charged " \
            "(composition=basic)" in lines
        assert sum("release(s) charged" in line for line in lines) == 1


class TestStats:
    def test_plain_server_stats_expose_sessions_and_uptime(self):
        async def scenario():
            async with await _started_root(accept_relays=False) as server:
                async with AggregatorClient(server.address, k=K,
                                            ordinal=5, client_name="srv5") as c:
                    await c.push([_export({1: 4.0}), _export({2: 2.0})])
                async with AggregatorClient(server.address, k=K) as c:
                    await c.push([_export({3: 1.0})])
                async with AggregatorClient(server.address) as client:
                    stats = await client.stats()
                assert stats["role"] == "aggregator"
                assert stats["accept_relays"] is False
                assert isinstance(stats["uptime_s"], float)
                assert stats["uptime_s"] >= 0.0
                assert "uptime" not in stats
                # Committed sessions in canonical (ordinal, commit) order,
                # each with its committed frame count.
                assert stats["sessions"] == [
                    {"ordinal": 5, "client": "srv5", "frames": 2, "seq": 1},
                    {"ordinal": None, "client": None, "frames": 1, "seq": 2},
                ]
        _run(scenario())

    def test_relay_stats_expose_forward_state(self):
        async def scenario():
            async with await _started_root() as root:
                relay = await _started_relay(root.address, relay_ordinal=1)
                try:
                    async with AggregatorClient(relay.address, k=K,
                                                ordinal=0) as client:
                        await client.push([_export({1: 2.0})])
                    before = relay.stats()
                    assert before["role"] == "relay"
                    forward = before["forward"]
                    assert forward["upstream"] == root.address
                    assert forward["policy"] == "release"
                    assert forward["relay_ordinal"] == 1
                    assert forward["queued"] == 1
                    assert forward["acked"] == 0
                    assert forward["last_backoff"] is None
                    await relay.forward_flush()
                    after = relay.stats()["forward"]
                    assert after["queued"] == 0
                    assert after["acked"] == 1
                finally:
                    await relay.aclose()
        _run(scenario())

    def test_relay_stats_surface_forward_errors(self):
        async def scenario():
            relay = RelayAggregatorServer(
                epsilon=EPSILON, delta=DELTA, k=K,
                upstream="127.0.0.1:1", forward_on="commit",
                forward_max_elapsed=0.2)
            await relay.start("127.0.0.1:0")
            try:
                async with AggregatorClient(relay.address, k=K,
                                            ordinal=0) as client:
                    await client.push([_export({1: 2.0})])
                for _ in range(300):
                    if relay.stats()["forward"]["error"]:
                        break
                    await asyncio.sleep(0.01)
                forward = relay.stats()["forward"]
                assert forward["error"] is not None
                assert "retry budget" in forward["error"]
                assert forward["queued"] == 1
            finally:
                await relay.aclose()
        _run(scenario())


class TestAnonymousOrdinalBand:
    """A leaf's counter band ``[ANON_OFFSET, STRIDE)`` never overflows into
    the next leaf's ordinals: the session that would need one more counter
    is refused with ``ordinal_space_exhausted`` and is not committed."""

    @pytest.fixture(autouse=True)
    def _two_slot_band(self, monkeypatch):
        from repro.net import relay as relay_module
        monkeypatch.setattr(relay_module, "STRIDE", 8)
        monkeypatch.setattr(relay_module, "ANON_OFFSET", 6)

    @staticmethod
    async def _push(address, ordinal, key):
        async with AggregatorClient(address, k=K, ordinal=ordinal) as client:
            await client.push([_export({key: 3.0})])
            await client.bye()   # strict: surfaces a refused commit

    def test_overflowing_session_is_refused_not_committed(self):
        async def scenario():
            async with await _started_root() as root:
                relay = await _started_relay(root.address, relay_ordinal=1)
                try:
                    # No ordinal, and an ordinal past ANON_OFFSET, both draw
                    # from the two-slot band.
                    await self._push(relay.address, None, 1)
                    await self._push(relay.address, 6, 2)
                    with pytest.raises(RemoteError) as caught:
                        await self._push(relay.address, None, 3)
                    assert caught.value.code == "ordinal_space_exhausted"
                    # Ordinals that map directly still commit.
                    await self._push(relay.address, 5, 4)
                    assert relay.stats()["sessions_committed"] == 3
                    await relay.forward_flush()
                    ordinals = [entry["ordinal"]
                                for entry in root.stats()["sessions"]]
                    assert ordinals == [8 + 5, 8 + 6, 8 + 7]
                    # Forwarding frees nothing: band ordinals are never reused.
                    with pytest.raises(RemoteError) as caught:
                        await self._push(relay.address, 7, 5)
                    assert caught.value.code == "ordinal_space_exhausted"
                    assert root.stats()["sessions_committed"] == 3
                finally:
                    await relay.aclose()
        _run(scenario())

    def test_reservations_survive_a_restart(self, tmp_path):
        wal_dir = tmp_path / "leafwal"

        async def run(pushes):
            relay = RelayAggregatorServer(
                epsilon=EPSILON, delta=DELTA, k=K,
                upstream="127.0.0.1:1",  # never reached: forward on release
                wal_dir=wal_dir)
            await relay.start("127.0.0.1:0")
            try:
                for ordinal, key in pushes:
                    await self._push(relay.address, ordinal, key)
                return relay.stats()["sessions_committed"]
            finally:
                await relay.aclose()

        assert _run(run([(None, 1), (None, 2)])) == 2

        async def refused_after_restart():
            with pytest.raises(RemoteError) as caught:
                await run([(None, 3)])
            return caught.value.code

        assert _run(refused_after_restart()) == "ordinal_space_exhausted"
        assert _run(run([(0, 4)])) == 3
