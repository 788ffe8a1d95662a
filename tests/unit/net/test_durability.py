"""In-process durability tests: WAL-backed server, resume, restart identity.

These drive real sockets (loopback) but keep server and clients in one
process and one event loop — the subprocess SIGKILL harness lives in
``tests/chaos/``.  Here the "crashes" are surgical: abrupt disconnects at
chosen protocol points, plus full server object teardown/rebuild on the
same ``wal_dir``, which exercises exactly the recovery path a killed
process takes (the WAL state on disk is the only carried-over state).
"""

import asyncio
import io

import pytest
from _lost_ack import LosesFirstByeAck

from repro.api import framing
from repro.api.framing import FrameHeader, FrameWriter
from repro.api.wire import encode_counters
from repro.exceptions import RemoteError
from repro.net import AggregatorClient, AggregatorServer
from repro.net.protocol import FrameChannel

pytestmark = pytest.mark.net

EPSILON, DELTA, K = 1.0, 1e-6, 16

FRAMES = [{1: 400.0, 2: 100.0}, {2: 200.0, 3: 300.0},
          {3: 50.0, 4: 450.0}, {1: 125.0, 5: 375.0}]


def _export(counters):
    return encode_counters(counters, k=K,
                           stream_length=int(sum(counters.values())))


def _packed(path, frames=FRAMES):
    buffer = io.BytesIO()
    with FrameWriter(buffer, k=K, frames=len(frames)) as writer:
        for counters in frames:
            writer.write_payload(_export(counters))
    path.write_bytes(buffer.getvalue())
    return path


async def _started(wal_dir=None, **kwargs):
    server = AggregatorServer(epsilon=EPSILON, delta=DELTA, k=K,
                              wal_dir=wal_dir, **kwargs)
    await server.start("127.0.0.1:0")
    return server


async def _raw_channel(server, ordinal):
    reader, writer = await asyncio.open_connection(*server.address.split(":"))
    channel = FrameChannel(reader, writer)
    await channel.send_prefix(FrameHeader(framing=framing.FRAMING_VERSION,
                                          frames=None, k=K))
    await channel.send_control("hello", k=K, ordinal=ordinal)
    await channel.read_prefix()
    kind, ack = await channel.next_event()
    assert kind == "control" and ack["verb"] == "ok"
    return channel, ack


def _identical(left, right):
    assert left.counts == right.counts
    assert list(left.counts) == list(right.counts)
    assert left.metadata.as_dict() == right.metadata.as_dict()


def _run(coroutine):
    return asyncio.run(coroutine)


async def _until(predicate, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline
        await asyncio.sleep(0.01)


class TestRestartIdentity:
    def test_release_is_bit_identical_after_restart(self, tmp_path):
        """Two committed sessions, server torn down, rebuilt on the same
        wal_dir: the recovered release must match the live one exactly —
        keys, values, dict order and metadata."""
        async def scenario():
            server = await _started(wal_dir=tmp_path / "wal")
            async with server:
                async with AggregatorClient(server.address, k=K,
                                            ordinal=1) as client:
                    await client.push([_export(FRAMES[2])])
                async with AggregatorClient(server.address, k=K,
                                            ordinal=0) as client:
                    await client.push([_export(FRAMES[0]),
                                       _export(FRAMES[1])])
                async with AggregatorClient(server.address) as querier:
                    live = await querier.request_release(seed=42)
            restarted = await _started(wal_dir=tmp_path / "wal")
            async with restarted:
                async with AggregatorClient(restarted.address) as querier:
                    recovered = await querier.request_release(seed=42)
            return live, recovered
        live, recovered = _run(scenario())
        _identical(live, recovered)

    def test_recovery_survives_a_second_restart(self, tmp_path):
        """Recovery must be idempotent: recover, commit more, recover again."""
        async def scenario():
            releases = []
            for ordinal, counters in enumerate(FRAMES[:3]):
                server = await _started(wal_dir=tmp_path / "wal")
                async with server:
                    async with AggregatorClient(server.address, k=K,
                                                ordinal=ordinal) as client:
                        await client.push([_export(counters)])
                    async with AggregatorClient(server.address) as querier:
                        releases.append(await querier.request_release(seed=9))
            server = await _started(wal_dir=tmp_path / "wal")
            async with server:
                async with AggregatorClient(server.address) as querier:
                    final = await querier.request_release(seed=9)
            return releases, final
        releases, final = _run(scenario())
        _identical(releases[-1], final)
        assert "streams=3" in final.metadata.notes

    def test_wal_off_has_no_durability(self, tmp_path):
        """Control: without --wal-dir a restart forgets everything."""
        async def scenario():
            server = await _started()
            async with server:
                async with AggregatorClient(server.address, k=K,
                                            ordinal=0) as client:
                    await client.push([_export(FRAMES[0])])
            restarted = await _started()
            async with restarted:
                with pytest.raises(RemoteError) as caught:
                    async with AggregatorClient(restarted.address) as querier:
                        await querier.request_release(seed=1)
            return caught.value.code
        assert _run(scenario()) == "nothing_to_release"


class TestIdempotentResume:
    def test_each_frame_folds_exactly_once_across_a_crashed_push(self, tmp_path):
        """The acceptance scenario, in-process: a client loses its connection
        mid-burst after two ACKed frames; the re-HELLO reports committed=2,
        push_file skips them, and the release equals an uninterrupted one."""
        packed = _packed(tmp_path / "exports.frames")

        async def scenario():
            server = await _started(wal_dir=tmp_path / "wal")
            async with server:
                # First attempt: frames 0 and 1 are pushed and ACKed, then a
                # second burst dies after declaring 2 frames and sending 1 —
                # the sent-but-unACKed frame must not count.
                channel, ack = await _raw_channel(server, ordinal=0)
                assert ack["committed"] == 0
                await channel.send_control("push", frames=2)
                await channel.send_payload(_export(FRAMES[0]))
                await channel.send_payload(_export(FRAMES[1]))
                kind, value = await channel.next_event()
                assert value["verb"] == "ok" and value["folded"] == 2
                await channel.send_control("push", frames=2)
                await channel.send_payload(_export(FRAMES[2]))
                await channel.close()  # vanish mid-burst, no ack seen
                await asyncio.sleep(0.05)

                # Resume: the server reports the durable prefix; push_file
                # skips exactly that many frames.
                async with AggregatorClient(server.address, k=K,
                                            ordinal=0) as client:
                    assert client.committed == 2
                    assert not client.session_complete
                    pushed = await client.push_file(packed)
                    assert pushed == 2  # frames 2 and 3 only
                async with AggregatorClient(server.address) as querier:
                    resumed = await querier.request_release(seed=7)

            # Reference: the same four frames pushed once, uninterrupted.
            reference = await _started(wal_dir=tmp_path / "ref-wal")
            async with reference:
                async with AggregatorClient(reference.address, k=K,
                                            ordinal=0) as client:
                    await client.push_file(packed)
                async with AggregatorClient(reference.address) as querier:
                    uninterrupted = await querier.request_release(seed=7)
            return resumed, uninterrupted
        resumed, uninterrupted = _run(scenario())
        _identical(resumed, uninterrupted)

    def test_completed_session_reports_complete_and_rejects_pushes(self, tmp_path):
        async def scenario():
            server = await _started(wal_dir=tmp_path / "wal")
            async with server:
                async with AggregatorClient(server.address, k=K,
                                            ordinal=3) as client:
                    await client.push([_export(FRAMES[0])])
                async with AggregatorClient(server.address, k=K,
                                            ordinal=3) as client:
                    assert client.session_complete
                    assert client.committed == 1
                    with pytest.raises(RemoteError) as caught:
                        await client.push([_export(FRAMES[1])])
                    return caught.value.code
        assert _run(scenario()) == "session_complete"

    def test_completion_survives_a_restart(self, tmp_path):
        async def scenario():
            server = await _started(wal_dir=tmp_path / "wal")
            async with server:
                async with AggregatorClient(server.address, k=K,
                                            ordinal=3) as client:
                    await client.push([_export(FRAMES[0])])
            restarted = await _started(wal_dir=tmp_path / "wal")
            async with restarted:
                async with AggregatorClient(restarted.address, k=K,
                                            ordinal=3) as client:
                    return client.session_complete, client.committed
        complete, committed = _run(scenario())
        assert complete and committed == 1

    def test_concurrent_hello_on_the_same_ordinal_rejected(self, tmp_path):
        """Two live sessions under one durable identity would interleave
        appends into one spool; the second HELLO must lose."""
        async def scenario():
            server = await _started(wal_dir=tmp_path / "wal")
            async with server:
                first = AggregatorClient(server.address, k=K, ordinal=5)
                await first.connect()
                try:
                    with pytest.raises(RemoteError) as caught:
                        async with AggregatorClient(server.address, k=K,
                                                    ordinal=5):
                            pass
                finally:
                    await first.close()
                return caught.value.code
        assert _run(scenario()) == "ordinal_active"

    def test_push_file_resilient_sync_helper_commits_durably(self, tmp_path):
        from repro.net import push_file_resilient

        packed = _packed(tmp_path / "exports.frames")

        async def serve():
            return await _started(wal_dir=tmp_path / "wal")

        async def scenario():
            server = await serve()
            async with server:
                loop = asyncio.get_running_loop()
                pushed = await loop.run_in_executor(
                    None, lambda: push_file_resilient(
                        server.address, packed, ordinal=0, k=K,
                        max_elapsed=20.0))
                # A second call finds the session complete: nothing pushed.
                again = await loop.run_in_executor(
                    None, lambda: push_file_resilient(
                        server.address, packed, ordinal=0, k=K,
                        max_elapsed=20.0))
                async with AggregatorClient(server.address) as querier:
                    stats = await querier.stats()
                return pushed, again, stats
        pushed, again, stats = _run(scenario())
        assert pushed == len(FRAMES)
        assert again == 0
        assert stats["sessions_committed"] == 1


class TestOrdinalIdentityWithoutWal:
    """The ordinal names one client stream on a plain server too: a stream
    that committed is never folded twice, whatever the retry."""

    def test_committed_ordinal_is_complete_and_refuses_pushes(self):
        async def scenario():
            server = await _started()
            async with server:
                async with AggregatorClient(server.address, k=K,
                                            ordinal=7) as client:
                    await client.push([_export({1: 5.0})])
                async with AggregatorClient(server.address) as querier:
                    before = await querier.request_release(seed=3)
                async with AggregatorClient(server.address, k=K,
                                            ordinal=7) as client:
                    seen = (client.session_complete, client.committed)
                    with pytest.raises(RemoteError) as caught:
                        await client.push([_export({1: 5.0})])
                async with AggregatorClient(server.address) as querier:
                    after = await querier.request_release(seed=3)
                merged = [part.merged() for part in server.committed_mergers()]
            return seen, caught.value.code, before, after, merged
        seen, code, before, after, merged = _run(scenario())
        assert seen == (True, 1)
        assert code == "session_complete"
        assert merged == [{1: 5.0}]
        _identical(before, after)

    def test_live_duplicate_ordinal_refused_until_the_first_is_rejected(self):
        async def scenario():
            server = await _started()
            async with server:
                channel, _ = await _raw_channel(server, ordinal=5)
                with pytest.raises(RemoteError) as caught:
                    async with AggregatorClient(server.address, k=K,
                                                ordinal=5):
                        pass
                # A protocol violation rejects the first session and frees
                # its ordinal: nothing of it was committed.
                await channel.send_control("frobnicate")
                kind, reply = await channel.next_event()
                await channel.close()
                await _until(lambda: server.stats()["sessions_active"] == 0)
                async with AggregatorClient(server.address, k=K,
                                            ordinal=5) as client:
                    fresh = (client.session_complete, client.committed)
                    await client.push([_export(FRAMES[0])])
                return caught.value.code, reply["verb"], fresh, server.stats()
        code, verb, fresh, stats = _run(scenario())
        assert code == "ordinal_active"
        assert verb == "error"
        assert fresh == (False, 0)
        assert stats["sessions_committed"] == 1

    @pytest.mark.parametrize("wal", [False, True])
    def test_boolean_ordinal_refused(self, wal, tmp_path):
        async def scenario():
            server = await _started(wal_dir=tmp_path / "wal" if wal else None)
            async with server:
                reader, writer = await asyncio.open_connection(
                    *server.address.split(":"))
                channel = FrameChannel(reader, writer)
                await channel.send_prefix(FrameHeader(
                    framing=framing.FRAMING_VERSION, frames=None, k=K))
                await channel.send_control("hello", k=K, ordinal=True)
                await channel.read_prefix()
                kind, reply = await channel.next_event()
                await channel.close()
                return reply
        reply = _run(scenario())
        assert reply["verb"] == "error" and reply["code"] == "protocol"

    def test_push_file_resilient_retry_after_a_lost_bye_ack_folds_once(
            self, tmp_path):
        from repro.net import push_file_resilient

        packed = _packed(tmp_path / "exports.frames")

        async def scenario():
            server = LosesFirstByeAck(epsilon=EPSILON, delta=DELTA, k=K)
            await server.start("127.0.0.1:0")
            async with server:
                loop = asyncio.get_running_loop()
                pushed = await loop.run_in_executor(
                    None, lambda: push_file_resilient(
                        server.address, packed, ordinal=0, k=K,
                        retry_delay=0.05, max_elapsed=20.0))
                async with AggregatorClient(server.address) as querier:
                    retried = await querier.request_release(seed=7)
            reference = await _started()
            async with reference:
                async with AggregatorClient(reference.address, k=K,
                                            ordinal=0) as client:
                    await client.push_file(packed)
                async with AggregatorClient(reference.address) as querier:
                    once = await querier.request_release(seed=7)
            return server.lost, pushed, retried, once
        lost, pushed, retried, once = _run(scenario())
        assert lost
        assert pushed == len(FRAMES)
        _identical(retried, once)
