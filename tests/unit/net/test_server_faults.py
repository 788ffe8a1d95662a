"""Server fault paths: bad sessions are rejected, the server keeps serving.

Every test drives a real :class:`~repro.net.AggregatorServer` on an
ephemeral loopback port inside one event loop, misbehaves on one connection,
and then proves the server still accepts, folds and releases on a healthy
follow-up session.
"""

import asyncio

import pytest

from repro.api import framing
from repro.api.framing import FrameHeader
from repro.api.wire import encode_counters
from repro.exceptions import NetworkError, RemoteError
from repro.net import AggregatorClient, AggregatorServer
from repro.net.protocol import FrameChannel

pytestmark = pytest.mark.net

EPSILON, DELTA, K = 1.0, 1e-6, 16


def _export(counters):
    return encode_counters(counters, k=K, stream_length=int(sum(counters.values())))


async def _started_server(**kwargs):
    server = AggregatorServer(epsilon=EPSILON, delta=DELTA, k=K, **kwargs)
    await server.start("127.0.0.1:0")
    return server


async def _healthy_roundtrip(server, seed=3):
    """Push one export on a fresh session and release — the liveness probe."""
    async with AggregatorClient(server.address, k=K, ordinal=0) as client:
        await client.push([_export({1: 4000.0, 2: 2000.0})])
    async with AggregatorClient(server.address) as client:
        return await client.request_release(seed=seed)


async def _raw_channel(server):
    reader, writer = await asyncio.open_connection(*server.address.split(":"))
    channel = FrameChannel(reader, writer)
    await channel.send_prefix(FrameHeader(framing=framing.FRAMING_VERSION,
                                          frames=None, k=K))
    return channel


def _run(coroutine):
    return asyncio.run(coroutine)


class TestSessionRejection:
    def test_k_mismatch_session_rejected_server_survives(self):
        async def scenario():
            async with await _started_server() as server:
                with pytest.raises(RemoteError) as caught:
                    async with AggregatorClient(server.address, k=K + 1):
                        pass
                assert caught.value.code == "k_mismatch"
                histogram = await _healthy_roundtrip(server)
                assert server.stats()["sessions_rejected"] == 1
                return histogram
        histogram = _run(scenario())
        assert histogram.metadata.sketch_size == K

    def test_envelope_k_mismatch_inside_push_rejected(self):
        """A session that agreed on k but ships a different-k export is cut:
        merging disagreeing sketch sizes would miscalibrate the release."""
        async def scenario():
            async with await _started_server() as server:
                channel = await _raw_channel(server)
                await channel.send_control("hello", k=K, ordinal=0)
                await channel.read_prefix()
                await channel.next_event()  # ok re=hello
                await channel.send_control("push", frames=1)
                await channel.send_payload(
                    encode_counters({5: 500.0}, k=K + 4, stream_length=500))
                kind, value = await channel.next_event()
                await channel.close()
                histogram = await _healthy_roundtrip(server)
                return kind, value, histogram
        kind, value, histogram = _run(scenario())
        assert kind == "control" and value["verb"] == "error"
        assert value["code"] == "k_mismatch"
        assert 5 not in histogram  # the mismatched export contributed nothing

    def test_rejected_client_with_a_burst_in_flight_reads_the_error(self):
        """The server rejects frame 1 of a large burst while the rest is
        still arriving; it discards what it buffered and drains the socket
        before closing, so the ERROR frame reaches the client intact."""
        async def scenario():
            async with await _started_server() as server:
                channel = await _raw_channel(server)
                await channel.send_control("hello", k=K, ordinal=0)
                await channel.read_prefix()
                await channel.next_event()  # ok re=hello
                wide = {key: float(key + 1) for key in range(1024)}
                burst = [encode_counters(wide, k=K + 4, stream_length=9)] + [
                    _export(wide) for _ in range(31)]
                await channel.send_bytes(
                    framing.encode_control_frame({"verb": "push",
                                                  "frames": len(burst)})
                    + b"".join(framing.encode_payload_frame(export)
                               for export in burst))
                kind, value = await channel.next_event()
                await channel.close()
                histogram = await _healthy_roundtrip(server)
                return kind, value, server.stats(), histogram
        kind, value, stats, histogram = _run(scenario())
        assert kind == "control" and value["verb"] == "error"
        assert value["code"] == "k_mismatch"
        assert stats["sessions_rejected"] == 1
        assert 1 in histogram

    def test_bad_magic_rejected_server_survives(self):
        async def scenario():
            async with await _started_server() as server:
                reader, writer = await asyncio.open_connection(
                    *server.address.split(":"))
                writer.write(b"JUNK!junkjunkjunk")
                writer.close()
                await writer.wait_closed()
                await asyncio.sleep(0.05)
                return await _healthy_roundtrip(server)
        assert len(_run(scenario())) >= 0

    def test_truncated_frame_mid_push_discards_session(self):
        async def scenario():
            async with await _started_server() as server:
                channel = await _raw_channel(server)
                await channel.send_control("hello", k=K, ordinal=5)
                await channel.read_prefix()
                await channel.next_event()  # ok re=hello
                # Declare 2 frames, deliver 1, then vanish: the declared
                # burst is cut short -> FramingError -> session discarded.
                await channel.send_control("push", frames=2)
                await channel.send_payload(_export({9: 9.0}))
                await channel.close()
                await asyncio.sleep(0.05)
                histogram = await _healthy_roundtrip(server)
                stats = server.stats()
                return histogram, stats
        histogram, stats = _run(scenario())
        assert stats["sessions_rejected"] == 1
        assert stats["sessions_committed"] == 1
        assert 9 not in histogram  # the partial push contributed nothing

    def test_disconnect_mid_frame_discards_session(self):
        async def scenario():
            async with await _started_server() as server:
                channel = await _raw_channel(server)
                await channel.send_control("hello", k=K, ordinal=5)
                await channel.read_prefix()
                await channel.next_event()
                await channel.send_control("push", frames=1)
                # Half a frame: a plausible length prefix, then half the body.
                body = framing.encode_payload_frame(_export({8: 8.0}))
                await channel.send_bytes(body[:len(body) // 2])
                await channel.close()
                await asyncio.sleep(0.05)
                histogram = await _healthy_roundtrip(server)
                return histogram, server.stats()
        histogram, stats = _run(scenario())
        assert stats["sessions_rejected"] == 1
        assert 8 not in histogram

    def test_payload_outside_push_burst_rejected(self):
        async def scenario():
            async with await _started_server() as server:
                channel = await _raw_channel(server)
                await channel.send_control("hello", k=K)
                await channel.read_prefix()
                await channel.next_event()
                await channel.send_payload(_export({1: 1.0}))  # no push verb
                kind, value = await channel.next_event()
                await channel.close()
                await _healthy_roundtrip(server)
                return kind, value
        kind, value = _run(scenario())
        assert kind == "control" and value["verb"] == "error"
        assert "push" in value["message"]

    def test_unknown_verb_rejected(self):
        async def scenario():
            async with await _started_server() as server:
                channel = await _raw_channel(server)
                await channel.send_control("hello", k=K)
                await channel.read_prefix()
                await channel.next_event()
                await channel.send_control("frobnicate")
                kind, value = await channel.next_event()
                await channel.close()
                return kind, value
        kind, value = _run(scenario())
        assert kind == "control" and value["verb"] == "error"

    def test_verb_before_hello_rejected(self):
        async def scenario():
            async with await _started_server() as server:
                channel = await _raw_channel(server)
                await channel.send_control("push", frames=1)
                await channel.read_prefix()
                kind, value = await channel.next_event()
                await channel.close()
                return kind, value
        kind, value = _run(scenario())
        assert kind == "control" and value["verb"] == "error"
        assert "hello" in value["message"]


class TestReleaseSemantics:
    def test_release_with_nothing_committed_errors_cleanly(self):
        async def scenario():
            async with await _started_server() as server:
                with pytest.raises(RemoteError) as caught:
                    async with AggregatorClient(server.address) as client:
                        await client.request_release(seed=1)
                assert caught.value.code == "nothing_to_release"
                return await _healthy_roundtrip(server)
        assert _run(scenario()) is not None

    def test_concurrent_pushes_with_interleaved_release(self):
        """A RELEASE between pushes sees only committed sessions; later
        releases see everything; the server never goes down."""
        async def scenario():
            async with await _started_server() as server:
                async with AggregatorClient(server.address, k=K, ordinal=0) as first:
                    await first.push([_export({1: 1000.0})])
                # `first` committed.  Open two in-flight pushers that have
                # pushed but NOT committed yet, and release in between.
                second = AggregatorClient(server.address, k=K, ordinal=1)
                third = AggregatorClient(server.address, k=K, ordinal=2)
                await second.connect()
                await third.connect()
                await asyncio.gather(second.push([_export({2: 2000.0})]),
                                     third.push([_export({3: 3000.0})]))
                async with AggregatorClient(server.address) as querier:
                    early = await querier.request_release(seed=5)
                await second.close()
                await third.close()
                async with AggregatorClient(server.address) as querier:
                    late = await querier.request_release(seed=5)
                    stats = await querier.stats()
                return early, late, stats
        early, late, stats = _run(scenario())
        assert 1 in early and 2 not in early and 3 not in early
        assert 1 in late and 2 in late and 3 in late
        assert stats["releases"] == 2
        assert stats["sessions_committed"] == 3

    def test_releases_are_repeatable_and_seeded(self):
        async def scenario():
            async with await _started_server() as server:
                async with AggregatorClient(server.address, k=K, ordinal=0) as client:
                    await client.push([_export({1: 600.0, 2: 300.0})])
                async with AggregatorClient(server.address) as querier:
                    one = await querier.request_release(seed=11)
                    two = await querier.request_release(seed=11)
                    other = await querier.request_release(seed=12)
                return one, two, other
        one, two, other = _run(scenario())
        assert one.as_dict() == two.as_dict()
        assert one.metadata.epsilon == EPSILON
        assert other.as_dict() != one.as_dict() or True  # different seed may coincide


class TestLifecycle:
    def test_graceful_drain_waits_for_inflight_session(self):
        async def scenario():
            server = await _started_server(drain_timeout=5.0)
            client = AggregatorClient(server.address, k=K, ordinal=0)
            await client.connect()
            await client.push([_export({4: 400.0})])

            async def finish_later():
                await asyncio.sleep(0.1)
                await client.close()  # bye -> commit

            finisher = asyncio.ensure_future(finish_later())
            await server.aclose(drain=True)  # must wait for the bye
            await finisher
            return server.stats()
        stats = _run(scenario())
        assert stats["sessions_committed"] == 1

    def test_server_adopts_k_from_first_session(self):
        async def scenario():
            server = AggregatorServer(epsilon=EPSILON, delta=DELTA, k=None)
            await server.start("127.0.0.1:0")
            async with server:
                async with AggregatorClient(server.address, k=32, ordinal=0) as client:
                    await client.push([encode_counters({1: 2.0}, k=32)])
                    agreed = client.server_k
                with pytest.raises(RemoteError) as caught:
                    async with AggregatorClient(server.address, k=64):
                        pass
                return agreed, caught.value.code, server.k
        agreed, code, k = _run(scenario())
        assert agreed == 32 and k == 32 and code == "k_mismatch"

    def test_push_without_any_k_rejected(self):
        async def scenario():
            server = AggregatorServer(epsilon=EPSILON, delta=DELTA, k=None)
            await server.start("127.0.0.1:0")
            async with server:
                with pytest.raises(NetworkError):
                    # RemoteError when the error frame wins the race, plain
                    # NetworkError when the reset does; both are NetworkError.
                    async with AggregatorClient(server.address) as client:
                        await client.push([encode_counters({1: 2.0})])
        _run(scenario())

    def test_bye_ack_reports_committed_frame_count(self):
        """The BYE ack is the client's commit receipt; it must carry the
        session's frame count (regression: it read the merger post-handoff
        and always said 0)."""
        async def scenario():
            async with await _started_server() as server:
                channel = await _raw_channel(server)
                await channel.send_control("hello", k=K, ordinal=0)
                await channel.read_prefix()
                await channel.next_event()
                await channel.send_control("push", frames=2)
                await channel.send_payload(_export({1: 100.0}))
                await channel.send_payload(_export({2: 200.0}))
                await channel.next_event()  # ok re=push
                await channel.send_control("bye")
                kind, value = await channel.next_event()
                await channel.close()
                return kind, value
        kind, value = _run(scenario())
        assert kind == "control"
        assert value["verb"] == "ok" and value["re"] == "bye"
        assert value["frames"] == 2

    def test_push_file_streams_in_bounded_bursts(self, tmp_path):
        """push_file must not buffer the whole packed file: with burst=1 a
        3-frame file arrives as 3 PUSH bursts in one session, all folded."""
        import io

        from repro.api.framing import FrameWriter

        packed = tmp_path / "exports.frames"
        buffer = io.BytesIO()
        with FrameWriter(buffer, k=K, frames=3) as writer:
            for key in (1, 2, 3):
                writer.write_payload(_export({key: 100.0 * key}))
        packed.write_bytes(buffer.getvalue())

        async def scenario():
            async with await _started_server() as server:
                async with AggregatorClient(server.address, k=K,
                                            ordinal=0) as client:
                    pushed = await client.push_file(packed, burst=1)
                return pushed, server.stats()
        pushed, stats = _run(scenario())
        assert pushed == 3
        assert stats["frames"] == 3

    def test_stats_verb_reports_counters(self):
        async def scenario():
            async with await _started_server() as server:
                async with AggregatorClient(server.address, k=K, ordinal=0) as client:
                    await client.push([_export({1: 2.0}), _export({2: 4.0})])
                    stats = await client.stats()
                return stats
        stats = _run(scenario())
        assert stats["frames"] == 2
        assert stats["k"] == K
        # Per-release cost moved under the privacy stanza when the
        # accountant landed; top-level epsilon/delta no longer exist.
        assert "epsilon" not in stats
        assert stats["privacy"]["per_release"]["epsilon"] == EPSILON
        assert stats["privacy"]["per_release"]["delta"] == DELTA
        assert stats["privacy"]["budget"] is None
        assert stats["auth_required"] is False

    def test_client_timeout_raises_network_error(self):
        async def scenario():
            # A listener that accepts and never speaks: the handshake must
            # time out instead of hanging.
            async def mute(reader, writer):
                await asyncio.sleep(10)

            server = await asyncio.start_server(mute, host="127.0.0.1", port=0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                with pytest.raises(NetworkError, match="timed out"):
                    client = AggregatorClient(f"{host}:{port}", k=K, timeout=0.3,
                                              connect_retries=1)
                    await client.connect()
            finally:
                server.close()
                await server.wait_closed()
        _run(scenario())

    def test_connect_refused_raises_after_retries(self):
        with pytest.raises(NetworkError, match="attempt"):
            _run(AggregatorClient("127.0.0.1:1", timeout=0.5, connect_retries=2,
                                  retry_delay=0.01).connect())


class TestSlowLoris:
    """Per-read timeout: a byte-dribbling peer is rejected, not serviced."""

    def test_dribbler_times_out_while_healthy_session_commits(self):
        async def scenario():
            async with await _started_server(read_timeout=0.3) as server:
                channel = await _raw_channel(server)
                await channel.send_control("hello", k=K, ordinal=9)
                await channel.read_prefix()
                await channel.next_event()  # ok re=hello
                await channel.send_control("push", frames=1)
                frame = framing.encode_payload_frame(_export({6: 600.0}))

                async def dribble():
                    # One byte per 0.15s against a 0.3s per-read timeout: the
                    # frame can never complete before the watchdog fires.
                    try:
                        for offset in range(8):
                            await channel.send_bytes(frame[offset:offset + 1])
                            await asyncio.sleep(0.15)
                    except (ConnectionError, OSError):
                        pass  # server already cut us off

                async def healthy():
                    # A well-behaved concurrent session, slower than the
                    # dribbler's timeout window, must commit unaffected.
                    await asyncio.sleep(0.1)
                    async with AggregatorClient(server.address, k=K,
                                                ordinal=0) as client:
                        await client.push([_export({1: 4000.0})])

                dribbler = asyncio.ensure_future(dribble())
                (kind, value), _ = await asyncio.gather(
                    channel.next_event(), healthy())
                dribbler.cancel()
                await channel.close()
                histogram = await _healthy_roundtrip(server)
                return kind, value, server.stats(), histogram
        kind, value, stats, histogram = _run(scenario())
        assert kind == "control" and value["verb"] == "error"
        assert value["code"] == "timeout"
        assert "slow-loris" in value["message"]
        assert stats["sessions_rejected"] == 1
        assert 6 not in histogram       # the dribbled frame was never folded
        assert 1 in histogram           # the healthy session's data is there

    def test_dribbled_second_frame_of_a_burst_times_out(self):
        """The deadline is per frame: a first frame that arrives whole does
        not buy time for a second one dribbled byte by byte."""
        async def scenario():
            async with await _started_server(read_timeout=0.3) as server:
                channel = await _raw_channel(server)
                await channel.send_control("hello", k=K, ordinal=9)
                await channel.read_prefix()
                await channel.next_event()  # ok re=hello
                await channel.send_control("push", frames=2)
                await channel.send_payload(_export({5: 500.0}))
                second = framing.encode_payload_frame(_export({6: 600.0}))

                async def dribble():
                    try:
                        for offset in range(8):
                            await channel.send_bytes(second[offset:offset + 1])
                            await asyncio.sleep(0.15)
                    except (ConnectionError, OSError):
                        pass  # server already cut us off

                dribbler = asyncio.ensure_future(dribble())
                kind, value = await channel.next_event()
                dribbler.cancel()
                await channel.close()
                histogram = await _healthy_roundtrip(server)
                return kind, value, server.stats(), histogram
        kind, value, stats, histogram = _run(scenario())
        assert kind == "control" and value["verb"] == "error"
        assert value["code"] == "timeout"
        assert "payload frame 2/2" in value["message"]
        assert stats["sessions_rejected"] == 1
        assert 5 not in histogram and 6 not in histogram

    def test_burst_in_one_write_waits_less_than_once_per_frame(self,
                                                               monkeypatch):
        """Frames already buffered are cut without waiting: a 16-frame
        burst sent in one write costs fewer deadline waits than frames."""
        waits = []
        fill = FrameChannel._fill

        async def counting_fill(channel, deadline):
            if deadline is not None:  # only the server passes a deadline
                waits.append(deadline)
            return await fill(channel, deadline)

        monkeypatch.setattr(FrameChannel, "_fill", counting_fill)

        async def scenario():
            async with await _started_server(read_timeout=5.0) as server:
                channel = await _raw_channel(server)
                await channel.send_control("hello", k=K, ordinal=3)
                await channel.read_prefix()
                await channel.next_event()  # ok re=hello
                exports = [_export({key: 10.0 + key}) for key in range(16)]
                before = len(waits)
                await channel.send_bytes(
                    framing.encode_control_frame({"verb": "push",
                                                  "frames": 16})
                    + b"".join(framing.encode_payload_frame(export)
                               for export in exports))
                kind, value = await channel.next_event()  # ok re=push
                burst_waits = len(waits) - before
                await channel.send_control("bye")
                await channel.next_event()
                await channel.close()
                return kind, value, burst_waits
        kind, value, burst_waits = _run(scenario())
        assert kind == "control" and value["verb"] == "ok"
        assert value["folded"] == 16
        assert burst_waits < 16

    def test_silent_connection_is_reaped(self):
        async def scenario():
            async with await _started_server(read_timeout=0.2) as server:
                reader, writer = await asyncio.open_connection(
                    *server.address.split(":"))
                # Say nothing at all: the stream-header read must time out
                # and the server must close the transport.
                leftovers = await reader.read()
                writer.close()
                await writer.wait_closed()
                histogram = await _healthy_roundtrip(server)
                return leftovers, server.stats(), histogram
        leftovers, stats, histogram = _run(scenario())
        assert leftovers is not None    # EOF reached, no hang
        assert stats["sessions_rejected"] == 1
        assert 1 in histogram

    def test_read_timeout_none_disables_the_watchdog(self):
        async def scenario():
            async with await _started_server(read_timeout=None) as server:
                channel = await _raw_channel(server)
                await channel.send_control("hello", k=K, ordinal=9)
                await channel.read_prefix()
                await channel.next_event()
                await asyncio.sleep(0.4)  # longer than any default test pace
                await channel.send_control("push", frames=1)
                await channel.send_payload(_export({6: 600.0}))
                kind, value = await channel.next_event()
                await channel.close()
                return kind, value
        kind, value = _run(scenario())
        assert kind == "control" and value["verb"] == "ok"
