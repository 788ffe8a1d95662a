"""Unit tests for the control-frame codecs, address parsing, fold fan-in and
the channel receive buffer."""

import asyncio
import io

import numpy as np
import pytest

from repro.api import framing
from repro.api.framing import (
    CONTROL_FRAME_TAG,
    FrameReader,
    FrameWriter,
    StreamingMerger,
    combine_mergers,
)
from repro.api.wire import decode, encode_counters
from repro.exceptions import FramingError, ParameterError
from repro.net import protocol
from repro.net.protocol import Address, FrameChannel, parse_address


class TestAddressParsing:
    def test_tcp_host_port(self):
        address = parse_address("127.0.0.1:7788")
        assert address == Address(kind="tcp", host="127.0.0.1", port=7788)
        assert str(address) == "127.0.0.1:7788"

    def test_bare_port_defaults_to_loopback(self):
        address = parse_address(":0")
        assert address.host == "127.0.0.1"
        assert address.port == 0

    def test_unix_path(self):
        address = parse_address("unix:/tmp/agg.sock")
        assert address == Address(kind="unix", path="/tmp/agg.sock")
        assert str(address) == "unix:/tmp/agg.sock"

    def test_address_passthrough(self):
        address = Address(kind="tcp", host="h", port=1)
        assert parse_address(address) is address

    @pytest.mark.parametrize("bad", ["", "no-port", "unix:", "host:port", 7])
    def test_bad_addresses_raise(self, bad):
        with pytest.raises(ParameterError):
            parse_address(bad)


class TestControlFrames:
    def test_control_frame_round_trip(self):
        frame = framing.encode_control_frame({"verb": "hello", "k": 8, "ordinal": 2})
        body = frame[4:]  # strip the length prefix
        assert body[0] == CONTROL_FRAME_TAG
        message = framing.decode_control_body(body)
        assert message == {"verb": "hello", "k": 8, "ordinal": 2}

    def test_control_frame_requires_verb(self):
        with pytest.raises(FramingError, match="verb"):
            framing.encode_control_frame({"k": 8})
        bad = bytes([CONTROL_FRAME_TAG]) + b'{"k": 8}'
        with pytest.raises(FramingError, match="verb"):
            framing.decode_control_body(bad)

    def test_payload_reader_rejects_control_frames(self):
        """`repro pack` files never carry control frames; FrameReader says so."""
        buffer = io.BytesIO()
        FrameWriter(buffer, k=4)
        buffer.write(framing.encode_control_frame({"verb": "hello"}))
        with pytest.raises(FramingError, match="control frame"):
            list(FrameReader(io.BytesIO(buffer.getvalue())))

    def test_decode_payload_body_names_unknown_tags(self):
        with pytest.raises(FramingError, match="0x02"):
            framing.decode_payload_body(b"\x7fgarbage")


class TestRawFrameReader:
    def test_raw_mode_yields_verbatim_bodies(self):
        buffer = io.BytesIO()
        with FrameWriter(buffer, k=4, frames=2) as writer:
            writer.write_counters({1: 2.0}, k=4)
            writer.write_counters({2: 3.0}, k=4)
        bodies = list(FrameReader(io.BytesIO(buffer.getvalue()), raw=True))
        assert all(isinstance(body, bytes) for body in bodies)
        # The raw bodies decode to the same payloads the decoding reader sees.
        decoded = [framing.decode_payload_body(body) for body in bodies]
        expected = list(FrameReader(io.BytesIO(buffer.getvalue())))
        assert [p.counters() for p in decoded] == [p.counters() for p in expected]

    def test_raw_mode_still_validates_tags(self):
        buffer = io.BytesIO()
        FrameWriter(buffer, k=4)
        buffer.write(framing.encode_frame(b"\x7fjunk"))
        with pytest.raises(FramingError, match="frame tag"):
            list(FrameReader(io.BytesIO(buffer.getvalue()), raw=True))


def _merger_of(counters_list, k):
    merger = StreamingMerger(k)
    for counters in counters_list:
        merger.add(encode_counters(counters, k=k, stream_length=len(counters)))
    return merger


class TestAbsorbAndCombine:
    def test_single_part_passes_through_bit_identically(self):
        part = _merger_of([{1: 2.0, 2: 1.0}, {2: 5.0, 3: 1.0}], 4)
        combined = combine_mergers([part], 4)
        assert combined is part

    def test_absorb_into_empty_reproduces_summary(self):
        part = _merger_of([{1: 2.0, 2: 1.0}, {2: 5.0, 3: 1.0}], 4)
        combined = StreamingMerger(4).absorb(part)
        assert combined.merged() == part.merged()
        assert list(combined.merged()) == list(part.merged())
        assert combined.frames == part.frames
        assert combined.total_stream_length == part.total_stream_length

    def test_combine_matches_merge_of_summaries(self):
        from repro.sketches.merge import merge_many

        parts = [_merger_of([{1: 5.0, 2: 1.0}], 2),
                 _merger_of([{2: 3.0, 3: 2.0}], 2),
                 _merger_of([{1: 1.0, 4: 4.0}], 2)]
        combined = combine_mergers(parts, 2)
        expected = merge_many([part.merged() for part in parts], 2)
        assert combined.merged() == expected
        assert combined.frames == 3

    def test_absorb_mixed_dict_and_columnar_modes(self):
        columnar = _merger_of([{1: 2.0}], 4)
        token = StreamingMerger(4)
        token.add(encode_counters({"a": 3.0}, k=4))
        assert not token.columnar
        combined = StreamingMerger(4).absorb(columnar).absorb(token)
        assert combined.merged() == {1: 2.0, "a": 3.0}

    def test_absorb_rejects_k_mismatch(self):
        with pytest.raises(ParameterError, match="k="):
            StreamingMerger(4).absorb(_merger_of([{1: 1.0}], 8))

    def test_absorb_rejects_non_mergers(self):
        with pytest.raises(ParameterError, match="StreamingMerger"):
            StreamingMerger(4).absorb({1: 1.0})

    def test_empty_parts_are_skipped(self):
        part = _merger_of([{7: 2.0}], 4)
        combined = combine_mergers([StreamingMerger(4), part, StreamingMerger(4)], 4)
        assert combined is part


class TestLazyWireKeys:
    def test_binary_frames_decode_without_materializing_keys(self):
        buffer = io.BytesIO()
        with FrameWriter(buffer, k=4, frames=1) as writer:
            writer.write_counters({5: 2.0, 9: 1.0}, k=4)
        (payload,) = list(FrameReader(io.BytesIO(buffer.getvalue())))
        assert payload.key_array is not None
        assert payload._keys is None  # nothing materialized yet
        merged = StreamingMerger(4).add(payload)
        assert payload._keys is None  # the fold stayed columnar
        assert merged.merged() == {5: 2.0, 9: 1.0}
        assert payload.keys == [5, 9]  # materializes (and caches) on demand
        assert payload._keys == [5, 9]

    def test_json_decode_still_eager_and_equal(self):
        envelope = encode_counters({5: 2.0, 9: 1.0}, k=4)
        payload = decode(envelope)
        assert payload.keys == [5, 9]
        assert np.array_equal(payload.key_array, [5, 9])

    def test_payload_requires_keys_or_key_array(self):
        from repro.api.wire import WirePayload

        with pytest.raises(ParameterError, match="key"):
            WirePayload(kind="counters", keys=None, values=np.zeros(0))


class _ScriptedReader:
    """A ``StreamReader`` stand-in returning scripted chunks, then EOF."""

    def __init__(self, chunks) -> None:
        self._chunks = list(chunks)
        self.reads = 0

    async def read(self, n: int) -> bytes:
        self.reads += 1
        return self._chunks.pop(0) if self._chunks else b""


class TestChannelBuffer:
    @staticmethod
    def _frames(count):
        frame = framing.encode_control_frame({"verb": "stats"})
        return frame, frame * count

    def test_buffered_frames_are_cut_without_waiting(self, monkeypatch):
        frame, frames = self._frames(3)
        reader = _ScriptedReader([frames])
        channel = FrameChannel(reader, None)
        timers = []
        wait_for = asyncio.wait_for

        async def counting_wait_for(awaitable, timeout):
            timers.append(timeout)
            return await wait_for(awaitable, timeout)

        monkeypatch.setattr(protocol.asyncio, "wait_for", counting_wait_for)

        async def scenario():
            return [await channel.next_event(timeout=5.0) for _ in range(3)]

        events = asyncio.run(scenario())
        assert events == [("control", {"verb": "stats"})] * 3
        # One read filled the buffer; the next two frames cost no wait.
        assert reader.reads == 1 and len(timers) == 1
        assert not channel._buffer

    def test_expired_deadline_raises_timeout(self):
        class _Stalled:
            async def read(self, n):
                await asyncio.sleep(10)

        channel = FrameChannel(_Stalled(), None)

        async def scenario():
            with pytest.raises(asyncio.TimeoutError):
                await channel.next_event(timeout=0.05)

        asyncio.run(scenario())

    def test_drain_counts_buffered_bytes_against_the_limit(self):
        frame, frames = self._frames(3)
        reader = _ScriptedReader([frames, b"unread tail"])
        channel = FrameChannel(reader, None)

        async def scenario():
            event = await channel.next_event()
            buffered = len(channel._buffer)
            await channel.drain_incoming(limit_bytes=buffered)
            return event, buffered

        event, buffered = asyncio.run(scenario())
        assert event == ("control", {"verb": "stats"})
        assert buffered == 2 * len(frame)
        assert not channel._buffer
        assert reader.reads == 1  # the buffered bytes met the cap: no read
