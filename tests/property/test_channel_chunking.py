"""Property: how the bytes arrive never changes what a FrameChannel reads.

:class:`~repro.net.protocol.FrameChannel` buffers received bytes and cuts
whole frames from the buffer, reading more only when the next frame is
incomplete.  A fake ``StreamReader`` here hands out one framed stream of
payload and control frames split at arbitrary points — one-byte dribbles,
many frames per read, reads straddling a length prefix — and the channel
must:

* yield exactly the frames :class:`~repro.api.framing.FrameReader` reads
  from the same bytes, decoded with the same codecs, bodies included;
* raise :class:`~repro.exceptions.FramingError` with the established
  messages when the stream is cut at any offset inside a frame, and end
  cleanly when it is cut at a frame boundary;
* never buffer more than one frame (length prefix included) plus one
  ``chunk_size`` read.
"""

from __future__ import annotations

import asyncio
import io

from hypothesis import given, settings, strategies as st

from repro.api import framing, wire
from repro.api.framing import FrameHeader
from repro.exceptions import FramingError
from repro.net.protocol import FrameChannel

_CONTROL = st.fixed_dictionaries(
    {"verb": st.sampled_from(["push", "ok", "stats", "bye"])},
    optional={"frames": st.integers(0, 16), "note": st.text(max_size=8)})


def _frames(max_frames: int, max_counters: int):
    """Frame bodies: binary and JSON payload frames and control frames."""
    counters = st.dictionaries(st.integers(-(2 ** 40), 2 ** 40),
                               st.integers(0, 10 ** 6).map(float),
                               max_size=max_counters)
    tokens = st.dictionaries(st.text(min_size=1, max_size=4),
                             st.integers(0, 100).map(float), max_size=3)
    return st.lists(st.one_of(
        counters.map(lambda found: framing.payload_frame_body(
            wire.encode_counters(found, k=8, stream_length=3))),
        tokens.map(lambda found: framing.payload_frame_body(
            wire.encode_counters(found, k=8))),
        _CONTROL.map(lambda message: framing.encode_control_frame(message)[4:]),
    ), max_size=max_frames)


# How many bytes each read hands out, cycled: dribbles, straddles, bulk.
_PLANS = st.one_of(st.just([1]),
                   st.lists(st.integers(1, 64), min_size=1, max_size=12),
                   st.just([1 << 20]))
_CHUNK_SIZES = st.sampled_from([1, 3, 7, 64, 1 << 16])


class _ChunkedReader:
    """A ``StreamReader`` stand-in that splits ``data`` by a read plan."""

    def __init__(self, data: bytes, plan) -> None:
        self._data = data
        self._plan = plan
        self._position = 0
        self._reads = 0
        self.channel = None
        self.chunk_size = None
        #: Most bytes the channel buffered right after a read.
        self.peak = 0

    async def read(self, n: int) -> bytes:
        assert n == self.chunk_size
        step = min(n, self._plan[self._reads % len(self._plan)])
        self._reads += 1
        chunk = self._data[self._position:self._position + step]
        self._position += len(chunk)
        self.peak = max(self.peak, len(self.channel._buffer) + len(chunk))
        return chunk


def _stream(bodies) -> bytes:
    header = FrameHeader(framing=framing.FRAMING_VERSION, frames=None, k=8,
                         meta={"source": "chunking"})
    return (framing.stream_prefix()
            + framing.encode_json_frame(header.as_dict())
            + b"".join(framing.encode_frame(body) for body in bodies))


def _reference(data: bytes):
    """The header and ``(kind, value, body)`` events FrameReader reads."""
    reader = framing.FrameReader(io.BytesIO(data), raw=True)
    events = []
    while True:
        body = reader._read_frame_bytes("frame")
        if body is None:
            return reader.header, events
        if body[:1] == bytes([framing.CONTROL_FRAME_TAG]):
            events.append(("control", framing.decode_control_body(body), body))
        else:
            events.append(("payload", framing.decode_payload_body(body), body))


async def _read_all(data: bytes, plan, chunk_size: int):
    """Everything a channel reads from ``data``: header, events, outcome."""
    reader = _ChunkedReader(data, plan)
    channel = FrameChannel(reader, None, chunk_size=chunk_size)
    reader.channel, reader.chunk_size = channel, chunk_size
    header, events = None, []
    try:
        header = await channel.read_prefix()
        while True:
            event = await channel.next_event(include_body=True)
            if event[0] == "eof":
                return header, events, None, reader.peak
            events.append(event)
    except FramingError as error:
        return header, events, str(error), reader.peak


def _truncation_message(layout, cut: int):
    """The FramingError a channel raises for the stream cut at ``cut``
    (``None`` at a clean frame boundary)."""
    if cut < 5:
        return (f"truncated magic header: expected 5 bytes, got {cut} "
                "(peer closed mid-frame?)")
    for index, (start, length) in enumerate(layout):
        if not start <= cut < start + 4 + length:
            continue
        what = "header frame" if index == 0 else "frame"
        into = cut - start
        if into == 0:
            return "first frame must be a frame_header" if index == 0 else None
        if into < 4:
            return (f"truncated length prefix before {what}: got {into} "
                    "bytes (peer closed mid-frame?)")
        return (f"truncated {what}: expected {length} bytes, got {into - 4} "
                "(peer closed mid-frame?)")
    raise AssertionError(f"cut {cut} is past the stream")


def _layout(data: bytes):
    """``(start, body length)`` of every frame after the 5-byte prefix."""
    layout, start = [], 5
    while start < len(data):
        (length,) = framing._LENGTH.unpack_from(data, start)
        layout.append((start, length))
        start += 4 + length
    return layout


def _same_events(got, want) -> None:
    assert len(got) == len(want)
    for (kind, value, body), (want_kind, want_value, want_body) in zip(got, want):
        assert (kind, body) == (want_kind, want_body)
        assert value == want_value


@given(bodies=_frames(6, 6), plan=_PLANS, chunk_size=_CHUNK_SIZES)
@settings(max_examples=300, deadline=None)
def test_channel_reads_what_frame_reader_reads(bodies, plan, chunk_size):
    data = _stream(bodies)
    header, events, error, peak = asyncio.run(
        _read_all(data, plan, chunk_size))
    want_header, want_events = _reference(data)
    assert error is None
    assert header == want_header
    _same_events(events, want_events)
    largest = max(4 + length for _, length in _layout(data))
    assert peak <= largest + chunk_size


@given(bodies=_frames(3, 3), plan=_PLANS, chunk_size=_CHUNK_SIZES)
@settings(max_examples=60, deadline=None)
def test_truncation_at_every_offset(bodies, plan, chunk_size):
    data = _stream(bodies)
    layout = _layout(data)
    _, want_events = _reference(data)
    ends = [start + 4 + length for start, length in layout[1:]]

    async def every_cut():
        outcomes = []
        for cut in range(len(data)):
            outcomes.append(await _read_all(data[:cut], plan, chunk_size))
        return outcomes

    for cut, (_, events, error, peak) in enumerate(asyncio.run(every_cut())):
        assert error == _truncation_message(layout, cut), cut
        # Frames that arrived whole before the cut were all delivered.
        whole = sum(1 for end in ends if end <= cut)
        _same_events(events, want_events[:whole])
        assert peak <= max(4 + length for _, length in layout) + chunk_size
