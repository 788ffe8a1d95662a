"""The aggregation control protocol: framed control verbs over a socket.

The transport is the PR-4 framed container (:mod:`repro.api.framing`) spoken
symmetrically in both directions of a TCP or Unix-domain connection.  Each
direction opens with the 5-byte stream prefix (magic + container version)
and a ``frame_header`` JSON frame, exactly like a packed file; after that,
frames are either wire-v2 payload envelopes (JSON ``{`` or binary columnar
``0x01`` bodies) or *control frames* — tag ``0x02`` followed by a UTF-8 JSON
object carrying a string ``verb``:

========  =========  =====================================================
verb      direction  meaning
========  =========  =====================================================
hello     c -> s     open a session; fields: ``k`` (sketch size, optional
                     if the server already knows its k), ``ordinal``
                     (optional int: this client's position in the canonical
                     release order — and, when the server runs a write-ahead
                     log, the session's durable identity: re-HELLOing with
                     the same ordinal resumes the spooled session), ``client``
                     (optional display name), ``role`` (optional;
                     ``"relay"`` marks each pushed frame as one downstream
                     origin session's summary, folded into its own release
                     part — only accepted by servers started with
                     ``accept_relays``, else rejected with
                     ``relay_not_accepted``; a WAL resume that disagrees
                     with the spooled role is rejected with
                     ``role_mismatch``), and ``token`` (shared session
                     secret; mandatory for every role — client and relay
                     alike — when the server runs ``--auth-token``, checked
                     in constant time before any server state is touched;
                     missing/wrong tokens are rejected with ``auth_failed``)
push      c -> s     announce ``frames`` payload frames, which follow
                     immediately; the server folds each into the session's
                     :class:`~repro.api.framing.StreamingMerger` on arrival
release   c -> s     trigger the private release; fields: ``seed``
                     (optional int rng seed).  Answered with one payload
                     frame: the released histogram as a wire-v2
                     ``private_histogram`` envelope
stats     c -> s     ask for aggregate counters; answered with a ``stats``
                     control frame
bye       c -> s     commit the session and close (a clean EOF after HELLO
                     commits too; ``bye`` additionally gets an ``ok`` ack
                     so the client *knows* its frames were committed)
ok        s -> c     positive acknowledgement; ``re`` names the acked verb.
                     With a write-ahead log the ``re: hello`` ack also
                     carries ``committed`` (frames already durable for this
                     ordinal — the client skips that many on resume instead
                     of double-pushing) and ``complete`` (true when the
                     session already ended cleanly; further pushes are
                     rejected), and a ``re: push`` ack is sent only after
                     the burst is fsync-durable
error     s -> c     the session is rejected; ``code`` is machine-readable
                     (``k_mismatch``, ``bad_verb``, ``nothing_to_release``,
                     ``timeout``, ``ordinal_active``, ``session_complete``,
                     ``relay_not_accepted``, ``role_mismatch``,
                     ``auth_failed``, ``quota_exceeded``,
                     ``budget_exhausted`` — the privacy accountant refuses a
                     RELEASE whose composed spend would exceed the
                     configured budget —
                     ``pure_dp_release_unsupported``, ...),
                     ``message`` human-readable.  The server closes
                     the connection but keeps serving other sessions
stats     s -> c     the ``stats`` reply
========  =========  =====================================================

The session state machine lives in :mod:`repro.net.session`; this module
provides address parsing and :class:`FrameChannel`, the asyncio send/receive
half shared by server and client.  All reads are bounded (at most
``chunk_size`` bytes per ``read()`` call, frame lengths capped by
``MAX_FRAME_BYTES``), so a malicious peer cannot make either side allocate
unbounded memory, and slow consumers exert normal TCP backpressure.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

from ..api import framing
from ..api.framing import FrameHeader, MAGIC
from ..api.wire import WirePayload
from ..exceptions import FramingError, ParameterError

#: Control verbs (client -> server).
HELLO = "hello"
PUSH = "push"
RELEASE = "release"
STATS = "stats"
BYE = "bye"

#: Control verbs (server -> client).
OK = "ok"
ERROR = "error"

#: Default per-read ceiling of :class:`FrameChannel` (bytes).
DEFAULT_CHUNK_SIZE = 1 << 16

_PREFIX = framing._LENGTH.size


def _deadline(timeout: Optional[float]) -> Optional[float]:
    """The event-loop time ``timeout`` seconds from now (``None``: never)."""
    if timeout is None:
        return None
    return asyncio.get_running_loop().time() + timeout


@dataclass(frozen=True)
class Address:
    """A parsed aggregator endpoint: TCP host/port or a Unix socket path."""

    kind: str  # "tcp" | "unix"
    host: Optional[str] = None
    port: Optional[int] = None
    path: Optional[str] = None

    def __str__(self) -> str:
        if self.kind == "unix":
            return f"unix:{self.path}"
        return f"{self.host}:{self.port}"


def parse_address(address: Union[str, Address]) -> Address:
    """Parse ``"host:port"``, ``":port"`` or ``"unix:/path"`` endpoints."""
    if isinstance(address, Address):
        return address
    if not isinstance(address, str) or not address:
        raise ParameterError(f"expected 'host:port' or 'unix:/path', got {address!r}")
    if address.startswith("unix:"):
        path = address[len("unix:"):]
        if not path:
            raise ParameterError("unix socket address needs a path: unix:/some/path")
        return Address(kind="unix", path=path)
    host, separator, port = address.rpartition(":")
    if not separator or not port.isdigit():
        raise ParameterError(
            f"expected 'host:port' or 'unix:/path', got {address!r}")
    return Address(kind="tcp", host=host or "127.0.0.1", port=int(port))


async def open_channel(address: Union[str, Address],
                       chunk_size: int = DEFAULT_CHUNK_SIZE) -> "FrameChannel":
    """Connect to an aggregator endpoint and wrap the streams in a channel."""
    target = parse_address(address)
    if target.kind == "unix":
        reader, writer = await asyncio.open_unix_connection(target.path)
    else:
        reader, writer = await asyncio.open_connection(target.host, target.port)
    return FrameChannel(reader, writer, chunk_size=chunk_size)


class FrameChannel:
    """One direction-pair of the framed protocol over asyncio streams.

    Sending never buffers more than one frame before ``drain()`` (payload
    frames are encoded once, written, and awaited), and receiving issues
    only bounded ``read()`` calls — at most ``chunk_size`` bytes each, and
    only while the next frame is incomplete — so both sides stay within one
    frame plus ``chunk_size`` of live memory per connection regardless of
    what the peer sends.  Frames that arrived together are cut from the
    receive buffer without awaiting.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        self._reader = reader
        self._writer = writer
        self._chunk_size = chunk_size
        # Received bytes not yet cut into frames: less than one frame before
        # a read, so at most one frame plus ``chunk_size`` after it.
        self._buffer = bytearray()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    async def send_prefix(self, header: FrameHeader) -> None:
        """Open this direction: stream prefix plus the header frame."""
        self._writer.write(framing.stream_prefix()
                           + framing.encode_json_frame(header.as_dict()))
        await self._writer.drain()

    async def send_control(self, verb: str, **fields: object) -> None:
        """Send one control frame (tag 0x02)."""
        message: Dict[str, object] = {"verb": verb}
        message.update(fields)
        self._writer.write(framing.encode_control_frame(message))
        await self._writer.drain()

    async def send_payload(self, payload: Union[Mapping, WirePayload]) -> None:
        """Send one wire-v2 envelope as a payload frame (binary when integer)."""
        self._writer.write(framing.encode_payload_frame(payload))
        await self._writer.drain()

    async def send_raw_frame(self, body: bytes) -> None:
        """Forward an already-encoded frame body verbatim (pass-through push)."""
        self._writer.write(framing.encode_frame(body))
        await self._writer.drain()

    async def send_bytes(self, data: bytes) -> None:
        """Write pre-framed bytes (length prefix included) and drain."""
        self._writer.write(data)
        await self._writer.drain()

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    async def _fill(self, deadline: Optional[float]) -> bool:
        """Append one ``read(chunk_size)`` to the buffer; ``False`` at EOF.

        The receive path's only await, reached only when the buffer lacks
        bytes.  ``deadline`` (event-loop time, ``None`` for no limit) bounds
        the wait: past it, :class:`asyncio.TimeoutError`.
        """
        if deadline is None:
            chunk = await self._reader.read(self._chunk_size)
        else:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                raise asyncio.TimeoutError
            chunk = await asyncio.wait_for(
                self._reader.read(self._chunk_size), remaining)
        if not chunk:
            return False
        self._buffer += chunk
        return True

    def _cut_frame(self) -> Optional[bytes]:
        """The next frame body, cut from the buffer; ``None`` if incomplete."""
        buffer = self._buffer
        if len(buffer) < _PREFIX:
            return None
        (length,) = framing._LENGTH.unpack_from(buffer)
        if length > framing.MAX_FRAME_BYTES:
            raise FramingError(
                f"frame length {length} exceeds "
                f"MAX_FRAME_BYTES={framing.MAX_FRAME_BYTES}")
        end = _PREFIX + length
        if len(buffer) < end:
            return None
        with memoryview(buffer) as view:
            body = view[_PREFIX:end].tobytes()
        del buffer[:end]
        return body

    async def _next_body(self, what: str,
                         deadline: Optional[float]) -> Optional[bytes]:
        """The next frame body, or ``None`` at a clean end of stream.

        Cuts it from the buffer without awaiting when it is there already;
        otherwise reads until it is, by ``deadline``.
        """
        while True:
            body = self._cut_frame()
            if body is not None:
                return body
            if not await self._fill(deadline):
                break
        have = len(self._buffer)
        if have == 0:
            return None
        if have < _PREFIX:
            raise FramingError(
                f"truncated length prefix before {what}: got {have} bytes "
                "(peer closed mid-frame?)")
        (length,) = framing._LENGTH.unpack_from(self._buffer)
        raise FramingError(
            f"truncated {what}: expected {length} bytes, got {have - _PREFIX} "
            "(peer closed mid-frame?)")

    async def read_prefix(self, timeout: Optional[float] = None) -> FrameHeader:
        """Read the peer's stream prefix and header frame.

        ``timeout`` bounds the whole read (seconds, ``None`` for no limit);
        past it, :class:`asyncio.TimeoutError`.
        """
        deadline = _deadline(timeout)
        size = len(MAGIC) + 1
        while len(self._buffer) < size:
            if not await self._fill(deadline):
                raise FramingError(
                    f"truncated magic header: expected {size} bytes, "
                    f"got {len(self._buffer)} (peer closed mid-frame?)")
        framing.check_stream_prefix(bytes(self._buffer[:size]))
        del self._buffer[:size]
        body = await self._next_body("header frame", deadline)
        return framing.parse_header_body(body)

    async def next_event(self, include_body: bool = False,
                         timeout: Optional[float] = None) -> Tuple:
        """The next frame as ``(kind, value)``.

        ``("control", message_dict)`` for control frames, ``("payload",
        WirePayload)`` for envelope frames, ``("eof", None)`` at a clean end
        of stream.  Malformed frames raise :class:`FramingError`.

        ``include_body=True`` appends the verbatim frame body (``None`` at
        EOF) as a third element — the write-ahead log spools those exact
        bytes, tag preserved, before the payload is folded.

        ``timeout`` is a per-frame deadline in seconds (``None``: none): a
        frame that is not complete that long after the call raises
        :class:`asyncio.TimeoutError`.  It bounds only the awaits that wait
        for bytes; a frame already in the buffer is returned without one.
        """
        body = await self._next_body("frame", _deadline(timeout))
        if body is None:
            event: Tuple = ("eof", None)
        elif body[:1] == framing._CONTROL_TAG:
            event = ("control", framing.decode_control_body(body))
        else:
            event = ("payload", framing.decode_payload_body(body))
        return event + (body,) if include_body else event

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def drain_incoming(self, limit_bytes: int = 1 << 20) -> None:
        """Discard inbound bytes until EOF (or a byte cap).

        Closing a socket with unread inbound data sends a TCP RST, which can
        destroy an in-flight reply (e.g. the server's ERROR frame) before
        the peer reads it.  The rejecting side calls this after its last
        frame so the close is graceful.  Bytes already buffered count
        against ``limit_bytes`` and are discarded first.
        """
        consumed = len(self._buffer)
        self._buffer.clear()
        while consumed < limit_bytes:
            chunk = await self._reader.read(self._chunk_size)
            if not chunk:
                return
            consumed += len(chunk)

    @property
    def peername(self) -> str:
        info = self._writer.get_extra_info("peername")
        if info is None:
            info = self._writer.get_extra_info("sockname", "?")
        return str(info)

    def write_eof(self) -> None:
        """Half-close: signal the peer this direction is done."""
        if self._writer.can_write_eof():
            self._writer.write_eof()

    async def close(self) -> None:
        """Close the underlying transport (both directions)."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
