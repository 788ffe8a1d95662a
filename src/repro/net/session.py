"""Server-side session state machine for the aggregation service.

One :class:`Session` drives one client connection through the state machine
documented in DESIGN.md:

.. code-block:: text

    AWAIT_HELLO --hello--> READY --push(n)--> PUSHING --n frames--> READY
    READY --release/stats--> READY        (replies in-line)
    READY --bye / clean EOF--> COMMITTED  (summary enters the release set)
    any state --protocol violation / k mismatch / truncated frame-->
        REJECTED                          (summary discarded, server stays up)

A session's frames are folded into its own
:class:`~repro.api.framing.StreamingMerger` *as they arrive*; nothing beyond
the current frame and the ``<= k``-counter accumulator is buffered.  The
summary joins the server's committed set only on a clean end (``bye`` verb
or EOF from ``READY``), so a client that dies mid-push contributes nothing.

With a write-ahead log (``repro serve --wal-dir``) each accepted frame's
verbatim bytes are spooled *before* the fold, the whole burst is made
durable (spool fsync + checkpoint record) *before* the PUSH ack, and a
re-HELLO with the same ordinal resumes the spooled session: the ack reports
the committed frame count so the client skips already-durable frames.  Every
frame must additionally arrive whole within the server's read timeout, so a
peer dribbling bytes (slow-loris) is rejected instead of pinning a session
open; the deadline only bounds waits, so frames already buffered cost none.

Multi-tenant hardening: when the server carries an ``auth_token``, the HELLO
must present a matching ``token`` field (checked in constant time, *before*
any ordinal claim, WAL attach or k adoption) or the session is rejected with
an ``auth_failed`` ERROR.  Per-session quotas on frames, payload bytes and
origin sketch exports are charged per accepted frame — before the spool
append and the fold, so an over-quota frame leaves no trace — and a
violation rejects only the offending session (``quota_exceeded``).
"""

from __future__ import annotations

import asyncio
import enum
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..api.framing import FrameHeader, StreamingMerger
from ..exceptions import FramingError, ProtocolError, ReproError
from .protocol import BYE, ERROR, HELLO, OK, PUSH, RELEASE, STATS, FrameChannel

#: HELLO ``role`` values a server understands.  ``client`` (the default)
#: folds all pushed frames into one per-session merger; ``relay`` marks each
#: pushed frame as the summary of one downstream origin session, folded into
#: its *own* release part so the root's combine sees exactly the same part
#: sequence a flat server would.
SESSION_ROLES = ("client", "relay")


class SessionState(enum.Enum):
    AWAIT_HELLO = "await_hello"
    READY = "ready"
    PUSHING = "pushing"
    COMMITTED = "committed"
    REJECTED = "rejected"


@dataclass(frozen=True)
class CommittedSession:
    """A cleanly finished session's contribution to the release set.

    A plain client session contributes one ``merger``; a relay session
    contributes ``parts`` — one single-summary merger per downstream origin
    session, in push (= spool) order — and ``merger`` is ``None``.
    """

    seq: int                      # commit order (tie-breaker)
    ordinal: Optional[int]        # client-declared canonical position
    client: Optional[str]
    merger: Optional[StreamingMerger]
    parts: Tuple[StreamingMerger, ...] = ()

    @property
    def sort_key(self):
        # Explicit ordinals first (in ordinal order), then commit order.
        if self.ordinal is not None:
            return (0, self.ordinal, self.seq)
        return (1, 0, self.seq)

    @property
    def mergers(self) -> List[StreamingMerger]:
        """The release parts this session contributes, in canonical order."""
        if self.parts:
            return list(self.parts)
        return [self.merger] if self.merger is not None else []

    @property
    def frames(self) -> int:
        """Origin sketch exports covered (relay parts carry origin counts)."""
        return sum(merger.frames for merger in self.mergers)

    @property
    def stream_length(self) -> int:
        return sum(merger.total_stream_length for merger in self.mergers)


class Session:
    """One client connection: HELLO handshake, pushes, queries, clean end."""

    def __init__(self, server, channel: FrameChannel) -> None:
        self._server = server
        self._channel = channel
        self.state = SessionState.AWAIT_HELLO
        self.ordinal: Optional[int] = None
        self.client: Optional[str] = None
        self.role: str = "client"
        self.connected_at: float = time.time()
        self.last_frame_at: Optional[float] = None
        self.bytes_received: int = 0
        self.frames_accepted: int = 0
        self._merger: Optional[StreamingMerger] = None
        self._parts: List[StreamingMerger] = []   # relay sessions only
        self._journal = None          # SessionJournal when the server has a WAL
        self._claimed_ordinal = False
        self._pending_header_k: Optional[int] = None
        self._quota_frames = 0
        self._quota_bytes = 0
        self._quota_sketches = 0

    @property
    def frames(self) -> int:
        """Frames folded so far, in pushed-frame units (relay: summaries)."""
        if self.role == "relay":
            return len(self._parts)
        return self._merger.frames if self._merger is not None else 0

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _stalled(self, what: str) -> ProtocolError:
        """The slow-loris rejection: ``what`` missed the read timeout."""
        error = ProtocolError(
            f"no complete {what} within {self._server.read_timeout:g}s; peer "
            "is stalling (slow-loris?) and the session is rejected")
        error.code = "timeout"
        return error

    async def run(self) -> None:
        """Drive the connection to completion; never raises into the server."""
        timeout = self._server.read_timeout
        try:
            try:
                header = await self._channel.read_prefix(timeout=timeout)
            except asyncio.TimeoutError:
                raise self._stalled("stream header") from None
            # Greet before validating, so any rejection reaches the client as
            # a well-formed (prefix + error frame) stream it can parse.
            greeting = FrameHeader(framing=header.framing, frames=None,
                                   k=self._server.k,
                                   meta={"service": "repro-aggregator"})
            await self._channel.send_prefix(greeting)
            if self._server.requires_auth:
                # k adoption mutates server state; an unauthenticated peer
                # must not influence it, so the header's k is only validated
                # after the HELLO token passes.
                self._pending_header_k = header.k
            else:
                self._check_k(header.k, source="stream header")
            while self.state not in (SessionState.COMMITTED, SessionState.REJECTED):
                try:
                    kind, value = await self._channel.next_event(
                        timeout=timeout)
                except asyncio.TimeoutError:
                    raise self._stalled("control frame") from None
                if kind == "eof":
                    self._finish_on_eof()
                    break
                if kind != "control":
                    raise ProtocolError(
                        "payload frame outside a push burst; announce frames "
                        "with a push control frame first")
                await self._dispatch(value)
        except ReproError as error:
            await self._reject(error)
        except (ConnectionError, OSError, EOFError) as error:
            self.state = SessionState.REJECTED
            self._server.note_rejected(self, f"connection lost: {error}")
        finally:
            if self._claimed_ordinal:
                self._server.release_ordinal(self.ordinal)
                self._claimed_ordinal = False
            if self._journal is not None:
                self._journal.close()
            await self._channel.close()

    async def _dispatch(self, message: dict) -> None:
        verb = message.get("verb")
        if self.state is SessionState.AWAIT_HELLO:
            if verb != HELLO:
                raise ProtocolError(f"first verb must be {HELLO!r}, got {verb!r}")
            await self._handle_hello(message)
            return
        if verb == PUSH:
            await self._handle_push(message)
        elif verb == RELEASE:
            await self._handle_release(message)
        elif verb == STATS:
            await self._channel.send_control(STATS, **self._server.stats())
        elif verb == BYE:
            committed_frames = self.frames  # _commit hands the merger off
            self._commit()
            await self._channel.send_control(OK, re=BYE, frames=committed_frames)
        elif verb == HELLO:
            raise ProtocolError("duplicate hello on an open session")
        else:
            raise ProtocolError(f"unknown verb {verb!r}")

    # ------------------------------------------------------------------
    # Verb handlers
    # ------------------------------------------------------------------

    async def _handle_hello(self, message: dict) -> None:
        token = message.get("token")
        if not self._server.check_auth(token):
            error = ProtocolError(
                "this aggregator requires a session token; pass the server's "
                "--auth-token in the hello" if token is None else
                "hello session token rejected")
            error.code = "auth_failed"
            raise error
        if self._pending_header_k is not None:
            self._check_k(self._pending_header_k, source="stream header")
            self._pending_header_k = None
        self._check_k(message.get("k"), source="hello")
        ordinal = message.get("ordinal")
        if ordinal is not None and not isinstance(ordinal, int):
            raise ProtocolError(f"hello ordinal must be an integer, got {ordinal!r}")
        self.ordinal = ordinal
        client = message.get("client")
        self.client = str(client) if client is not None else None
        role = message.get("role")
        if role is not None:
            if role not in SESSION_ROLES:
                raise ProtocolError(
                    f"hello declares an unknown role {role!r}; known roles "
                    f"are {SESSION_ROLES}")
            if role == "relay" and not self._server.accept_relays:
                error = ProtocolError(
                    "this aggregator does not accept relay sessions; start "
                    "it with --accept-relays to act as an upstream root")
                error.code = "relay_not_accepted"
                raise error
            self.role = role
        ack = {"k": self._server.k}
        if self._server.wal is not None:
            self._claimed_ordinal = self._server.claim_ordinal(self.ordinal)
            self._journal = self._server.wal.attach(self.ordinal, self.client,
                                                    self._server.k,
                                                    role=self.role)
            ack["committed"] = self._journal.committed_frames
            if self._journal.complete:
                ack["complete"] = True
            elif self._journal.parts:
                # Resumed relay session: adopt the replayed summary parts.
                self._parts = list(self._journal.parts)
                self._server.note_resumed(
                    self._journal.record.session_id,
                    frames=sum(part.frames for part in self._parts),
                    stream_length=sum(part.total_stream_length
                                      for part in self._parts))
                self._seed_quota_from_resume(
                    sketches=sum(part.frames for part in self._parts))
            elif self._journal.merger is not None:
                # Resumed session: adopt the replayed committed prefix.
                self._merger = self._journal.merger
                self._server.note_resumed(
                    self._journal.record.session_id,
                    frames=self._merger.frames,
                    stream_length=self._merger.total_stream_length)
                self._seed_quota_from_resume(sketches=self._merger.frames)
        self.state = SessionState.READY
        await self._channel.send_control(OK, re=HELLO, **ack)

    async def _handle_push(self, message: dict) -> None:
        declared = message.get("frames")
        if not isinstance(declared, int) or declared < 0:
            raise ProtocolError(f"push must declare a frame count, got {declared!r}")
        if self._server.k is None:
            raise ProtocolError(
                "no sketch size agreed yet: start the server with -k or "
                "declare k in this session's hello")
        if self._journal is not None:
            if self._journal.complete:
                error = ProtocolError(
                    "session already committed cleanly; pushing more frames "
                    "would fold them twice — use a fresh ordinal")
                error.code = "session_complete"
                raise error
            self._journal.ensure_k(self._server.k)
        limit = self._server.max_session_frames
        if limit is not None and self._quota_frames + declared > limit:
            # The declared burst alone busts the frame quota: refuse it up
            # front, before a single body is spooled or folded.
            raise self._quota_error("frames", limit,
                                    self._quota_frames + declared)
        if self._merger is None and self.role != "relay":
            self._merger = StreamingMerger(self._server.k)
        self.state = SessionState.PUSHING
        metrics = self._server.metrics
        clock = metrics.clock
        next_event = self._channel.next_event
        timeout = self._server.read_timeout
        with self._server.tracer.span("push", frames=declared) as span:
            span["ordinal"] = self.ordinal
            for index in range(declared):
                read_start = clock()
                try:
                    kind, value, body = await next_event(include_body=True,
                                                         timeout=timeout)
                except asyncio.TimeoutError:
                    raise self._stalled(
                        f"payload frame {index + 1}/{declared}") from None
                metrics.observe("server.frame_seconds", clock() - read_start)
                if kind == "eof":
                    raise FramingError(
                        f"stream ended {declared - index} frame(s) into a "
                        f"declared burst of {declared}")
                if kind != "payload":
                    raise ProtocolError(
                        f"expected payload frame {index + 1}/{declared} of the "
                        f"push burst, got a control frame")
                if value.k is not None and value.k != self._server.k:
                    error = ProtocolError(
                        f"frame {index + 1} exports a k={value.k} sketch; this "
                        f"aggregation runs at k={self._server.k} and merging "
                        "disagreeing sketch sizes would miscalibrate the release")
                    error.code = "k_mismatch"
                    raise error
                fold_start = clock()
                if self.role == "relay":
                    # Each relay frame is one origin session's summary: it folds
                    # into its own release part so the combine at release time
                    # sees the same part sequence a flat server would.
                    part = StreamingMerger(self._server.k).add_summary(value)
                else:
                    part = None
                # Quota charge precedes the spool append and the fold: an
                # over-quota frame is rejected without leaving any trace.
                self._charge_quota(len(body),
                                   part.frames if part is not None else 1)
                if self._journal is not None:
                    # Write-ahead: the verbatim bytes hit the spool before
                    # the fold.
                    self._journal.append(body)
                if part is not None:
                    self._parts.append(part)
                    self._server.note_frame(value, frames=part.frames)
                else:
                    self._merger.add(value)
                    self._server.note_frame(value)
                metrics.observe("server.fold_seconds", clock() - fold_start)
                self.frames_accepted += 1
                self.bytes_received += len(body)
                self.last_frame_at = time.time()
                metrics.inc("server.frames_total")
                metrics.inc("server.bytes_total", len(body))
            if self._journal is not None:
                # Durability barrier: fsync spool + checkpoint record, then ack.
                self._journal.commit()
        self.state = SessionState.READY
        await self._channel.send_control(OK, re=PUSH, folded=declared,
                                         frames=self.frames)

    async def _handle_release(self, message: dict) -> None:
        seed = message.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise ProtocolError(f"release seed must be an integer, got {seed!r}")
        envelope = await self._server.handle_release(seed)
        await self._channel.send_payload(envelope)
        self._server.note_release_sent()

    # ------------------------------------------------------------------
    # Endings
    # ------------------------------------------------------------------

    def _finish_on_eof(self) -> None:
        if self.state is SessionState.AWAIT_HELLO:
            # Probe/empty connection: nothing to commit, nothing to reject.
            self.state = SessionState.REJECTED
            return
        self._commit()

    def _commit(self) -> None:
        self.state = SessionState.COMMITTED
        if (self._merger is not None and self._merger.frames) or self._parts:
            self._server.commit(self)
            self._merger = None
            self._parts = []

    async def _reject(self, error: ReproError) -> None:
        self.state = SessionState.REJECTED
        self._server.note_rejected(self, str(error))
        code = "protocol" if isinstance(error, ProtocolError) else \
            type(error).__name__.replace("Error", "").lower() or "error"
        if getattr(error, "code", None):
            code = error.code
        try:
            await self._channel.send_control(ERROR, code=code, message=str(error))
            # Read out whatever the client had in flight before closing, so
            # the close is graceful and the ERROR frame is not destroyed by
            # a TCP reset triggered by unread inbound data.
            self._channel.write_eof()
            await asyncio.wait_for(self._channel.drain_incoming(), timeout=1.0)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _seed_quota_from_resume(self, sketches: int) -> None:
        """Count a resumed session's committed state against its quotas.

        ``committed_bytes`` is the spool watermark (header + frame prefixes
        included), a slight over-count of the raw payload bytes — the
        conservative direction for a quota.
        """
        self._quota_frames = self._journal.committed_frames
        self._quota_bytes = self._journal.record.committed_bytes
        self._quota_sketches = sketches

    def _quota_error(self, which: str, limit: int, would_be: int) -> ProtocolError:
        error = ProtocolError(
            f"session {which} quota exceeded ({would_be} > {limit}); this "
            "session is rejected, other sessions are unaffected")
        error.code = "quota_exceeded"
        return error

    def _charge_quota(self, nbytes: int, sketches: int) -> None:
        self._quota_frames += 1
        self._quota_bytes += nbytes
        self._quota_sketches += sketches
        server = self._server
        if (server.max_session_frames is not None
                and self._quota_frames > server.max_session_frames):
            raise self._quota_error("frames", server.max_session_frames,
                                    self._quota_frames)
        if (server.max_session_bytes is not None
                and self._quota_bytes > server.max_session_bytes):
            raise self._quota_error("bytes", server.max_session_bytes,
                                    self._quota_bytes)
        if (server.max_session_sketches is not None
                and self._quota_sketches > server.max_session_sketches):
            raise self._quota_error("sketches", server.max_session_sketches,
                                    self._quota_sketches)

    def _check_k(self, declared, source: str) -> None:
        if declared is None:
            return
        if not isinstance(declared, int) or declared <= 0:
            raise ProtocolError(f"{source} declares a bad sketch size {declared!r}")
        agreed = self._server.adopt_k(declared)
        if agreed != declared:
            error = ProtocolError(
                f"{source} declares k={declared} but this aggregation runs "
                f"at k={agreed}; all sessions must agree on one sketch size")
            error.code = "k_mismatch"
            raise error

    def take_merger(self) -> Optional[StreamingMerger]:
        merger = self._merger
        self._merger = None
        return merger

    def take_parts(self) -> Tuple[StreamingMerger, ...]:
        parts = tuple(self._parts)
        self._parts = []
        return parts

    def take_journal(self):
        journal = self._journal
        self._journal = None
        return journal
