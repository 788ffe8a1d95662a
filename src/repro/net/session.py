"""Server-side session state machine for the aggregation service.

One :class:`Session` drives one client connection through the state machine
documented in DESIGN.md:

.. code-block:: text

    AWAIT_HELLO --hello--> READY --push(n)--> PUSHING --n frames--> READY
    READY --release/stats--> READY        (replies in-line)
    READY --bye / clean EOF--> COMMITTED  (parts enter the release set)
    any state --protocol violation / k mismatch / truncated frame-->
        REJECTED                          (parts discarded, server stays up)

A session's frames are folded into its release parts — a list of
:class:`~repro.api.framing.StreamingMerger` — *as they arrive*, by the one
rule :func:`fold_frame` that WAL replay runs too; nothing beyond the current
frame and each part's ``<= k``-counter accumulator is buffered.  The parts
join the server's committed set only on a clean end (``bye`` verb or EOF
from ``READY``), so a client that dies mid-push contributes nothing.

The HELLO ordinal names one client stream, WAL or not: one live session
may hold it (``ordinal_active``), and a committed ordinal's HELLO is acked
``complete`` and its PUSH refused (``session_complete``), so a retry after
a lost BYE ack folds nothing twice.  With a write-ahead log (``repro serve
--wal-dir``) each accepted frame's verbatim bytes are spooled *before* the
fold, the whole burst is made durable (spool fsync + checkpoint record, in
a group commit off the event loop) *before* the PUSH ack, and a re-HELLO
with the same ordinal resumes an open spooled session: the ack reports the
committed frame count so the client skips already-durable frames.  Every
frame must additionally arrive whole within the server's read timeout, so a
peer dribbling bytes (slow-loris) is rejected instead of pinning a session
open; the deadline only bounds waits, so frames already buffered cost none.

Multi-tenant hardening: when the server carries an ``auth_token``, the HELLO
must present a matching ``token`` field (checked in constant time, *before*
any ordinal claim, WAL attach or k adoption) or the session is rejected with
an ``auth_failed`` ERROR.  Per-session quotas: the frame quota is checked
for a whole declared burst up front; payload bytes and origin sketch exports
are charged per accepted frame — before the spool append and the fold, so
an over-quota frame leaves no trace.  A violation rejects only the offending
session (``quota_exceeded``).
"""

from __future__ import annotations

import asyncio
import enum
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..api.framing import FRAMING_VERSION, FrameHeader, StreamingMerger, origin_frames
from ..api.wire import WirePayload
from ..exceptions import FramingError, ProtocolError, ReproError
from .protocol import BYE, ERROR, HELLO, IN_LINE_REFUSAL, OK, PUSH, RELEASE, STATS, FrameChannel

#: HELLO ``role`` values a server understands.  ``client`` (the default)
#: folds all pushed frames into one release part; ``relay`` marks each
#: pushed frame as the summary of one downstream origin session, folded into
#: its *own* release part so the root's combine sees exactly the same part
#: sequence a flat server would.
SESSION_ROLES = ("client", "relay")


def frame_sketches(payload: WirePayload, role: str) -> int:
    """Origin sketch exports one pushed frame covers (what quotas and stats
    count): a relay summary declares its origin count, a client frame is
    one export."""
    return origin_frames(payload) if role == "relay" else 1


def fold_frame(parts: List[StreamingMerger], payload: WirePayload,
               role: str, k: int) -> None:
    """Fold one pushed frame into a session's release parts, in place.

    The one fold rule live PUSH and WAL replay share, so a replayed session
    equals the live one because the same code ran.  A client session folds
    every frame into its single part (created by the first frame); a relay
    session starts a new single-summary part per frame
    (:meth:`~repro.api.framing.StreamingMerger.add_summary`).
    """
    if role == "relay":
        parts.append(StreamingMerger(k).add_summary(payload))
    elif parts:
        parts[0].add(payload)
    else:
        parts.append(StreamingMerger(k).add(payload))


class SessionState(enum.Enum):
    AWAIT_HELLO = "await_hello"
    READY = "ready"
    PUSHING = "pushing"
    COMMITTED = "committed"
    REJECTED = "rejected"


@dataclass(frozen=True)
class CommittedSession:
    """A cleanly finished session's contribution to the release set.

    ``parts`` are its release parts in push (= spool) order: one for a
    client session, one single-summary merger per downstream origin session
    for a relay session.
    """

    seq: int                      # commit order (tie-breaker)
    ordinal: Optional[int]        # client-declared canonical position
    client: Optional[str]
    parts: Tuple[StreamingMerger, ...]
    pushed: int                   # frames pushed (a re-HELLO's ``committed``)

    @property
    def sort_key(self):
        # Explicit ordinals first (in ordinal order), then commit order.
        if self.ordinal is not None:
            return (0, self.ordinal, self.seq)
        return (1, 0, self.seq)

    @property
    def frames(self) -> int:
        """Origin sketch exports covered (relay parts carry origin counts)."""
        return sum(part.frames for part in self.parts)

    @property
    def stream_length(self) -> int:
        return sum(part.total_stream_length for part in self.parts)


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
        self.frames_accepted: int = 0     # pushed on this connection
        self.frames: int = 0              # pushed in total (resume included)
        self._parts: List[StreamingMerger] = []
        self._journal = None          # SessionJournal when the server has a WAL
        self._done: Optional[CommittedSession] = None  # ordinal committed
        self._pending_header_k: Optional[int] = None
        self._quota_bytes = 0
        self._quota_sketches = 0

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
            # Greet before reading anything, so every rejection, a bad
            # stream header included, reaches the client as a well-formed
            # (prefix + error frame) stream it can parse.
            await self._channel.send_prefix(FrameHeader(
                framing=FRAMING_VERSION, frames=None, k=self._server.k,
                meta={"service": "repro-aggregator"}))
            try:
                header = await self._channel.read_prefix(timeout=timeout)
            except asyncio.TimeoutError:
                raise self._stalled("stream header") from None
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
            if self.ordinal is not None:  # set once the ordinal is claimed
                self._server.release_ordinal(self.ordinal)
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
            self._commit()
            await self._channel.send_control(OK, re=BYE, frames=self.frames)
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
        if ordinal is not None and type(ordinal) is not int:  # bool too
            raise ProtocolError(f"hello ordinal must be an integer, got {ordinal!r}")
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
        if ordinal is not None:
            self._done = self._server.claim_ordinal(ordinal)
            self.ordinal = ordinal
        if self._done is not None:
            ack.update(committed=self._done.pushed, complete=True)
        elif self._server.wal is not None:
            self._journal = self._server.wal.attach(self.ordinal, self.client,
                                                    self._server.k,
                                                    role=self.role)
            ack["committed"] = self._journal.committed_frames
            if self._journal.parts:
                self._resume()
        self.state = SessionState.READY
        await self._channel.send_control(OK, re=HELLO, **ack)

    async def _handle_push(self, message: dict) -> None:
        declared = message.get("frames")
        if type(declared) is not int or declared < 0:  # bool too
            raise ProtocolError(f"push must declare a frame count, got {declared!r}")
        if self._server.k is None:
            raise ProtocolError(
                "no sketch size agreed yet: start the server with -k or "
                "declare k in this session's hello")
        if self._done is not None:
            error = ProtocolError(
                "session already committed cleanly; pushing more frames "
                "would fold them twice — start a new session under a fresh "
                "ordinal")
            error.code = "session_complete"
            raise error
        if self._journal is not None:
            self._journal.ensure_k(self._server.k)
        limit = self._server.max_session_frames
        if limit is not None and self.frames + declared > limit:
            # The declared burst alone busts the frame quota: refuse it up
            # front, before a single body is spooled or folded.
            raise self._quota_error("frames", limit,
                                    self.frames + declared)
        self.state = SessionState.PUSHING
        metrics = self._server.metrics
        clock = metrics.clock
        next_event = self._channel.next_event
        timeout = self._server.read_timeout
        k = self._server.k
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
                if value.k is not None and value.k != k:
                    error = ProtocolError(
                        f"frame {index + 1} exports a k={value.k} sketch; this "
                        f"aggregation runs at k={k} and merging "
                        "disagreeing sketch sizes would miscalibrate the release")
                    error.code = "k_mismatch"
                    raise error
                fold_start = clock()
                sketches = frame_sketches(value, self.role)
                # Quota charge precedes the spool append and the fold: an
                # over-quota frame is rejected without leaving any trace.
                self._charge_quota(len(body), sketches)
                if self._journal is not None:
                    # Write-ahead: the verbatim bytes hit the spool before
                    # the fold.
                    self._journal.append(body)
                fold_frame(self._parts, value, self.role, k)
                self._server.note_frame(value, frames=sketches)
                metrics.observe("server.fold_seconds", clock() - fold_start)
                self.frames += 1
                self.frames_accepted += 1
                self.bytes_received += len(body)
                self.last_frame_at = time.time()
                metrics.inc("server.frames_total")
                metrics.inc("server.bytes_total", len(body))
            if self._journal is not None:
                # Durability barrier: spool fsync + checkpoint record on the
                # WAL's committer thread, grouped with other sessions'
                # bursts; the ack waits for it.
                await self._server.wal.commit(self._journal)
        self.state = SessionState.READY
        await self._channel.send_control(OK, re=PUSH, folded=declared,
                                         frames=self.frames)

    async def _handle_release(self, message: dict) -> None:
        seed = message.get("seed")
        if seed is not None and type(seed) is not int:  # bool too
            raise ProtocolError(f"release seed must be an integer, got {seed!r}")
        try:
            envelope = await self._server.handle_release(seed)
        except ReproError as error:
            if (RELEASE, getattr(error, "code", None)) != IN_LINE_REFUSAL:
                raise
            # The server's disk failed, not this session: refuse the verb
            # with its code and keep the session.
            await self._channel.send_control(ERROR, code=error.code,
                                             message=str(error))
            return
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
        if self._parts:  # a session that folded nothing commits nothing
            self._server.commit(self)
        self.state = SessionState.COMMITTED

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

    def _resume(self) -> None:
        """Adopt the journal's replayed parts and count them once.

        The resumed state counts against the quotas; ``committed_bytes`` is
        the spool watermark (header + frame prefixes included), a slight
        over-count of the raw payload bytes — the conservative direction
        for a quota.
        """
        journal = self._journal
        self._parts = list(journal.parts)
        self.frames = journal.committed_frames
        self._quota_bytes = journal.record.committed_bytes
        self._quota_sketches = sum(part.frames for part in self._parts)
        self._server.note_resumed(
            journal.record.session_id, frames=self._quota_sketches,
            stream_length=sum(part.total_stream_length
                              for part in self._parts))

    def _quota_error(self, which: str, limit: int, would_be: int) -> ProtocolError:
        error = ProtocolError(
            f"session {which} quota exceeded ({would_be} > {limit}); this "
            "session is rejected, other sessions are unaffected")
        error.code = "quota_exceeded"
        return error

    def _charge_quota(self, nbytes: int, sketches: int) -> None:
        """Charge one frame's bytes and sketches (the frame count was
        checked for the whole burst up front)."""
        self._quota_bytes += nbytes
        self._quota_sketches += sketches
        server = self._server
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
        if type(declared) is not int or declared <= 0:  # bool too
            raise ProtocolError(f"{source} declares a bad sketch size {declared!r}")
        agreed = self._server.adopt_k(declared)
        if agreed != declared:
            error = ProtocolError(
                f"{source} declares k={declared} but this aggregation runs "
                f"at k={agreed}; all sessions must agree on one sketch size")
            error.code = "k_mismatch"
            raise error

    def take_parts(self) -> Tuple[StreamingMerger, ...]:
        parts = tuple(self._parts)
        self._parts = []
        return parts

    def take_journal(self):
        journal = self._journal
        self._journal = None
        return journal
