"""`AggregatorServer`: the asyncio aggregation service.

The deployment story of the paper — ``m`` untrusted clients ship Misra-Gries
sketches to one aggregator that merges them and publishes one differentially
private histogram — as a long-running network service.  Clients connect over
TCP or a Unix-domain socket, speak the framed control protocol
(:mod:`repro.net.protocol`), and each session's frames are folded into its
release parts (:func:`~repro.net.session.fold_frame`) as they arrive.

Determinism: committed sessions are combined in ``(ordinal, commit
order)`` order, exactly the fold ``repro merge --framed file-per-client``
performs — so a release triggered over the network is **bit-identical**
(keys, values, dict order) to the offline CLI over the same exports with
the same seed.  The server keeps that fold between releases
(:class:`~repro.api.framing.MergerCombiner`), so a release absorbs only the
sessions committed since the previous one unless a new commit sorts before
them.

Fault containment: a session that violates the protocol (bad magic, k
mismatch, truncated frame, payload outside a push burst) is answered with an
ERROR control frame, its partial state is discarded, and the connection is
closed — the server keeps serving every other session.  ``aclose()`` stops
accepting, drains in-flight sessions for ``drain_timeout`` seconds, then
cancels stragglers.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import time
from typing import Dict, List, Optional, Union

from pathlib import Path

import hmac

from .._validation import check_delta, check_epsilon, check_positive_int
from ..api.framing import MergerCombiner, StreamingMerger
from ..api.wire import encode_histogram
from ..core.merging import MergeStrategy, PrivateMergedRelease
from ..dp.accounting import PrivacyParams
from ..exceptions import ParameterError, ProtocolError, RemoteError
from ..obs.metrics import as_registry
from ..obs.trace import Tracer
from .budget import BudgetAccountant
from .protocol import Address, DEFAULT_CHUNK_SIZE, FrameChannel, parse_address
from .session import CommittedSession, Session
from .store import CheckpointStore
from .wal import SessionWal

#: Ceiling on the per-session detail lists a STATS reply embeds
#: (``sessions`` and ``active``).  A million-client loadgen run commits a
#: million sessions; listing them all would put a multi-megabyte JSON
#: control frame on the wire per poll, so the reply carries the first
#: ``STATS_SESSION_CAP`` rows in canonical order plus the full counts
#: (``sessions_committed`` / ``sessions_active``).
STATS_SESSION_CAP = 64


class AggregatorServer:
    """Accept concurrent client sessions and release their merged aggregate.

    Parameters
    ----------
    epsilon, delta:
        Privacy budget of every release (trusted-merged strategy: Agarwal
        merge + GSHM with ``l = k``, the streamable regime).
    k:
        Sketch size every session must agree on.  ``None`` adopts the first
        session's declared ``k``; later disagreeing sessions are rejected.
    drain_timeout:
        Seconds :meth:`aclose` waits for in-flight sessions before
        cancelling them.
    chunk_size:
        Per-``read()`` byte ceiling of every session channel (bounded reads;
        TCP backpressure does the rest).
    wal_dir:
        Directory for the write-ahead log (:mod:`repro.net.wal`).  When set,
        every accepted PUSH frame is spooled verbatim before it is folded,
        PUSH acks imply fsync-durability, committed sessions are replayed
        bit-identically on restart, and clients resume by ordinal.
    store:
        Checkpoint-store override for the WAL (defaults to sqlite inside
        ``wal_dir``); ignored without ``wal_dir``.
    read_timeout:
        Per-read wall-clock bound (seconds) on every session socket read —
        a peer that cannot produce a complete frame in time (slow-loris) is
        rejected with an ERROR frame.  ``None`` disables the bound.
    accept_relays:
        Accept sessions that HELLO with ``role=relay`` (leaf aggregators
        forwarding per-origin-session summary frames).  Each relay frame
        folds into its own release part, so the combine at release time is
        bit-identical to a flat server over the origin sessions.  Off by
        default: a relay summary folded as a plain frame would silently
        change release metadata, so relays must be opted into.
    budget, composition, delta_slack:
        Privacy budget accounting (:mod:`repro.net.budget`).  ``budget``
        (a :class:`~repro.dp.accounting.PrivacyParams`) caps the cumulative
        spend composed across releases under ``composition`` (``"basic"``
        or ``"advanced"``, Dwork & Roth Thm 3.20 with slack
        ``delta_slack``, default half the budget delta); once the next
        release would exceed it, RELEASE is refused with a
        ``budget_exhausted`` ERROR.  Without a budget the accountant still
        meters the honest cumulative spend for STATS.  With ``wal_dir`` the
        charged release count persists through the checkpoint store, so a
        kill -9 restart cannot reset the budget.
    auth_token:
        Shared-secret session token.  When set, every HELLO — client *and*
        relay role; the leaf-to-root hop is a trust boundary — must carry a
        matching ``token`` field or the session is rejected with an
        ``auth_failed`` ERROR before any state is touched.
    max_session_frames, max_session_bytes, max_session_sketches:
        Per-session quotas (frames pushed, payload bytes pushed, origin
        sketch exports — for plain clients sketches == frames, a relay
        summary counts its origin exports).  A push that would cross a
        quota is rejected with a ``quota_exceeded`` ERROR containing only
        the offending session; the over-quota frame is neither spooled nor
        folded.  Resumed sessions count their already-committed state.
    metrics:
        Observability (:mod:`repro.obs`).  ``True`` (the default) builds a
        process-local :class:`~repro.obs.metrics.MetricsRegistry` whose
        counters/gauges/histograms the session, WAL, budget and relay
        layers record into; ``False`` disables it (every instrument write
        becomes a no-op and STATS carries no ``metrics`` stanza).  Pass a
        registry instance to share one across servers (tests inject a
        fake-clock registry this way).  The registry is a pure read-side
        layer: releases are bit-identical either way.
    log_json:
        A writable text stream for structured span logs (``repro serve
        --log-json``): one JSON line per traced span (session, push,
        release) with monotonic-clock durations.
    """

    def __init__(self, epsilon: float, delta: float, k: Optional[int] = None,
                 *, drain_timeout: float = 5.0,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 max_releases: Optional[int] = None,
                 wal_dir: Optional[Union[str, Path]] = None,
                 store: Optional[CheckpointStore] = None,
                 read_timeout: Optional[float] = 30.0,
                 accept_relays: bool = False,
                 budget: Optional[PrivacyParams] = None,
                 composition: str = "basic",
                 delta_slack: Optional[float] = None,
                 auth_token: Optional[str] = None,
                 max_session_frames: Optional[int] = None,
                 max_session_bytes: Optional[int] = None,
                 max_session_sketches: Optional[int] = None,
                 metrics=True, log_json=None) -> None:
        check_epsilon(epsilon)
        # delta == 0 is a valid configuration: PrivacyParams and the pure_dp
        # mechanism support pure epsilon-DP (the trusted-merged *release*
        # path still needs delta > 0 and says so at release time).
        check_delta(delta, allow_zero=True)
        if k is not None:
            check_positive_int(k, "k")
        if max_releases is not None:
            check_positive_int(max_releases, "max_releases")
        if read_timeout is not None and read_timeout <= 0:
            raise ParameterError(
                f"read_timeout must be positive seconds or None, got {read_timeout!r}")
        if auth_token is not None and (not isinstance(auth_token, str)
                                       or not auth_token):
            raise ParameterError("auth_token must be a non-empty string or None")
        for name, value in (("max_session_frames", max_session_frames),
                            ("max_session_bytes", max_session_bytes),
                            ("max_session_sketches", max_session_sketches)):
            if value is not None:
                check_positive_int(value, name)
        self.epsilon = epsilon
        self.delta = delta
        self._k = k
        self._drain_timeout = drain_timeout
        self._chunk_size = chunk_size
        self._max_releases = max_releases
        self.metrics = as_registry(metrics)
        self.tracer = Tracer(self.metrics, stream=log_json)
        self._wal = (SessionWal(wal_dir, store=store, metrics=self.metrics)
                     if wal_dir is not None else None)
        self._read_timeout = read_timeout
        self.accept_relays = accept_relays
        self._auth_token = auth_token
        self.max_session_frames = max_session_frames
        self.max_session_bytes = max_session_bytes
        self.max_session_sketches = max_session_sketches
        self.accountant = BudgetAccountant(
            PrivacyParams(epsilon=epsilon, delta=delta),
            budget=budget, composition=composition, delta_slack=delta_slack,
            store=self._wal.store if self._wal is not None else None,
            metrics=self.metrics)
        self._started_at: Optional[float] = None
        self._started_wall: Optional[float] = None
        self._live_sessions: set = set()
        self._recovered = False
        self._active_ordinals: set = set()
        self._resumed_noted: set = set()
        self._release_limit = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._address: Optional[Address] = None
        self._bound: Optional[str] = None
        self._tasks: set = set()
        self._committed: List[CommittedSession] = []
        self._combiner: Optional[MergerCombiner] = None
        self._commit_seq = 0
        self._frames_seen = 0
        self._length_seen = 0
        self._releases = 0
        self._rejected = 0
        self._closing = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self, address: Union[str, Address]) -> "AggregatorServer":
        """Bind and start accepting (``host:port``, ``:0`` for an ephemeral
        port, or ``unix:/path``)."""
        if self._server is not None:
            raise ParameterError("server already started")
        if self._wal is not None and not self._recovered:
            self._recover_from_wal()
        self._address = parse_address(address)
        # asyncio's default listen backlog (100) is smaller than one loadgen
        # connect burst; a full backlog fails unix connects outright instead
        # of queueing them, so listen deep enough for arrival spikes.
        backlog = 1024
        if self._address.kind == "unix":
            self._server = await asyncio.start_unix_server(
                self._on_connect, path=self._address.path, backlog=backlog)
            self._bound = f"unix:{self._address.path}"
        else:
            self._server = await asyncio.start_server(
                self._on_connect, host=self._address.host,
                port=self._address.port, backlog=backlog)
            sockname = self._server.sockets[0].getsockname()
            self._bound = f"{sockname[0]}:{sockname[1]}"
        self._started_at = time.monotonic()
        self._started_wall = time.time()
        return self

    @property
    def address(self) -> str:
        """The bound endpoint (actual port for ``:0`` requests)."""
        if self._bound is None:
            raise ParameterError("server not started yet")
        return self._bound

    @property
    def k(self) -> Optional[int]:
        return self._k

    @property
    def wal(self) -> Optional[SessionWal]:
        """The write-ahead log, or ``None`` when running memoryless."""
        return self._wal

    @property
    def read_timeout(self) -> Optional[float]:
        return self._read_timeout

    def _recover_from_wal(self) -> None:
        """Replay the WAL: committed sessions rejoin the release set.

        Runs once, before the socket binds, so the first release after a
        restart already covers everything durable.  Open (uncommitted)
        records stay on disk and are replayed lazily when their client
        resumes by ordinal.
        """
        self._recovered = True
        recovery = self._wal.recover()
        if recovery.k is not None:
            if self._k is None:
                self._k = recovery.k
            elif self._k != recovery.k:
                raise ParameterError(
                    f"wal dir holds sessions at k={recovery.k} but the "
                    f"server was started with -k {self._k}")
        for entry in recovery.committed:
            self._committed.append(entry)
            self._frames_seen += entry.frames
            self._length_seen += entry.stream_length
        self._commit_seq = max(self._commit_seq, recovery.max_seq)

    async def serve_forever(self) -> None:
        """Serve until cancelled (``repro serve`` runs this)."""
        await self._server.serve_forever()

    async def aclose(self, drain: bool = True) -> None:
        """Stop accepting; drain in-flight sessions, then cancel stragglers."""
        if self._server is None or self._closing:
            return
        self._closing = True
        self._server.close()
        with contextlib.suppress(Exception):
            await self._server.wait_closed()
        if drain and self._tasks:
            done, pending = await asyncio.wait(
                set(self._tasks), timeout=self._drain_timeout)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        elif self._tasks:
            for task in set(self._tasks):
                task.cancel()
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._address is not None and self._address.kind == "unix":
            with contextlib.suppress(OSError):
                os.unlink(self._address.path)
        if self._wal is not None:
            with contextlib.suppress(Exception):
                self._wal.close()

    async def __aenter__(self) -> "AggregatorServer":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose(drain=exc_type is None)

    def _on_connect(self, reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter) -> None:
        channel = FrameChannel(reader, writer, chunk_size=self._chunk_size)
        session = Session(self, channel)
        task = asyncio.ensure_future(session.run())
        self._tasks.add(task)
        self._live_sessions.add(session)
        task.add_done_callback(self._tasks.discard)
        task.add_done_callback(
            lambda _, s=session: self._session_gone(s))
        self.metrics.set_gauge("server.sessions_active", len(self._tasks))

    def _session_gone(self, session: Session) -> None:
        self._live_sessions.discard(session)
        self.metrics.set_gauge("server.sessions_active", len(self._tasks))

    # ------------------------------------------------------------------
    # Session callbacks
    # ------------------------------------------------------------------

    @property
    def requires_auth(self) -> bool:
        """True when HELLO must carry the shared session token."""
        return self._auth_token is not None

    def check_auth(self, token: object) -> bool:
        """Constant-time comparison of a HELLO ``token`` field."""
        if self._auth_token is None:
            return True
        if not isinstance(token, str):
            return False
        return hmac.compare_digest(token.encode("utf-8"),
                                   self._auth_token.encode("utf-8"))

    def adopt_k(self, declared: int) -> int:
        """Adopt the first declared sketch size; return the agreed one."""
        if self._k is None:
            self._k = declared
        return self._k

    def note_frame(self, payload, frames: int) -> None:
        """Count one accepted frame (relay summaries count their origin
        exports, so root stats agree with the flat server's)."""
        self._frames_seen += frames
        self._length_seen += payload.stream_length

    def note_resumed(self, session_id: str, frames: int,
                     stream_length: int) -> None:
        """Count a resumed session's replayed frames once per identity."""
        if session_id in self._resumed_noted:
            return
        self._resumed_noted.add(session_id)
        self._frames_seen += frames
        self._length_seen += stream_length

    def note_rejected(self, session: Session, reason: str) -> None:
        self._rejected += 1
        self.metrics.inc("server.rejects_total")

    def claim_ordinal(self, ordinal: Optional[int]) -> bool:
        """Reserve an ordinal for one live session (WAL sessions only).

        The ordinal is the durable session identity, so two live sessions
        sharing one would interleave appends into one spool; the second
        HELLO is rejected with ``ordinal_active``.
        """
        if ordinal is None:
            return False
        if ordinal in self._active_ordinals:
            error = ProtocolError(
                f"ordinal {ordinal} already has a live session; resume is "
                "only possible after the previous connection is gone")
            error.code = "ordinal_active"
            raise error
        self._active_ordinals.add(ordinal)
        return True

    def release_ordinal(self, ordinal: Optional[int]) -> None:
        self._active_ordinals.discard(ordinal)

    def admit_commit(self, session: Session) -> None:
        """Hook: raise a coded :class:`ProtocolError` to refuse a commit.

        Runs before anything is taken from the session or made durable, so
        a refused session is rejected with nothing committed.
        """

    def commit(self, session: Session) -> None:
        """A session ended cleanly: its release parts join the release set."""
        self.admit_commit(session)
        seq = self._commit_seq + 1
        journal = session.take_journal()
        if journal is not None:
            # fsync-on-commit session record: the commit seq becomes durable
            # before the BYE ack, so a restart replays this session in the
            # exact commit order the live run used.  A failed put refuses
            # the session (wal_commit_failed) with nothing committed.
            try:
                journal.mark_committed(seq)
            finally:
                journal.close()
        self._commit_seq = seq
        entry = CommittedSession(seq=seq, ordinal=session.ordinal,
                                 client=session.client,
                                 parts=session.take_parts())
        self._committed.append(entry)
        self.metrics.inc("server.commits_total")
        self.note_committed(entry)

    def note_committed(self, entry: CommittedSession) -> None:
        """Hook: a session just joined the release set (relay forwards here)."""

    # ------------------------------------------------------------------
    # Release and stats
    # ------------------------------------------------------------------

    def committed_mergers(self) -> List[StreamingMerger]:
        """Committed release parts in canonical order.

        Sessions sort by ``(ordinal, commit order)``; a relay session then
        contributes its per-origin-session parts in push order, so the flat
        list is exactly the part sequence a flat server over the origin
        sessions would combine.
        """
        parts: List[StreamingMerger] = []
        for entry in sorted(self._committed, key=lambda e: e.sort_key):
            parts.extend(entry.parts)
        return parts

    def perform_release(self, seed: Optional[int]) -> Dict:
        """Combine committed sessions and release; returns a v2 envelope.

        Raises :class:`RemoteError` (reported to the requesting client as an
        ERROR frame by the session loop) when nothing has been committed,
        when the privacy budget is exhausted (``budget_exhausted``), or when
        the server runs pure DP (``delta == 0``: the trusted-merged GSHM
        release needs ``delta > 0``).

        Charge ordering: the accountant charges — and durably persists the
        new release count — *before* the histogram is computed, so a crash
        between charge and reply costs at most one unconsumed charge and
        can never under-count spend.  The charge never touches the release
        RNG: an admitted release is bit-identical to an unaccounted
        server's.
        """
        clock = self.metrics.clock
        release_start = clock()
        with self.tracer.span("release") as span:
            parts = self.committed_mergers()
            span["parts"] = len(parts)
            if not parts or self._k is None:
                raise RemoteError("no committed sketch exports to release yet",
                                  code="nothing_to_release")
            if self.delta == 0.0:
                raise RemoteError(
                    "this server runs pure DP (delta=0) and the trusted-merged "
                    "release mechanism (GSHM) requires delta > 0; release "
                    "offline with a pure-DP mechanism instead",
                    code="pure_dp_release_unsupported")
            self.accountant.charge()
            if self._combiner is None:
                self._combiner = MergerCombiner(self._k)
            combine_start = clock()
            combined = self._combiner.combine(parts)
            noise_start = clock()
            self.metrics.observe("server.release_combine_seconds",
                                 noise_start - combine_start)
            self.metrics.inc("server.release_parts_absorbed_total",
                             self._combiner.last_absorbed)
            mechanism = PrivateMergedRelease(
                epsilon=self.epsilon, delta=self.delta, k=self._k,
                strategy=MergeStrategy.TRUSTED_MERGED)
            histogram = combined.release(mechanism, rng=seed)
            self.metrics.observe("server.release_noise_seconds",
                                 clock() - noise_start)
            self._releases += 1
            self.metrics.inc("server.releases_total")
            envelope = encode_histogram(histogram)
        self.metrics.observe("server.release_seconds", clock() - release_start)
        return envelope

    async def handle_release(self, seed: Optional[int]) -> Dict:
        """Serve one RELEASE verb.  A relay overrides this to flush its
        forward queue upstream and proxy the release to the root."""
        return self.perform_release(seed)

    def note_release_sent(self) -> None:
        """The reply left the session; arm the ``--releases N`` exit event."""
        if self._max_releases is not None and self._releases >= self._max_releases:
            self._release_limit.set()

    async def wait_release_limit(self) -> None:
        """Block until ``max_releases`` releases have been served and sent."""
        await self._release_limit.wait()

    def stats(self) -> Dict[str, object]:
        """Aggregate counters (the STATS verb's reply fields).

        Besides the totals, ``sessions`` lists committed sessions (ordinal,
        client, origin frame count, commit seq) in canonical release order
        — capped at :data:`STATS_SESSION_CAP` rows so a million-session
        server still answers STATS with a small frame (``sessions_listed``
        says how many rows made the cut; ``sessions_committed`` is always
        the full count) — and ``uptime_s`` is the seconds since the socket
        bound (``uptime`` is the same value, kept for pre-obs consumers).
        ``active`` lists live connections with wall-clock ``connected_at``
        / ``last_frame_at`` timestamps, ``wal`` reports the spool
        directory's on-disk footprint (``None`` without a WAL; it stats the
        spool files, so cost scales with session count), and ``metrics``
        embeds the versioned :meth:`~repro.obs.metrics.MetricsRegistry.
        snapshot` stanza (``None`` when the server runs ``metrics=False``).
        Relays extend all this with a ``forward`` stanza (see
        ``RelayAggregatorServer``).

        The old top-level ``epsilon``/``delta`` keys are gone: they read as
        a *total* guarantee but were per-release parameters.  The
        ``privacy`` stanza replaces them with the honest breakdown —
        ``per_release``, the cumulative ``spent`` under the configured
        composition, and ``remaining``/``budget`` when a budget is set.
        """
        uptime = (time.monotonic() - self._started_at
                  if self._started_at is not None else None)
        committed = sorted(self._committed, key=lambda e: e.sort_key)
        listed = committed[:STATS_SESSION_CAP]
        active = sorted(self._live_sessions,
                        key=lambda s: s.connected_at)[:STATS_SESSION_CAP]
        wal_stanza = None
        if self._wal is not None:
            usage = self._wal.spool_usage()
            wal_stanza = {"dir": str(self._wal.wal_dir), **usage}
        return {
            "k": self._k,
            "role": "aggregator",
            "accept_relays": self.accept_relays,
            "auth_required": self.requires_auth,
            "quota": {
                "max_session_frames": self.max_session_frames,
                "max_session_bytes": self.max_session_bytes,
                "max_session_sketches": self.max_session_sketches,
            },
            "sessions_active": len(self._tasks),
            "sessions_committed": len(self._committed),
            "sessions_rejected": self._rejected,
            "sessions_listed": len(listed),
            "sessions": [
                {"ordinal": entry.ordinal, "client": entry.client,
                 "frames": entry.frames, "seq": entry.seq}
                for entry in listed],
            "active": [
                {"ordinal": session.ordinal, "client": session.client,
                 "role": session.role, "state": session.state.value,
                 "frames": session.frames_accepted,
                 "bytes": session.bytes_received,
                 "connected_at": session.connected_at,
                 "last_frame_at": session.last_frame_at}
                for session in active],
            "frames": self._frames_seen,
            "stream_length": self._length_seen,
            "releases": self._releases,
            "privacy": self.accountant.as_stats(),
            "uptime": uptime,
            "uptime_s": uptime,
            "started_at": self._started_wall,
            "wal": wal_stanza,
            "metrics": self.metrics.snapshot(),
        }


async def serve(address: Union[str, Address], epsilon: float, delta: float,
                k: Optional[int] = None, **kwargs) -> AggregatorServer:
    """Start an :class:`AggregatorServer` bound to ``address``."""
    server = AggregatorServer(epsilon=epsilon, delta=delta, k=k, **kwargs)
    return await server.start(address)
