"""`RelayAggregatorServer`: aggregator-of-aggregators scale-out.

A relay is a *leaf* aggregator that accepts normal client sessions — same
protocol, same per-session folds, same WAL durability — and forwards every
committed session's summary upstream, acting as an
:class:`~repro.net.client.AggregatorClient` against a root (or mid-tier)
aggregator started with ``accept_relays``.  ``N leaves x M clients`` then
release through the root **bit-identically** to one flat server over the
same ``N*M`` sessions, and to the offline ``repro merge --framed`` fold.

Why one summary frame *per origin session*, not one pre-reduced blob per
leaf: the Agarwal et al. merge is **not associative** before compaction.
At ``k=1``, sessions ``{1:1} {2:2} {3:3} {4:4}`` fold flat to ``{4: 2.0}``
but pre-reduced pairs fold to ``{}`` — so a leaf that combined its clients
before forwarding would change the released values.  Instead the leaf
exploits the fold's *fixed point*: re-encoding a session merger's merged
state (:func:`~repro.api.framing.summary_payload`) and folding it as the
sole frame of a fresh merger reproduces the summary bit-identically.  The
leaf therefore forwards one summary frame per committed origin session and
the reduction happens exactly once, at the root, over the same part
sequence in the same order a flat server would see.

Ordering: the root sorts sessions by ``(ordinal, commit order)``, so each
forwarded session is assigned a *root ordinal* that embeds the leaf's
position: origin ordinal ``o`` of leaf ``L`` maps to ``L*STRIDE + o``;
sessions without a usable ordinal get ``L*STRIDE + ANON_OFFSET + counter``
in commit order.  The counter band ``[ANON_OFFSET, STRIDE)`` is finite: a
session that would need a counter past it is refused at BYE with
``ordinal_space_exhausted`` and never committed, because an ordinal outside
the leaf's band would silently reorder the root's release.  With
leaf-major ordinal assignment (leaf 0 owns clients 0..M-1, leaf 1 owns
M..2M-1, ...) the root's canonical order is exactly the flat server's.

Durability: with a WAL (``--wal-dir``), the forward queue lives in the
leaf's checkpoint ledger next to its session records.  Staging a batch
writes one reserved row ``::forward:<index>`` holding the batch's root
ordinal and covered commit seq *before* the upstream push; the upstream BYE
ack sets the row's ``committed_frames`` to 1.  The frame bodies are not
stored: they are the summary frames of the covered session's parts, which
WAL replay restores bit-identically, so a leaf crash mid-forward re-pushes
the same bytes under the same root ordinal on restart, and the root's own
WAL resume (committed-frame skip by root ordinal) makes the re-push
idempotent.  Crash safety of the whole tree requires a WAL on **both**
tiers.  A retry after a lost BYE ack is idempotent on any root: the root
acks a committed root ordinal ``complete``, WAL or not, and the forward
runs the same resumable push cycle as ``repro push --resume``
(:func:`~repro.net.client.push_resumable`).
"""

from __future__ import annotations

import asyncio
import contextlib
import shutil
import sqlite3
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set

from ..api import wire as wire_module
from ..api.framing import FrameReader, payload_frame_body, summary_payload
from ..exceptions import (FramingError, NetworkError, ParameterError,
                          ProtocolError, RemoteError)
from .backoff import Backoff
from .client import AggregatorClient, push_resumable
from .server import AggregatorServer
from .session import CommittedSession
from .store import RESERVED_SESSION_PREFIX, SessionRecord

#: Root-ordinal stride per leaf: leaf ``L`` owns ``[L*STRIDE, (L+1)*STRIDE)``.
STRIDE = 1 << 20
#: Offset inside a leaf's band where counter-assigned (anonymous / composed)
#: origin sessions start; origin ordinals must stay below it to map directly.
ANON_OFFSET = STRIDE // 2

FORWARD_POLICIES = ("commit", "release")

#: Ledger id prefix of the forward-queue rows, ``::forward:<index:08d>``.
FORWARD_ROW_PREFIX = RESERVED_SESSION_PREFIX + "forward:"


def _anonymous(ordinal: Optional[int]) -> bool:
    """Whether a session's root ordinal comes from the leaf's counter band."""
    return ordinal is None or not 0 <= ordinal < ANON_OFFSET


def _ordinal_space_exhausted(relay_ordinal: int) -> ProtocolError:
    error = ProtocolError(
        f"relay {relay_ordinal} has handed out all {STRIDE - ANON_OFFSET} "
        "root ordinals of its anonymous band; sessions without an ordinal "
        f"in [0, {ANON_OFFSET}) are refused")
    error.code = "ordinal_space_exhausted"
    return error


@dataclass
class ForwardBatch:
    """One committed origin session, staged for the upstream push.

    With a WAL the batch is one reserved ledger row (:meth:`record`);
    without one it lives in memory only.  Its frame bodies are rebuilt from
    the covered session's parts at push time, never stored.
    """

    index: int                 # monotonic batch number (ledger row id)
    root_ordinal: int          # ordinal this batch HELLOs upstream with
    covered_seq: int           # local commit seq this batch covers
    acked: bool = False

    @classmethod
    def from_record(cls, record: SessionRecord) -> "ForwardBatch":
        return cls(index=int(record.session_id[len(FORWARD_ROW_PREFIX):]),
                   root_ordinal=record.ordinal, covered_seq=record.commit_seq,
                   acked=bool(record.committed_frames))

    def record(self) -> SessionRecord:
        """The ledger row: ``committed_frames`` is 1 once the root acked."""
        return SessionRecord(
            session_id=f"{FORWARD_ROW_PREFIX}{self.index:08d}",
            ordinal=self.root_ordinal, client="", k=None, spool="",
            committed_frames=int(self.acked), commit_seq=self.covered_seq)


class RelayAggregatorServer(AggregatorServer):
    """A leaf aggregator that forwards committed sessions upstream.

    Accepts everything :class:`AggregatorServer` accepts, plus:

    Parameters
    ----------
    upstream:
        Address of the root (or next-tier) aggregator; it must run with
        ``accept_relays``.
    relay_ordinal:
        This leaf's position among its siblings; it prefixes every
        forwarded session's root ordinal (``relay_ordinal * STRIDE + o``),
        so give each leaf under one root a distinct ordinal.
    forward_on:
        ``"release"`` (default) flushes the forward queue lazily, when a
        RELEASE arrives; ``"commit"`` forwards each session eagerly as it
        commits (lower release latency, same bits).
    forward_max_elapsed:
        Retry budget in seconds of each upstream push (the ``max_elapsed``
        of :func:`~repro.net.client.push_resumable`, under the default
        :class:`~repro.net.backoff.Backoff` policy).
    upstream_token:
        Session token this leaf presents to the upstream in every HELLO
        (forward pushes *and* proxied releases).  The leaf-to-root hop is a
        trust boundary: when the root runs ``--auth-token``, every leaf
        needs the matching ``--upstream-token`` or its forwards are
        rejected with ``auth_failed``.  Independent of the leaf's own
        ``auth_token`` (what *its* clients must present).

    Privacy accounting across the tier: a relay proxies RELEASE upstream
    (:meth:`handle_release` never calls :meth:`perform_release`), so a
    release requested through any leaf charges exactly one budget — the
    root's — exactly once.  The leaf's own accountant only meters releases
    the leaf itself would compute locally, which a relay never does.
    """

    def __init__(self, epsilon: float, delta: float, k: Optional[int] = None,
                 *, upstream: str, relay_ordinal: int = 0,
                 forward_on: str = "release",
                 forward_max_elapsed: float = 60.0,
                 upstream_token: Optional[str] = None,
                 **kwargs) -> None:
        if forward_on not in FORWARD_POLICIES:
            raise ParameterError(
                f"forward_on must be one of {FORWARD_POLICIES}, got {forward_on!r}")
        if not isinstance(relay_ordinal, int) or relay_ordinal < 0:
            raise ParameterError(
                f"relay_ordinal must be a non-negative integer, got {relay_ordinal!r}")
        super().__init__(epsilon, delta, k, **kwargs)
        self._upstream = upstream
        self._relay_ordinal = relay_ordinal
        self._forward_on = forward_on
        self._forward_max_elapsed = forward_max_elapsed
        self._upstream_token = upstream_token
        self._forward_lock = asyncio.Lock()
        self._forward_tasks: Set[asyncio.Task] = set()
        self._batches: List[ForwardBatch] = []
        self._batched_seqs: Set[int] = set()
        self._next_batch = 0
        self._next_anon = 0
        # Committed sessions that will draw from the anonymous band when
        # they are staged; reserved at commit so the band never overflows.
        self._anon_reserved = 0
        self._last_backoff: Optional[float] = None
        self._forward_error: Optional[str] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def aclose(self, drain: bool = True) -> None:
        for task in set(self._forward_tasks):
            if drain:
                with contextlib.suppress(Exception):
                    await asyncio.wait_for(asyncio.shield(task),
                                           timeout=self._drain_timeout)
            task.cancel()
        if self._forward_tasks:
            await asyncio.gather(*self._forward_tasks, return_exceptions=True)
        await super().aclose(drain=drain)

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------

    def _recover_from_wal(self) -> None:
        """Replay the WAL, then rebuild the forward queue from its rows.

        Acked batches stay as tombstones, so their covered commit seqs are
        never re-batched and their anonymous-band root ordinals are never
        handed out again; unacked ones re-push on the next flush.
        """
        super()._recover_from_wal()
        self._upconvert_forward_spool()
        self._batches = sorted(
            (ForwardBatch.from_record(record) for record in self.wal.store.scan()
             if record.session_id.startswith(FORWARD_ROW_PREFIX)),
            key=lambda batch: batch.index)
        self._batched_seqs = {batch.covered_seq for batch in self._batches}
        if self._batches:
            self._next_batch = self._batches[-1].index + 1
        anon_base = self._relay_ordinal * STRIDE + ANON_OFFSET
        anon_end = (self._relay_ordinal + 1) * STRIDE
        counters = [batch.root_ordinal - anon_base for batch in self._batches
                    if anon_base <= batch.root_ordinal < anon_end]
        if counters:
            self._next_anon = max(counters) + 1
        self._anon_reserved = sum(
            1 for entry in self._committed
            if entry.seq not in self._batched_seqs and _anonymous(entry.ordinal))

    def _upconvert_forward_spool(self) -> None:
        """Rewrite an earlier release's ``wal_dir/forward`` spool as rows.

        That layout kept one ``fwd-<n>.frames`` file per batch, renamed
        ``.acked`` once the root acked it, with the batch's ledger facts in
        its header meta.  The rows are durable before the directory goes,
        so a crash in between converts the same files again.
        """
        spool_dir = self.wal.wal_dir / "forward"
        if not spool_dir.is_dir():
            return
        batches = []
        for path in sorted(spool_dir.glob("fwd-*.frames*")):
            with path.open("rb") as fileobj:
                meta = FrameReader(fileobj, raw=True).header.meta
            facts = [meta.get(key)
                     for key in ("relay_batch", "root_ordinal", "covered_seq")]
            if not all(isinstance(value, int) for value in facts):
                raise FramingError(
                    f"forward spool {path} is missing its relay batch "
                    "metadata; the forward directory is corrupt")
            batches.append(ForwardBatch(*facts,
                                        acked=path.name.endswith(".acked")))
        if batches:
            self.wal.store.put(*(batch.record() for batch in batches))
        shutil.rmtree(spool_dir)

    def admit_commit(self, session) -> None:
        if (_anonymous(session.ordinal)
                and self._next_anon + self._anon_reserved >= STRIDE - ANON_OFFSET):
            raise _ordinal_space_exhausted(self._relay_ordinal)

    def note_committed(self, entry: CommittedSession) -> None:
        if _anonymous(entry.ordinal):
            self._anon_reserved += 1
        if self._forward_on != "commit":
            return
        task = asyncio.ensure_future(self._forward_flush_quietly())
        self._forward_tasks.add(task)
        task.add_done_callback(self._forward_tasks.discard)

    async def _forward_flush_quietly(self) -> None:
        """Eager (commit-policy) flush: failures wait for the next flush.

        The session stays queued (a staged batch durable in the ledger, with
        a WAL), so a dead upstream or a failed ledger put (a
        ``wal_commit_failed`` :class:`RemoteError`, itself a
        :class:`NetworkError`) only delays the forward; the error is
        surfaced in ``stats()["forward"]["error"]`` and the release-time
        flush retries.
        """
        try:
            await self.forward_flush()
        except (NetworkError, OSError) as error:
            self._forward_error = str(error)

    async def forward_flush(self) -> int:
        """Push every staged and pending committed session upstream.

        Strictly sequential (one upstream session at a time, under a lock):
        unacked batches re-push first in batch order, then each not-yet-
        batched committed session is staged and pushed in canonical
        ``(ordinal, commit order)`` order.  Returns the number of batches
        acked by this call.  Raises :class:`NetworkError` when the retry
        budget is spent, and a :class:`RemoteError` coded
        ``wal_commit_failed`` when a ledger put fails; everything already
        acked stays acked.
        """
        async with self._forward_lock:
            by_seq = {entry.seq: entry for entry in self._committed}
            acked = 0
            for batch in self._batches:
                if not batch.acked:
                    await self._push_batch(batch, by_seq[batch.covered_seq])
                    acked += 1
            pending = [entry for entry
                       in sorted(self._committed, key=lambda e: e.sort_key)
                       if entry.seq not in self._batched_seqs]
            for entry in pending:
                await self._push_batch(self._stage_batch(entry), entry)
                acked += 1
            self._forward_error = None
            return acked

    def _root_ordinal(self, entry: CommittedSession) -> int:
        base = self._relay_ordinal * STRIDE
        if not _anonymous(entry.ordinal):
            return base + entry.ordinal
        if self._next_anon >= STRIDE - ANON_OFFSET:
            # admit_commit reserves a slot per committed session, so only a
            # WAL written without that check can get here.
            raise _ordinal_space_exhausted(self._relay_ordinal)
        return base + ANON_OFFSET + self._next_anon

    def _stage_batch(self, entry: CommittedSession) -> ForwardBatch:
        """Stage one committed session as a forward batch.

        With a WAL its ledger row is durable before this returns; a failed
        put stages nothing, so the next flush assigns the same index and
        root ordinal again.
        """
        batch = ForwardBatch(index=self._next_batch,
                             root_ordinal=self._root_ordinal(entry),
                             covered_seq=entry.seq)
        self._persist(batch)
        if _anonymous(entry.ordinal):
            self._next_anon += 1
            self._anon_reserved -= 1
        self._next_batch += 1
        self._batches.append(batch)
        self._batched_seqs.add(entry.seq)
        return batch

    def _persist(self, batch: ForwardBatch) -> None:
        """Write ``batch``'s ledger row durably (nothing without a WAL)."""
        if self.wal is None:
            return
        try:
            self.wal.store.put(batch.record())
        except (OSError, sqlite3.Error) as error:
            raise RemoteError(
                f"could not persist forward batch {batch.index} ({error}); "
                "it stays queued for the next flush",
                code="wal_commit_failed") from error

    async def _push_batch(self, batch: ForwardBatch,
                          entry: CommittedSession) -> None:
        """Push one staged batch upstream until its BYE ack is durable.

        The bodies are the summary frames of ``entry``'s parts, one per
        release part (a mid-tier relay session has one per *its* origin
        sessions).  Runs the shared resumable push cycle under the batch's
        root ordinal, so across any number of crashes (ours or the root's)
        and lost acks each summary frame folds upstream exactly once.
        """
        bodies = [payload_frame_body(summary_payload(part))
                  for part in entry.parts]
        backoff = Backoff(max_elapsed=self._forward_max_elapsed)
        push_start = self.metrics.clock()
        try:
            # connect_retries=1: the cycle's retry loop owns the backoff
            # policy, so the client must not stack its own.
            await push_resumable(
                self._upstream, bodies, ordinal=batch.root_ordinal,
                backoff=backoff,
                what=f"forward of batch {batch.index} (root ordinal "
                     f"{batch.root_ordinal}) to {self._upstream}",
                k=self._k, client_name=f"relay-{self._relay_ordinal}",
                role="relay", auth_token=self._upstream_token,
                connect_retries=1)
        finally:
            self._last_backoff = backoff.last_delay
        self.metrics.observe("forward.push_seconds",
                             self.metrics.clock() - push_start)
        self.metrics.inc("forward.batches_total")
        self._mark_acked(batch)

    def _mark_acked(self, batch: ForwardBatch) -> None:
        self._persist(replace(batch, acked=True))
        batch.acked = True

    # ------------------------------------------------------------------
    # Release and stats
    # ------------------------------------------------------------------

    async def handle_release(self, seed: Optional[int]) -> Dict:
        """Flush the forward queue, then proxy the RELEASE to the upstream.

        The reply is the root's released envelope re-encoded bit-exactly
        (:func:`~repro.api.wire.encode_payload`), so a client releasing
        through any leaf of the tree decodes the same histogram — same
        keys, values, dict order and metadata — it would get from the root
        directly, or from one flat server over every origin session.
        """
        await self.forward_flush()
        client = AggregatorClient(self._upstream,
                                  auth_token=self._upstream_token,
                                  retry_jitter=0.5)  # the forwards' jitter
        try:
            await client.connect()
            payload = await client.request_release_payload(seed)
        finally:
            await client.close(bye=False)
        self._releases += 1
        return wire_module.encode_payload(payload)

    def stats(self) -> Dict[str, object]:
        staged_unacked = sum(1 for batch in self._batches if not batch.acked)
        unbatched = sum(1 for entry in self._committed
                        if entry.seq not in self._batched_seqs)
        # Refresh the gauge before the base snapshot so the embedded
        # ``metrics`` stanza carries the depth this very reply reports.
        self.metrics.set_gauge("forward.queue_depth",
                               staged_unacked + unbatched)
        data = super().stats()
        data["role"] = "relay"
        data["forward"] = {
            "upstream": str(self._upstream),
            "policy": self._forward_on,
            "relay_ordinal": self._relay_ordinal,
            "queued": staged_unacked + unbatched,
            "acked": sum(1 for batch in self._batches if batch.acked),
            "last_backoff": self._last_backoff,
            "error": self._forward_error,
        }
        return data


async def serve_relay(address, upstream, epsilon: float, delta: float,
                      k: Optional[int] = None, **kwargs) -> RelayAggregatorServer:
    """Start a :class:`RelayAggregatorServer` bound to ``address``."""
    server = RelayAggregatorServer(epsilon=epsilon, delta=delta, k=k,
                                   upstream=upstream, **kwargs)
    await server.start(address)
    return server
