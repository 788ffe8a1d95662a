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

Durability: with a WAL (``--wal-dir``), every forward batch is spooled to
``wal_dir/forward/fwd-<index>.frames`` (atomic tmp+fsync+rename) *before*
the upstream push, and renamed ``.acked`` only after the upstream BYE ack
— so a leaf crash mid-forward re-pushes the batch on restart, and the
root's own WAL resume (committed-frame skip by root ordinal) makes the
re-push idempotent.  Crash safety of the whole tree requires a WAL on
**both** tiers.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

from ..api import wire as wire_module
from ..api.framing import (
    FrameReader,
    append_frame,
    payload_frame_body,
    summary_payload,
    write_stream_header,
)
from ..exceptions import FramingError, NetworkError, ParameterError, ProtocolError
from .backoff import Backoff, retry_async
from .client import AggregatorClient, transient_push_error
from .server import AggregatorServer
from .session import CommittedSession

#: Root-ordinal stride per leaf: leaf ``L`` owns ``[L*STRIDE, (L+1)*STRIDE)``.
STRIDE = 1 << 20
#: Offset inside a leaf's band where counter-assigned (anonymous / composed)
#: origin sessions start; origin ordinals must stay below it to map directly.
ANON_OFFSET = STRIDE // 2

FORWARD_POLICIES = ("commit", "release")


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

    ``bodies`` are the raw (unprefixed) summary-frame bodies — one per
    release part the origin session contributed (plain sessions: one; a
    mid-tier relay session: one per *its* origin sessions).  ``path`` is
    the durable spool file when the leaf runs a WAL, else ``None``
    (memory-only staging, no crash safety).
    """

    index: int                 # monotonic batch number (spool file name)
    root_ordinal: int          # ordinal this batch HELLOs upstream with
    covered_seq: int           # local commit seq this batch covers
    bodies: List[bytes] = field(repr=False, default_factory=list)
    path: Optional[Path] = None
    acked: bool = False


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
    forward_timeout / forward_retry_delay / forward_retry_jitter /
    forward_max_elapsed:
        Per-operation timeout and backoff policy of the upstream pushes
        (same semantics as :func:`~repro.net.client.push_file_resilient`).
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
                 forward_timeout: float = 30.0,
                 forward_retry_delay: float = 0.2,
                 forward_retry_jitter: float = 0.5,
                 forward_max_elapsed: float = 60.0,
                 upstream_token: Optional[str] = None,
                 **kwargs) -> None:
        if forward_on not in FORWARD_POLICIES:
            raise ParameterError(
                f"forward_on must be one of {FORWARD_POLICIES}, got {forward_on!r}")
        if not isinstance(relay_ordinal, int) or relay_ordinal < 0:
            raise ParameterError(
                f"relay_ordinal must be a non-negative integer, got {relay_ordinal!r}")
        wal_dir = kwargs.get("wal_dir")
        super().__init__(epsilon, delta, k, **kwargs)
        self._upstream = upstream
        self._relay_ordinal = relay_ordinal
        self._forward_on = forward_on
        self._forward_timeout = forward_timeout
        self._forward_retry_delay = forward_retry_delay
        self._forward_retry_jitter = forward_retry_jitter
        self._forward_max_elapsed = forward_max_elapsed
        self._upstream_token = upstream_token
        self._forward_dir: Optional[Path] = (
            Path(wal_dir) / "forward" if wal_dir is not None else None)
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

    async def start(self, address) -> "RelayAggregatorServer":
        self._recover_forward_queue()
        await super().start(address)
        return self

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

    def _recover_forward_queue(self) -> None:
        """Rebuild the staged-batch state from ``wal_dir/forward``.

        Unacked batches reload their bodies for re-push; acked batches are
        kept as tombstones so their covered commit seqs are never re-batched
        and their anonymous-band root ordinals are never reissued.
        """
        if self._forward_dir is None:
            return
        self._forward_dir.mkdir(parents=True, exist_ok=True)
        for stray in self._forward_dir.glob("*.tmp"):
            with contextlib.suppress(OSError):
                stray.unlink()
        batches: List[ForwardBatch] = []
        paths = sorted(self._forward_dir.glob("fwd-*.frames")) + \
            sorted(self._forward_dir.glob("fwd-*.frames.acked"))
        for path in paths:
            acked = path.name.endswith(".acked")
            with path.open("rb") as fileobj:
                reader = FrameReader(fileobj, raw=True)
                meta = reader.header.meta or {}
                index = meta.get("relay_batch")
                root_ordinal = meta.get("root_ordinal")
                covered_seq = meta.get("covered_seq")
                if not all(isinstance(value, int)
                           for value in (index, root_ordinal, covered_seq)):
                    raise FramingError(
                        f"forward spool {path} is missing its relay batch "
                        "metadata; the forward directory is corrupt")
                bodies = [] if acked else list(reader)
            batches.append(ForwardBatch(index=index, root_ordinal=root_ordinal,
                                        covered_seq=covered_seq, bodies=bodies,
                                        path=path, acked=acked))
        batches.sort(key=lambda batch: batch.index)
        self._batches = batches
        self._batched_seqs = {batch.covered_seq for batch in batches}
        if batches:
            self._next_batch = max(batch.index for batch in batches) + 1
        anon_base = self._relay_ordinal * STRIDE + ANON_OFFSET
        anon_end = (self._relay_ordinal + 1) * STRIDE
        counters = [batch.root_ordinal - anon_base for batch in batches
                    if anon_base <= batch.root_ordinal < anon_end]
        if counters:
            self._next_anon = max(counters) + 1

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------

    def _recover_from_wal(self) -> None:
        super()._recover_from_wal()
        self._anon_reserved = sum(
            1 for entry in self._committed
            if entry.seq not in self._batched_seqs and _anonymous(entry.ordinal))

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

        The batch stays staged (and, with a WAL, durable on disk), so a
        dead upstream only delays the forward; the error is surfaced in
        ``stats()["forward"]["error"]`` and the release-time flush retries.
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
        budget is spent; everything already acked stays acked.
        """
        async with self._forward_lock:
            acked = 0
            for batch in self._batches:
                if not batch.acked:
                    await self._push_batch(batch)
                    acked += 1
            pending = [entry for entry
                       in sorted(self._committed, key=lambda e: e.sort_key)
                       if entry.seq not in self._batched_seqs]
            for entry in pending:
                batch = self._stage_batch(entry)
                await self._push_batch(batch)
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
        ordinal = base + ANON_OFFSET + self._next_anon
        self._next_anon += 1
        self._anon_reserved -= 1
        return ordinal

    def _stage_batch(self, entry: CommittedSession) -> ForwardBatch:
        """Stage one committed session as a forward batch (durable if WAL)."""
        bodies = [payload_frame_body(summary_payload(part))
                  for part in entry.mergers]
        index = self._next_batch
        self._next_batch += 1
        batch = ForwardBatch(index=index, root_ordinal=self._root_ordinal(entry),
                             covered_seq=entry.seq, bodies=bodies)
        if self._forward_dir is not None:
            path = self._forward_dir / f"fwd-{index:08d}.frames"
            tmp = self._forward_dir / f"fwd-{index:08d}.tmp"
            with tmp.open("wb") as fileobj:
                write_stream_header(fileobj, k=self._k, meta={
                    "relay_batch": index,
                    "root_ordinal": batch.root_ordinal,
                    "covered_seq": batch.covered_seq,
                    "leaf": self._relay_ordinal,
                    "frames": len(bodies),
                })
                for body in bodies:
                    append_frame(fileobj, body)
                fileobj.flush()
                os.fsync(fileobj.fileno())
            os.replace(tmp, path)
            self._fsync_forward_dir()
            batch.path = path
        self._batches.append(batch)
        self._batched_seqs.add(entry.seq)
        return batch

    async def _push_batch(self, batch: ForwardBatch) -> None:
        """Push one staged batch upstream until its BYE ack is durable.

        Resumes idempotently: each reconnect re-HELLOs with the batch's
        root ordinal and skips the frames the upstream WAL already holds,
        so across any number of crashes (ours or the root's) each summary
        frame folds upstream exactly once.
        """
        backoff = Backoff(base=self._forward_retry_delay,
                          jitter=self._forward_retry_jitter,
                          max_elapsed=self._forward_max_elapsed)

        async def _cycle() -> None:
            # connect_retries=1: the enclosing retry_async loop owns the
            # backoff policy, so the client must not stack its own.
            client = AggregatorClient(
                self._upstream, k=self._k, ordinal=batch.root_ordinal,
                client_name=f"relay-{self._relay_ordinal}", role="relay",
                auth_token=self._upstream_token,
                timeout=self._forward_timeout, connect_retries=1)
            try:
                await client.connect()
                if not client.session_complete:
                    remaining = batch.bodies[min(client.committed,
                                                 len(batch.bodies)):]
                    if remaining:
                        await client.push_raw(remaining)
                    await client.bye()
            finally:
                self._last_backoff = backoff.last_delay
                await client.close(bye=False)

        def _give_up(last, attempts, policy) -> NetworkError:
            return NetworkError(
                f"forward of batch {batch.index} (root ordinal "
                f"{batch.root_ordinal}) to {self._upstream} not durably "
                f"committed within the {self._forward_max_elapsed:.1f}s "
                f"retry budget: {last}")

        push_start = self.metrics.clock()
        await retry_async(_cycle, backoff=backoff,
                          retryable=transient_push_error, give_up=_give_up)
        self.metrics.observe("forward.push_seconds",
                             self.metrics.clock() - push_start)
        self.metrics.inc("forward.batches_total")
        self._mark_acked(batch)

    def _mark_acked(self, batch: ForwardBatch) -> None:
        batch.acked = True
        batch.bodies = []
        if batch.path is not None and not batch.path.name.endswith(".acked"):
            acked_path = batch.path.with_name(batch.path.name + ".acked")
            os.replace(batch.path, acked_path)
            batch.path = acked_path
            self._fsync_forward_dir()

    def _fsync_forward_dir(self) -> None:
        fd = os.open(self._forward_dir, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

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
                                  timeout=self._forward_timeout,
                                  retry_delay=self._forward_retry_delay,
                                  retry_jitter=self._forward_retry_jitter)
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
        spool_bytes = 0
        for batch in self._batches:
            if batch.acked or batch.path is None:
                continue
            with contextlib.suppress(OSError):
                spool_bytes += batch.path.stat().st_size
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
            "spool_bytes": spool_bytes,
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
