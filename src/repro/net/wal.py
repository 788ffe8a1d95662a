"""Write-ahead session spools for the aggregation service.

The framed container (:mod:`repro.api.framing`) *is already a log format*:
a stream prefix, a JSON header frame, then length-prefixed payload frames.
The WAL exploits that directly — each session gets one spool file in
``wal_dir`` holding the **verbatim bytes** (tag-preserving) of every PUSH
frame the server accepted, appended *before* the frame is folded into the
session's release parts (:func:`~repro.net.session.fold_frame`).

Commit protocol (per PUSH burst)::

    append frame bytes to spool          (OS buffer)
    fold frame into the session's parts  (in memory)
    ... repeat for the burst ...
    await SessionWal.commit(journal)     (queue for the next group)
      committer thread, per group:
        flush + fsync every spool        (frames durable)
        one store put of every record    (watermarks durable, one transaction)
        fsync wal_dir if a spool is new  (new spool names durable)
        advance each journal's watermark (in memory)
      event loop: resolve each session's future
    send OK to the client                (ACK now implies durability)

Group commit: the spool fsyncs and the ledger transaction run on one
committer thread (:meth:`SessionWal.commit`), so the event loop keeps
reading and folding other sessions while a group syncs.  Every session that
reaches its barrier while a group is in flight queues; when the group
lands, everything queued becomes the next group — one ledger transaction
for all of them.  There is no timer and no size limit: under light load a
group is one session and costs what the inline barrier did; under a PUSH
burst the ledger cost is shared.  The futures resolve and every ``wal.*``
metric is written on the event loop (the registry has no lock).  A group
whose fsync or put fails (``OSError``, ``sqlite3.Error``) advances no
watermark: each of its sessions is refused with ERROR
``code=wal_commit_failed`` and none is ACKed.

A crash between the spool fsyncs and the store put leaves spool tails past
the recorded ``committed_bytes`` watermarks: each tail is truncated on the
next attach or recovery — never folded — and the clients, which got no ACK,
re-push their bursts.  A clean session end (BYE / clean EOF) writes the
server's commit sequence number into the record (:meth:`SessionJournal.
mark_committed`), which is the fsync-on-commit session record: recovery
folds exactly the sessions holding a seq, in seq order, so a restarted
server releases bit-identically to an uninterrupted one.  A put that fails
there refuses the session with ``wal_commit_failed`` and leaves its record
open, so the client can resume and end it again.

Replay (:meth:`SessionWal.replay`) runs a spool's committed frames through
:func:`~repro.net.session.fold_frame` under the role its header records —
the rule the live session folded them with — so replayed parts equal live
parts because the same code ran.

Resume: the ordinal a client declares in HELLO is its durable session
identity.  Re-attaching to an open record replays the committed prefix of
the spool and reports ``committed_frames`` back through the HELLO ACK, so
the client skips already-durable frames instead of double-pushing.
"""

from __future__ import annotations

import asyncio
import functools
import os
import sqlite3
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from ..api.framing import (FrameReader, StreamingMerger, append_frame,
                           decode_payload_body, replay_raw_frames,
                           write_stream_header)
from ..exceptions import FramingError, ParameterError, ProtocolError, ReproError
from ..obs.metrics import NULL_METRICS
from .session import CommittedSession, fold_frame
from .store import (CheckpointStore, SessionRecord, SqliteCheckpointStore,
                    is_reserved_record)

__all__ = ["SessionWal", "SessionJournal", "WalRecovery"]

#: File name of the default sqlite checkpoint ledger inside ``wal_dir``.
STORE_FILENAME = "sessions.db"
_SPOOL_SUFFIX = ".spool"


def _session_complete_error() -> ProtocolError:
    error = ProtocolError(
        "session already committed cleanly; pushing more frames would fold "
        "them twice — start a new session under a fresh ordinal")
    error.code = "session_complete"
    return error


def _commit_failed_error(cause: BaseException) -> ReproError:
    error = ReproError(
        f"write-ahead log commit failed ({cause}); nothing in this push was "
        "acknowledged — reconnect and resume to push it again")
    error.code = "wal_commit_failed"
    return error


class _GroupTiming(NamedTuple):
    """What one group commit measured, for :meth:`SessionWal._observe`."""

    size: int                  # journals whose watermark advanced
    fsync_seconds: List[float]  # one per spool fsync
    seconds: float             # the whole barrier


@dataclass
class WalRecovery:
    """What :meth:`SessionWal.recover` found on disk."""

    #: Cleanly finished sessions, replayed, in commit-seq order.
    committed: List[CommittedSession] = field(default_factory=list)
    #: Records still open (no commit seq) — resumable by ordinal.
    open_records: List[SessionRecord] = field(default_factory=list)
    #: The sketch size all records agree on (``None`` when no records).
    k: Optional[int] = None
    #: Highest commit seq seen (the server restarts its counter above it).
    max_seq: int = 0


class SessionJournal:
    """One session's handle on its spool + ledger record.

    Created by :meth:`SessionWal.attach`; the server-side session appends
    each accepted frame body, commits per burst, and marks the record
    committed on a clean end.  ``parts`` carries the replayed committed
    prefix on resume (:meth:`SessionWal.replay`: one part for a client, one
    per summary frame for a relay) and is empty for a fresh session.
    """

    def __init__(self, wal: "SessionWal", record: SessionRecord, *,
                 fileobj=None, offset: int = 0, frames: int = 0,
                 parts: Tuple[StreamingMerger, ...] = (),
                 complete: bool = False, durable: bool = False) -> None:
        self._wal = wal
        self.record = record
        self.parts = parts
        self.complete = complete
        self._file = fileobj
        self._offset = offset
        self._frames = frames
        self._durable = durable  # record already present in the store

    @property
    def committed_frames(self) -> int:
        """Frames durable at the last commit (what the HELLO ACK reports)."""
        return self.record.committed_frames

    def ensure_k(self, k: int) -> None:
        """Record the agreed sketch size once the session learns it."""
        if self.record.k is None:
            self.record = replace(self.record, k=k)
        elif self.record.k != k:
            error = ProtocolError(
                f"session {self.record.session_id} was spooled at "
                f"k={self.record.k} but now declares k={k}")
            error.code = "k_mismatch"
            raise error

    def append(self, body: bytes) -> None:
        """Spool one accepted frame body verbatim (before it is folded)."""
        if self.complete:
            raise _session_complete_error()
        self._offset += append_frame(self._file, body)
        self._frames += 1

    def commit(self) -> int:
        """Make every appended frame durable now; returns the new watermark.

        The blocking form of the barrier: a group of one
        (:meth:`SessionWal.commit_group`).  The server awaits
        :meth:`SessionWal.commit` instead, which runs the barrier off the
        event loop.
        """
        if self.complete:
            raise _session_complete_error()
        self._wal._observe(self._wal.commit_group([self]))
        return self.record.committed_frames

    def mark_committed(self, commit_seq: int) -> None:
        """Record the clean end of the session at ``commit_seq`` (durable).

        A failed put raises a coded ``wal_commit_failed`` error and leaves
        the record open, so the session stays resumable.
        """
        if self.complete:
            return
        self.commit()
        record = self.record.completed(commit_seq)
        try:
            self._wal.store.put(record)
        except (OSError, sqlite3.Error) as error:
            raise _commit_failed_error(error) from error
        self.record = record
        self._durable = True
        self.complete = True
        self._close_file()

    def close(self) -> None:
        """Release the spool file handle (the record stays open for resume)."""
        self._close_file()

    def _close_file(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class SessionWal:
    """The durability layer: spool files plus a pluggable checkpoint store.

    ``store`` defaults to a :class:`SqliteCheckpointStore` at
    ``wal_dir/sessions.db``; any :class:`CheckpointStore` implementation
    can be swapped in.  ``fsync=False`` trades durability for speed (used
    by benchmarks to isolate the spooling cost from the disk's sync cost
    where explicitly noted; the server default is always ``True``).

    The committer thread behind :meth:`commit` starts on the first awaited
    commit, so tools that only inspect or replay a WAL never start it;
    :meth:`close` waits for the group in flight and joins it.
    """

    def __init__(self, wal_dir: Union[str, Path],
                 store: Optional[CheckpointStore] = None,
                 fsync: bool = True, metrics=NULL_METRICS) -> None:
        self.wal_dir = Path(wal_dir)
        self.wal_dir.mkdir(parents=True, exist_ok=True)
        self.store = store if store is not None else SqliteCheckpointStore(
            self.wal_dir / STORE_FILENAME)
        self.fsync = fsync
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._committer: Optional[ThreadPoolExecutor] = None
        self._queued: List[Tuple[SessionJournal, asyncio.Future]] = []
        self._in_flight: Optional[asyncio.Future] = None

    def spool_usage(self) -> dict:
        """On-disk spool footprint: ``{"spools": count, "bytes": total}``.

        Stats every ``*.spool`` file in ``wal_dir`` (the sqlite ledger is
        excluded — it is bookkeeping, not session payload), so STATS and
        ``wal inspect`` report the number an operator would get from
        ``du``.  Files vanishing mid-scan (concurrent recovery cleanup)
        are skipped rather than raised.
        """
        spools = 0
        total = 0
        for path in self.wal_dir.glob(f"*{_SPOOL_SUFFIX}"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
            spools += 1
        return {"spools": spools, "bytes": total}

    def spool_path(self, record: SessionRecord) -> Path:
        return self.wal_dir / record.spool

    def fsync_dir(self) -> None:
        """fsync the spool directory (new spool files survive a crash)."""
        fd = os.open(self.wal_dir, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    # Group commit
    # ------------------------------------------------------------------

    def commit_group(self, journals: Sequence[SessionJournal]
                     ) -> Optional[_GroupTiming]:
        """The durability barrier for ``journals``, as one group; blocking.

        Flushes and fsyncs every spool with frames past its watermark,
        writes all their advanced records in one ``store.put``, fsyncs
        ``wal_dir`` once if any spool is new, and only then advances each
        journal's in-memory watermark.  Spools before ledger is the order
        that makes a half-written tail detectable (ledger behind spool)
        rather than dangerous (ledger ahead of spool).  An ``OSError`` or
        ``sqlite3.Error`` advances nothing and is raised as a coded
        ``wal_commit_failed`` error.  Writes no metrics — it may run on
        the committer thread — and returns the group's timings (``None``
        when no journal had anything to commit).
        """
        pending = [journal for journal in journals
                   if journal._frames != journal.record.committed_frames]
        if not pending:
            return None
        clock = self.metrics.clock
        start = clock()
        fsync_seconds = []
        try:
            for journal in pending:
                journal._file.flush()
                if self.fsync:
                    fsync_start = clock()
                    os.fsync(journal._file.fileno())
                    fsync_seconds.append(clock() - fsync_start)
            records = [journal.record.advanced(frames=journal._frames,
                                               bytes_=journal._offset)
                       for journal in pending]
            self.store.put(*records)
            if self.fsync and not all(journal._durable for journal in pending):
                self.fsync_dir()
        except (OSError, sqlite3.Error) as error:
            raise _commit_failed_error(error) from error
        for journal, record in zip(pending, records):
            journal.record = record
            journal._durable = True
        return _GroupTiming(len(pending), fsync_seconds, clock() - start)

    def _observe(self, timing: Optional[_GroupTiming]) -> None:
        if timing is None:
            return
        metrics = self.metrics
        for seconds in timing.fsync_seconds:
            metrics.observe("wal.fsync_seconds", seconds)
        metrics.observe("wal.commit_seconds", timing.seconds)
        metrics.observe("wal.group_size", timing.size)
        metrics.inc("wal.commits_total", timing.size)

    async def commit(self, journal: SessionJournal) -> int:
        """Make ``journal``'s appended frames durable off the event loop.

        Queues the journal for the committer thread and returns its new
        watermark once the group holding it has landed.  Journals queued
        while a group is in flight form the next group.  Raises what
        :meth:`commit_group` raised for the group.
        """
        future = asyncio.get_running_loop().create_future()
        entry = (journal, future)
        self._queued.append(entry)
        if self._in_flight is None:
            self._launch()
        try:
            return await future
        except asyncio.CancelledError:
            if entry in self._queued:
                self._queued.remove(entry)
            elif self._in_flight is not None:
                # The group in flight still writes this journal's spool: let
                # it land before the caller's cleanup closes the file.
                await asyncio.wait([self._in_flight])
            raise

    def _launch(self) -> None:
        """Hand everything queued to the committer thread as one group."""
        group, self._queued = self._queued, []
        if self._committer is None:
            self._committer = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="wal-committer")
        self._in_flight = asyncio.get_running_loop().run_in_executor(
            self._committer, self.commit_group,
            [journal for journal, _ in group])
        self._in_flight.add_done_callback(
            functools.partial(self._landed, group))

    def _landed(self, group, done: asyncio.Future) -> None:
        """On the loop: record the group's metrics, resolve its futures,
        launch whatever queued meanwhile."""
        self._in_flight = None
        error = done.exception()
        if error is None:
            self._observe(done.result())
        for journal, future in group:
            if future.cancelled():
                continue
            if error is None:
                future.set_result(journal.committed_frames)
            else:
                future.set_exception(error)
        if self._queued:
            self._launch()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self) -> WalRecovery:
        """Scan the ledger, truncate half-written tails, replay commits.

        Called once at server start (and by ``repro wal replay``).  Spool
        files with no ledger record hold only uncommitted frames by
        construction and are deleted.
        """
        # Reserved ledger rows (e.g. the privacy-budget spend record) own no
        # spool and are not sessions: they must not be truncated, replayed or
        # counted towards the single-k check.
        records = [record for record in self.store.scan()
                   if not is_reserved_record(record)]
        known = {record.spool for record in records}
        for stray in self.wal_dir.glob(f"*{_SPOOL_SUFFIX}"):
            if stray.name not in known:
                stray.unlink()
        recovery = WalRecovery()
        ks = {record.k for record in records if record.k is not None}
        if len(ks) > 1:
            raise ParameterError(
                f"wal dir {self.wal_dir} mixes sketch sizes {sorted(ks)}; "
                "one aggregation, one k — use a fresh --wal-dir per run")
        recovery.k = ks.pop() if ks else None
        for record in records:
            self._truncate_tail(record)
        for record in sorted(records, key=lambda r: (r.commit_seq is None,
                                                     r.commit_seq or 0)):
            if record.commit_seq is None:
                recovery.open_records.append(record)
                continue
            recovery.committed.append(CommittedSession(
                seq=record.commit_seq, ordinal=record.ordinal,
                client=record.client or None,
                parts=tuple(self.replay(record))))
            recovery.max_seq = max(recovery.max_seq, record.commit_seq)
        return recovery

    def _truncate_tail(self, record: SessionRecord) -> None:
        path = self.spool_path(record)
        if not path.exists():
            if record.committed_frames:
                raise FramingError(
                    f"checkpoint ledger commits {record.committed_frames} "
                    f"frame(s) of session {record.session_id} but its spool "
                    f"{path} is missing")
            return
        if path.stat().st_size > record.committed_bytes:
            os.truncate(path, record.committed_bytes)

    def spool_role(self, record: SessionRecord) -> str:
        """The session role its spool header recorded (``"client"`` if none).

        The fixed 8-column ledger schema stays untouched: the role rides in
        the spool's framed stream header ``meta``, written once at attach
        time, so old spools (no role key) replay exactly as before.
        """
        path = self.spool_path(record)
        if not path.exists():
            return "client"
        with path.open("rb") as fileobj:
            meta = FrameReader(fileobj, raw=True).header.meta
        role = meta.get("role")
        return role if isinstance(role, str) else "client"

    def replay(self, record: SessionRecord) -> List[StreamingMerger]:
        """Fold the committed prefix of a spool into the session's parts.

        Replays the exact bytes the live session folded, in the same order,
        through the same :func:`~repro.net.session.fold_frame` rule under
        the spooled role — the recovered parts are bit-identical to the ones
        the crashed process held.  No committed frame, no part.
        """
        parts: List[StreamingMerger] = []
        if not record.committed_frames:
            return parts
        if record.k is None:
            raise FramingError(
                f"session {record.session_id} committed frames but recorded "
                "no sketch size; ledger is corrupt")
        role = self.spool_role(record)
        with open(self.spool_path(record), "rb") as spool:
            for index, body in enumerate(
                    replay_raw_frames(spool, record.committed_frames,
                                      what=f"spool {record.spool}")):
                fold_frame(parts,
                           decode_payload_body(body, f"spool frame {index + 1}"),
                           role, record.k)
        return parts

    # ------------------------------------------------------------------
    # Session attach
    # ------------------------------------------------------------------

    def attach(self, ordinal: Optional[int], client: Optional[str],
               k: Optional[int], role: str = "client") -> SessionJournal:
        """Open (or resume) the journal for one session.

        Ordinal sessions are durable identities: an existing open record is
        resumed (tail truncated, committed prefix replayed); a completed
        record yields a ``complete=True`` journal whose committed count the
        HELLO ACK reports, and any further push is rejected.  Sessions with
        no ordinal get a throwaway identity — durable once committed, but
        not resumable.  ``role="relay"`` is stamped into the spool header so
        replay folds the spooled frames under the role the live session
        used.
        """
        if ordinal is not None:
            session_id = f"ord:{ordinal}"
            spool = f"ord-{ordinal}{_SPOOL_SUFFIX}"
            record = self.store.get(session_id)
        else:
            token = uuid.uuid4().hex
            session_id = f"anon:{token}"
            spool = f"anon-{token}{_SPOOL_SUFFIX}"
            record = None
        if record is not None and record.commit_seq is not None:
            return SessionJournal(self, record, complete=True, durable=True)
        if record is not None:
            return self._resume(record, k, role)
        record = SessionRecord(session_id=session_id, ordinal=ordinal,
                               client=client or "", k=k, spool=spool)
        fileobj = open(self.spool_path(record), "wb")
        meta = {"wal_session": session_id}
        if role != "client":
            meta["role"] = role
        offset = write_stream_header(fileobj, k=k, meta=meta)
        fileobj.flush()
        return SessionJournal(self, record, fileobj=fileobj, offset=offset)

    def _resume(self, record: SessionRecord, k: Optional[int],
                role: str = "client") -> SessionJournal:
        if k is not None and record.k is not None and k != record.k:
            error = ProtocolError(
                f"session {record.session_id} resumed with k={k} but was "
                f"spooled at k={record.k}")
            error.code = "k_mismatch"
            raise error
        self._truncate_tail(record)
        path = self.spool_path(record)
        if not path.exists():
            # Open record whose spool vanished with nothing committed:
            # start the session over from scratch.
            self.store.delete(record.session_id)
            return self.attach(record.ordinal, record.client or None, k,
                               role=role)
        spooled_role = self.spool_role(record)
        if role != spooled_role:
            error = ProtocolError(
                f"session {record.session_id} was spooled with "
                f"role={spooled_role} but resumes with role={role}; one "
                "durable identity, one role")
            error.code = "role_mismatch"
            raise error
        parts = tuple(self.replay(record))
        return SessionJournal(self, record, fileobj=open(path, "ab"),
                              offset=record.committed_bytes,
                              frames=record.committed_frames,
                              parts=parts, durable=True)

    def close(self) -> None:
        """Wait for the group in flight, join the committer, close the store."""
        if self._committer is not None:
            self._committer.shutdown(wait=True)
        self.store.close()
