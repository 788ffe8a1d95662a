"""Pluggable checkpoint stores for the aggregation write-ahead log.

The WAL (:mod:`repro.net.wal`) spools accepted PUSH frames to disk; the
checkpoint store is the small durable ledger next to those spools that says
how much of each spool is *committed*.  A session record tracks the client's
ordinal, the agreed sketch size ``k``, the committed frame count and the
exact byte offset the spool is valid up to — so a half-written tail (the
server died mid-burst) is detected and truncated on replay, never folded.

The interface is deliberately redis-shaped — a flat key/value table keyed by
session id with ``get``/``put``/``scan``/``delete`` — so a second backend
(redis, etcd, dynamo) is one module implementing five methods.  ``put``
takes any number of records and writes them as one durable unit: the WAL's
group commit hands it every session of a group at once.

The first backend is sqlite (stdlib, zero new dependencies) in write-ahead
journal mode with ``synchronous=FULL``: one ``put`` is one transaction, made
durable by a single fsync of the ``sessions.db-wal`` log before ``put``
returns, so once the server has ACKed a PUSH burst the commit record
survives kill -9.  The ledger is therefore up to three files —
``sessions.db``, ``sessions.db-wal`` and ``sessions.db-shm`` (the log's
shared-memory index); sqlite folds the log back into ``sessions.db`` at
checkpoints and on a clean close, and replays it on the next open after an
unclean exit.  ``MemoryCheckpointStore`` is the second, trivially-pluggable
backend, used by tests and as the template for a networked store.
"""

from __future__ import annotations

import sqlite3
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

__all__ = [
    "SessionRecord",
    "CheckpointStore",
    "SqliteCheckpointStore",
    "MemoryCheckpointStore",
    "RESERVED_SESSION_PREFIX",
    "BUDGET_SESSION_ID",
    "is_reserved_record",
]

#: Session ids starting with this prefix are server-internal ledger rows,
#: not aggregation sessions: WAL recovery must skip them (they own no spool)
#: and display tooling should render them separately.
RESERVED_SESSION_PREFIX = "::"

#: The reserved record the privacy accountant persists its cumulative spend
#: under (:mod:`repro.net.budget`): ``committed_frames`` holds the number of
#: releases charged, ``client`` the composition mode, ``spool`` is empty.
BUDGET_SESSION_ID = RESERVED_SESSION_PREFIX + "privacy-budget"


def is_reserved_record(record: "SessionRecord") -> bool:
    """True when ``record`` is a server-internal ledger row, not a session."""
    return record.session_id.startswith(RESERVED_SESSION_PREFIX)


@dataclass(frozen=True)
class SessionRecord:
    """Durable state of one aggregation session.

    ``committed_frames``/``committed_bytes`` advance together on each PUSH
    burst commit; anything in the spool past ``committed_bytes`` is an
    uncommitted tail.  ``commit_seq`` is ``None`` while the session is open
    and set to the server's commit sequence number when the session ends
    cleanly (BYE / clean EOF) — replay folds only sessions with a seq, in
    seq order, reproducing the uninterrupted commit order bit-for-bit.
    """

    session_id: str
    ordinal: Optional[int]
    client: str
    k: Optional[int]
    spool: str
    committed_frames: int = 0
    committed_bytes: int = 0
    commit_seq: Optional[int] = None

    def advanced(self, *, frames: int, bytes_: int) -> "SessionRecord":
        """A copy with the committed watermark moved forward."""
        return replace(self, committed_frames=frames, committed_bytes=bytes_)

    def completed(self, commit_seq: int) -> "SessionRecord":
        """A copy marked cleanly committed at ``commit_seq``."""
        return replace(self, commit_seq=commit_seq)


class CheckpointStore(ABC):
    """Abstract session ledger: a durable ``session_id -> SessionRecord`` map.

    Implementations must make :meth:`put` durable before returning — the
    server sends the PUSH ACK only after ``put`` returns, and the client
    treats an ACKed frame as safe to skip on resume.  A ``put`` of several
    records must be atomic: all of them land, or none do.
    """

    @abstractmethod
    def get(self, session_id: str) -> Optional[SessionRecord]:
        """The record for ``session_id``, or ``None``."""

    @abstractmethod
    def put(self, *records: SessionRecord) -> None:
        """Durably upsert ``records`` as one unit (fsync-backed before
        returning)."""

    @abstractmethod
    def scan(self) -> Iterator[SessionRecord]:
        """All records, in unspecified order."""

    @abstractmethod
    def delete(self, session_id: str) -> None:
        """Remove ``session_id`` if present."""

    @abstractmethod
    def close(self) -> None:
        """Release the backing resources; the store is unusable after."""

    # Convenience -----------------------------------------------------------

    def records(self) -> List[SessionRecord]:
        """All records as a list sorted by session id (stable for display)."""
        return sorted(self.scan(), key=lambda record: record.session_id)

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


_SCHEMA = """
CREATE TABLE IF NOT EXISTS sessions (
    session_id       TEXT PRIMARY KEY,
    ordinal          INTEGER,
    client           TEXT NOT NULL,
    k                INTEGER,
    spool            TEXT NOT NULL,
    committed_frames INTEGER NOT NULL,
    committed_bytes  INTEGER NOT NULL,
    commit_seq       INTEGER
)
"""


class SqliteCheckpointStore(CheckpointStore):
    """Checkpoint store over a single sqlite database file.

    ``journal_mode=WAL`` with ``synchronous=FULL`` plus one transaction
    per ``put`` means the records reach stable storage (one fsync of the
    write-ahead log) before ``put`` returns — the property the commit
    protocol in :mod:`repro.net.wal` relies on.  A lock serializes access:
    the WAL's committer thread puts while the event loop reads, and the CLI
    inspect/replay tools can share an instance across threads.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=FULL")
        self._conn.execute(_SCHEMA)
        self._conn.commit()

    def get(self, session_id: str) -> Optional[SessionRecord]:
        with self._lock:
            row = self._conn.execute(
                "SELECT session_id, ordinal, client, k, spool,"
                " committed_frames, committed_bytes, commit_seq"
                " FROM sessions WHERE session_id = ?",
                (session_id,),
            ).fetchone()
        return None if row is None else SessionRecord(*row)

    def put(self, *records: SessionRecord) -> None:
        # The connection as a context manager commits the transaction, or
        # rolls it back when a row fails, so a group lands whole or not at all.
        with self._lock, self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO sessions VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                [(record.session_id, record.ordinal, record.client, record.k,
                  record.spool, record.committed_frames,
                  record.committed_bytes, record.commit_seq)
                 for record in records],
            )

    def scan(self) -> Iterator[SessionRecord]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT session_id, ordinal, client, k, spool,"
                " committed_frames, committed_bytes, commit_seq FROM sessions"
            ).fetchall()
        return iter([SessionRecord(*row) for row in rows])

    def delete(self, session_id: str) -> None:
        with self._lock:
            self._conn.execute("DELETE FROM sessions WHERE session_id = ?",
                               (session_id,))
            self._conn.commit()

    def close(self) -> None:
        with self._lock:
            self._conn.close()


class MemoryCheckpointStore(CheckpointStore):
    """In-process store: the redis-shaped interface over a dict.

    Not durable (by construction) — used by unit tests to exercise the WAL
    commit protocol without disk, and as the reference for what a networked
    backend must implement.
    """

    def __init__(self):
        self._records: Dict[str, SessionRecord] = {}
        self._lock = threading.Lock()

    def get(self, session_id: str) -> Optional[SessionRecord]:
        with self._lock:
            return self._records.get(session_id)

    def put(self, *records: SessionRecord) -> None:
        with self._lock:
            for record in records:
                self._records[record.session_id] = record

    def scan(self) -> Iterator[SessionRecord]:
        with self._lock:
            return iter(list(self._records.values()))

    def delete(self, session_id: str) -> None:
        with self._lock:
            self._records.pop(session_id, None)

    def close(self) -> None:
        with self._lock:
            self._records.clear()
