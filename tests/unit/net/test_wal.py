"""Unit tests for the WAL durability layer: checkpoint stores + journals.

No sockets here — these tests drive :class:`~repro.net.wal.SessionWal`
directly through the same attach/append/commit/mark_committed calls the
server-side session makes, and check the commit-protocol invariants:

* a ``put`` record is the ACK boundary — everything at or below the
  watermark replays, everything past it is an uncommitted tail that gets
  truncated, never folded, no matter where in the tail the crash landed;
* both store backends (sqlite, memory) are interchangeable behind the
  redis-shaped interface;
* recovery folds exactly the cleanly-committed sessions, in commit-seq
  order, and the replayed mergers are bit-identical to live folds.
"""

import os

import pytest

from repro.api.framing import (FramingError, StreamingMerger,
                               encode_payload_frame, payload_frame_body,
                               summary_payload)
from repro.api.wire import encode_counters
from repro.exceptions import ParameterError, ProtocolError
from repro.net.store import (MemoryCheckpointStore, SessionRecord,
                             SqliteCheckpointStore, open_store)
from repro.net.wal import SessionWal

K = 16


def _envelope(counters):
    return encode_counters(counters, k=K,
                           stream_length=int(sum(counters.values())))


def _body(counters):
    """A payload frame *body* (length prefix stripped), as sessions see it."""
    return encode_payload_frame(_envelope(counters))[4:]


def _record(session_id="ord:0", **overrides):
    fields = dict(session_id=session_id, ordinal=0, client="worker",
                  k=K, spool="ord-0.spool")
    fields.update(overrides)
    return SessionRecord(**fields)


# ---------------------------------------------------------------------------
# Checkpoint stores
# ---------------------------------------------------------------------------

@pytest.fixture(params=["sqlite", "memory"])
def store(request, tmp_path):
    if request.param == "sqlite":
        backend = SqliteCheckpointStore(tmp_path / "ledger.db")
    else:
        backend = MemoryCheckpointStore()
    yield backend
    backend.close()


class TestCheckpointStores:
    def test_get_missing_returns_none(self, store):
        assert store.get("ord:99") is None

    def test_put_get_roundtrip_preserves_every_field(self, store):
        record = _record(committed_frames=3, committed_bytes=777, commit_seq=2)
        store.put(record)
        assert store.get("ord:0") == record

    def test_put_is_an_upsert(self, store):
        store.put(_record())
        store.put(_record(committed_frames=5, committed_bytes=1234))
        fetched = store.get("ord:0")
        assert fetched.committed_frames == 5
        assert fetched.committed_bytes == 1234

    def test_scan_and_sorted_records(self, store):
        for ordinal in (2, 0, 1):
            store.put(_record(session_id=f"ord:{ordinal}", ordinal=ordinal,
                              spool=f"ord-{ordinal}.spool"))
        assert {r.session_id for r in store.scan()} == {"ord:0", "ord:1", "ord:2"}
        assert [r.session_id for r in store.records()] == \
               ["ord:0", "ord:1", "ord:2"]

    def test_delete_removes_and_tolerates_missing(self, store):
        store.put(_record())
        store.delete("ord:0")
        assert store.get("ord:0") is None
        store.delete("ord:0")  # idempotent

    def test_none_fields_survive_the_roundtrip(self, store):
        record = _record(session_id="anon:abc", ordinal=None, k=None,
                         spool="anon-abc.spool")
        store.put(record)
        fetched = store.get("anon:abc")
        assert fetched.ordinal is None and fetched.k is None
        assert fetched.commit_seq is None

    def test_sqlite_store_survives_reopen(self, tmp_path):
        path = tmp_path / "ledger.db"
        with SqliteCheckpointStore(path) as store:
            store.put(_record(committed_frames=2, commit_seq=1))
        with SqliteCheckpointStore(path) as store:
            assert store.get("ord:0").commit_seq == 1


class TestOpenStore:
    def test_memory_scheme(self):
        with open_store("memory://") as store:
            assert isinstance(store, MemoryCheckpointStore)

    def test_sqlite_scheme_and_bare_path(self, tmp_path):
        with open_store(f"sqlite:///{tmp_path}/a.db") as store:
            assert isinstance(store, SqliteCheckpointStore)
            assert store.path == tmp_path / "a.db"
        with open_store(tmp_path / "b.db") as store:
            assert isinstance(store, SqliteCheckpointStore)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ParameterError, match="redis"):
            open_store("redis://localhost:6379/0")


# ---------------------------------------------------------------------------
# Journal lifecycle: attach / append / commit / resume / complete
# ---------------------------------------------------------------------------

@pytest.fixture
def wal(tmp_path):
    layer = SessionWal(tmp_path / "wal")
    yield layer
    layer.close()


FRAME_A = {1: 100.0, 2: 50.0}
FRAME_B = {2: 25.0, 3: 75.0}
FRAME_C = {4: 10.0}


def _folded(*frames):
    """A client session's one part: the live fold of ``frames``."""
    merger = StreamingMerger(K)
    for counters in frames:
        merger.add(_envelope(counters))
    return merger


def _summary_body(merger):
    return payload_frame_body(summary_payload(merger))


def _pushed(role):
    """What a session of ``role`` pushes — committed bodies, then an
    uncommitted tail — and the parts it holds once the committed bodies
    are folded live."""
    if role == "client":
        return ([_body(FRAME_A), _body(FRAME_B)], _body(FRAME_C),
                [_folded(FRAME_A, FRAME_B)])
    # A relay pushes one summary per origin session and holds one part per
    # summary, equal to the origin session's own merger.
    origins = [_folded(FRAME_A, FRAME_B), _folded(FRAME_C)]
    return ([_summary_body(origin) for origin in origins],
            _summary_body(_folded(FRAME_B)), origins)


class TestJournalCommitProtocol:
    def test_fresh_session_is_not_in_the_ledger_until_first_commit(self, wal):
        journal = wal.attach(0, "worker", K)
        journal.append(_body(FRAME_A))
        assert wal.store.get("ord:0") is None  # appended but not ACKed
        journal.commit()
        record = wal.store.get("ord:0")
        assert record.committed_frames == 1
        assert record.commit_seq is None
        journal.close()

    def test_commit_watermark_matches_the_spool_size(self, wal):
        journal = wal.attach(0, "worker", K)
        journal.append(_body(FRAME_A))
        journal.append(_body(FRAME_B))
        journal.commit()
        record = wal.store.get("ord:0")
        assert record.committed_frames == 2
        assert wal.spool_path(record).stat().st_size == record.committed_bytes
        journal.close()

    def test_commit_with_nothing_new_is_a_noop(self, wal):
        journal = wal.attach(0, "worker", K)
        journal.append(_body(FRAME_A))
        assert journal.commit() == 1
        before = wal.store.get("ord:0")
        assert journal.commit() == 1  # no new frames
        assert wal.store.get("ord:0") == before
        journal.close()

    @pytest.mark.parametrize("role", ["client", "relay"])
    def test_resume_replays_the_committed_prefix_bit_identically(self, wal,
                                                                role):
        bodies, tail, live = _pushed(role)
        journal = wal.attach(0, "worker", K, role=role)
        for body in bodies:
            journal.append(body)
        journal.commit()
        journal.append(tail)  # spooled, never committed (no ACK)
        journal.close()

        resumed = wal.attach(0, "worker", K, role=role)
        assert resumed.committed_frames == len(bodies)
        assert not resumed.complete
        assert len(resumed.parts) == len(live)
        for part, expected in zip(resumed.parts, live):
            assert part.merged() == expected.merged()
            assert list(part.merged()) == list(expected.merged())
            assert part.frames == expected.frames
            assert part.total_stream_length == expected.total_stream_length
        resumed.close()

    def test_uncommitted_tail_is_truncated_on_resume_never_folded(self, wal):
        journal = wal.attach(0, "worker", K)
        journal.append(_body(FRAME_A))
        journal.commit()
        journal.append(_body(FRAME_C))  # spooled, never committed (no ACK)
        journal.close()
        record = wal.store.get("ord:0")
        spool = wal.spool_path(record)
        assert spool.stat().st_size > record.committed_bytes

        resumed = wal.attach(0, "worker", K)
        assert resumed.committed_frames == 1
        assert spool.stat().st_size == record.committed_bytes
        assert 4 not in resumed.parts[0].merged()  # FRAME_C gone
        # The journal can keep appending from the truncated watermark.
        resumed.append(_body(FRAME_B))
        resumed.commit()
        assert wal.store.get("ord:0").committed_frames == 2
        resumed.close()

    def test_mark_committed_stamps_the_seq_and_freezes_the_session(self, wal):
        journal = wal.attach(0, "worker", K)
        journal.append(_body(FRAME_A))
        journal.mark_committed(7)
        assert wal.store.get("ord:0").commit_seq == 7

        again = wal.attach(0, "worker", K)
        assert again.complete
        assert again.committed_frames == 1
        with pytest.raises(ProtocolError) as caught:
            again.append(_body(FRAME_B))
        assert caught.value.code == "session_complete"

    def test_resume_with_mismatched_k_rejected(self, wal):
        journal = wal.attach(0, "worker", K)
        journal.append(_body(FRAME_A))
        journal.commit()
        journal.close()
        with pytest.raises(ProtocolError) as caught:
            wal.attach(0, "worker", K + 8)
        assert caught.value.code == "k_mismatch"

    def test_ensure_k_records_once_then_enforces(self, wal):
        journal = wal.attach(0, "worker", None)
        journal.ensure_k(K)
        journal.ensure_k(K)
        with pytest.raises(ProtocolError) as caught:
            journal.ensure_k(K + 1)
        assert caught.value.code == "k_mismatch"
        journal.close()

    def test_anonymous_sessions_get_distinct_throwaway_identities(self, wal):
        first = wal.attach(None, None, K)
        second = wal.attach(None, None, K)
        assert first.record.session_id != second.record.session_id
        assert first.record.session_id.startswith("anon:")
        first.close()
        second.close()

    def test_open_record_with_vanished_spool_restarts_from_scratch(self, wal):
        journal = wal.attach(0, "worker", K)
        journal.append(_body(FRAME_A))
        journal.commit()
        journal.close()
        record = wal.store.get("ord:0")
        # Zero the watermark as if nothing had committed, then lose the spool.
        wal.store.put(record.advanced(frames=0, bytes_=0))
        wal.spool_path(record).unlink()
        fresh = wal.attach(0, "worker", K)
        assert fresh.committed_frames == 0 and fresh.parts == ()
        fresh.close()


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------

def _committed_session(wal, ordinal, counters, seq):
    journal = wal.attach(ordinal, f"client-{ordinal}", K)
    journal.append(_body(counters))
    journal.mark_committed(seq)


class TestRecovery:
    def test_recover_folds_committed_sessions_in_seq_order(self, wal):
        # Commit in an order different from the ordinal order: replay must
        # follow the recorded commit seq, exactly like the live server did.
        _committed_session(wal, 1, FRAME_B, seq=1)
        _committed_session(wal, 0, FRAME_A, seq=2)
        open_journal = wal.attach(2, "straggler", K)
        open_journal.append(_body(FRAME_C))
        open_journal.commit()
        open_journal.close()

        recovery = wal.recover()
        assert [c.seq for c in recovery.committed] == [1, 2]
        assert [c.ordinal for c in recovery.committed] == [1, 0]
        assert recovery.max_seq == 2
        assert [r.session_id for r in recovery.open_records] == ["ord:2"]
        assert recovery.k == K
        assert recovery.committed[0].parts[0].merged() == \
               StreamingMerger(K).add(_envelope(FRAME_B)).merged()

    def test_recover_on_an_empty_wal_dir(self, wal):
        recovery = wal.recover()
        assert recovery.committed == [] and recovery.open_records == []
        assert recovery.k is None and recovery.max_seq == 0

    def test_orphan_spools_are_deleted(self, wal):
        # A session that died before its first commit left a spool but no
        # ledger record: by construction it holds only unACKed frames.
        journal = wal.attach(5, "worker", K)
        journal.append(_body(FRAME_A))
        journal.close()  # no commit
        spool = wal.wal_dir / "ord-5.spool"
        assert spool.exists()
        wal.recover()
        assert not spool.exists()

    def test_mixed_sketch_sizes_rejected(self, wal):
        wal.store.put(_record(session_id="ord:0", k=16, commit_seq=None,
                              spool="ord-0.spool"))
        wal.store.put(_record(session_id="ord:1", ordinal=1, k=32,
                              spool="ord-1.spool"))
        with pytest.raises(ParameterError, match="mixes sketch sizes"):
            wal.recover()

    def test_missing_spool_with_committed_frames_is_corruption(self, wal):
        wal.store.put(_record(committed_frames=2, committed_bytes=500))
        with pytest.raises(FramingError, match="missing"):
            wal.recover()

    def test_ledger_ahead_of_spool_is_corruption(self, wal):
        """The commit order makes ledger-ahead impossible in a crash; seeing
        it means real corruption and must not replay silently short."""
        journal = wal.attach(0, "worker", K)
        journal.append(_body(FRAME_A))
        journal.commit()
        journal.close()
        record = wal.store.get("ord:0")
        wal.store.put(record.advanced(
            frames=2, bytes_=record.committed_bytes).completed(1))
        with pytest.raises(FramingError, match="ledger committed 2"):
            wal.recover()


class TestTailTruncationEveryOffset:
    def test_crash_tail_cut_at_every_byte_offset_recovers_identically(
            self, tmp_path):
        """Property: wherever mid-tail the crash landed, recovery yields the
        same state — committed frames replayed, tail gone.

        Builds a spool with 2 committed frames, then simulates every possible
        crash point while a third frame was being appended: for each prefix
        length of the tail bytes (0 .. full frame), recovery must truncate
        back to the watermark and replay exactly the 2 committed frames.
        """
        wal = SessionWal(tmp_path / "wal", store=MemoryCheckpointStore())
        journal = wal.attach(0, "worker", K)
        journal.append(_body(FRAME_A))
        journal.append(_body(FRAME_B))
        journal.commit()
        journal.close()
        record = wal.store.get("ord:0")
        spool = wal.spool_path(record)
        committed = spool.read_bytes()
        assert len(committed) == record.committed_bytes
        tail = b"\x00\x00\x00" + _body(FRAME_C)  # length prefix + body
        expected = StreamingMerger(K)
        expected.add(_envelope(FRAME_A))
        expected.add(_envelope(FRAME_B))

        for cut in range(len(tail) + 1):
            spool.write_bytes(committed + tail[:cut])
            recovery = wal.recover()
            assert recovery.open_records == [record]
            assert spool.stat().st_size == record.committed_bytes
            (merger,) = wal.replay(record)
            assert merger.merged() == expected.merged()
            assert list(merger.merged()) == list(expected.merged())
        wal.close()

    def test_truncate_tail_uses_os_truncate_not_rewrite(self, tmp_path):
        """The truncation must not rewrite committed bytes (inode-level cut,
        same content before the watermark)."""
        wal = SessionWal(tmp_path / "wal", store=MemoryCheckpointStore())
        journal = wal.attach(0, "worker", K)
        journal.append(_body(FRAME_A))
        journal.commit()
        journal.close()
        record = wal.store.get("ord:0")
        spool = wal.spool_path(record)
        committed = spool.read_bytes()
        with open(spool, "ab") as handle:
            handle.write(b"half-written junk")
        wal.recover()
        assert spool.read_bytes() == committed
        wal.close()


class TestWalMisc:
    def test_fsync_dir_is_callable(self, wal):
        wal.fsync_dir()  # smoke: opens and fsyncs the directory fd

    def test_spool_header_carries_the_session_identity(self, wal):
        from repro.api.framing import FrameReader

        journal = wal.attach(3, "worker", K)
        journal.append(_body(FRAME_A))
        journal.commit()
        journal.close()
        with open(wal.wal_dir / "ord-3.spool", "rb") as handle:
            reader = FrameReader(handle, raw=True)
            assert reader.header.k == K
            assert reader.header.meta["wal_session"] == "ord:3"

    def test_wal_accepts_a_pluggable_store(self, tmp_path):
        store = MemoryCheckpointStore()
        wal = SessionWal(tmp_path / "wal", store=store)
        journal = wal.attach(0, None, K)
        journal.append(_body(FRAME_A))
        journal.commit()
        assert store.get("ord:0").committed_frames == 1
        journal.close()
        wal.close()


class TestSpoolUsage:
    """spool_usage(): the du-style footprint STATS and wal inspect report."""

    def test_empty_dir(self, wal):
        assert wal.spool_usage() == {"spools": 0, "bytes": 0}

    def test_counts_spools_and_sums_bytes(self, wal):
        for ordinal in range(3):
            journal = wal.attach(ordinal, "worker", K)
            journal.append(_body(FRAME_A))
            journal.commit()
            journal.close()
        usage = wal.spool_usage()
        assert usage["spools"] == 3
        expected = sum(path.stat().st_size
                       for path in wal.wal_dir.glob("*.spool"))
        assert usage["bytes"] == expected > 0

    def test_ignores_the_ledger_and_other_files(self, wal):
        journal = wal.attach(0, "worker", K)
        journal.append(_body(FRAME_A))
        journal.commit()
        journal.close()
        (wal.wal_dir / "notes.txt").write_text("not a spool")
        # The WAL-mode ledger's log and shared-memory index sit next to
        # the spools while the store is open; neither is session payload.
        assert (wal.wal_dir / "sessions.db-wal").exists()
        assert (wal.wal_dir / "sessions.db-shm").exists()
        usage = wal.spool_usage()
        assert usage["spools"] == 1
        assert usage["bytes"] == \
            wal.spool_path(journal.record).stat().st_size

    def test_metrics_record_commit_timings(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry(window=float("inf"))
        wal = SessionWal(tmp_path / "wal", store=MemoryCheckpointStore(),
                         metrics=registry)
        journal = wal.attach(0, "worker", K)
        journal.append(_body(FRAME_A))
        journal.commit()
        journal.close()
        wal.close()
        assert registry.counter("wal.commits_total").value == 1
        assert registry.histogram("wal.commit_seconds").summary()["count"] == 1
        assert registry.histogram("wal.fsync_seconds").summary()["count"] >= 1
        # The blocking commit is a group of one.
        assert registry.histogram("wal.group_size").values() == [1]
