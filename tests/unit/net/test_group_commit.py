"""Group commit: the WAL's durability barrier, run off the event loop.

A PUSH burst's barrier (spool fsyncs, one ledger transaction, a directory
fsync for new spools) runs on the WAL's committer thread; bursts that reach
their barrier while a group is in flight form the next group.  These tests
pin down what that must never change:

* no session gets its OK before its record is in the store;
* journals queued behind a group land in exactly one ``put(*records)``;
* a failed barrier refuses every session of its group with ERROR
  ``code=wal_commit_failed``, counts it rejected and advances nothing;
* the two puts that stay on the loop refuse with the same code: a failed
  BYE record rejects the session and leaves it open for resume, a failed
  budget persist refuses the RELEASE and keeps the session;
* a crash between the group's spool fsyncs and its ledger write recovers to
  exactly the ACKed frames, bit for bit;
* a WAL-mode ledger left by an unclean exit still holds every record.

Stores here are wrappers that count, hold or fail ``put`` calls, so each
scenario is deterministic: a held put keeps its group in flight while the
test queues more sessions behind it.
"""

import asyncio
import errno
import io
import os
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api.framing import (FRAMING_VERSION, FrameHeader, FrameReader,
                               FrameWriter, StreamingMerger,
                               combine_mergers, encode_payload_frame)
from repro.api.wire import encode_counters, payload_to_histogram
from repro.cli import main
from repro.core.merging import MergeStrategy, PrivateMergedRelease
from repro.exceptions import RemoteError, ReproError
from repro.net import AggregatorClient, AggregatorServer
from repro.net.protocol import open_channel
from repro.net.store import (BUDGET_SESSION_ID, CheckpointStore,
                             MemoryCheckpointStore, SessionRecord,
                             SqliteCheckpointStore)
from repro.net.wal import SessionWal
from repro.obs.metrics import MetricsRegistry

pytestmark = pytest.mark.net

EPSILON, DELTA, K = 1.0, 1e-6, 16
FRAMES = [{1: 400.0, 2: 100.0}, {2: 200.0, 3: 300.0},
          {3: 50.0, 4: 450.0}, {1: 125.0, 5: 375.0},
          {6: 90.0, 2: 10.0}, {7: 33.0}, {8: 64.0, 1: 1.0}]

SRC = Path(__file__).resolve().parents[3] / "src"


def _export(counters):
    return encode_counters(counters, k=K,
                           stream_length=int(sum(counters.values())))


def _body(counters):
    """A payload frame body (length prefix stripped), as sessions spool it."""
    return encode_payload_frame(_export(counters))[4:]


def _record(ordinal, **overrides):
    fields = dict(session_id=f"ord:{ordinal}", ordinal=ordinal,
                  client="worker", k=K, spool=f"ord-{ordinal}.spool")
    fields.update(overrides)
    return SessionRecord(**fields)


def _disk_error(kind):
    if kind == "sqlite":
        return sqlite3.OperationalError("disk I/O error")
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class GatedStore(CheckpointStore):
    """A store wrapper that records, holds and fails ``put`` calls.

    ``puts`` lists the session ids of every put, one list per call.  Set
    ``hold`` and the next put waits for ``gate`` (``entered`` is set once it
    does); ``fail(records)`` may return an exception for a put to raise in
    place of writing.
    """

    def __init__(self, backing=None, fail=None):
        self.backing = backing if backing is not None \
            else MemoryCheckpointStore()
        self.fail = fail
        self.hold = False
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.puts = []

    def put(self, *records):
        self.puts.append([record.session_id for record in records])
        if self.hold:
            self.hold = False
            self.entered.set()
            assert self.gate.wait(timeout=30), "gate never opened"
        error = self.fail(records) if self.fail is not None else None
        if error is not None:
            raise error
        self.backing.put(*records)

    def get(self, session_id):
        return self.backing.get(session_id)

    def scan(self):
        return self.backing.scan()

    def delete(self, session_id):
        self.backing.delete(session_id)

    def close(self):
        self.backing.close()


def _group_failure(error):
    """``fail`` hook: every put of more than one record raises ``error``."""
    return lambda records: error if len(records) > 1 else None


async def _until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.002)


def _appended(wal, ordinal, *frames):
    journal = wal.attach(ordinal, "worker", K)
    for counters in frames:
        journal.append(_body(counters))
    return journal


# ---------------------------------------------------------------------------
# The ledger: group puts and WAL journal mode
# ---------------------------------------------------------------------------

class TestLedger:
    @pytest.mark.parametrize("backend", ["sqlite", "memory"])
    def test_one_put_writes_every_record(self, backend, tmp_path):
        store = (SqliteCheckpointStore(tmp_path / "ledger.db")
                 if backend == "sqlite" else MemoryCheckpointStore())
        with store:
            records = [_record(ordinal, committed_frames=ordinal + 1)
                       for ordinal in range(3)]
            store.put(*records)
            assert store.records() == records

    def test_sqlite_group_put_is_all_or_nothing(self, tmp_path):
        with SqliteCheckpointStore(tmp_path / "ledger.db") as store:
            with pytest.raises(sqlite3.IntegrityError):
                store.put(_record(0), _record(1, client=None))  # NOT NULL
            assert store.get("ord:0") is None
            store.put(_record(2))  # the failed transaction left nothing open
            assert [r.session_id for r in store.records()] == ["ord:2"]

    def test_sqlite_ledger_runs_in_wal_journal_mode(self, tmp_path):
        path = tmp_path / "ledger.db"
        with SqliteCheckpointStore(path) as store:
            store.put(_record(0))
            assert (tmp_path / "ledger.db-wal").exists()
        probe = sqlite3.connect(str(path))
        try:
            assert probe.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        finally:
            probe.close()

    def test_unclean_exit_keeps_every_record(self, tmp_path, capsys):
        """A process that puts records and dies without close() leaves them
        in the write-ahead log; a reopened store and `wal inspect` see all
        of them."""
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        script = (
            "import os, sys\n"
            "from repro.net.store import SessionRecord, SqliteCheckpointStore\n"
            "store = SqliteCheckpointStore(sys.argv[1])\n"
            "def record(n, **kw):\n"
            "    return SessionRecord(f'ord:{n}', n, 'worker', 16,\n"
            "                         f'ord-{n}.spool', **kw)\n"
            "store.put(record(0, committed_frames=2, committed_bytes=90,\n"
            "                 commit_seq=1))\n"
            "store.put(record(1, committed_frames=1, committed_bytes=40),\n"
            "          record(2, committed_frames=3, committed_bytes=120))\n"
            "os._exit(0)\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-c", script,
                        str(wal_dir / "sessions.db")],
                       env=env, check=True, timeout=60)
        assert (wal_dir / "sessions.db-wal").exists()  # never checkpointed

        assert main(["wal", "inspect", str(wal_dir)]) == 0
        out = capsys.readouterr().out
        assert "3 session(s)" in out
        for line in ("ord:0: ordinal=0 client=worker k=16 frames=2 bytes=90 "
                     "committed seq=1",
                     "ord:1: ordinal=1 client=worker k=16 frames=1 bytes=40 "
                     "open",
                     "ord:2: ordinal=2 client=worker k=16 frames=3 bytes=120 "
                     "open"):
            assert line in out
        with SqliteCheckpointStore(wal_dir / "sessions.db") as store:
            assert [(r.session_id, r.committed_frames, r.commit_seq)
                    for r in store.records()] == [
                ("ord:0", 2, 1), ("ord:1", 1, None), ("ord:2", 3, None)]


# ---------------------------------------------------------------------------
# The committer, driven directly
# ---------------------------------------------------------------------------

class ThreadRecordingRegistry(MetricsRegistry):
    """A registry that notes which thread every write came from."""

    def __init__(self):
        super().__init__(window=float("inf"))
        self.threads = set()

    def inc(self, name, amount=1):
        self.threads.add(threading.get_ident())
        super().inc(name, amount)

    def observe(self, name, value):
        self.threads.add(threading.get_ident())
        super().observe(name, value)


class TestCommitter:
    def test_journals_queued_behind_a_group_land_in_one_put(self, tmp_path):
        queued = 5
        registry = ThreadRecordingRegistry()
        store = GatedStore()
        wal = SessionWal(tmp_path / "wal", store=store, metrics=registry)

        async def scenario():
            first = _appended(wal, 0, FRAMES[0])
            rest = [_appended(wal, ordinal, FRAMES[ordinal % len(FRAMES)])
                    for ordinal in range(1, queued + 1)]
            store.hold = True
            in_flight = asyncio.ensure_future(wal.commit(first))
            await _until(store.entered.is_set)
            waiting = [asyncio.ensure_future(wal.commit(journal))
                       for journal in rest]
            await asyncio.sleep(0.01)
            assert not any(task.done() for task in waiting)
            store.gate.set()
            watermarks = await asyncio.gather(in_flight, *waiting)
            for journal in [first, *rest]:
                journal.close()
            return watermarks

        try:
            assert asyncio.run(scenario()) == [1] * (queued + 1)
        finally:
            wal.close()
        assert store.puts == [["ord:0"],
                              [f"ord:{n}" for n in range(1, queued + 1)]]
        assert registry.histogram("wal.group_size").values() == [1, queued]
        assert registry.counter("wal.commits_total").value == queued + 1
        assert registry.histogram("wal.commit_seconds").summary()["count"] == 2
        assert registry.histogram("wal.fsync_seconds").summary()["count"] \
            == queued + 1
        # Futures resolve and metrics are written on the loop, never on
        # the committer thread.
        assert registry.threads == {threading.get_ident()}

    @pytest.mark.parametrize("kind", ["sqlite", "oserror"])
    def test_failed_group_refuses_every_journal_and_advances_none(
            self, kind, tmp_path):
        store = GatedStore(fail=_group_failure(_disk_error(kind)))
        wal = SessionWal(tmp_path / "wal", store=store)

        async def scenario():
            first = _appended(wal, 0, FRAMES[0])
            pair = [_appended(wal, 1, FRAMES[1]), _appended(wal, 2, FRAMES[2])]
            store.hold = True
            in_flight = asyncio.ensure_future(wal.commit(first))
            await _until(store.entered.is_set)
            waiting = [asyncio.ensure_future(wal.commit(journal))
                       for journal in pair]
            await asyncio.sleep(0)
            store.gate.set()
            outcomes = await asyncio.gather(in_flight, *waiting,
                                            return_exceptions=True)
            # The committer keeps serving after a failed group.
            later = _appended(wal, 3, FRAMES[3])
            after = await wal.commit(later)
            for journal in [first, *pair, later]:
                journal.close()
            return outcomes, pair, after

        try:
            outcomes, pair, after = asyncio.run(scenario())
        finally:
            wal.close()
        assert outcomes[0] == 1 and after == 1
        for error in outcomes[1:]:
            assert isinstance(error, ReproError)
            assert error.code == "wal_commit_failed"
        assert store.puts[1] == ["ord:1", "ord:2"]
        for journal in pair:
            assert journal.committed_frames == 0
            assert store.get(journal.record.session_id) is None

    def test_cancelled_waiter_lets_its_group_land_before_returning(
            self, tmp_path):
        """The group in flight still writes the spool; the cancelled
        session must not close it under the committer's feet."""
        store = GatedStore()
        wal = SessionWal(tmp_path / "wal", store=store)

        async def scenario():
            journal = _appended(wal, 0, FRAMES[0])
            store.hold = True
            task = asyncio.ensure_future(wal.commit(journal))
            await _until(store.entered.is_set)
            task.cancel()
            await asyncio.sleep(0.01)
            assert not task.done()
            store.gate.set()
            with pytest.raises(asyncio.CancelledError):
                await task
            journal.close()
            assert journal.committed_frames == 1
            assert store.get("ord:0").committed_frames == 1

        try:
            asyncio.run(scenario())
        finally:
            wal.close()

    def test_cancelled_queued_waiter_leaves_the_next_group(self, tmp_path):
        store = GatedStore()
        wal = SessionWal(tmp_path / "wal", store=store)

        async def scenario():
            first = _appended(wal, 0, FRAMES[0])
            second = _appended(wal, 1, FRAMES[1])
            store.hold = True
            in_flight = asyncio.ensure_future(wal.commit(first))
            await _until(store.entered.is_set)
            queued = asyncio.ensure_future(wal.commit(second))
            await asyncio.sleep(0)
            queued.cancel()
            with pytest.raises(asyncio.CancelledError):
                await queued
            store.gate.set()
            await in_flight
            for journal in (first, second):
                journal.close()

        try:
            asyncio.run(scenario())
        finally:
            wal.close()
        assert store.puts == [["ord:0"]]

    def test_close_waits_for_the_group_in_flight(self, tmp_path):
        store = GatedStore()
        wal = SessionWal(tmp_path / "wal", store=store)

        async def scenario():
            journal = _appended(wal, 0, FRAMES[0])
            store.hold = True
            task = asyncio.ensure_future(wal.commit(journal))
            await _until(store.entered.is_set)
            opener = threading.Timer(0.05, store.gate.set)
            opener.start()
            wal.close()  # blocks until the held put returns
            assert store.puts == [["ord:0"]]
            assert not any(thread.name.startswith("wal-committer")
                           for thread in threading.enumerate())
            watermark = await task
            journal.close()
            opener.join()
            return watermark

        assert asyncio.run(scenario()) == 1


# ---------------------------------------------------------------------------
# The served path: ACK order, refusals, crash recovery
# ---------------------------------------------------------------------------

async def _started(wal_dir, **kwargs):
    server = AggregatorServer(epsilon=EPSILON, delta=DELTA, k=K,
                              wal_dir=wal_dir, **kwargs)
    await server.start("127.0.0.1:0")
    return server


def _count_commits(server):
    """Wrap ``server.wal.commit``; the list grows as sessions queue."""
    calls = []
    commit = server.wal.commit

    async def counted(journal):
        calls.append(journal)
        return await commit(journal)

    server.wal.commit = counted
    return calls


async def _connected(server, ordinal):
    client = AggregatorClient(server.address, k=K, ordinal=ordinal)
    await client.connect()
    return client


async def _stats(server):
    async with AggregatorClient(server.address) as querier:
        return await querier.stats()


def _offline_release(sessions, seed):
    """The offline fold: one merger per session, combined in ordinal order."""
    parts = []
    for frames in sessions:
        buffer = io.BytesIO()
        with FrameWriter(buffer, k=K, frames=len(frames)) as writer:
            for counters in frames:
                writer.write_payload(_export(counters))
        parts.append(StreamingMerger(K).consume(
            FrameReader(io.BytesIO(buffer.getvalue()))))
    mechanism = PrivateMergedRelease(epsilon=EPSILON, delta=DELTA, k=K,
                                     strategy=MergeStrategy.TRUSTED_MERGED)
    return combine_mergers(parts, K).release(mechanism, rng=seed)


class TestServedBarrier:
    def test_no_ok_before_the_record_is_in_the_store(self, tmp_path):
        store = GatedStore()

        async def scenario():
            server = await _started(tmp_path / "wal", store=store)
            async with server:
                client = await _connected(server, ordinal=0)
                store.hold = True
                push = asyncio.ensure_future(
                    client.push([_export(FRAMES[0])]))
                await _until(store.entered.is_set)
                await asyncio.sleep(0.05)
                assert not push.done()
                assert store.get("ord:0") is None
                store.gate.set()
                await push
                assert store.get("ord:0").committed_frames == 1
                await client.close()

        asyncio.run(scenario())

    def test_concurrent_bursts_are_durable_when_acked(self, tmp_path):
        store = GatedStore()
        bursts = 3

        async def pusher(server, ordinal):
            async with AggregatorClient(server.address, k=K,
                                        ordinal=ordinal) as client:
                for burst in range(bursts):
                    await client.push([_export(FRAMES[burst]),
                                       _export(FRAMES[ordinal])])
                    record = store.get(f"ord:{ordinal}")
                    assert record.committed_frames == 2 * (burst + 1)

        async def scenario():
            server = await _started(tmp_path / "wal", store=store)
            async with server:
                await asyncio.gather(*(pusher(server, n) for n in range(4)))
                return server.metrics.histogram("wal.group_size").values()

        sizes = asyncio.run(scenario())
        assert sum(sizes) == 4 * bursts
        # One put per group, plus each session's BYE record.
        assert len(store.puts) == len(sizes) + 4

    @pytest.mark.parametrize("kind", ["sqlite", "oserror"])
    def test_failed_barrier_refuses_the_session_with_a_code(self, kind,
                                                            tmp_path):
        failures = [_disk_error(kind)]
        store = GatedStore(
            fail=lambda records: failures.pop() if failures else None)

        async def scenario():
            server = await _started(tmp_path / "wal", store=store)
            async with server:
                client = await _connected(server, ordinal=0)
                with pytest.raises(RemoteError) as caught:
                    await client.push([_export(FRAMES[0])])
                await client.close(bye=False)
                # The server keeps serving: the next session commits.
                async with AggregatorClient(server.address, k=K,
                                            ordinal=1) as healthy:
                    await healthy.push([_export(FRAMES[1])])
                return caught.value.code, await _stats(server)

        code, stats = asyncio.run(scenario())
        assert code == "wal_commit_failed"
        assert stats["sessions_rejected"] == 1
        assert stats["sessions_committed"] == 1
        assert store.get("ord:0") is None

    @pytest.mark.parametrize("kind", ["sqlite", "oserror"])
    def test_failed_group_of_two_refuses_both_sessions(self, kind, tmp_path):
        store = GatedStore(fail=_group_failure(_disk_error(kind)))

        async def scenario():
            server = await _started(tmp_path / "wal", store=store)
            async with server:
                calls = _count_commits(server)
                clients = [await _connected(server, n) for n in range(3)]
                store.hold = True
                first = asyncio.ensure_future(
                    clients[0].push([_export(FRAMES[0])]))
                await _until(store.entered.is_set)
                pair = [asyncio.ensure_future(
                            client.push([_export(FRAMES[n + 1])]))
                        for n, client in enumerate(clients[1:])]
                await _until(lambda: len(calls) == 3)
                store.gate.set()
                assert await first == 1
                outcomes = await asyncio.gather(*pair, return_exceptions=True)
                await clients[0].close()
                for client in clients[1:]:
                    await client.close(bye=False)
                return outcomes, await _stats(server)

        outcomes, stats = asyncio.run(scenario())
        for error in outcomes:
            assert isinstance(error, RemoteError)
            assert error.code == "wal_commit_failed"
        assert store.puts[1] == ["ord:1", "ord:2"]
        assert store.get("ord:1") is None and store.get("ord:2") is None
        assert stats["sessions_rejected"] == 2
        assert stats["sessions_committed"] == 1

    def test_crash_between_group_fsync_and_ledger_write(self, tmp_path):
        """The group's spools are fsynced, then its ledger write dies.

        Rebuilt on the same wal_dir, each spool is cut back to its record's
        watermark and the release equals the offline fold of exactly the
        ACKed frames, bit for bit."""
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        store = GatedStore(SqliteCheckpointStore(wal_dir / "sessions.db"))
        acked = {0: [FRAMES[0]], 1: [FRAMES[1]], 2: [FRAMES[2]],
                 3: [FRAMES[3]]}

        async def crashed_run():
            server = await _started(wal_dir, store=store)
            async with server:
                calls = _count_commits(server)
                async with AggregatorClient(server.address, k=K,
                                            ordinal=0) as client:
                    await client.push([_export(FRAMES[0])])
                clients = {n: await _connected(server, n) for n in (1, 2, 3)}
                for n, client in clients.items():
                    await client.push([_export(FRAMES[n])])
                # The next put is held; the group behind it dies in the
                # ledger write, after its spools were fsynced.
                queued = len(calls) + 3
                store.hold = True
                store.fail = _group_failure(
                    sqlite3.OperationalError("disk I/O error"))
                first = asyncio.ensure_future(
                    clients[1].push([_export(FRAMES[4])]))
                await _until(store.entered.is_set)
                lost = [asyncio.ensure_future(
                            clients[n].push([_export(FRAMES[n + 3])]))
                        for n in (2, 3)]
                await _until(lambda: len(calls) == queued)
                store.gate.set()
                await first
                acked[1].append(FRAMES[4])
                outcomes = await asyncio.gather(*lost, return_exceptions=True)
                assert [error.code for error in outcomes] == \
                    ["wal_commit_failed"] * 2
                await clients[1].close()
                for n in (2, 3):
                    await clients[n].close(bye=False)
                tails = {n: (wal_dir / f"ord-{n}.spool").stat().st_size
                         for n in (2, 3)}
            return tails

        async def restarted_run():
            server = await _started(wal_dir)
            async with server:
                records = {n: server.wal.store.get(f"ord:{n}")
                           for n in (2, 3)}
                sizes = {n: (wal_dir / f"ord-{n}.spool").stat().st_size
                         for n in (2, 3)}
                for n in (2, 3):
                    async with AggregatorClient(server.address, k=K,
                                                ordinal=n) as client:
                        assert client.committed == 1
                async with AggregatorClient(server.address) as querier:
                    release = await querier.request_release(seed=5)
            return records, sizes, release

        tails = asyncio.run(crashed_run())
        records, sizes, release = asyncio.run(restarted_run())
        for n in (2, 3):
            assert records[n].committed_frames == 1
            assert tails[n] > records[n].committed_bytes  # the lost burst
            assert sizes[n] == records[n].committed_bytes
        offline = _offline_release([acked[n] for n in range(4)], seed=5)
        assert list(release.as_dict().items()) == \
            list(offline.as_dict().items())
        assert release.metadata.as_dict() == offline.metadata.as_dict()


class TestInlineLedgerWrites:
    """The ledger puts outside group commit: BYE's record, the budget."""

    @pytest.mark.parametrize("kind", ["sqlite", "oserror"])
    def test_failed_bye_record_rejects_the_session_and_keeps_it_open(
            self, kind, tmp_path):
        failing = [True]

        def fail(records):
            if failing[0] and any(record.commit_seq is not None
                                  for record in records):
                return _disk_error(kind)
            return None

        store = GatedStore(fail=fail)

        async def scenario():
            server = await _started(tmp_path / "wal", store=store)
            async with server:
                client = await _connected(server, ordinal=0)
                await client.push([_export(FRAMES[0])])
                with pytest.raises(RemoteError) as caught:
                    await client.bye()
                await client.close(bye=False)
                await _until(lambda: server.stats()["sessions_active"] == 0)
                refused = (caught.value.code, await _stats(server),
                           server.committed_mergers(), store.get("ord:0"))
                # The record is still open: a resume skips the ACKed frame
                # and its BYE lands once the ledger works again.
                failing[0] = False
                resumed = await _connected(server, ordinal=0)
                skipped = (resumed.committed, resumed.session_complete)
                await resumed.bye()
                return (refused, skipped, await _stats(server),
                        store.get("ord:0"))

        refused, skipped, stats, committed = asyncio.run(scenario())
        code, refused_stats, parts, record = refused
        assert code == "wal_commit_failed"
        assert refused_stats["sessions_rejected"] == 1
        assert refused_stats["sessions_committed"] == 0
        assert parts == []
        assert record.commit_seq is None and record.committed_frames == 1
        assert skipped == (1, False)
        assert stats["sessions_committed"] == 1
        assert committed.commit_seq == 1

    @pytest.mark.parametrize("kind", ["sqlite", "oserror"])
    def test_failed_budget_persist_refuses_the_release_keeps_the_session(
            self, kind, tmp_path):
        failures = [_disk_error(kind)]

        def fail(records):
            if failures and any(record.session_id == BUDGET_SESSION_ID
                                for record in records):
                return failures.pop()
            return None

        store = GatedStore(fail=fail)

        async def scenario():
            server = await _started(tmp_path / "wal", store=store)
            async with server:
                async with AggregatorClient(server.address, k=K,
                                            ordinal=0) as pusher:
                    await pusher.push([_export(FRAMES[0])])
                # A raw channel, because the client drops its side on any
                # ERROR: the refusal must leave the session READY.
                channel = await open_channel(server.address)
                await channel.send_prefix(FrameHeader(
                    framing=FRAMING_VERSION, frames=None, k=K))
                await channel.send_control("hello", k=K)
                await channel.read_prefix()
                await channel.next_event()  # ok re=hello
                await channel.send_control("release", seed=3)
                _, refusal = await channel.next_event()
                await channel.send_control("stats")
                _, refused = await channel.next_event()
                persisted = store.get(BUDGET_SESSION_ID)
                await channel.send_control("release", seed=3)
                kind, released = await channel.next_event()
                await channel.send_control("bye")
                await channel.next_event()  # ok re=bye
                await channel.close()
                return (refusal, refused, persisted, kind, released,
                        store.get(BUDGET_SESSION_ID))

        refusal, refused, persisted, kind, released, charged = \
            asyncio.run(scenario())
        assert refusal["verb"] == "error"
        assert refusal["code"] == "wal_commit_failed"
        assert refused["verb"] == "stats"
        assert refused["sessions_rejected"] == 0
        # The failed persist keeps the in-memory charge: over-counted spend.
        assert refused["privacy"]["releases_charged"] == 1
        assert persisted is None
        assert kind == "payload"
        assert charged.committed_frames == 2
        release = payload_to_histogram(released)
        offline = _offline_release([[FRAMES[0]]], seed=3)
        assert list(release.as_dict().items()) == \
            list(offline.as_dict().items())
