"""Workloads of the served-pipeline benchmark: seeded inputs and traffic.

Every workload drives ``repro serve`` subprocesses from this process: one
asyncio thread, at most two connections open at once.  All inputs are made
from the seed before timing starts, and the amount of work is fixed by the
workload and the run length.

A run is up to :data:`ROUNDS` identical rounds of about a second each.
Each round spawns a fresh server, warms it up, runs the same timed sessions
and then its releases, so the committed set — and with it the cost of a
release and the server's memory — is the same in every round of every run.
A fresh server per round also keeps that set small enough for many release
samples per run: a release combines every committed session, and its time
varies with the garbage collector's passes over them.

Each session pushes frames from a pool of pre-encoded sketch exports.  The
frames a session pushes are one row of a small seeded *plan* table, so the
offline rebuild of the final release (:func:`offline_release`) folds each
distinct row once and reuses that summary for every session that pushed it.
"""

from __future__ import annotations

import asyncio
import time
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.api import framing, wire
from repro.api.framing import StreamingMerger, combine_mergers
from repro.core.merging import MergeStrategy, PrivateMergedRelease
from repro.exceptions import NetworkError, ProtocolError, RemoteError
from repro.net.client import AggregatorClient
from repro.sketches.misra_gries import MisraGriesSketch
from repro.streams import zipf_stream

#: Privacy parameters of every release (server flags and offline rebuild).
EPSILON = 1.0
DELTA = 1e-6

#: Hard per-operation timeout of every client call (seconds).
CLIENT_TIMEOUT = 30.0

#: What a failed client call can raise; each one is counted, not fatal.
CLIENT_ERRORS = (NetworkError, RemoteError, ProtocolError, OSError,
                 TimeoutError)

#: Bytes of the length prefix in front of every encoded frame body.
_PREFIX = 4

#: Identical rounds per run, each against a fresh server.
ROUNDS = 15


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  Sizes are per round; see ``README.md`` for the why."""

    name: str
    k: int
    stream_length: int            # raw elements behind each sketch export
    universe: int
    frames_per_session: int
    burst: int                    # frames per PUSH
    rate: float                   # timed sessions per second of run
    warmup_sessions: int          # committed, untimed, before the traffic
    releases: int                 # timed releases after the traffic
    connections: int = 2          # closed-loop session loops
    pool: int = 128               # distinct pre-encoded exports
    plans: int = 8                # distinct session frame rows
    exponent: float = 1.2
    wal: bool = False
    build_in_loop: bool = False   # edge: build + encode inside the loop
    release_every: int = 0        # release_mix: RELEASE per N commits
    budget_epsilon: Optional[float] = None

    def sessions(self, seconds: float) -> int:
        """Timed sessions of each round of a run of ``seconds``."""
        return max(1, int(round(self.rate * seconds / ROUNDS)))

    def server_flags(self) -> List[str]:
        flags = ["--epsilon", repr(EPSILON), "--delta", repr(DELTA),
                 "-k", str(self.k)]
        if self.budget_epsilon is not None:
            flags += ["--budget-epsilon", repr(self.budget_epsilon),
                      "--composition", "basic"]
        return flags

    def params(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("ingest",
             k=1024, stream_length=20_000, universe=50_000,
             frames_per_session=256, burst=16, rate=20.0,
             warmup_sessions=2, releases=8),
    Workload("ingest_wal",
             k=1024, stream_length=20_000, universe=50_000,
             frames_per_session=256, burst=16, rate=10.0,
             warmup_sessions=2, releases=8, wal=True),
    Workload("edge",
             k=1024, stream_length=20_000, universe=50_000,
             frames_per_session=16, burst=16, rate=15.0,
             warmup_sessions=2, releases=8, connections=1,
             build_in_loop=True),
    # The warm-up commits a base of sessions, so that every timed release
    # combines a hundred or more of them and stalls the pushes due meanwhile.
    Workload("release_mix",
             k=64, stream_length=100, universe=10_000,
             frames_per_session=4, burst=4, rate=54.0,
             warmup_sessions=150, releases=0, plans=64,
             release_every=8, budget_epsilon=1e9),
)}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    """Everything the server will receive, made from the seed up front."""

    streams: np.ndarray           # (pool, stream_length) raw elements
    frames: List[bytes]           # encoded export per pool entry
    plans: np.ndarray             # (plans, frames_per_session) pool indices
    dues: np.ndarray              # open-loop due offsets of a round's sessions


def build_frame(workload: Workload, stream: np.ndarray) -> bytes:
    """Sketch one raw stream and encode it as a wire frame."""
    sketch = MisraGriesSketch(workload.k).update_batch(stream)
    return framing.encode_payload_frame(wire.encode_sketch(sketch))


def make_inputs(workload: Workload, seed: int, sessions: int) -> Inputs:
    """The seeded pool, session plans and one round's open-loop schedule."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    streams = np.stack([
        zipf_stream(workload.stream_length, workload.universe,
                    workload.exponent, rng=rng, as_array=True)
        for _ in range(workload.pool)])
    frames = [build_frame(workload, stream) for stream in streams]
    plans = rng.integers(0, workload.pool,
                         size=(workload.plans, workload.frames_per_session))
    # Poisson arrivals, scaled to end at exactly sessions / rate: the
    # schedule's length, and so the session rate, is the same for any seed.
    gaps = rng.exponential(1.0, size=sessions)
    dues = np.cumsum(gaps) * (sessions / workload.rate / gaps.sum())
    return Inputs(streams=streams, frames=frames, plans=plans, dues=dues)


def plan_row(workload: Workload, ordinal: int) -> int:
    return ordinal % workload.plans


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """What the client side saw during one phase."""

    push_s: List[float] = field(default_factory=list)
    session_s: List[float] = field(default_factory=list)
    release_s: List[float] = field(default_factory=list)
    lag_s: List[float] = field(default_factory=list)
    acked: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    released: List[bytes] = field(default_factory=list)
    elapsed_s: float = 0.0


class Driver:
    """Sessions and releases against one server address."""

    def __init__(self, workload: Workload, inputs: Inputs, address: str,
                 seed: int) -> None:
        self.workload = workload
        self.inputs = inputs
        self.address = address
        self.seed = seed
        self.mismatched_builds = 0

    def _fail(self, tally: Tally, error: BaseException) -> None:
        tally.failed += 1
        tally.errors[getattr(error, "code", None) or type(error).__name__] += 1

    def _frames(self, indices) -> List[bytes]:
        if not self.workload.build_in_loop:
            return [self.inputs.frames[i] for i in indices]
        frames = []
        for i in indices:
            frame = build_frame(self.workload, self.inputs.streams[i])
            if frame != self.inputs.frames[i]:
                self.mismatched_builds += 1
            frames.append(frame)
        return frames

    async def session(self, tally: Tally, ordinal: int, since: float) -> bool:
        """Connect, HELLO, push the ordinal's plan row in bursts, BYE.

        Session latency runs from ``since`` (the due time in an open loop)
        to the BYE ack; only an acked BYE counts the session as committed.
        """
        workload = self.workload
        row = self.inputs.plans[plan_row(workload, ordinal)]
        tally.attempted += 1
        client = AggregatorClient(self.address, k=workload.k, ordinal=ordinal,
                                  timeout=CLIENT_TIMEOUT, connect_retries=3)
        try:
            await client.connect()
            for start in range(0, len(row), workload.burst):
                frames = self._frames(row[start:start + workload.burst])
                pushed = time.perf_counter()
                await client.push_encoded(frames)
                tally.push_s.append(time.perf_counter() - pushed)
            await client.bye()
        except CLIENT_ERRORS as error:
            self._fail(tally, error)
            return False
        finally:
            await client.close(bye=False)
        tally.session_s.append(time.perf_counter() - since)
        tally.acked.append(ordinal)
        return True

    async def release(self, tally: Tally, client: Optional[AggregatorClient],
                      seed: int, keep: bool = False) -> Optional[AggregatorClient]:
        """One RELEASE round trip, connecting first when ``client`` is None.

        Returns the client to use next time (None after a failure).
        """
        tally.attempted += 1
        try:
            if client is None:
                client = AggregatorClient(self.address, k=self.workload.k,
                                          timeout=CLIENT_TIMEOUT,
                                          connect_retries=3)
                await client.connect()
            started = time.perf_counter()
            payload = await client.request_release_payload(seed=seed)
        except CLIENT_ERRORS as error:
            self._fail(tally, error)
            if client is not None:
                await client.close(bye=False)
            return None
        tally.release_s.append(time.perf_counter() - started)
        if keep:
            tally.released.append(framing.payload_frame_body(payload))
        return client

    async def closed_loop(self, tally: Tally, ordinals):
        """``connections`` loops, each starting a session when its last ends."""
        pending = iter(ordinals)

        async def loop() -> None:
            for ordinal in pending:
                await self.session(tally, ordinal, time.perf_counter())

        started = time.perf_counter()
        await asyncio.gather(
            *(loop() for _ in range(self.workload.connections)))
        tally.elapsed_s = time.perf_counter() - started

    async def open_loop(self, tally: Tally, ordinals,
                        dues) -> Optional[AggregatorClient]:
        """Sessions due on a Poisson schedule on one connection, and on a
        second connection a RELEASE after every ``release_every`` commits.

        ``dues`` are offsets from now.  A session that starts late (stalled
        behind a release) is still timed from its due time; how late each
        one started is kept in ``lag_s``.  Returns the release client.
        """
        every = self.workload.release_every
        triggers: asyncio.Queue = asyncio.Queue()
        started = time.perf_counter()

        async def pusher() -> None:
            commits = 0
            for ordinal, offset in zip(ordinals, dues):
                due = started + float(offset)
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                tally.lag_s.append(max(0.0, time.perf_counter() - due))
                if await self.session(tally, ordinal, due):
                    commits += 1
                    if commits % every == 0:
                        triggers.put_nowait(True)
            triggers.put_nowait(None)

        async def releases() -> Optional[AggregatorClient]:
            client, count = None, 0
            while await triggers.get() is not None:
                count += 1
                client = await self.release(tally, client, self.seed + count)
            return client

        _, client = await asyncio.gather(pusher(), releases())
        tally.elapsed_s = time.perf_counter() - started
        return client


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def offline_release(workload: Workload, inputs: Inputs, acked: List[int],
                    seed: int) -> bytes:
    """The release a server holding exactly ``acked`` sessions must serve.

    Each session is folded by its own :class:`StreamingMerger` over its
    frames (one fold per distinct plan row), the summaries are combined in
    ordinal order, and the result is released trusted-merged with ``seed``.
    Returns the encoded frame body, so comparing bytes compares keys,
    values, dict order and metadata at once.
    """
    folded: Dict[int, StreamingMerger] = {}
    parts = []
    for ordinal in sorted(acked):
        row = plan_row(workload, ordinal)
        if row not in folded:
            merger = StreamingMerger(workload.k)
            for index in inputs.plans[row]:
                merger.add(framing.decode_payload_body(
                    inputs.frames[index][_PREFIX:]))
            folded[row] = merger
        parts.append(folded[row])
    mechanism = PrivateMergedRelease(epsilon=EPSILON, delta=DELTA, k=workload.k,
                                     strategy=MergeStrategy.TRUSTED_MERGED)
    histogram = combine_mergers(parts, workload.k).release(mechanism, rng=seed)
    return framing.payload_frame_body(wire.encode_histogram(histogram))


def compare_releases(served: bytes, expected: bytes) -> Optional[str]:
    """``None`` when bit-identical, else which part of the release differs."""
    if served == expected:
        return None
    got = wire.payload_to_histogram(framing.decode_payload_body(served))
    want = wire.payload_to_histogram(framing.decode_payload_body(expected))
    if set(got.counts) != set(want.counts):
        return "keys differ"
    if list(got.counts) != list(want.counts):
        return "dict order differs"
    if got.counts != want.counts:
        return "values differ"
    if got.metadata != want.metadata:
        return "metadata differs"
    return "encoded bytes differ"
