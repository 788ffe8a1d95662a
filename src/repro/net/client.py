"""`AggregatorClient`: connect/push/release against an aggregation server.

The client side of the framed control protocol.  Async first —

.. code-block:: python

    async with AggregatorClient("127.0.0.1:7777", k=256, ordinal=0) as client:
        await client.push(payloads)            # wire-v2 envelopes
        histogram = await client.request_release(seed=0)

— with synchronous one-shot helpers (:func:`push_file_resilient`,
:func:`request_release`, :func:`fetch_stats`)
for the CLI and scripts.  ``connect`` retries with jittered exponential
backoff (:mod:`repro.net.backoff`);
every operation runs under a hard timeout and raises
:class:`~repro.exceptions.NetworkError` instead of hanging.  ERROR frames
from the server raise :class:`~repro.exceptions.RemoteError` with the
server's machine-readable ``code``.

Idempotent resume: the HELLO ack reports how many of this ordinal's frames
the server already holds (``self.committed``: a WAL server's durable
prefix, or a committed session's every frame on any server) and
:meth:`AggregatorClient.push_file` skips them.  :func:`push_resumable`, the
one retrying connect/resume/push/bye cycle behind ``repro push --resume``
and the relay's forwards, thus pushes each frame once across crashes and
lost acks.
"""

from __future__ import annotations

import asyncio
import itertools
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Union

from ..api import framing
from ..api.framing import FrameHeader, FrameReader
from ..api.wire import WirePayload, payload_to_histogram
from ..core.results import PrivateHistogram
from ..exceptions import NetworkError, ProtocolError, RemoteError
from ..obs.metrics import as_registry
from ..sketches.base import FrequencySketch
from .backoff import Backoff, retry_async
from .protocol import (
    BYE,
    HELLO,
    OK,
    PUSH,
    RELEASE,
    STATS,
    Address,
    FrameChannel,
    open_channel,
    parse_address,
)

Pushable = Union[Mapping, WirePayload, FrequencySketch]


class AggregatorClient:
    """One aggregation session against an :class:`AggregatorServer`.

    Parameters
    ----------
    address:
        ``"host:port"`` or ``"unix:/path"``.
    k:
        Sketch size this client's exports use (declared in HELLO; the server
        rejects the session on disagreement).
    ordinal:
        This client's position in the canonical release order.  Give each
        pushing client a distinct ordinal to make the released histogram
        bit-reproducible regardless of network interleaving.
    role:
        Declared in HELLO when set.  ``"relay"`` marks this session's frames
        as relay *summary* frames (one per origin session, folded into their
        own release parts by a server started with ``accept_relays``).
    auth_token:
        Shared session token sent as the HELLO ``token`` field.  Required
        (for every role — a relay leaf authenticates to its root like any
        client) when the server was started with ``--auth-token``; a
        missing or wrong token is rejected with an ``auth_failed`` ERROR.
    timeout:
        Hard per-operation timeout in seconds.
    connect_retries / retry_delay / retry_jitter:
        Connection attempts and the backoff base between them (delays grow
        exponentially from it, stretched by up to ``retry_jitter`` relative
        jitter).
    metrics:
        An optional :class:`~repro.obs.metrics.MetricsRegistry` (shared:
        ``repro loadgen`` hands every simulated client one registry) that
        records ``client.connect_seconds`` / ``client.push_seconds`` /
        ``client.release_seconds`` histograms and frame/byte counters.
        ``None`` (the default) disables client-side metrics.
    """

    def __init__(self, address: Union[str, Address], *, k: Optional[int] = None,
                 ordinal: Optional[int] = None, client_name: Optional[str] = None,
                 role: Optional[str] = None, auth_token: Optional[str] = None,
                 timeout: float = 30.0, connect_retries: int = 5,
                 retry_delay: float = 0.2, retry_jitter: float = 0.1,
                 metrics=None) -> None:
        self._address = parse_address(address)
        self._k = k
        self._ordinal = ordinal
        self._client_name = client_name
        self._role = role
        self._auth_token = auth_token
        self._timeout = timeout
        self._connect_retries = max(1, int(connect_retries))
        self._retry_delay = retry_delay
        self._retry_jitter = retry_jitter
        self.metrics = as_registry(metrics)
        self._channel: Optional[FrameChannel] = None
        self.server_k: Optional[int] = None
        self.frames_pushed = 0
        #: Frames the server already holds for this ordinal (the HELLO
        #: ack's ``committed``: a WAL resume or a complete session; else 0).
        self.committed = 0
        #: True when the server says this ordinal's session already ended
        #: cleanly — there is nothing left to push.
        self.session_complete = False

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------

    async def __aenter__(self) -> "AggregatorClient":
        await self.connect()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close(bye=exc_type is None)

    async def _guard(self, awaitable, what: str):
        try:
            return await asyncio.wait_for(awaitable, timeout=self._timeout)
        except asyncio.TimeoutError:
            await self._abort()
            raise NetworkError(
                f"{what} timed out after {self._timeout:.1f}s") from None
        except (ConnectionError, EOFError) as error:
            await self._abort()
            raise NetworkError(f"{what} failed: {error}") from None
        except RemoteError:
            # The server rejected the session and is closing it; drop our
            # side too so the error propagates without leaking a transport.
            await self._abort()
            raise

    async def connect(self) -> "AggregatorClient":
        """Connect (with retries), open the framed stream, shake hands."""
        backoff = Backoff(base=self._retry_delay, jitter=self._retry_jitter)

        async def _open() -> FrameChannel:
            return await asyncio.wait_for(
                open_channel(self._address), timeout=self._timeout)

        def _give_up(last, attempts, policy) -> NetworkError:
            return NetworkError(
                f"could not connect to {self._address} after "
                f"{attempts} attempt(s) ({policy.elapsed:.1f}s): {last}")

        connect_start = self.metrics.clock()
        self._channel = await retry_async(
            _open, backoff=backoff,
            retryable=(ConnectionError, OSError, asyncio.TimeoutError),
            max_attempts=self._connect_retries, give_up=_give_up)
        try:
            result = await self._guard(self._handshake(), "handshake")
        except BaseException:
            await self._abort()
            raise
        self.metrics.observe("client.connect_seconds",
                             self.metrics.clock() - connect_start)
        return result

    async def _handshake(self) -> "AggregatorClient":
        header = FrameHeader(framing=framing.FRAMING_VERSION, frames=None,
                             k=self._k, meta={})
        await self._channel.send_prefix(header)
        hello: Dict[str, object] = {}
        if self._k is not None:
            hello["k"] = int(self._k)
        if self._ordinal is not None:
            hello["ordinal"] = int(self._ordinal)
        if self._client_name is not None:
            hello["client"] = self._client_name
        if self._role is not None:
            hello["role"] = self._role
        if self._auth_token is not None:
            hello["token"] = self._auth_token
        await self._channel.send_control(HELLO, **hello)
        greeting = await self._channel.read_prefix()
        self.server_k = greeting.k
        ack = await self._expect_control(OK, re=HELLO)
        agreed = ack.get("k")
        if isinstance(agreed, int):
            self.server_k = agreed
        committed = ack.get("committed")
        self.committed = committed if isinstance(committed, int) else 0
        self.session_complete = bool(ack.get("complete", False))
        return self

    async def close(self, bye: bool = True) -> None:
        """End the session; ``bye=True`` waits for the commit ack."""
        if self._channel is None:
            return
        if bye:
            try:
                await self._guard(self._say_bye(), "bye")
            except NetworkError:
                pass
        await self._abort()

    async def bye(self) -> None:
        """End the session, *requiring* the commit ack (raises on failure).

        Unlike ``close(bye=True)``, which swallows a lost ack, this is the
        strict form resilient pushers need: until the ack arrives the
        session is not durably committed and the push must be retried.
        """
        await self._guard(self._say_bye(), "bye")
        await self._abort()

    async def _say_bye(self) -> None:
        await self._channel.send_control(BYE)
        await self._expect_control(OK, re=BYE)

    async def _abort(self) -> None:
        if self._channel is not None:
            channel, self._channel = self._channel, None
            await channel.close()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def _require_channel(self) -> FrameChannel:
        if self._channel is None:
            raise NetworkError("client is not connected (use `async with` "
                               "or call connect() first)")
        return self._channel

    async def _expect_control(self, verb: str, **expected) -> Dict[str, object]:
        kind, value = await self._require_channel().next_event()
        if kind == "eof":
            raise NetworkError("server closed the connection mid-exchange")
        if kind != "control":
            raise ProtocolError(f"expected a control frame, got a {kind} frame")
        got = value.get("verb")
        if got == "error":
            raise RemoteError(str(value.get("message", "server error")),
                              code=str(value.get("code", "error")))
        if got != verb or any(value.get(field) != wanted
                              for field, wanted in expected.items()):
            raise ProtocolError(f"expected {verb!r} {expected or ''}, got {value!r}")
        return value

    async def push(self, payloads: Iterable[Pushable]) -> int:
        """Push sketch exports (envelope dicts, payloads or sketches)."""
        from ..api import wire as wire_module

        encoded: List[bytes] = []
        for payload in payloads:
            if isinstance(payload, FrequencySketch):
                payload = wire_module.encode_sketch(payload)
            encoded.append(framing.encode_payload_frame(payload))
        return await self._guard(self._push_bodies(encoded), "push")

    async def push_raw(self, frame_bodies: Iterable[bytes]) -> int:
        """Push already-encoded payload frame bodies verbatim."""
        encoded = [framing.encode_frame(body) for body in frame_bodies]
        return await self._guard(self._push_bodies(encoded), "push")

    async def push_encoded(self, frames: List[bytes]) -> int:
        """Push fully wire-encoded frames (``framing.encode_frame`` output).

        The zero-encode hot path for ``repro loadgen``: the harness encodes
        each payload once and shares the bytes across thousands of
        simulated clients instead of re-encoding per session.
        """
        return await self._guard(self._push_bodies(frames), "push")

    async def abort_mid_push(self, frame: bytes) -> None:
        """Declare a 2-frame burst, send one frame, drop the connection.

        Churn simulation for the load harness: a clean EOF from READY
        *commits* a session, so simulating a crashed client requires dying
        mid-declared-burst — the server discards the partial session
        (nothing was committed) and keeps serving everyone else.
        """
        channel = self._require_channel()
        await channel.send_control(PUSH, frames=2)
        await channel.send_bytes(frame)
        await self._abort()

    async def _push_bodies(self, encoded: List[bytes]) -> int:
        clock = self.metrics.clock
        push_start = clock()
        channel = self._require_channel()
        await channel.send_control(PUSH, frames=len(encoded))
        for frame in encoded:
            await channel.send_bytes(frame)
        ack = await self._expect_control(OK, re=PUSH, folded=len(encoded))
        self.frames_pushed += len(encoded)
        self.metrics.observe("client.push_seconds", clock() - push_start)
        self.metrics.inc("client.frames_total", len(encoded))
        self.metrics.inc("client.bytes_total",
                         sum(len(frame) for frame in encoded))
        return int(ack.get("folded", len(encoded)))

    async def push_file(self, source: Union[str, Path, Iterable[bytes]],
                        burst: int = 64, throttle: float = 0.0) -> int:
        """Push a packed (``repro pack``) file's frames, or payload frame
        bodies, past the ``self.committed`` the server already holds.

        That skip is the idempotent-resume rule.  Frames go out verbatim (no
        decode/re-encode) in PUSH bursts of at most ``burst``, so client
        memory stays at ``burst`` frames whatever the file size; ``throttle``
        sleeps that many seconds between bursts (the chaos harness uses it
        to widen crash windows).  Returns the number of frames pushed.
        """
        if isinstance(source, (str, Path)):
            with Path(source).open("rb") as fileobj:
                reader = FrameReader(fileobj, raw=True)
                declared = reader.header.k
                if self._k is not None and declared not in (None, self._k):
                    raise ProtocolError(
                        f"{source} declares k={declared} but this session "
                        f"runs at k={self._k}")
                return await self.push_file(reader, burst, throttle)
        total = 0
        batch: List[bytes] = []
        for body in itertools.islice(source, self.committed, None):
            batch.append(body)
            if len(batch) >= burst:
                total += await self.push_raw(batch)
                batch = []
                if throttle:
                    await asyncio.sleep(throttle)
        if batch:
            total += await self.push_raw(batch)
        return total

    async def request_release(self, seed: Optional[int] = None) -> PrivateHistogram:
        """Trigger the private release; returns the decoded histogram."""
        return payload_to_histogram(await self.request_release_payload(seed))

    async def request_release_payload(self,
                                      seed: Optional[int] = None) -> WirePayload:
        """Trigger the private release; returns the raw released payload.

        Relays proxy a downstream RELEASE through this form so the envelope
        they hand back is the root's released payload re-encoded bit-exactly,
        not a decode/re-encode round trip through ``PrivateHistogram``.
        """
        release_start = self.metrics.clock()
        payload = await self._guard(self._request_release(seed), "release")
        self.metrics.observe("client.release_seconds",
                             self.metrics.clock() - release_start)
        return payload

    async def _request_release(self, seed: Optional[int]) -> WirePayload:
        channel = self._require_channel()
        await channel.send_control(RELEASE,
                                   seed=int(seed) if seed is not None else None)
        kind, value = await channel.next_event()
        if kind == "eof":
            raise NetworkError("server closed the connection mid-release")
        if kind == "control":
            if value.get("verb") == "error":
                raise RemoteError(str(value.get("message", "release failed")),
                                  code=str(value.get("code", "error")))
            raise ProtocolError(f"expected the released histogram, got {value!r}")
        return value

    async def stats(self) -> Dict[str, object]:
        """The server's aggregate counters (STATS verb)."""
        return await self._guard(self._stats(), "stats")

    async def _stats(self) -> Dict[str, object]:
        channel = self._require_channel()
        await channel.send_control(STATS)
        reply = await self._expect_control(STATS)
        return {field: value for field, value in reply.items() if field != "verb"}


# ---------------------------------------------------------------------------
# Synchronous one-shot helpers (the CLI entry points)
# ---------------------------------------------------------------------------

def _run(coroutine):
    return asyncio.run(coroutine)


def transient_push_error(error: BaseException) -> bool:
    """Whether a resilient push cycle should retry after this failure.

    Transport failures heal on reconnect, and an ``ordinal_active``
    rejection means the previous connection's server-side session has not
    unwound yet — a race that heals on its own.  Any other server rejection
    (k mismatch, protocol violation) is permanent and must propagate.
    """
    if isinstance(error, RemoteError):
        return error.code == "ordinal_active"
    return isinstance(error, NetworkError)


async def push_resumable(address: Union[str, Address],
                         frames: Union[str, Path, List[bytes]], *,
                         ordinal: int, backoff: Backoff, what: str,
                         burst: int = 64, throttle: float = 0.0,
                         **client_options) -> int:
    """Push ``frames`` under ``ordinal`` until the session is committed.

    The one resumable push.  Each attempt connects with ``ordinal``, pushes
    the frames the HELLO ack does not report as committed (none when it
    says ``complete``) through :meth:`AggregatorClient.push_file` and
    requires the BYE ack; a :func:`transient_push_error` retries under
    ``backoff`` until its ``max_elapsed`` budget is spent.  So each frame
    folds once across crashes of either side and lost acks.
    ``client_options`` go to each attempt's :class:`AggregatorClient`;
    ``what`` names the push in the give-up error.  Returns the frames
    pushed by this call (0 when the session had already completed).
    """
    total = 0

    async def _attempt() -> int:
        nonlocal total
        client = AggregatorClient(address, ordinal=ordinal, **client_options)
        try:
            await client.connect()
            if not client.session_complete:
                total += await client.push_file(frames, burst=burst,
                                                throttle=throttle)
                await client.bye()
            return total
        finally:
            await client.close(bye=False)

    def _give_up(last, attempts, policy) -> NetworkError:
        return NetworkError(
            f"{what} not committed within its retry budget "
            f"({attempts} attempt(s), {policy.elapsed:.1f}s): {last}")

    return await retry_async(_attempt, backoff=backoff,
                             retryable=transient_push_error, give_up=_give_up)


def push_file_resilient(address: Union[str, Address],
                        source: Union[str, Path], *,
                        ordinal: int, k: Optional[int] = None,
                        client_name: Optional[str] = None,
                        auth_token: Optional[str] = None,
                        timeout: float = 30.0, connect_retries: int = 5,
                        retry_delay: float = 0.2, retry_jitter: float = 0.5,
                        max_elapsed: float = 60.0, burst: int = 64,
                        throttle: float = 0.0) -> int:
    """Push one packed file until it is committed, surviving crashes.

    The synchronous form of :func:`push_resumable` (``repro push
    --resume``): jittered backoff from ``retry_delay`` under a
    ``max_elapsed`` budget.  The ordinal is mandatory: it is the identity
    the server answers a reconnect by.
    """
    backoff = Backoff(base=retry_delay, jitter=retry_jitter,
                      max_elapsed=max_elapsed)
    return _run(push_resumable(
        address, source, ordinal=ordinal, backoff=backoff,
        what=f"push of {source}", burst=burst, throttle=throttle, k=k,
        client_name=client_name, auth_token=auth_token, timeout=timeout,
        connect_retries=connect_retries, retry_delay=retry_delay,
        retry_jitter=retry_jitter))


def request_release(address: Union[str, Address], *, seed: Optional[int] = None,
                    auth_token: Optional[str] = None, timeout: float = 30.0,
                    connect_retries: int = 5) -> PrivateHistogram:
    """Connect, trigger a release, return the decoded private histogram."""
    async def _release() -> PrivateHistogram:
        async with AggregatorClient(address, auth_token=auth_token,
                                    timeout=timeout,
                                    connect_retries=connect_retries) as client:
            return await client.request_release(seed=seed)
    return _run(_release())


def fetch_stats(address: Union[str, Address], *, auth_token: Optional[str] = None,
                timeout: float = 30.0,
                connect_retries: int = 5) -> Dict[str, object]:
    """Connect and fetch the server's aggregate counters."""
    async def _stats() -> Dict[str, object]:
        async with AggregatorClient(address, auth_token=auth_token,
                                    timeout=timeout,
                                    connect_retries=connect_retries) as client:
            return await client.stats()
    return _run(_stats())
