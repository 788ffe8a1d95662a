"""Jittered exponential backoff with a max-elapsed retry budget.

Used by :class:`~repro.net.client.AggregatorClient` for connect retries and
by :func:`~repro.net.client.push_resumable` for whole-push retries.
Jitter decorrelates a fleet of clients hammering a restarting aggregator;
the max-elapsed cap turns "retry forever" into a bounded budget so a dead
server fails the push instead of wedging it.

The clock and the random source are injectable, so the policy is unit-
testable with a fake clock — no real sleeps in the tests.
"""

from __future__ import annotations

import asyncio
import random as _random
import time
from typing import Awaitable, Callable, Optional, Tuple, Type, Union

from ..exceptions import ParameterError

__all__ = ["Backoff", "retry_async"]


class Backoff:
    """Delay policy: ``base * factor**attempt`` capped, jittered, budgeted.

    :meth:`next_delay` returns the next sleep in seconds, or ``None`` once
    the ``max_elapsed`` budget (measured from construction on ``clock``) is
    spent — the caller should then give up.  The delay is never allowed to
    overshoot the remaining budget, so a capped retry loop wakes up for its
    last attempt while the budget is still live.

    Jitter multiplies the raw delay by ``1 + jitter * U`` with ``U`` drawn
    from ``rng()`` in ``[0, 1)`` — delays only ever stretch, so ``base`` is
    a floor and tests can bound both sides.
    """

    def __init__(self, base: float = 0.2, factor: float = 2.0,
                 max_delay: float = 5.0, jitter: float = 0.5,
                 max_elapsed: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic,
                 rng: Callable[[], float] = _random.random) -> None:
        if base <= 0:
            raise ParameterError(f"base delay must be positive, got {base!r}")
        if factor < 1.0:
            raise ParameterError(f"factor must be >= 1, got {factor!r}")
        if max_delay < base:
            raise ParameterError(
                f"max_delay {max_delay!r} must be >= base {base!r}")
        if jitter < 0:
            raise ParameterError(f"jitter must be >= 0, got {jitter!r}")
        if max_elapsed is not None and max_elapsed <= 0:
            raise ParameterError(
                f"max_elapsed must be positive seconds or None, got {max_elapsed!r}")
        self._base = base
        self._factor = factor
        self._max_delay = max_delay
        self._jitter = jitter
        self._max_elapsed = max_elapsed
        self._clock = clock
        self._rng = rng
        self._started = clock()
        self._attempt = 0
        self._last_delay: Optional[float] = None

    @property
    def attempts(self) -> int:
        """How many delays have been handed out."""
        return self._attempt

    @property
    def last_delay(self) -> Optional[float]:
        """The most recent delay handed out, or ``None`` before the first."""
        return self._last_delay

    @property
    def elapsed(self) -> float:
        """Seconds since this policy started, on the injected clock."""
        return self._clock() - self._started

    def next_delay(self) -> Optional[float]:
        """The next sleep in seconds, or ``None`` when the budget is spent."""
        if self._max_elapsed is not None:
            remaining = self._max_elapsed - self.elapsed
            if remaining <= 0:
                return None
        delay = min(self._max_delay, self._base * self._factor ** self._attempt)
        delay *= 1.0 + self._jitter * self._rng()
        self._attempt += 1
        if self._max_elapsed is not None:
            delay = min(delay, remaining)
        self._last_delay = delay
        return delay


Retryable = Union[Tuple[Type[BaseException], ...],
                  Callable[[BaseException], bool]]


async def retry_async(attempt: Callable[[], Awaitable],
                      *, backoff: Backoff,
                      retryable: Retryable,
                      max_attempts: Optional[int] = None,
                      give_up: Callable[[Optional[BaseException], int, Backoff],
                                        BaseException],
                      sleep: Callable[[float], Awaitable] = asyncio.sleep) -> object:
    """Run ``attempt`` until it succeeds, retrying transient failures.

    This is the one retry loop of the net tier: ``AggregatorClient.connect``
    and :func:`~repro.net.client.push_resumable` (``repro push --resume``
    and the relay's upstream forwards) drive it with their own ``backoff``
    policy.  ``retryable``
    classifies an exception as transient — either a tuple of exception types
    or a predicate; anything else propagates immediately.  The loop gives up
    when ``max_attempts`` attempts have failed or when the backoff's
    ``max_elapsed`` budget is spent (no sleep is taken after the final
    attempt), raising whatever ``give_up(last_error, attempts, backoff)``
    builds.  ``sleep`` is injectable so the fake-clock suite runs with zero
    real sleeps.
    """
    attempts = 0
    last: Optional[BaseException] = None
    while True:
        attempts += 1
        try:
            return await attempt()
        except BaseException as error:
            transient = (isinstance(error, retryable)
                         if isinstance(retryable, tuple) else retryable(error))
            if not transient:
                raise
            last = error
        if max_attempts is not None and attempts >= max_attempts:
            break
        delay = backoff.next_delay()
        if delay is None:
            break  # max-elapsed retry budget exhausted
        await sleep(delay)
    raise give_up(last, attempts, backoff) from None
