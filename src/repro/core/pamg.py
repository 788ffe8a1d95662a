"""Algorithm 4: the Privacy-Aware Misra-Gries sketch (PAMG) for user-level DP.

In the user-level setting each stream item is a *set* of up to ``m`` distinct
elements contributed by one user.  Flattening the stream and running ordinary
Misra-Gries makes a single counter differ by up to ``m`` between neighbouring
streams (Lemma 25), so any private release of the MG sketch must add noise
scaling with ``m``.

PAMG avoids this by processing one user at a time: every element of the user's
set is incremented (adding keys as needed, so the sketch can temporarily grow
to ``k + m`` counters) and then, if more than ``k`` keys are stored, *all*
counters are decremented once and zero counters dropped.  Decrementing at most
once per user keeps neighbouring sketches within 1 of each other in every
counter (Lemma 27) — the structure the Gaussian Sparse Histogram Mechanism
needs — while the estimation error stays ``N/(k+1)`` (Lemma 26) where ``N`` is
the total number of elements.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Set

from .._validation import check_positive_int
from ..exceptions import StreamFormatError
from ..sketches.base import FrequencySketch


class PrivacyAwareMisraGries(FrequencySketch):
    """The PAMG sketch of Algorithm 4.

    Parameters
    ----------
    k:
        Nominal sketch size.  At most ``k`` counters remain after each user is
        processed (the sketch can hold up to ``k + m`` counters transiently).
    max_contribution:
        Optional declared bound ``m`` on the number of distinct elements per
        user; when set, users exceeding it (or contributing duplicates) raise
        :class:`StreamFormatError`.

    Examples
    --------
    >>> sketch = PrivacyAwareMisraGries(4)
    >>> sketch.process_user({1, 2})
    >>> sketch.process_user({1, 3})
    >>> sketch.estimate(1)
    2.0
    """

    def __init__(self, k: int, max_contribution: int = None) -> None:
        self._k = check_positive_int(k, "k")
        self._max_contribution = (check_positive_int(max_contribution, "max_contribution")
                                  if max_contribution is not None else None)
        self._counters: Dict[Hashable, float] = {}
        self._users_processed = 0
        self._total_elements = 0
        self._decrement_rounds = 0

    # ------------------------------------------------------------------
    # Stream processing
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """The nominal sketch size ``k``."""
        return self._k

    @property
    def stream_length(self) -> int:
        """Number of users processed (stream items, not elements)."""
        return self._users_processed

    @property
    def total_elements(self) -> int:
        """Total number of elements ``N`` across all processed users."""
        return self._total_elements

    @property
    def decrement_rounds(self) -> int:
        """How many times the decrement step has fired (at most once per user)."""
        return self._decrement_rounds

    def process_user(self, elements: Iterable[Hashable]) -> None:
        """Process one user's set of distinct elements."""
        items = list(elements)
        distinct = set(items)
        if len(distinct) != len(items):
            raise StreamFormatError("a user's contribution must consist of distinct elements")
        if self._max_contribution is not None and len(items) > self._max_contribution:
            raise StreamFormatError(
                f"user contributes {len(items)} elements, more than m={self._max_contribution}")
        self._users_processed += 1
        self._total_elements += len(items)
        for element in items:
            if element in self._counters:
                self._counters[element] += 1.0
            else:
                self._counters[element] = 1.0
        if len(self._counters) > self._k:
            self._decrement_rounds += 1
            exhausted: List[Hashable] = []
            for key in self._counters:
                self._counters[key] -= 1.0
                if self._counters[key] <= 0.0:
                    exhausted.append(key)
            for key in exhausted:
                del self._counters[key]

    def update(self, element: Hashable) -> None:
        """Process a single-element user (element-level compatibility shim)."""
        self.process_user([element])

    def process_stream(self, stream: Iterable[Iterable[Hashable]]) -> "PrivacyAwareMisraGries":
        """Process an entire user-level stream; returns ``self`` for chaining."""
        for user in stream:
            self.process_user(user)
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def estimate(self, element: Hashable) -> float:
        """Estimated frequency (number of users containing ``element``)."""
        return float(self._counters.get(element, 0.0))

    def counters(self) -> Dict[Hashable, float]:
        """Stored key/counter pairs (all strictly positive after each user)."""
        return dict(self._counters)

    def stored_keys(self) -> Set[Hashable]:
        """Currently stored keys."""
        return set(self._counters.keys())

    def error_bound(self) -> float:
        """Worst-case underestimation ``N / (k + 1)`` (Lemma 26)."""
        return self._total_elements / (self._k + 1)

    @classmethod
    def from_stream(cls, k: int, stream: Iterable[Iterable[Hashable]],
                    max_contribution: int = None) -> "PrivacyAwareMisraGries":
        """Build a PAMG sketch from a user-level stream."""
        sketch = cls(k, max_contribution=max_contribution)
        sketch.process_stream(stream)
        return sketch

    def __repr__(self) -> str:
        return (f"PrivacyAwareMisraGries(k={self._k}, stored={len(self._counters)}, "
                f"users={self._users_processed}, N={self._total_elements})")
