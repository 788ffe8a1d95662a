"""Common interface for streaming frequency sketches.

Every sketch in :mod:`repro.sketches` processes a stream of hashable elements
one at a time (``update``), can estimate the frequency of any element
(``estimate``) and can report its stored key/counter pairs (``counters``).
The private mechanisms in :mod:`repro.core` consume sketches only through
this interface, which keeps them decoupled from the particular sketch
implementation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Tuple


@dataclass(frozen=True)
class SketchSummary:
    """Immutable snapshot of a sketch: stored keys with their counters.

    ``counters`` maps stored keys to (non-negative) counts.  Elements absent
    from the mapping implicitly have count 0, mirroring the convention used
    throughout the paper.  ``stream_length`` records how many elements the
    sketch has processed, which the error bounds depend on.
    """

    counters: Dict[Hashable, float]
    stream_length: int = 0
    capacity: int = 0

    def estimate(self, element: Hashable) -> float:
        """Estimated frequency of ``element`` (0 when not stored)."""
        return float(self.counters.get(element, 0.0))

    def keys(self) -> List[Hashable]:
        """Stored keys (order unspecified)."""
        return list(self.counters.keys())

    def items(self) -> List[Tuple[Hashable, float]]:
        """Stored (key, counter) pairs."""
        return list(self.counters.items())

    def top(self, count: int) -> List[Tuple[Hashable, float]]:
        """The ``count`` stored keys with the largest counters, sorted descending."""
        ranked = sorted(self.counters.items(), key=lambda kv: (-kv[1], repr(kv[0])))
        return ranked[:count]

    def total(self) -> float:
        """Sum of all stored counters."""
        return float(sum(self.counters.values()))

    def __len__(self) -> int:
        return len(self.counters)


class FrequencySketch(ABC):
    """Abstract base class for streaming frequency estimators."""

    @abstractmethod
    def update(self, element: Hashable) -> None:
        """Process one element of the stream."""

    def update_all(self, stream: Iterable[Hashable]) -> "FrequencySketch":
        """Process an entire iterable of elements; returns ``self`` for chaining.

        Sketches exposing an ``update_batch`` method (currently
        :class:`~repro.sketches.misra_gries.MisraGriesSketch`) receive integer
        ndarrays — and lists/tuples of ints, coerced via
        :func:`repro._batching.as_int_array` — through the vectorized path,
        which is bit-identical to the element-by-element loop.
        """
        update_batch = getattr(self, "update_batch", None)
        if update_batch is not None:
            from .._batching import as_int_array

            batch = as_int_array(stream)
            if batch is not None:
                update_batch(batch)
                return self
        for element in stream:
            self.update(element)
        return self

    @abstractmethod
    def estimate(self, element: Hashable) -> float:
        """Estimated frequency of ``element``."""

    @abstractmethod
    def counters(self) -> Dict[Hashable, float]:
        """The stored key/counter pairs as a plain dict (copies internal state)."""

    @property
    @abstractmethod
    def stream_length(self) -> int:
        """Number of elements processed so far."""

    def summary(self) -> SketchSummary:
        """A :class:`SketchSummary` snapshot of the sketch."""
        return SketchSummary(counters=self.counters(),
                             stream_length=self.stream_length,
                             capacity=getattr(self, "size", 0))

    def heavy_hitters(self, threshold: float) -> Dict[Hashable, float]:
        """Stored elements whose estimated frequency is at least ``threshold``."""
        return {key: value for key, value in self.counters().items() if value >= threshold}

    def __iter__(self) -> Iterator[Tuple[Hashable, float]]:
        return iter(self.counters().items())
