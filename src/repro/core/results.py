"""Result types returned by the private release mechanisms.

Every mechanism in :mod:`repro.core` and :mod:`repro.baselines` returns a
:class:`PrivateHistogram`: an immutable mapping from released keys to noisy
counts, together with the privacy parameters and release metadata needed to
interpret it (threshold used, noise scale, sketch size, stream length).  A
``PrivateHistogram`` acts as a frequency oracle (``estimate``) and supports
heavy-hitter queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class ReleaseMetadata:
    """Descriptive metadata attached to a private release."""

    mechanism: str
    epsilon: float
    delta: float
    noise_scale: float
    threshold: float
    sketch_size: int
    stream_length: int
    notes: str = ""

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view (useful for logging and report tables)."""
        return {
            "mechanism": self.mechanism,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "noise_scale": self.noise_scale,
            "threshold": self.threshold,
            "sketch_size": self.sketch_size,
            "stream_length": self.stream_length,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class PrivateHistogram:
    """A differentially private approximate histogram.

    ``counts`` maps released keys to their noisy counts.  Keys not present
    have an implicit estimate of 0 — exactly the semantics of the paper's
    output ``(T̃, c̃)``.
    """

    counts: Dict[Hashable, float]
    metadata: ReleaseMetadata

    # ------------------------------------------------------------------
    # Frequency-oracle interface
    # ------------------------------------------------------------------

    def estimate(self, element: Hashable) -> float:
        """Noisy frequency estimate for ``element`` (0 if not released)."""
        return float(self.counts.get(element, 0.0))

    def __contains__(self, element: Hashable) -> bool:
        return element in self.counts

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.counts)

    def keys(self) -> List[Hashable]:
        """Released keys."""
        return list(self.counts.keys())

    def items(self) -> List[Tuple[Hashable, float]]:
        """Released (key, noisy count) pairs."""
        return list(self.counts.items())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def top(self, count: int) -> List[Tuple[Hashable, float]]:
        """The ``count`` released keys with the largest noisy counts."""
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], repr(kv[0])))
        return ranked[:count]

    def heavy_hitters(self, threshold: float) -> Dict[Hashable, float]:
        """Released keys whose noisy count is at least ``threshold``."""
        return {key: value for key, value in self.counts.items() if value >= threshold}

    def max_error_against(self, truth: Mapping[Hashable, float],
                          universe: Optional[List[Hashable]] = None) -> float:
        """Maximum absolute estimation error against exact frequencies.

        The maximum runs over the union of released keys and the keys of
        ``truth`` (or over ``universe`` if given), so elements that were
        dropped by the sketch/thresholding contribute their full frequency as
        error — the same convention as the paper's error statements.
        """
        keys = set(universe) if universe is not None else set(truth) | set(self.counts)
        if not keys:
            return 0.0
        return max(abs(self.estimate(key) - float(truth.get(key, 0.0))) for key in keys)

    def as_dict(self) -> Dict[Hashable, float]:
        """A plain-dict copy of the released counts."""
        return dict(self.counts)

    def __repr__(self) -> str:
        return (f"PrivateHistogram(mechanism={self.metadata.mechanism!r}, "
                f"released={len(self.counts)}, epsilon={self.metadata.epsilon}, "
                f"delta={self.metadata.delta})")
