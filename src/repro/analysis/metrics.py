"""Error metrics for comparing released histograms with ground truth.

All metrics take the estimate source either as a plain mapping or as anything
exposing ``estimate`` (sketches and :class:`~repro.core.results.PrivateHistogram`
both do), and the ground truth as a mapping of exact frequencies.  The error
for an element absent from the estimates is its full true frequency, matching
the paper's "maximum error among all elements of the universe" convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Mapping, Optional, Set, Union

import numpy as np

EstimateSource = Union[Mapping[Hashable, float], object]


def _estimate(source: EstimateSource, element: Hashable) -> float:
    if hasattr(source, "estimate"):
        return float(source.estimate(element))
    return float(source.get(element, 0.0))


def _keys(source: EstimateSource) -> Set[Hashable]:
    if hasattr(source, "counts"):
        return set(source.counts.keys())
    if hasattr(source, "counters"):
        return set(source.counters().keys())
    return set(source.keys())


def _error_values(estimates: EstimateSource, truth: Mapping[Hashable, float],
                  universe: Optional[Iterable[Hashable]] = None) -> np.ndarray:
    keys = set(universe) if universe is not None else set(truth) | _keys(estimates)
    if not keys:
        return np.zeros(0)
    return np.array([_estimate(estimates, key) - float(truth.get(key, 0.0)) for key in keys])


def max_error(estimates: EstimateSource, truth: Mapping[Hashable, float],
              universe: Optional[Iterable[Hashable]] = None) -> float:
    """Maximum absolute estimation error over the universe."""
    errors = _error_values(estimates, truth, universe)
    return float(np.max(np.abs(errors))) if errors.size else 0.0


def mean_absolute_error(estimates: EstimateSource, truth: Mapping[Hashable, float],
                        universe: Optional[Iterable[Hashable]] = None) -> float:
    """Mean absolute estimation error over the universe."""
    errors = _error_values(estimates, truth, universe)
    return float(np.mean(np.abs(errors))) if errors.size else 0.0


def mean_squared_error(estimates: EstimateSource, truth: Mapping[Hashable, float],
                       universe: Optional[Iterable[Hashable]] = None) -> float:
    """Mean squared estimation error over the universe."""
    errors = _error_values(estimates, truth, universe)
    return float(np.mean(errors ** 2)) if errors.size else 0.0


@dataclass(frozen=True)
class ErrorSummary:
    """Summary statistics of the estimation error of one release."""

    max_error: float
    mean_absolute_error: float
    mean_squared_error: float
    released_keys: int

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for reporting code."""
        return {
            "max_error": self.max_error,
            "mean_absolute_error": self.mean_absolute_error,
            "mean_squared_error": self.mean_squared_error,
            "released_keys": float(self.released_keys),
        }


def summarize_errors(estimates: EstimateSource, truth: Mapping[Hashable, float],
                     universe: Optional[Iterable[Hashable]] = None) -> ErrorSummary:
    """Compute all error statistics at once."""
    errors = _error_values(estimates, truth, universe)
    if errors.size == 0:
        return ErrorSummary(0.0, 0.0, 0.0, 0)
    return ErrorSummary(
        max_error=float(np.max(np.abs(errors))),
        mean_absolute_error=float(np.mean(np.abs(errors))),
        mean_squared_error=float(np.mean(errors ** 2)),
        released_keys=len(_keys(estimates)),
    )


def heavy_hitter_scores(predicted: Iterable[Hashable], actual: Iterable[Hashable]) -> Dict[str, float]:
    """Precision, recall and F1 of a predicted heavy-hitter set.

    ``actual`` is the ground-truth heavy-hitter set (e.g. from
    :func:`repro.core.heavy_hitters.true_heavy_hitters`).  An empty actual set
    with an empty prediction scores 1.0 across the board.
    """
    predicted_set = set(predicted)
    actual_set = set(actual)
    if not predicted_set and not actual_set:
        return {"precision": 1.0, "recall": 1.0, "f1": 1.0}
    true_positives = len(predicted_set & actual_set)
    precision = true_positives / len(predicted_set) if predicted_set else 0.0
    recall = true_positives / len(actual_set) if actual_set else 0.0
    if precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return {"precision": precision, "recall": recall, "f1": f1}
