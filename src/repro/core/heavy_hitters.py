"""Heavy-hitter queries on top of the private histogram releases.

A phi-heavy hitter is an element whose true frequency is at least
``phi * n``.  Given any :class:`~repro.core.results.PrivateHistogram` the
heavy hitters are simply the released keys whose noisy count clears the
(adjusted) threshold; all the privacy has already been paid by the release,
so these queries are free post-processing.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .._validation import check_positive_int, check_probability
from ..dp.rng import RandomState
from ..sketches.exact import ExactCounter
from ..sketches.misra_gries import MisraGriesSketch
from .private_misra_gries import PrivateMisraGries
from .results import PrivateHistogram


def true_heavy_hitters(stream: Iterable[Hashable], phi: float) -> Dict[Hashable, float]:
    """The exact phi-heavy hitters of a stream (ground truth for experiments)."""
    fraction = check_probability(phi, "phi")
    counter = ExactCounter.from_stream(stream)
    cutoff = fraction * counter.stream_length
    return {key: value for key, value in counter.counters().items() if value >= cutoff}


def heavy_hitters_from_histogram(histogram: PrivateHistogram, phi: float,
                                 stream_length: Optional[int] = None,
                                 slack: float = 0.0) -> Dict[Hashable, float]:
    """phi-heavy hitters according to a private histogram.

    Parameters
    ----------
    histogram:
        Any private release from this library.
    phi:
        Heavy-hitter fraction.
    stream_length:
        The stream length ``n``; defaults to the length recorded in the
        release metadata.
    slack:
        Optional amount subtracted from the cutoff ``phi * n``.  Because both
        the Misra-Gries sketch and the thresholding only ever *underestimate*,
        setting ``slack`` to the release's error bound trades false positives
        for recall.
    """
    fraction = check_probability(phi, "phi")
    length = stream_length if stream_length is not None else histogram.metadata.stream_length
    cutoff = max(fraction * length - slack, 0.0)
    return {key: value for key, value in histogram.items() if value >= cutoff}


def private_heavy_hitters(stream: Sequence[Hashable], k: int, epsilon: float, delta: float,
                          phi: float, rng: RandomState = None,
                          use_error_slack: bool = True) -> Dict[Hashable, float]:
    """End-to-end private phi-heavy hitters via Algorithm 2.

    Builds a paper-variant Misra-Gries sketch of size ``k``, releases it with
    :class:`PrivateMisraGries` and returns the released elements whose noisy
    count clears ``phi * n`` (minus the mechanism's high-probability error
    when ``use_error_slack`` is set, which improves recall at the cost of
    some precision).
    """
    size = check_positive_int(k, "k")
    mechanism = PrivateMisraGries(epsilon=epsilon, delta=delta)
    sketch = MisraGriesSketch.from_stream(size, stream)
    histogram = mechanism.release(sketch, rng=rng)
    slack = mechanism.error_bound_vs_truth(size, sketch.stream_length) if use_error_slack else 0.0
    return heavy_hitters_from_histogram(histogram, phi, stream_length=sketch.stream_length,
                                        slack=slack)


def rank_released(histogram: PrivateHistogram) -> List[Tuple[Hashable, float]]:
    """Released keys sorted by noisy count, largest first."""
    return sorted(histogram.items(), key=lambda kv: (-kv[1], repr(kv[0])))
