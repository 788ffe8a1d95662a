"""Random stream generators over an integer universe ``[0, d)``.

By default all generators return Python lists of ints so they can be fed
directly to any sketch, stored with :mod:`repro.streams.io` and sliced for
distributed merging; the lists are produced with ``ndarray.tolist()`` (a
single C call) rather than a per-element ``int(x)`` loop.  The random
generators also accept ``as_array=True`` to return the raw integer ndarray,
which feeds :meth:`repro.sketches.MisraGriesSketch.update_batch` with zero
copies.  Every generator takes an ``rng`` seed/generator for reproducibility.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .._validation import check_non_negative_int, check_positive_float, check_positive_int
from ..dp.rng import RandomState, ensure_rng


def zipf_stream(n: int, universe_size: int, exponent: float = 1.1,
                rng: RandomState = None, as_array: bool = False):
    """A stream of ``n`` elements with Zipf-distributed frequencies.

    Element ``i`` of the universe is drawn with probability proportional to
    ``1 / (i + 1) ** exponent``; low-numbered elements are the heavy hitters.
    This is the standard workload for evaluating heavy-hitter sketches.

    Parameters
    ----------
    n:
        Stream length.
    universe_size:
        Size ``d`` of the universe; the stream contains ints in ``[0, d)``.
    exponent:
        Skew parameter ``s > 0``; larger means more skewed.
    rng:
        Seed or generator.
    as_array:
        Return the integer ndarray instead of a list (batch-update ready).
    """
    length = check_non_negative_int(n, "n")
    d = check_positive_int(universe_size, "universe_size")
    s = check_positive_float(exponent, "exponent")
    generator = ensure_rng(rng)
    if length == 0:
        return np.empty(0, dtype=np.int64) if as_array else []
    weights = 1.0 / np.power(np.arange(1, d + 1, dtype=float), s)
    probabilities = weights / weights.sum()
    samples = generator.choice(d, size=length, p=probabilities)
    return samples if as_array else samples.tolist()


def uniform_stream(n: int, universe_size: int, rng: RandomState = None,
                   as_array: bool = False):
    """A stream of ``n`` elements drawn uniformly from ``[0, universe_size)``."""
    length = check_non_negative_int(n, "n")
    d = check_positive_int(universe_size, "universe_size")
    generator = ensure_rng(rng)
    if length == 0:
        return np.empty(0, dtype=np.int64) if as_array else []
    samples = generator.integers(0, d, size=length)
    return samples if as_array else samples.tolist()


def constant_stream(n: int, element: int = 0) -> List[int]:
    """A stream consisting of ``n`` copies of a single element."""
    length = check_non_negative_int(n, "n")
    return [int(element)] * length


def shuffled_exact_frequencies(frequencies: dict, rng: RandomState = None) -> List[int]:
    """A stream realizing exactly the given ``{element: count}`` frequencies.

    The elements are shuffled so that the stream order carries no signal; the
    exact counts make it easy to verify error bounds deterministically.
    """
    generator = ensure_rng(rng)
    stream: List[int] = []
    for element, count in frequencies.items():
        checked = check_non_negative_int(int(count), "count")
        stream.extend([element] * checked)
    generator.shuffle(stream)
    return stream


def planted_heavy_hitters_stream(n: int, universe_size: int, num_heavy: int,
                                 heavy_fraction: float = 0.5,
                                 rng: RandomState = None,
                                 as_array: bool = False):
    """A stream where ``num_heavy`` planted elements share ``heavy_fraction`` of the mass.

    The remaining mass is spread uniformly over the rest of the universe.
    Useful for heavy-hitter precision/recall experiments where the ground
    truth set is known by construction.
    """
    length = check_non_negative_int(n, "n")
    d = check_positive_int(universe_size, "universe_size")
    h = check_positive_int(num_heavy, "num_heavy")
    if h >= d:
        raise ValueError("num_heavy must be smaller than universe_size")
    if not (0 < heavy_fraction < 1):
        raise ValueError(f"heavy_fraction must be in (0,1), got {heavy_fraction}")
    generator = ensure_rng(rng)
    if length == 0:
        return np.empty(0, dtype=np.int64) if as_array else []
    probabilities = np.full(d, (1.0 - heavy_fraction) / (d - h))
    probabilities[:h] = heavy_fraction / h
    probabilities = probabilities / probabilities.sum()
    samples = generator.choice(d, size=length, p=probabilities)
    return samples if as_array else samples.tolist()
