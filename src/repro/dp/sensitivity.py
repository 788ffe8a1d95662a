"""Sensitivity tooling for sketches over neighbouring streams.

The paper's analysis is all about the structure of the difference between the
sketches computed on neighbouring streams (Lemma 8, Lemma 16, Lemma 17,
Lemma 25, Lemma 27).  This module provides:

* distance functions between sketch outputs viewed as sparse vectors;
* generation of all (or a sample of) neighbouring streams obtained by
  deleting one element / one user from a stream;
* empirical sensitivity estimation for an arbitrary "stream -> dict" function,
  used both in tests and in the sensitivity benchmarks (experiment E4).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from ..exceptions import ParameterError
from .rng import RandomState, ensure_rng

SketchOutput = Mapping[Hashable, float]
SketchFunction = Callable[[Sequence], Dict[Hashable, float]]


@dataclass(frozen=True)
class NeighbouringPair:
    """A pair of neighbouring streams together with the deletion index."""

    stream: tuple
    neighbour: tuple
    removed_index: int

    @property
    def removed_element(self):
        """The element (or user set) present in ``stream`` but not ``neighbour``."""
        return self.stream[self.removed_index]


def counter_difference(first: SketchOutput, second: SketchOutput) -> Dict[Hashable, float]:
    """Sparse difference ``first - second`` over the union of keys.

    Keys missing from a sketch implicitly have value 0 (as in the paper).
    Only keys where the difference is non-zero are returned.
    """
    keys = set(first) | set(second)
    diff = {}
    for key in keys:
        delta = float(first.get(key, 0.0)) - float(second.get(key, 0.0))
        if delta != 0.0:
            diff[key] = delta
    return diff


def l1_distance(first: SketchOutput, second: SketchOutput) -> float:
    """l1 distance between two sparse sketch outputs."""
    return float(sum(abs(v) for v in counter_difference(first, second).values()))


def l2_distance(first: SketchOutput, second: SketchOutput) -> float:
    """l2 distance between two sparse sketch outputs."""
    return math.sqrt(sum(v * v for v in counter_difference(first, second).values()))


def linf_distance(first: SketchOutput, second: SketchOutput) -> float:
    """l-infinity distance between two sparse sketch outputs."""
    diff = counter_difference(first, second)
    if not diff:
        return 0.0
    return float(max(abs(v) for v in diff.values()))


def sketch_distance(first: SketchOutput, second: SketchOutput, order: float) -> float:
    """lp distance between sketch outputs for ``order`` in {1, 2, inf}."""
    if order == 1:
        return l1_distance(first, second)
    if order == 2:
        return l2_distance(first, second)
    if order == math.inf:
        return linf_distance(first, second)
    raise ParameterError(f"order must be 1, 2 or inf, got {order!r}")


def neighbouring_streams_by_deletion(stream: Sequence,
                                     max_pairs: Optional[int] = None,
                                     rng: RandomState = None) -> Iterator[NeighbouringPair]:
    """Yield neighbouring streams obtained by deleting a single position.

    With ``max_pairs`` set, a random subset of deletion positions is sampled
    (without replacement) instead of enumerating all ``len(stream)``
    neighbours; this keeps empirical sensitivity estimation tractable on long
    streams.
    """
    items = tuple(stream)
    n = len(items)
    if n == 0:
        return
    positions: Iterable[int]
    if max_pairs is None or max_pairs >= n:
        positions = range(n)
    else:
        generator = ensure_rng(rng)
        positions = sorted(generator.choice(n, size=max_pairs, replace=False).tolist())
    for index in positions:
        neighbour = items[:index] + items[index + 1:]
        yield NeighbouringPair(stream=items, neighbour=neighbour, removed_index=index)


@dataclass
class SensitivityReport:
    """Summary of an empirical sensitivity sweep over neighbouring streams."""

    max_l1: float
    max_l2: float
    max_linf: float
    max_differing_keys: int
    pairs_checked: int

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for reporting code."""
        return {
            "max_l1": self.max_l1,
            "max_l2": self.max_l2,
            "max_linf": self.max_linf,
            "max_differing_keys": float(self.max_differing_keys),
            "pairs_checked": float(self.pairs_checked),
        }


def empirical_sensitivity(sketch_fn: SketchFunction, streams: Iterable[Sequence],
                          max_pairs_per_stream: Optional[int] = None,
                          rng: RandomState = None) -> SensitivityReport:
    """Estimate the sensitivity of ``sketch_fn`` over deletion neighbours.

    ``sketch_fn`` maps a stream to a dict of counters.  For each provided
    stream every (or a sampled subset of) deletion neighbour is evaluated and
    the maximum l1 / l2 / l-infinity distances and number of differing keys
    are recorded.  This is a lower bound on the true global sensitivity, which
    is how it is used in the benchmarks: the paper's lemmas give matching
    upper bounds.
    """
    generator = ensure_rng(rng)
    max_l1 = 0.0
    max_l2 = 0.0
    max_linf = 0.0
    max_keys = 0
    pairs = 0
    for stream in streams:
        base = sketch_fn(list(stream))
        for pair in neighbouring_streams_by_deletion(stream, max_pairs_per_stream, generator):
            other = sketch_fn(list(pair.neighbour))
            diff = counter_difference(base, other)
            if diff:
                l1 = sum(abs(v) for v in diff.values())
                l2 = math.sqrt(sum(v * v for v in diff.values()))
                linf = max(abs(v) for v in diff.values())
                max_l1 = max(max_l1, l1)
                max_l2 = max(max_l2, l2)
                max_linf = max(max_linf, linf)
                max_keys = max(max_keys, len(diff))
            pairs += 1
    return SensitivityReport(max_l1=max_l1, max_l2=max_l2, max_linf=max_linf,
                             max_differing_keys=max_keys, pairs_checked=pairs)


def all_streams(universe: Sequence[Hashable], length: int) -> Iterator[tuple]:
    """Enumerate every stream of a given length over a small universe.

    Only intended for exhaustive sensitivity checks on tiny instances
    (universe and length of a handful of elements); the number of streams is
    ``len(universe) ** length``.
    """
    if length < 0:
        raise ParameterError(f"length must be non-negative, got {length}")
    return itertools.product(universe, repeat=length)
