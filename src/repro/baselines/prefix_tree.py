"""Prefix-tree heavy hitters from a private frequency oracle.

Section 4 of the paper discusses the alternative route to private heavy
hitters: keep a private frequency oracle (e.g. a noisy CountMin sketch) and
*search* for the heavy elements instead of iterating over the whole universe.
The standard search structure is a binary prefix tree over the universe
``[0, d)``: level ``j`` holds the frequencies of dyadic intervals of length
``d / 2^j``, and the search expands only intervals whose noisy count clears
the threshold, so it touches ``O(k log d)`` nodes instead of ``d``.

The cost is that every stream element now contributes to ``log2(d)`` levels,
so the privacy budget is split across levels and the per-level noise picks up
a ``log d`` factor — the reason the paper's direct Misra-Gries release has
asymptotically better error (``O(log(1/delta))`` vs ``O(log k . log d)``
noise, in the respective regimes).  The class below makes that trade-off
measurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Sequence

import numpy as np

from .._validation import check_delta, check_epsilon, check_positive_int
from ..dp.distributions import sample_gaussian, sample_laplace
from ..dp.rng import RandomState, ensure_rng
from ..exceptions import ParameterError
from ..sketches.count_min import CountMinSketch
from ..core.results import PrivateHistogram, ReleaseMetadata


@dataclass(frozen=True)
class PrefixTreeHeavyHitters:
    """Heavy hitters via a hierarchy of private CountMin oracles.

    Parameters
    ----------
    epsilon, delta:
        Overall privacy budget; it is split evenly across the tree levels by
        basic composition (``delta = 0`` selects Laplace noise, otherwise
        Gaussian).
    universe_size:
        Size ``d`` of the integer universe ``[0, d)``.
    width, depth:
        Dimensions of the CountMin sketch kept at every level.
    branching:
        Fan-out of the tree (2 = binary prefixes).
    """

    epsilon: float
    delta: float
    universe_size: int
    width: int = 512
    depth: int = 3
    branching: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        check_delta(self.delta, allow_zero=True)
        check_positive_int(self.universe_size, "universe_size")
        check_positive_int(self.width, "width")
        check_positive_int(self.depth, "depth")
        if self.branching < 2:
            raise ParameterError(f"branching must be at least 2, got {self.branching}")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def num_levels(self) -> int:
        """Number of tree levels (root interval excluded, leaves included)."""
        return max(1, math.ceil(math.log(self.universe_size, self.branching)))

    @property
    def per_level_epsilon(self) -> float:
        """Privacy budget available to each level under basic composition."""
        return self.epsilon / self.num_levels

    @property
    def per_level_noise_scale(self) -> float:
        """Per-cell noise scale at each level.

        Laplace scale ``depth / per_level_epsilon`` for pure DP, Gaussian sigma
        ``sqrt(2 ln(1.25 l/delta) depth) / per_level_epsilon`` otherwise (the
        delta is also split across levels).
        """
        if self.delta == 0.0:
            return self.depth / self.per_level_epsilon
        per_level_delta = self.delta / self.num_levels
        return float(np.sqrt(2.0 * np.log(1.25 / per_level_delta) * self.depth)
                     / self.per_level_epsilon)

    def _prefix(self, element: int, level: int) -> int:
        """The index of ``element``'s ancestor interval at ``level`` (0 = coarsest)."""
        shift = self.num_levels - 1 - level
        return int(element) // (self.branching ** shift)

    # ------------------------------------------------------------------
    # Building and searching
    # ------------------------------------------------------------------

    def build(self, stream: Iterable[int], rng: RandomState = None):
        """Build the per-level noisy CountMin oracles for a stream."""
        generator = ensure_rng(rng)
        sketches: List[CountMinSketch] = [
            CountMinSketch(self.width, self.depth, seed=self.seed + level)
            for level in range(self.num_levels)
        ]
        length = 0
        for element in stream:
            if not (0 <= int(element) < self.universe_size):
                raise ParameterError(
                    f"element {element!r} outside the universe [0, {self.universe_size})")
            length += 1
            for level, sketch in enumerate(sketches):
                sketch.update(self._prefix(element, level))
        noisy_tables = []
        scale = self.per_level_noise_scale
        for sketch in sketches:
            table = sketch.table()
            if self.delta == 0.0:
                noise = np.asarray(sample_laplace(scale, size=table.size, rng=generator))
            else:
                noise = np.asarray(sample_gaussian(scale, size=table.size, rng=generator))
            noisy_tables.append(table + noise.reshape(table.shape))
        return sketches, noisy_tables, length

    def _query_node(self, sketches, noisy_tables, level: int, node: int) -> float:
        from ..sketches._hashing import bucket_hash

        values = []
        for row in range(self.depth):
            column = bucket_hash(node, self.seed + level, row, self.width)
            values.append(noisy_tables[level][row, column])
        return float(min(values))

    def heavy_hitters(self, stream: Sequence[int], phi: float,
                      rng: RandomState = None) -> PrivateHistogram:
        """phi-heavy hitters found by descending the prefix tree.

        Only nodes whose noisy count reaches ``phi * n`` are expanded, so the
        number of oracle queries is ``O((1/phi) log d)`` rather than ``d``.
        """
        if not (0 < phi < 1):
            raise ParameterError(f"phi must be in (0,1), got {phi}")
        sketches, noisy_tables, length = self.build(stream, rng=rng)
        cutoff = phi * length
        frontier = list(range(min(self.branching, self.universe_size)))
        level = 0
        nodes_visited = 0
        while level < self.num_levels - 1:
            survivors = []
            for node in frontier:
                nodes_visited += 1
                if self._query_node(sketches, noisy_tables, level, node) >= cutoff:
                    survivors.append(node)
            frontier = [node * self.branching + child
                        for node in survivors for child in range(self.branching)]
            level += 1
        released: Dict[Hashable, float] = {}
        for node in frontier:
            nodes_visited += 1
            if node >= self.universe_size:
                continue
            estimate = self._query_node(sketches, noisy_tables, level, node)
            if estimate >= cutoff:
                released[int(node)] = estimate
        metadata = ReleaseMetadata(
            mechanism="PrefixTree-Oracle",
            epsilon=self.epsilon,
            delta=self.delta,
            noise_scale=self.per_level_noise_scale,
            threshold=cutoff,
            sketch_size=self.width * self.depth * self.num_levels,
            stream_length=length,
            notes=(f"levels={self.num_levels}, per-level eps={self.per_level_epsilon:.4g}, "
                   f"nodes visited={nodes_visited}"),
        )
        return PrivateHistogram(counts=released, metadata=metadata)
