"""Heavy hitters from a private frequency oracle (the Section 4 alternative).

The simplest non-Misra-Gries route to private heavy hitters is to maintain a
linear sketch (CountMin or CountSketch), privatize it by adding noise to every
cell, and answer heavy-hitter queries by iterating over the whole universe.
Because each stream element touches ``depth`` cells, the l1-sensitivity of the
sketch is ``depth`` (and the noise picks up the corresponding factor), and the
universe iteration multiplies the query cost by ``d`` — both of which are the
disadvantages the paper points out when arguing for the Misra-Gries route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Sequence

import numpy as np

from .._validation import check_delta, check_epsilon, check_positive_int
from ..dp.distributions import sample_gaussian, sample_laplace
from ..dp.rng import RandomState, ensure_rng
from ..exceptions import ParameterError
from ..sketches.count_min import CountMinSketch
from ..sketches.count_sketch import CountSketch
from ..core.results import PrivateHistogram, ReleaseMetadata


@dataclass(frozen=True)
class PrivateFrequencyOracle:
    """A DP frequency oracle backed by CountMin or CountSketch.

    Parameters
    ----------
    epsilon, delta:
        Privacy parameters.  ``delta=0`` with ``sketch_kind="count_min"`` uses
        Laplace noise scaled to the l1-sensitivity ``depth``; a positive
        ``delta`` uses Gaussian noise scaled to the l2-sensitivity
        ``sqrt(depth)``.
    width, depth:
        Sketch dimensions.
    sketch_kind:
        ``"count_min"`` or ``"count_sketch"``.
    seed:
        Hash seed for the underlying sketch.
    """

    epsilon: float
    delta: float
    width: int
    depth: int
    sketch_kind: str = "count_min"
    seed: int = 0

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        check_delta(self.delta, allow_zero=True)
        check_positive_int(self.width, "width")
        check_positive_int(self.depth, "depth")
        if self.sketch_kind not in ("count_min", "count_sketch"):
            raise ParameterError(
                f"sketch_kind must be 'count_min' or 'count_sketch', got {self.sketch_kind!r}")

    @property
    def noise_scale(self) -> float:
        """Per-cell noise scale.

        Laplace scale ``depth/epsilon`` for pure DP, Gaussian sigma
        ``sqrt(2 ln(1.25/delta) * depth)/epsilon`` otherwise.
        """
        if self.delta == 0.0:
            return self.depth / self.epsilon
        return float(np.sqrt(2.0 * np.log(1.25 / self.delta) * self.depth) / self.epsilon)

    def build(self, stream: Iterable[Hashable]):
        """Build the underlying (non-private) sketch from a stream."""
        if self.sketch_kind == "count_min":
            sketch = CountMinSketch(self.width, self.depth, seed=self.seed)
        else:
            sketch = CountSketch(self.width, self.depth, seed=self.seed)
        sketch.update_all(stream)
        return sketch

    def release_oracle(self, stream: Iterable[Hashable], rng: RandomState = None):
        """Return a noisy sketch table plus a point-query closure.

        The noise is added once to every cell; all subsequent point queries
        are post-processing.
        """
        sketch = self.build(stream)
        generator = ensure_rng(rng)
        table = sketch.table()
        if self.delta == 0.0:
            noise = np.asarray(sample_laplace(self.noise_scale, size=table.size, rng=generator))
        else:
            noise = np.asarray(sample_gaussian(self.noise_scale, size=table.size, rng=generator))
        noisy_table = table + noise.reshape(table.shape)
        return sketch, noisy_table

    def heavy_hitters(self, stream: Sequence[Hashable], universe: Sequence[Hashable],
                      phi: float, rng: RandomState = None) -> PrivateHistogram:
        """Heavy hitters by iterating point queries over the whole universe."""
        if not (0 < phi < 1):
            raise ParameterError(f"phi must be in (0,1), got {phi}")
        sketch, noisy_table = self.release_oracle(stream, rng=rng)
        length = sketch.stream_length
        cutoff = phi * length
        estimates = self._estimate_universe(sketch, noisy_table, universe)
        released = {key: value for key, value in estimates.items() if value >= cutoff}
        metadata = ReleaseMetadata(
            mechanism=f"Oracle-{self.sketch_kind}",
            epsilon=self.epsilon,
            delta=self.delta,
            noise_scale=self.noise_scale,
            threshold=cutoff,
            sketch_size=self.width * self.depth,
            stream_length=length,
            notes=f"universe iteration over {len(universe)} elements",
        )
        return PrivateHistogram(counts=released, metadata=metadata)

    def _estimate_universe(self, sketch, noisy_table, universe) -> Dict[Hashable, float]:
        from ..sketches._hashing import bucket_hash, sign_hash

        estimates: Dict[Hashable, float] = {}
        for element in universe:
            values = []
            for row in range(self.depth):
                column = bucket_hash(element, self.seed, row, self.width)
                cell = noisy_table[row, column]
                if self.sketch_kind == "count_sketch":
                    cell *= sign_hash(element, self.seed, row)
                values.append(cell)
            if self.sketch_kind == "count_min":
                estimates[element] = float(min(values))
            else:
                estimates[element] = float(np.median(values))
        return estimates
