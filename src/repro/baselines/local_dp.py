"""Local differential privacy baseline: frequency estimation without a trusted curator.

The related-work section of the paper surveys the heavy-hitters problem under
*local* differential privacy (RAPPOR and its successors), where every user
randomizes their own report and the server only ever sees noisy data.  Local
protocols need no trusted aggregator but pay a Θ(√n) error floor, so they are
not competitive with the central-model Misra-Gries release when a trusted
curator exists — which is exactly the comparison this baseline makes possible.

The implementation is the Optimized Unary Encoding (OUE) randomizer of Wang et
al.: each user encodes their element as a one-hot vector over the universe,
keeps the hot bit with probability 1/2 and flips every cold bit on with
probability ``1 / (e^epsilon + 1)``.  The aggregator debiases the column sums
to obtain unbiased frequency estimates; heavy hitters are read off the
estimated histogram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

import numpy as np

from .._validation import check_epsilon, check_positive_int
from ..dp.rng import RandomState, ensure_rng
from ..exceptions import ParameterError
from ..core.results import PrivateHistogram, ReleaseMetadata


@dataclass(frozen=True)
class LocalDPFrequencyEstimator:
    """Optimized Unary Encoding (OUE) local-DP frequency estimation.

    Parameters
    ----------
    epsilon:
        Local privacy budget: each user's report is epsilon-locally-DP.
    universe_size:
        Size ``d`` of the integer universe ``[0, d)``.

    Notes
    -----
    The estimator's per-element standard deviation is
    ``sqrt(n) * sqrt(4 e^epsilon) / (e^epsilon - 1)`` — the √n error floor
    that separates the local model from the central-model mechanisms in this
    library.
    """

    epsilon: float
    universe_size: int

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        check_positive_int(self.universe_size, "universe_size")

    @property
    def keep_probability(self) -> float:
        """Probability that the hot bit stays set (1/2 for OUE)."""
        return 0.5

    @property
    def flip_probability(self) -> float:
        """Probability that a cold bit is reported as set, ``1/(e^eps + 1)``."""
        return 1.0 / (math.exp(self.epsilon) + 1.0)

    def expected_standard_deviation(self, num_users: int) -> float:
        """Per-element standard deviation of the estimate for ``num_users`` reports."""
        exp_eps = math.exp(self.epsilon)
        return math.sqrt(num_users * 4.0 * exp_eps) / (exp_eps - 1.0)

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

    def randomize(self, element: int, rng: RandomState = None) -> np.ndarray:
        """One user's randomized (epsilon-locally-DP) report: a 0/1 vector."""
        if not (0 <= int(element) < self.universe_size):
            raise ParameterError(
                f"element {element!r} outside the universe [0, {self.universe_size})")
        generator = ensure_rng(rng)
        report = (generator.random(self.universe_size) < self.flip_probability).astype(np.int8)
        report[int(element)] = 1 if generator.random() < self.keep_probability else 0
        return report

    def aggregate(self, reports: Sequence[np.ndarray]) -> Dict[int, float]:
        """Debiased frequency estimates from a collection of user reports."""
        if not len(reports):
            return {}
        stacked = np.asarray(reports, dtype=float)
        if stacked.ndim != 2 or stacked.shape[1] != self.universe_size:
            raise ParameterError("reports must be vectors over the declared universe")
        num_users = stacked.shape[0]
        column_sums = stacked.sum(axis=0)
        p, q = self.keep_probability, self.flip_probability
        estimates = (column_sums - num_users * q) / (p - q)
        return {index: float(value) for index, value in enumerate(estimates)}

    def estimate_frequencies(self, stream: Iterable[int],
                             rng: RandomState = None) -> Dict[int, float]:
        """Run the full protocol over a stream of one element per user."""
        generator = ensure_rng(rng)
        # Vectorized simulation of all users at once: one row per user.
        elements = np.fromiter((int(x) for x in stream), dtype=np.int64)
        if elements.size == 0:
            return {}
        if elements.min() < 0 or elements.max() >= self.universe_size:
            raise ParameterError("stream contains elements outside the declared universe")
        num_users = elements.size
        reports = (generator.random((num_users, self.universe_size))
                   < self.flip_probability).astype(np.int8)
        hot = (generator.random(num_users) < self.keep_probability).astype(np.int8)
        reports[np.arange(num_users), elements] = hot
        column_sums = reports.sum(axis=0, dtype=np.float64)
        p, q = self.keep_probability, self.flip_probability
        estimates = (column_sums - num_users * q) / (p - q)
        return {index: float(value) for index, value in enumerate(estimates)}

    # ------------------------------------------------------------------
    # Heavy hitters
    # ------------------------------------------------------------------

    def heavy_hitters(self, stream: Sequence[int], phi: float,
                      rng: RandomState = None) -> PrivateHistogram:
        """phi-heavy hitters from the locally-private frequency estimates."""
        if not (0 < phi < 1):
            raise ParameterError(f"phi must be in (0,1), got {phi}")
        estimates = self.estimate_frequencies(stream, rng=rng)
        length = len(stream)
        cutoff = phi * length
        released = {key: value for key, value in estimates.items() if value >= cutoff}
        metadata = ReleaseMetadata(
            mechanism="LocalDP-OUE",
            epsilon=self.epsilon,
            delta=0.0,
            noise_scale=self.expected_standard_deviation(max(length, 1)),
            threshold=cutoff,
            sketch_size=self.universe_size,
            stream_length=length,
            notes=f"local model, per-user epsilon={self.epsilon}, universe={self.universe_size}",
        )
        return PrivateHistogram(counts=released, metadata=metadata)
