"""Section 8: user-level differential privacy pipelines.

Two routes are offered for streams where each item is a set of up to ``m``
distinct elements contributed by one user.

``release_user_level_pamg`` (Theorem 30)
    Build the Privacy-Aware Misra-Gries sketch (Algorithm 4) and release it
    with the Gaussian Sparse Histogram Mechanism using ``l = k``.  Because
    neighbouring PAMG sketches differ by at most 1 per counter, the noise
    magnitude is independent of ``m``; the error is
    ``N/(k+1) + O(sqrt(k) ln(k/delta)/epsilon)``.

``release_user_level_flattened`` (Lemma 20)
    Flatten the stream, run Algorithm 2 with the group-privacy adjusted
    parameters ``epsilon/m`` and ``delta/(m e^epsilon)``.  The error over the
    non-private sketch is ``O(m log(m/delta)/epsilon)`` — linear in ``m`` —
    so this route loses to PAMG once ``m`` is large relative to ``sqrt(k)``
    (experiment E8 maps the crossover).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Sequence

from .._validation import check_delta, check_epsilon, check_positive_int
from ..dp.accounting import PrivacyParams, user_level_parameters
from ..dp.rng import RandomState
from ..exceptions import ParameterError
from ..streams.user_streams import flatten_user_stream, validate_user_stream
from ..sketches.misra_gries import MisraGriesSketch
from .gshm import GaussianSparseHistogram
from .pamg import PrivacyAwareMisraGries
from .private_misra_gries import PrivateMisraGries
from .results import PrivateHistogram, ReleaseMetadata


@dataclass(frozen=True)
class UserLevelRelease:
    """Configuration for user-level releases.

    Parameters
    ----------
    epsilon, delta:
        Target *user-level* privacy parameters: the guarantee holds when a
        whole user (one set of up to ``max_contribution`` elements) is added
        to or removed from the stream.
    k:
        Sketch size.
    max_contribution:
        The bound ``m`` on the number of distinct elements per user.
    """

    epsilon: float
    delta: float
    k: int
    max_contribution: int

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        check_delta(self.delta)
        check_positive_int(self.k, "k")
        check_positive_int(self.max_contribution, "max_contribution")
        if self.max_contribution > self.k:
            raise ParameterError(
                "the error guarantees are vacuous when m > k; choose k >= max_contribution")

    def element_level_parameters(self) -> PrivacyParams:
        """The Lemma 20 element-level parameters for the flattened route."""
        return user_level_parameters(self.epsilon, self.delta, self.max_contribution)

    # ------------------------------------------------------------------
    # Releases
    # ------------------------------------------------------------------

    def release_pamg(self, stream: Sequence[Iterable[Hashable]],
                     rng: RandomState = None,
                     calibration: str = "exact") -> PrivateHistogram:
        """Theorem 30 route: PAMG sketch released through the GSHM."""
        validate_user_stream(stream, self.max_contribution, require_distinct=True)
        sketch = PrivacyAwareMisraGries.from_stream(self.k, stream,
                                                    max_contribution=self.max_contribution)
        mechanism = GaussianSparseHistogram(epsilon=self.epsilon, delta=self.delta,
                                            l=self.k, calibration=calibration)
        histogram = mechanism.release(sketch.counters(), rng=rng,
                                      stream_length=sketch.total_elements,
                                      sketch_size=self.k)
        metadata = ReleaseMetadata(
            mechanism="UserLevel-PAMG",
            epsilon=self.epsilon,
            delta=self.delta,
            noise_scale=histogram.metadata.noise_scale,
            threshold=histogram.metadata.threshold,
            sketch_size=self.k,
            stream_length=sketch.total_elements,
            notes=f"m={self.max_contribution}, users={sketch.stream_length}, GSHM l=k",
        )
        return PrivateHistogram(counts=histogram.counts, metadata=metadata)

    def release_flattened(self, stream: Sequence[Iterable[Hashable]],
                          rng: RandomState = None) -> PrivateHistogram:
        """Lemma 20 route: flatten and release with group-privacy scaled PMG."""
        validate_user_stream(stream, self.max_contribution, require_distinct=False)
        params = self.element_level_parameters()
        flattened = flatten_user_stream(stream)
        # from_stream routes integer streams (the common case for the paper's
        # workloads) through the vectorized update_batch path.
        sketch = MisraGriesSketch.from_stream(self.k, flattened)
        mechanism = PrivateMisraGries(epsilon=params.epsilon, delta=params.delta)
        histogram = mechanism.release(sketch, rng=rng)
        metadata = ReleaseMetadata(
            mechanism="UserLevel-FlattenedPMG",
            epsilon=self.epsilon,
            delta=self.delta,
            noise_scale=histogram.metadata.noise_scale,
            threshold=histogram.metadata.threshold,
            sketch_size=self.k,
            stream_length=len(flattened),
            notes=(f"m={self.max_contribution}; element-level parameters "
                   f"eps={params.epsilon:.6g}, delta={params.delta:.3g} via Lemma 20"),
        )
        return PrivateHistogram(counts=histogram.counts, metadata=metadata)

    # ------------------------------------------------------------------
    # Noise comparison (used by experiment E8)
    # ------------------------------------------------------------------

    def noise_summary(self) -> Dict[str, float]:
        """Compare the noise/threshold magnitudes of the two routes.

        Returns the GSHM sigma and threshold for the PAMG route and the
        Laplace scale and threshold for the flattened route, making the
        crossover in ``m`` easy to tabulate.
        """
        gshm = GaussianSparseHistogram(epsilon=self.epsilon, delta=self.delta, l=self.k)
        sigma, tau = gshm.parameters()
        params = self.element_level_parameters()
        flattened_mechanism = PrivateMisraGries(epsilon=params.epsilon, delta=params.delta)
        return {
            "pamg_sigma": sigma,
            "pamg_threshold": 1.0 + tau,
            "flattened_laplace_scale": flattened_mechanism.noise_scale,
            "flattened_threshold": flattened_mechanism.threshold(self.k),
        }


def release_user_level_pamg(stream: Sequence[Iterable[Hashable]], k: int, epsilon: float,
                            delta: float, max_contribution: int,
                            rng: RandomState = None) -> PrivateHistogram:
    """Functional wrapper around :meth:`UserLevelRelease.release_pamg`."""
    config = UserLevelRelease(epsilon=epsilon, delta=delta, k=k,
                              max_contribution=max_contribution)
    return config.release_pamg(stream, rng=rng)


def release_user_level_flattened(stream: Sequence[Iterable[Hashable]], k: int, epsilon: float,
                                 delta: float, max_contribution: int,
                                 rng: RandomState = None) -> PrivateHistogram:
    """Functional wrapper around :meth:`UserLevelRelease.release_flattened`."""
    config = UserLevelRelease(epsilon=epsilon, delta=delta, k=k,
                              max_contribution=max_contribution)
    return config.release_flattened(stream, rng=rng)
