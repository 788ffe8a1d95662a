"""Section 6: releasing the sensitivity-reduced sketch under pure epsilon-DP.

After the Algorithm 3 post-processing the sketch has l1-sensitivity below 2,
so the classic recipe of Chan et al. — add Laplace noise to the count of
*every* universe element and keep the top-k noisy counts — works with noise
scale ``2/epsilon`` instead of ``k/epsilon``.  The resulting maximum error is
``n/(k+1) + O(log(d)/epsilon)``, which is asymptotically optimal for pure DP.

The module also implements the (epsilon, delta) variant sketched at the end
of Section 6: following Aumüller, Lebeda and Pagh ("Representing sparse
vectors with differential privacy", Algorithm 9) values smaller than the
sensitivity are rounded probabilistically before adding noise, which lets the
release touch only the stored keys at the cost of a delta and a threshold of
``4 + 2 ln(1/delta)/epsilon``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Mapping, Optional, Union

import numpy as np

from .._validation import check_delta, check_epsilon, check_positive_int
from ..dp.distributions import sample_laplace
from ..dp.rng import RandomState, ensure_rng
from ..exceptions import ParameterError
from ..sketches.misra_gries import MisraGriesSketch
from .results import PrivateHistogram, ReleaseMetadata
from .sensitivity_reduction import reduce_sensitivity

#: l1-sensitivity of the Algorithm 3 post-processed sketch (Lemma 16).
REDUCED_SENSITIVITY = 2.0


@dataclass(frozen=True)
class PureDPMisraGries:
    """Pure epsilon-DP release of a sensitivity-reduced Misra-Gries sketch.

    Parameters
    ----------
    epsilon:
        Privacy budget.  The release satisfies epsilon-DP.
    universe_size:
        Size ``d`` of the universe ``[0, d)``.  Noise must be added to every
        universe element for pure DP, so the release runs in O(d) time and
        memory.  (The paper notes more efficient samplers exist; the dense
        version is the clearest reference implementation.)
    top_k:
        How many noisy counts to keep.  Defaults to the sketch size.
    """

    epsilon: float
    universe_size: int
    top_k: Optional[int] = None

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        check_positive_int(self.universe_size, "universe_size")
        if self.top_k is not None:
            check_positive_int(self.top_k, "top_k")

    @property
    def noise_scale(self) -> float:
        """Laplace scale ``2/epsilon`` (sensitivity 2 after Algorithm 3)."""
        return REDUCED_SENSITIVITY / self.epsilon

    def release(self, sketch: Union[MisraGriesSketch, Mapping[Hashable, float]],
                k: Optional[int] = None, rng: RandomState = None,
                already_reduced: bool = False,
                stream_length: Optional[int] = None) -> PrivateHistogram:
        """Release a sketch under pure epsilon-DP.

        ``sketch`` may be a :class:`MisraGriesSketch` (post-processed here) or
        a mapping of counters; set ``already_reduced=True`` if Algorithm 3 has
        already been applied (e.g. for the trusted-aggregator merge).
        All universe elements must be integers in ``[0, universe_size)``.
        """
        if isinstance(sketch, MisraGriesSketch):
            size = sketch.size
            length = sketch.stream_length
            reduced = reduce_sensitivity(sketch)
        else:
            if k is None:
                raise ParameterError("k must be provided when releasing a plain mapping")
            size = check_positive_int(k, "k")
            length = stream_length if stream_length is not None else 0
            reduced = dict(sketch) if already_reduced else reduce_sensitivity(sketch, size)
        self._check_universe(reduced.keys())
        generator = ensure_rng(rng)
        keep = self.top_k if self.top_k is not None else size
        dense = np.zeros(self.universe_size, dtype=float)
        for key, value in reduced.items():
            dense[int(key)] = float(value)
        noise = np.asarray(sample_laplace(self.noise_scale, size=self.universe_size,
                                          rng=generator), dtype=float)
        noisy = dense + noise
        order = np.argsort(-noisy)[:keep]
        released = {int(index): float(noisy[index]) for index in order}
        metadata = ReleaseMetadata(
            mechanism="PureDP-MG",
            epsilon=self.epsilon,
            delta=0.0,
            noise_scale=self.noise_scale,
            threshold=0.0,
            sketch_size=size,
            stream_length=length,
            notes=f"universe_size={self.universe_size}, top_k={keep}",
        )
        return PrivateHistogram(counts=released, metadata=metadata)

    def run(self, stream: Iterable[int], k: int, rng: RandomState = None) -> PrivateHistogram:
        """End-to-end: build the MG sketch, post-process, release under epsilon-DP."""
        sketch = MisraGriesSketch.from_stream(k, stream)
        return self.release(sketch, rng=rng)

    def error_bound(self, stream_length: int, k: int, beta: float = 0.05) -> float:
        """High-probability max-error bound ``n/(k+1) + 2·(2/eps)·ln(d/beta)``."""
        size = check_positive_int(k, "k")
        if not (0 < beta < 1):
            raise ParameterError(f"beta must be in (0,1), got {beta}")
        noise_term = self.noise_scale * np.log(self.universe_size / beta)
        return float(stream_length / (size + 1) + noise_term)

    def _check_universe(self, keys) -> None:
        for key in keys:
            if not isinstance(key, (int, np.integer)) or not (0 <= int(key) < self.universe_size):
                raise ParameterError(
                    f"pure-DP release requires integer keys in [0, {self.universe_size}), got {key!r}")


@dataclass(frozen=True)
class ApproximateDPReducedRelease:
    """(epsilon, delta)-DP release of the sensitivity-reduced sketch.

    This is the alternative discussed at the end of Section 6: keep the
    Algorithm 3 post-processing (sensitivity < 2), add Laplace(2/epsilon)
    noise only to the stored counters, and hide small counters with
    probabilistic rounding plus a threshold of ``4 + 2 ln(1/delta)/epsilon``
    (following Aumüller et al., Algorithm 9).  Its error against the
    *non-private MG sketch* is ``n/(k+1) + O(log(1/delta)/epsilon)`` — worse
    than Algorithm 2's ``O(log(1/delta)/epsilon)`` because of the subtracted
    offset, which is exactly the comparison experiment E5 makes.
    """

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        check_delta(self.delta)

    @property
    def noise_scale(self) -> float:
        """Laplace scale ``2/epsilon``."""
        return REDUCED_SENSITIVITY / self.epsilon

    @property
    def threshold(self) -> float:
        """Release threshold ``4 + 2 ln(1/delta)/epsilon``."""
        return 4.0 + 2.0 * np.log(1.0 / self.delta) / self.epsilon

    def release(self, sketch: Union[MisraGriesSketch, Mapping[Hashable, float]],
                k: Optional[int] = None, rng: RandomState = None,
                stream_length: Optional[int] = None) -> PrivateHistogram:
        """Release the post-processed sketch under (epsilon, delta)-DP."""
        if isinstance(sketch, MisraGriesSketch):
            size = sketch.size
            length = sketch.stream_length
            reduced = reduce_sensitivity(sketch)
        else:
            if k is None:
                raise ParameterError("k must be provided when releasing a plain mapping")
            size = check_positive_int(k, "k")
            length = stream_length if stream_length is not None else 0
            reduced = reduce_sensitivity(sketch, size)
        generator = ensure_rng(rng)
        released: Dict[Hashable, float] = {}
        for key, value in reduced.items():
            rounded = self._probabilistic_round(value, generator)
            if rounded == 0.0:
                continue
            noisy = rounded + float(sample_laplace(self.noise_scale, rng=generator))
            if noisy >= self.threshold:
                released[key] = noisy
        metadata = ReleaseMetadata(
            mechanism="ApproxDP-ReducedMG",
            epsilon=self.epsilon,
            delta=self.delta,
            noise_scale=self.noise_scale,
            threshold=self.threshold,
            sketch_size=size,
            stream_length=length,
            notes="Algorithm 3 post-processing + probabilistic rounding",
        )
        return PrivateHistogram(counts=released, metadata=metadata)

    def run(self, stream: Iterable[Hashable], k: int, rng: RandomState = None) -> PrivateHistogram:
        """End-to-end: build the MG sketch, post-process, release."""
        sketch = MisraGriesSketch.from_stream(k, stream)
        return self.release(sketch, rng=rng)

    def _probabilistic_round(self, value: float, generator: np.random.Generator) -> float:
        """Round values below the sensitivity to 0 or the sensitivity.

        Values of at least the sensitivity are left unchanged; a smaller value
        ``v`` becomes the sensitivity with probability ``v / sensitivity`` and
        0 otherwise, keeping the estimate unbiased for small counts.
        """
        if value >= REDUCED_SENSITIVITY:
            return float(value)
        if generator.random() < value / REDUCED_SENSITIVITY:
            return REDUCED_SENSITIVITY
        return 0.0
