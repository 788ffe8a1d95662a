"""The Gaussian Sparse Histogram Mechanism (Theorem 23 / Lemma 24).

Given a frequency sketch whose counters for neighbouring inputs differ by at
most 1 in at most ``l`` positions (all in the same direction), the GSHM adds
``N(0, sigma^2)`` noise to every non-zero counter and removes noisy counts
below ``1 + tau``.  Wilkins, Kifer, Zhang and Karrer give an exact
characterization of the (epsilon, delta) pairs a given (sigma, tau) satisfies;
Theorem 23 of the paper restates it for this setting and Lemma 24 gives a
simple (loose) closed form.

This module provides:

* :func:`gshm_delta` — the smallest delta for which ``(sigma, tau)`` is
  (epsilon, delta)-DP, i.e. the right-hand side of the Theorem 23 inequality;
* :func:`calibrate_gshm` — choose (sigma, tau) for a target (epsilon, delta),
  either with the loose Lemma 24 formulas or by tightening sigma against the
  exact predicate;
* :class:`GaussianSparseHistogram` — the release mechanism itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Optional, Tuple

import numpy as np

from .._validation import check_delta, check_epsilon, check_positive_int
from ..dp.distributions import sample_gaussian
from ..dp.rng import RandomState, ensure_rng
from ..dp.thresholds import gshm_loose_parameters
from ..exceptions import CalibrationError, ParameterError
from .results import PrivateHistogram, ReleaseMetadata


def _phi(x: float) -> float:
    """Standard normal cdf."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _gaussian_loss_delta(shift: float, sigma: float, epsilon: float) -> float:
    """delta of the Gaussian mechanism for a single shift: Phi(s/2σ − εσ/s) − e^ε Phi(−s/2σ − εσ/s)."""
    ratio = shift / (2.0 * sigma)
    scaled = epsilon * sigma / shift
    return _phi(ratio - scaled) - math.exp(epsilon) * _phi(-ratio - scaled)


def gshm_delta(sigma: float, tau: float, epsilon: float, l: int) -> float:
    """The exact minimal delta of the GSHM (right-hand side of Theorem 23).

    Parameters
    ----------
    sigma:
        Standard deviation of the Gaussian noise added to each counter.
    tau:
        The threshold offset; noisy counts below ``1 + tau`` are removed.
    epsilon:
        The epsilon at which the delta is evaluated.
    l:
        The maximum number of counters that differ (by exactly 1, all in the
        same direction) between neighbouring inputs.
    """
    eps = check_epsilon(epsilon)
    count = check_positive_int(l, "l")
    if sigma <= 0 or tau <= 0:
        raise ParameterError("sigma and tau must be positive")
    phi_ratio = _phi(tau / sigma)
    # Branch 1: probability that any of the l differing (small) counters survives.
    branch1 = 1.0 - phi_ratio ** count
    branch2 = 0.0
    branch3 = 0.0
    for j in range(1, count + 1):
        # gamma = (l - j) * log Phi(tau/sigma) <= 0.
        gamma = (count - j) * math.log(phi_ratio)
        surviving = phi_ratio ** (count - j)
        term2 = (1.0 - surviving) + surviving * _gaussian_loss_delta(math.sqrt(j), sigma, eps - gamma)
        term3 = _gaussian_loss_delta(math.sqrt(j), sigma, eps + gamma)
        branch2 = max(branch2, term2)
        branch3 = max(branch3, term3)
    return max(branch1, branch2, branch3, 0.0)


#: Distinct ``(epsilon, delta, l, method, tolerance)`` calibrations kept by
#: :func:`calibrate_gshm`; one entry is two floats, so the bound is tiny.
CALIBRATION_CACHE_SIZE = 256


def calibrate_gshm(epsilon: float, delta: float, l: int,
                   method: str = "exact",
                   tolerance: float = 1e-4) -> Tuple[float, float]:
    """Choose (sigma, tau) so the GSHM is (epsilon, delta)-DP.

    ``method="loose"`` returns the Lemma 24 closed form
    ``sigma = sqrt(2 l ln(2.5/delta))/epsilon``,
    ``tau = sqrt(2 ln(2 l/delta)) sigma``.  ``method="exact"`` keeps the loose
    ratio ``tau/sigma`` but shrinks sigma by bisection against the exact
    Theorem 23 predicate, which is noticeably tighter (experiment E9).

    The pair depends only on the arguments, and the exact bisection costs
    about 20 O(l) evaluations of :func:`gshm_delta` (tens of milliseconds
    at ``l = 1024``), so results are memoized in a bounded cache keyed on
    the validated, normalized arguments: ``1`` and ``1.0`` (or a NumPy
    scalar) share one entry, and invalid arguments raise on every call.
    """
    eps = check_epsilon(epsilon)
    d = check_delta(delta)
    count = check_positive_int(l, "l")
    if method not in ("exact", "loose"):
        raise ParameterError(f"method must be 'exact' or 'loose', got {method!r}")
    return _calibrate_gshm_cached(eps, d, count, method, float(tolerance))


@functools.lru_cache(maxsize=CALIBRATION_CACHE_SIZE)
def _calibrate_gshm_cached(eps: float, d: float, count: int, method: str,
                           tolerance: float) -> Tuple[float, float]:
    """The uncached calibration of already-validated arguments."""
    sigma_loose, tau_loose = gshm_loose_parameters(eps, d, count)
    if method == "loose":
        return sigma_loose, tau_loose
    ratio = tau_loose / sigma_loose
    if gshm_delta(sigma_loose, tau_loose, eps, count) > d * (1.0 + 1e-9):
        # The loose parameters are proven for epsilon < 1; for larger epsilon
        # grow sigma until the exact predicate is met so calibration never
        # returns an invalid pair.
        sigma_high = sigma_loose
        for _ in range(200):
            sigma_high *= 1.5
            if gshm_delta(sigma_high, ratio * sigma_high, eps, count) <= d:
                break
        else:
            raise CalibrationError("could not find a feasible sigma for the GSHM")
        sigma_low, sigma_upper = sigma_loose, sigma_high
    else:
        sigma_low, sigma_upper = 1e-12, sigma_loose
    # Bisection for the smallest sigma whose exact delta is below the target.
    for _ in range(200):
        middle = 0.5 * (sigma_low + sigma_upper)
        if gshm_delta(middle, ratio * middle, eps, count) <= d:
            sigma_upper = middle
        else:
            sigma_low = middle
        if sigma_upper - sigma_low <= tolerance * sigma_upper:
            break
    return sigma_upper, ratio * sigma_upper


@dataclass(frozen=True)
class GaussianSparseHistogram:
    """The Gaussian Sparse Histogram Mechanism.

    Parameters
    ----------
    epsilon, delta:
        Target privacy parameters.
    l:
        Sensitivity structure parameter: the number of counters that can
        differ (each by exactly 1, all in the same direction) between
        neighbouring inputs.  For merged MG sketches and for the PAMG sketch
        this is the sketch size ``k``.
    calibration:
        ``"exact"`` (default) or ``"loose"`` — see :func:`calibrate_gshm`.
    """

    epsilon: float
    delta: float
    l: int
    calibration: str = "exact"

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        check_delta(self.delta)
        check_positive_int(self.l, "l")
        if self.calibration not in ("exact", "loose"):
            raise ParameterError(f"calibration must be 'exact' or 'loose', got {self.calibration!r}")

    def parameters(self) -> Tuple[float, float]:
        """The calibrated ``(sigma, tau)`` pair."""
        return calibrate_gshm(self.epsilon, self.delta, self.l, method=self.calibration)

    def release(self, counters: Mapping[Hashable, float],
                rng: RandomState = None,
                stream_length: int = 0,
                sketch_size: Optional[int] = None) -> PrivateHistogram:
        """Release a counter mapping through the GSHM.

        Gaussian noise is added to every *non-zero* counter and noisy values
        below ``1 + tau`` are dropped.
        """
        sigma, tau = self.parameters()
        generator = ensure_rng(rng)
        # One vectorized pass: non-zero filter, bulk noise sample, threshold
        # mask, dict built from the surviving indices only.  Equal to the seed
        # per-key loops kept in repro.core._reference.reference_gshm_filter.
        all_keys = list(counters.keys())
        all_values = np.fromiter(counters.values(), dtype=float, count=len(all_keys))
        nonzero = np.flatnonzero(all_values != 0.0)
        values = all_values[nonzero]
        if nonzero.size:
            noise = np.asarray(sample_gaussian(sigma, size=nonzero.size, rng=generator),
                               dtype=float)
            noisy = values + noise
        else:
            noisy = values
        cutoff = 1.0 + tau
        noisy_list = noisy.tolist()
        nonzero_list = nonzero.tolist()
        released: Dict[Hashable, float] = {
            all_keys[nonzero_list[slot]]: noisy_list[slot]
            for slot in np.flatnonzero(noisy >= cutoff).tolist()}
        metadata = ReleaseMetadata(
            mechanism="GSHM",
            epsilon=self.epsilon,
            delta=self.delta,
            noise_scale=sigma,
            threshold=cutoff,
            sketch_size=sketch_size if sketch_size is not None else self.l,
            stream_length=stream_length,
            notes=f"l={self.l}, calibration={self.calibration}, tau={tau:.4f}",
        )
        return PrivateHistogram(counts=released, metadata=metadata)

    def error_bound(self, beta: float = 0.05) -> float:
        """High-probability bound on the extra error over the input counters.

        With probability at least ``1 - 2 delta`` all noise samples are within
        ``tau`` (Theorem 30); thresholding adds at most ``1 + tau`` more, so we
        report ``1 + 2 tau``.  ``beta`` is accepted for interface symmetry but
        the bound already holds with the mechanism's own delta.
        """
        _, tau = self.parameters()
        return 1.0 + 2.0 * tau
