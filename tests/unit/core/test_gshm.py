"""Unit tests for the Gaussian Sparse Histogram Mechanism."""

import numpy as np
import pytest

from repro.core import GaussianSparseHistogram, calibrate_gshm, gshm_delta
from repro.core import gshm as gshm_module
from repro.dp.thresholds import gshm_loose_parameters
from repro.exceptions import ParameterError, PrivacyParameterError


class TestGshmDelta:
    def test_decreases_with_sigma(self):
        deltas = [gshm_delta(sigma, tau=4.0 * sigma, epsilon=1.0, l=8)
                  for sigma in (1.0, 3.0, 10.0)]
        assert deltas[0] > deltas[1] > deltas[2]

    def test_decreases_with_tau(self):
        small = gshm_delta(5.0, tau=10.0, epsilon=1.0, l=8)
        large = gshm_delta(5.0, tau=40.0, epsilon=1.0, l=8)
        assert large <= small

    def test_increases_with_l(self):
        few = gshm_delta(5.0, tau=25.0, epsilon=1.0, l=2)
        many = gshm_delta(5.0, tau=25.0, epsilon=1.0, l=64)
        assert many >= few

    def test_within_unit_interval(self):
        value = gshm_delta(2.0, tau=4.0, epsilon=0.5, l=16)
        assert 0.0 <= value <= 1.0

    def test_loose_parameters_satisfy_exact_predicate(self):
        # Lemma 24's closed form must be valid according to Theorem 23.
        for epsilon in (0.1, 0.5, 0.9):
            for delta in (1e-6, 1e-8):
                for l in (4, 64):
                    sigma, tau = gshm_loose_parameters(epsilon, delta, l)
                    assert gshm_delta(sigma, tau, epsilon, l) <= delta * (1 + 1e-6)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            gshm_delta(0.0, 1.0, 1.0, 4)
        with pytest.raises(ParameterError):
            gshm_delta(1.0, -1.0, 1.0, 4)


class TestCalibration:
    def test_exact_no_larger_than_loose(self):
        for l in (4, 32, 256):
            sigma_loose, _ = calibrate_gshm(0.5, 1e-6, l, method="loose")
            sigma_exact, _ = calibrate_gshm(0.5, 1e-6, l, method="exact")
            assert sigma_exact <= sigma_loose * (1 + 1e-6)

    def test_exact_calibration_is_valid(self):
        for epsilon in (0.3, 1.0, 2.0):
            sigma, tau = calibrate_gshm(epsilon, 1e-6, 32, method="exact")
            assert gshm_delta(sigma, tau, epsilon, 32) <= 1e-6 * (1 + 1e-3)

    def test_sigma_grows_with_l(self):
        small, _ = calibrate_gshm(1.0, 1e-6, 4)
        large, _ = calibrate_gshm(1.0, 1e-6, 256)
        assert large > small

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError):
            calibrate_gshm(1.0, 1e-6, 4, method="magic")


class TestCalibrationMemo:
    _uncached = staticmethod(gshm_module._calibrate_gshm_cached.__wrapped__)

    def test_cached_pair_equals_uncached_bisection(self):
        for epsilon in (0.1, 0.5, 1.0, 3.0):
            for delta in (1e-4, 1e-8):
                for l in (1, 7, 64):
                    for method in ("exact", "loose"):
                        expected = self._uncached(epsilon, delta, l, method, 1e-4)
                        # Twice: the miss that fills the entry, then the hit.
                        for _ in range(2):
                            pair = calibrate_gshm(epsilon, delta, l, method=method)
                            assert pair == expected
                            assert all(type(value) is float for value in pair)

    def test_argument_types_share_one_pair(self):
        reference = calibrate_gshm(1.0, 1e-6, 16)
        assert calibrate_gshm(1, 1e-6, 16) == reference
        assert calibrate_gshm(np.float64(1.0), np.float64(1e-6), 16) == reference
        assert calibrate_gshm(np.float32(1.0), 1e-6, 16, method="exact") == reference
        assert calibrate_gshm(1.0, 1e-6, 16, tolerance=1e-4) == reference
        gshm_module._calibrate_gshm_cached.cache_clear()
        calibrate_gshm(1.0, 1e-6, 16)
        calibrate_gshm(1, np.float64(1e-6), 16)
        info = gshm_module._calibrate_gshm_cached.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_mechanism_callers_use_the_memo(self):
        gshm_module._calibrate_gshm_cached.cache_clear()
        mechanism = GaussianSparseHistogram(epsilon=0.7, delta=1e-7, l=32)
        pair = mechanism.parameters()
        mechanism.error_bound()
        mechanism.release({1: 50.0}, rng=0)
        assert GaussianSparseHistogram(epsilon=0.7, delta=1e-7, l=32).parameters() == pair
        assert gshm_module._calibrate_gshm_cached.cache_info().misses == 1

    @pytest.mark.parametrize("args, error", [
        ((0.0, 1e-6, 4), PrivacyParameterError),
        ((float("nan"), 1e-6, 4), PrivacyParameterError),
        ((1.0, 1.5, 4), PrivacyParameterError),
        ((1.0, 1e-6, 0), ParameterError),
        ((1.0, 1e-6, 4.0), ParameterError),
        ((1.0, 1e-6, True), ParameterError),
    ])
    def test_invalid_arguments_raise_on_every_call(self, args, error):
        calibrate_gshm(1.0, 1e-6, 4)
        for _ in range(3):
            with pytest.raises(error):
                calibrate_gshm(*args)
        for _ in range(3):
            with pytest.raises(ParameterError):
                calibrate_gshm(1.0, 1e-6, 4, method="magic")

    def test_cache_is_bounded(self):
        cached = gshm_module._calibrate_gshm_cached
        assert cached.cache_info().maxsize == gshm_module.CALIBRATION_CACHE_SIZE
        for l in range(1, gshm_module.CALIBRATION_CACHE_SIZE + 20):
            calibrate_gshm(1.0, 1e-6, l, method="loose")
        assert cached.cache_info().currsize == gshm_module.CALIBRATION_CACHE_SIZE


class TestMechanism:
    def test_release_thresholds_small_counts(self):
        mechanism = GaussianSparseHistogram(epsilon=1.0, delta=1e-6, l=16)
        _, tau = mechanism.parameters()
        counters = {"heavy": 100.0 * (1.0 + tau), "light": 1.0}
        histogram = mechanism.release(counters, rng=0)
        assert "heavy" in histogram
        assert "light" not in histogram
        assert all(value >= 1.0 + tau for value in histogram.counts.values())

    def test_zero_counters_never_released(self):
        mechanism = GaussianSparseHistogram(epsilon=1.0, delta=1e-6, l=8)
        histogram = mechanism.release({"zero": 0.0, "big": 10_000.0}, rng=1)
        assert "zero" not in histogram

    def test_empty_input(self):
        mechanism = GaussianSparseHistogram(epsilon=1.0, delta=1e-6, l=8)
        assert len(mechanism.release({}, rng=0)) == 0

    def test_reproducible(self):
        mechanism = GaussianSparseHistogram(epsilon=1.0, delta=1e-6, l=8)
        counters = {i: 1000.0 + i for i in range(8)}
        assert mechanism.release(counters, rng=3).as_dict() == mechanism.release(counters, rng=3).as_dict()

    def test_noise_magnitude_matches_sigma(self):
        mechanism = GaussianSparseHistogram(epsilon=1.0, delta=1e-6, l=16)
        sigma, _ = mechanism.parameters()
        counters = {i: 1e6 for i in range(500)}
        histogram = mechanism.release(counters, rng=4)
        errors = np.array([histogram.estimate(i) - 1e6 for i in range(500)])
        assert abs(np.std(errors) - sigma) / sigma < 0.15

    def test_error_bound_reported(self):
        mechanism = GaussianSparseHistogram(epsilon=1.0, delta=1e-6, l=16)
        _, tau = mechanism.parameters()
        assert mechanism.error_bound() == pytest.approx(1.0 + 2.0 * tau)

    def test_calibration_choice_recorded(self):
        mechanism = GaussianSparseHistogram(epsilon=1.0, delta=1e-6, l=8, calibration="loose")
        histogram = mechanism.release({"a": 1e5}, rng=0)
        assert "loose" in histogram.metadata.notes

    def test_invalid_calibration(self):
        with pytest.raises(ParameterError):
            GaussianSparseHistogram(epsilon=1.0, delta=1e-6, l=8, calibration="nope")
