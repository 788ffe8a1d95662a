"""The toolchain-free lane: ``auto`` degrades silently and everything runs.

With the C provider disabled (a bogus compiler override and an unwritable
cache) the tier must fall back to the pure-python engines with exactly one
:class:`~repro.kernels.KernelFallbackWarning` per process, and the sketch /
merge / pipeline stack must keep producing the same answers as under
``REPRO_KERNELS=python``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import kernels
from repro.api import Pipeline
from repro.sketches import MisraGriesSketch
from repro.sketches.merge import merge_many


@pytest.fixture
def no_providers(monkeypatch):
    """No C toolchain: the tier must run pure python."""
    monkeypatch.delenv(kernels.ENV_VAR, raising=False)
    monkeypatch.setenv("REPRO_KERNELS_CC", "definitely-not-a-compiler")
    monkeypatch.setenv("REPRO_KERNELS_CACHE", "/nonexistent/repro-kernels")
    kernels.reset_for_tests()
    yield
    kernels.reset_for_tests()


def test_auto_falls_back_to_python_with_one_warning(no_providers):
    with pytest.warns(kernels.KernelFallbackWarning,
                      match="pure-python engines"):
        assert kernels.resolve_backend() == "python"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any second warning fails the test
        assert kernels.resolve_backend() == "python"
        sketch = MisraGriesSketch(8)
        sketch.update_batch(np.arange(100, dtype=np.int64) % 13)
    assert kernels.kernel_info()["backend"] == "python"


def test_sketch_and_merge_answers_survive_the_fallback(no_providers,
                                                       monkeypatch):
    stream = np.concatenate([np.arange(500, dtype=np.int64) % 37,
                             np.zeros(50, dtype=np.int64)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", kernels.KernelFallbackWarning)
        fallback = MisraGriesSketch(16).update_batch(stream)
        keys = np.fromiter(fallback.counters().keys(), dtype=np.int64)
        values = np.fromiter(fallback.counters().values(), dtype=np.float64)
        merged = merge_many([(keys, values), (keys, values)], 16)
    monkeypatch.setenv(kernels.ENV_VAR, "python")
    explicit = MisraGriesSketch(16).update_batch(stream)
    assert fallback.counters() == explicit.counters()
    assert list(fallback.counters()) == list(explicit.counters())
    expected_merge = merge_many([(keys, values), (keys, values)], 16)
    assert merged == expected_merge and list(merged) == list(expected_merge)


def test_pipeline_release_survives_the_fallback(no_providers):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", kernels.KernelFallbackWarning)
        pipe = Pipeline(sketch="misra_gries", mechanism="pmg", k=16,
                        epsilon=2.0, delta=1e-6)
        stream = np.concatenate([np.zeros(500, dtype=np.int64),
                                 np.arange(300, dtype=np.int64) % 21])
        pipe.fit(stream)
        histogram = pipe.release(rng=0)
    # The dominant key survives thresholding: a real release came out of
    # the python engines.
    assert 0 in histogram.counts
