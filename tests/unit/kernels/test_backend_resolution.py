"""Backend selection contract of :mod:`repro.kernels`.

``validate_backend`` normalization, ``resolve_backend`` reading the
``REPRO_KERNELS`` environment variable (the only switch, read at call
time), the unavailable-``cc`` → ``ParameterError`` rule, the ``auto`` →
python fallback with its warn-once semantics, and the ``kernel_info()``
report shape.
"""

from __future__ import annotations

import inspect
import warnings

import pytest

from repro import kernels
from repro.exceptions import ParameterError
from repro.sketches import MisraGriesSketch
from repro.sketches import merge
from repro.sketches.merge import FoldState


@pytest.fixture(autouse=True)
def _isolated_tier(monkeypatch):
    """Each test sees a fresh tier: no env override, cold warn-once flag."""
    monkeypatch.delenv(kernels.ENV_VAR, raising=False)
    kernels.reset_for_tests()
    yield
    kernels.reset_for_tests()


@pytest.fixture
def no_provider(monkeypatch):
    monkeypatch.setattr(kernels._c_provider, "available", lambda: False)


# ---------------------------------------------------------------------------
# validate_backend
# ---------------------------------------------------------------------------

def test_backends_are_auto_python_and_cc():
    assert kernels.BACKENDS == ("auto", "python", "cc")


@pytest.mark.parametrize("backend", kernels.BACKENDS)
def test_every_documented_backend_validates(backend):
    assert kernels.validate_backend(backend) == backend


@pytest.mark.parametrize("value", ["AUTO", "  python ", "Cc"])
def test_validation_normalizes_case_and_whitespace(value):
    assert kernels.validate_backend(value) in kernels.BACKENDS


@pytest.mark.parametrize("value", ["fortran", "", 7, None])
def test_unknown_backends_raise_parameter_error(value):
    with pytest.raises(ParameterError, match="backend must be one of"):
        kernels.validate_backend(value)


@pytest.mark.parametrize("value", ["numba", "compiled", "off"])
def test_retired_env_values_are_refused(value, monkeypatch):
    """The values of the removed provider and aliases are refused."""
    monkeypatch.setenv(kernels.ENV_VAR, value)
    with pytest.raises(ParameterError) as raised:
        kernels.resolve_backend()
    for name in ("auto", "python", "cc"):
        assert repr(name) in str(raised.value)


# ---------------------------------------------------------------------------
# resolve_backend
# ---------------------------------------------------------------------------

def test_python_env_resolves_to_python(monkeypatch):
    monkeypatch.setenv(kernels.ENV_VAR, "python")
    assert kernels.resolve_backend() == "python"
    for name in kernels.KERNEL_NAMES:
        assert kernels.get_kernel(name) is None


def test_auto_resolves_to_cc_or_python():
    assert kernels.resolve_backend() in ("python", "cc")


def test_env_var_is_read_at_call_time(monkeypatch):
    before = kernels.resolve_backend()
    monkeypatch.setenv(kernels.ENV_VAR, "python")
    assert kernels.resolve_backend() == "python"
    monkeypatch.delenv(kernels.ENV_VAR)
    assert kernels.resolve_backend() == before


def test_invalid_env_value_raises(monkeypatch):
    monkeypatch.setenv(kernels.ENV_VAR, "fortran")
    with pytest.raises(ParameterError, match="backend must be one of"):
        kernels.resolve_backend()


def test_cc_without_the_provider_raises(no_provider, monkeypatch):
    monkeypatch.setenv(kernels.ENV_VAR, "cc")
    with pytest.raises(ParameterError, match="'cc' requested but unavailable"):
        kernels.resolve_backend()


def test_auto_without_the_provider_warns_exactly_once(no_provider):
    with pytest.warns(kernels.KernelFallbackWarning):
        assert kernels.resolve_backend() == "python"
    # The second resolution is silent: one warning per process.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels.resolve_backend() == "python"
        assert kernels.get_kernel("mg_update") is None
    assert not kernels.available()


# ---------------------------------------------------------------------------
# The env var is the only switch
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("target", [
    merge.merge_many, merge.merge_tree,
    FoldState, FoldState.run,
    MisraGriesSketch,
])
def test_no_entry_point_takes_a_backend_argument(target):
    assert "backend" not in inspect.signature(target).parameters


def test_the_tier_takes_no_in_code_request():
    assert list(inspect.signature(kernels.resolve_backend).parameters) == []
    assert list(inspect.signature(kernels.get_kernel).parameters) == ["name"]


def test_sketch_has_no_backend_attribute():
    sketch = MisraGriesSketch(4)
    assert not hasattr(sketch, "backend")
    assert not hasattr(sketch, "resolved_backend")


# ---------------------------------------------------------------------------
# get_kernel / kernel_info
# ---------------------------------------------------------------------------

def test_get_kernel_returns_callables_when_available(monkeypatch):
    if not kernels.available():  # pragma: no cover - toolchain-free lane
        pytest.skip("no C toolchain in this environment")
    monkeypatch.setenv(kernels.ENV_VAR, "cc")
    for name in kernels.KERNEL_NAMES:
        assert callable(kernels.get_kernel(name))


def test_kernel_info_shape():
    info = kernels.kernel_info()
    assert set(info) == {"backend", "env", "error", "providers", "kernels"}
    assert set(info["providers"]) == {"cc"}
    assert set(info["kernels"]) == set(kernels.KERNEL_NAMES)
    assert {"name", "available", "error", "kernels"} <= set(
        info["providers"]["cc"])


def test_kernel_info_reports_env_override(monkeypatch):
    monkeypatch.setenv(kernels.ENV_VAR, "python")
    info = kernels.kernel_info()
    assert info["env"] == "python"
    assert info["backend"] == "python"
    assert all(backend == "python" for backend in info["kernels"].values())


def test_kernel_info_reports_a_refused_env_value(monkeypatch):
    monkeypatch.setenv(kernels.ENV_VAR, "compiled")
    info = kernels.kernel_info()
    assert info["backend"] == "python"
    assert "backend must be one of" in info["error"]


# ---------------------------------------------------------------------------
# get_kernel memoizes its resolution on the raw env string
# ---------------------------------------------------------------------------

def test_get_kernel_resolves_once_per_env_value(monkeypatch):
    resolutions = []
    real = kernels.resolve_backend

    def counting():
        resolutions.append(kernels.os.environ.get(kernels.ENV_VAR))
        return real()

    monkeypatch.setattr(kernels, "resolve_backend", counting)
    monkeypatch.setenv(kernels.ENV_VAR, "python")
    for _ in range(3):
        assert kernels.get_kernel("fold_step") is None
    assert resolutions == ["python"]
    monkeypatch.setenv(kernels.ENV_VAR, "auto")
    kernels.get_kernel("fold_step")
    kernels.get_kernel("mg_update")
    assert resolutions == ["python", "auto"]
    kernels.reset_for_tests()
    kernels.get_kernel("fold_step")
    assert resolutions == ["python", "auto", "auto"]


def test_refused_env_values_raise_on_every_call(monkeypatch):
    monkeypatch.setenv(kernels.ENV_VAR, "numba")
    for _ in range(2):
        with pytest.raises(ParameterError, match="backend must be one of"):
            kernels.get_kernel("fold_step")


def test_flipping_the_env_between_mergers_switches_the_backend(monkeypatch):
    if not kernels.available():  # pragma: no cover - toolchain-free lane
        pytest.skip("no C toolchain in this environment")
    from repro.api import framing, wire

    table = kernels._c_provider.load()
    binder = table["fold_step"]
    steps = []

    def counting_binder(*buffers):
        bound = binder(*buffers)

        def counting_step(*args):
            steps.append(args)
            return bound(*args)
        counting_step.intern = bound.intern
        return counting_step

    monkeypatch.setitem(table, "fold_step", counting_binder)
    bodies = [framing.payload_frame_body(
        wire.encode_counters(counters, k=4, stream_length=3))
        for counters in ({3: 2.0, 9: 1.0}, {3: 1.0, 5: 2.0})]
    merged = []
    for backend, expected_steps in (("cc", 1), ("python", 1), ("cc", 2),
                                    ("python", 2)):
        monkeypatch.setenv(kernels.ENV_VAR, backend)
        # The first step of a fold runs in numpy; the second is compiled
        # only under cc.
        merger = framing.StreamingMerger(4)
        for body in bodies:
            merger.add(framing.decode_payload_body(body))
        merged.append(merger.merged())
        assert len(steps) == expected_steps, backend
    assert all(summary == merged[0] for summary in merged)
    assert all(list(summary) == list(merged[0]) for summary in merged)
