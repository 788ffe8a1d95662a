"""Registry-wide conformance suite: every entry honors the same contract.

Parametrized over **every** ``list_mechanisms()`` / ``list_sketches()`` entry
— no skips, no per-name allowlist.  The only branching is on the entry's own
``consumes`` tag, which is exactly the dispatch contract the registry
promises.  Each mechanism must:

* construct from a spec dict round-tripped through ``normalize_spec``,
* drive a successful end-to-end :class:`Pipeline` release on a small seeded
  stream chosen by its ``consumes`` tag,
* release histograms whose keys all come from the input stream,
* reject invalid parameters with the registry's
  :class:`~repro.exceptions.ParameterError` (never a bare ``TypeError`` from
  deep inside a constructor).

The ``repro list`` CLI output is asserted to match the parametrized set, so
the table users see and the set this suite locks down cannot drift apart.

The whole suite runs **twice** — once with ``REPRO_KERNELS=python`` and once
with ``REPRO_KERNELS=cc`` (skipped when no C toolchain exists) — so every
registry entry honours the identical contract on both kernel backends.  The
env var is the tier's only backend switch, so this exercises exactly what a
deploy pinning a backend would run.
"""

from __future__ import annotations

import pytest

from repro import kernels
from repro.api import Pipeline, describe_pipeline, list_mechanisms, list_sketches
from repro.api.registry import (
    CONSUMES,
    MechanismAdapter,
    make_mechanism,
    make_sketch,
    mechanism_entry,
    normalize_spec,
    sketch_entry,
)
from repro.cli import main
from repro.core.results import PrivateHistogram
from repro.exceptions import ParameterError

#: The pipeline-level parameter grab-bag: every factory filters this to its
#: own signature, so one set drives every registered mechanism.
PARAMS = dict(k=16, epsilon=4.0, delta=1e-6, universe_size=32,
              max_contribution=4, phi=0.05, block_size=30)

#: Universe of the conformance stream.  The stream covers the whole universe,
#: so "released keys came from the input" holds even for mechanisms that
#: enumerate the universe (pure_dp, local_dp, prefix_tree).
UNIVERSE = 32

MECHANISMS = sorted(list_mechanisms())
SKETCHES = sorted(list_sketches())


@pytest.fixture(autouse=True, params=["python", "cc"])
def kernel_backend(request, monkeypatch):
    """Run every conformance test under both kernel backends."""
    if request.param == "cc" and not kernels.available():
        pytest.skip("no C toolchain on this host")
    monkeypatch.setenv(kernels.ENV_VAR, request.param)
    return request.param


def _flat_stream():
    """A seeded integer stream covering the universe, with clear heavy hitters."""
    stream = [value % UNIVERSE for value in range(2 * UNIVERSE)]
    stream += [0] * 60 + [1] * 40 + [2] * 25
    return stream


def _user_stream():
    """The flat stream regrouped into per-user sets of <= max_contribution."""
    users = [[index, (index + 1) % UNIVERSE] for index in range(UNIVERSE)]
    users += [[0, 1, 2]] * 20
    return users


def _fitted_pipeline(name):
    pipeline = Pipeline(mechanism=name, **PARAMS)
    consumes = pipeline.mechanism.consumes
    if consumes == "user_stream":
        pipeline.fit(_user_stream())
        allowed = {element for user in _user_stream() for element in user}
    elif consumes == "sketch_list":
        stream = _flat_stream()
        pipeline.fit(stream[: len(stream) // 2])
        pipeline.fit(stream[len(stream) // 2:])
        allowed = set(stream)
    else:  # sketch, stream, checkpointed_stream: one flat element stream
        stream = _flat_stream()
        pipeline.fit(stream)
        allowed = set(stream)
    return pipeline, allowed


# ---------------------------------------------------------------------------
# Mechanisms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", MECHANISMS)
def test_mechanism_entry_contract(name):
    entry = mechanism_entry(name)
    assert entry.name == name
    assert entry.consumes in CONSUMES
    assert entry.description, f"{name} must carry a description"
    described = describe_pipeline(name)
    assert described["consumes"] == entry.consumes


@pytest.mark.parametrize("name", MECHANISMS)
def test_mechanism_spec_round_trip_construction(name):
    spec = {"name": name}
    round_tripped_name, params = normalize_spec(spec)
    assert (round_tripped_name, params) == (name, {})
    adapter = make_mechanism(spec, **PARAMS)
    assert isinstance(adapter, MechanismAdapter)
    assert adapter.name == name
    assert adapter.consumes == mechanism_entry(name).consumes


@pytest.mark.parametrize("name", MECHANISMS)
def test_mechanism_end_to_end_release_via_consumes_tag(name):
    pipeline, allowed = _fitted_pipeline(name)
    histogram = pipeline.release(rng=0)
    assert isinstance(histogram, PrivateHistogram)
    assert histogram.metadata.epsilon > 0
    released = set(histogram.counts)
    assert released <= allowed, (
        f"{name} released keys outside its input: {sorted(released - allowed)[:5]}")


@pytest.mark.parametrize("name", MECHANISMS)
def test_mechanism_rejects_unknown_spec_parameter(name):
    with pytest.raises(ParameterError, match="does not accept"):
        make_mechanism({"name": name, "definitely_not_a_parameter": 1}, **PARAMS)


@pytest.mark.parametrize("name", MECHANISMS)
def test_mechanism_rejects_invalid_epsilon_with_parameter_error(name):
    params = dict(PARAMS, epsilon=-1.0)
    with pytest.raises(ParameterError):
        make_mechanism(name, **params)


# ---------------------------------------------------------------------------
# Sketches
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", SKETCHES)
def test_sketch_entry_contract(name):
    entry = sketch_entry(name)
    assert entry.name == name
    assert entry.description, f"{name} must carry a description"


@pytest.mark.parametrize("name", SKETCHES)
def test_sketch_spec_round_trip_and_uniform_interface(name):
    sketch = make_sketch({"name": name}, k=16)
    stream = _flat_stream()
    sketch.update_all(stream)
    assert sketch.stream_length == len(stream)
    counters = sketch.counters()
    assert set(counters) <= set(stream)
    assert all(isinstance(value, float) for value in counters.values())
    assert isinstance(sketch.estimate(0), float)


@pytest.mark.parametrize("name", SKETCHES)
def test_sketch_rejects_unknown_spec_parameter(name):
    with pytest.raises(ParameterError, match="does not accept"):
        make_sketch({"name": name, "definitely_not_a_parameter": 1}, k=16)


def test_misra_gries_spec_refuses_a_backend_parameter():
    """``REPRO_KERNELS`` is the only backend switch; specs carry none."""
    with pytest.raises(ParameterError, match="does not accept"):
        make_sketch({"name": "misra_gries", "backend": "cc"}, k=16)


# ---------------------------------------------------------------------------
# CLI listing matches the parametrized set
# ---------------------------------------------------------------------------

def test_repro_list_matches_registered_set(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    for name in MECHANISMS:
        assert name in output, f"mechanism {name} missing from `repro list`"
    for name in SKETCHES:
        assert name in output, f"sketch {name} missing from `repro list`"
    for consumes in sorted({mechanism_entry(name).consumes for name in MECHANISMS}):
        assert consumes in output, f"consumes kind {consumes} missing from `repro list`"
