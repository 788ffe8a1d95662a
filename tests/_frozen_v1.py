"""Frozen writer of v1 sketch and histogram files.

The library writes only wire v2 files but still loads the v1 files its
earlier releases wrote.  This module reproduces those files so the tests can
check that they load: ``sketch_to_dict`` and ``histogram_to_dict`` (with the
``_encode_key`` tokens they use) are the v1 writer functions exactly as they
last shipped in ``repro.sketches.serialization``, and ``save_v1`` writes a
file the way ``save_sketch``/``save_histogram`` did with ``format="v1"``.

Like the frozen ``_reference*`` engine modules, this file records a past
behaviour and must not change with the library.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path
from typing import Dict, Hashable, Union

from repro.core.results import PrivateHistogram
from repro.exceptions import ParameterError
from repro.sketches.misra_gries import DummyKey, MisraGriesSketch
from repro.sketches.misra_gries_standard import StandardMisraGriesSketch

_FORMAT_VERSION = 1


def _encode_key(key: Hashable) -> str:
    if isinstance(key, DummyKey):
        return f"__dummy__:{key.index}"
    if isinstance(key, bytes):
        return "b:" + base64.b64encode(key).decode("ascii")
    if isinstance(key, bool) or not isinstance(key, (int, str)):
        raise ParameterError(f"only int, str and bytes keys can be serialized, got {key!r}")
    if isinstance(key, int):
        return f"i:{key}"
    return f"s:{key}"


def sketch_to_dict(sketch: Union[MisraGriesSketch, StandardMisraGriesSketch]) -> Dict:
    """A JSON-serializable dict representation of a Misra-Gries sketch."""
    if isinstance(sketch, MisraGriesSketch):
        kind = "misra_gries_paper"
        counters = sketch.raw_counters()
        extra = {"decrement_rounds": sketch.decrement_rounds}
    elif isinstance(sketch, StandardMisraGriesSketch):
        kind = "misra_gries_standard"
        counters = sketch.counters()
        extra = {"decrement_rounds": sketch.decrement_rounds}
    else:
        raise ParameterError(f"unsupported sketch type: {type(sketch)!r}")
    return {
        "format_version": _FORMAT_VERSION,
        "kind": kind,
        "k": sketch.size,
        "stream_length": sketch.stream_length,
        "counters": {_encode_key(key): value for key, value in counters.items()},
        **extra,
    }


def histogram_to_dict(histogram) -> Dict:
    """A JSON-serializable representation of a released PrivateHistogram."""
    return {
        "format_version": _FORMAT_VERSION,
        "kind": "private_histogram",
        "counts": {_encode_key(key): value for key, value in histogram.items()},
        "metadata": histogram.metadata.as_dict(),
    }


def save_v1(source, path) -> Path:
    """Write a sketch or histogram to ``path`` as a v1 file; returns the path."""
    if isinstance(source, PrivateHistogram):
        payload = histogram_to_dict(source)
    else:
        payload = sketch_to_dict(source)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    return target
