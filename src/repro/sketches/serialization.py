"""Serialization of sketches and private histograms.

Distributed deployments (Section 7) ship sketches from edge servers to an
aggregator; this module provides a stable JSON representation for the
counter-based sketches and for released histograms so they can cross process
or machine boundaries without pickling arbitrary objects.

Two on-disk formats are understood:

* **v1** (this module's original row format): counters as a
  ``{token: value}`` object with per-key type-prefixed tokens.
* **v2** (:mod:`repro.api.wire`): a columnar envelope with parallel ``keys``
  and ``values`` arrays whose integer fast path feeds
  :func:`repro.sketches.merge.merge_many` as a ``(keys, values)`` pair,
  with no per-key Python.

``save_sketch``/``save_histogram`` write v2 by default (``format="v1"`` keeps
the old layout); the loaders accept either version transparently.

Keys may be ints, strings or bytes; integer keys round-trip back to ``int``
and bytes keys are carried as base64.
"""

from __future__ import annotations

import base64
import binascii
import json
from pathlib import Path
from typing import Dict, Hashable, Union

from ..exceptions import ParameterError, SketchStateError
from .misra_gries import DummyKey, MisraGriesSketch
from .misra_gries_standard import StandardMisraGriesSketch

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def _normalize_format(format: Union[str, int, None]) -> int:
    if format in (None, 2, "2", "v2"):
        return 2
    if format in (1, "1", "v1"):
        return 1
    raise ParameterError(f"unknown wire format {format!r}; use 'v1' or 'v2'")


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


def _decode_key(token: str) -> Hashable:
    if token.startswith("__dummy__:"):
        return DummyKey(int(token.split(":", 1)[1]))
    kind, _, payload = token.partition(":")
    if kind == "i":
        return int(payload)
    if kind == "s":
        return payload
    if kind == "b":
        try:
            return base64.b64decode(payload.encode("ascii"), validate=True)
        except (binascii.Error, ValueError) as error:
            raise SketchStateError(f"invalid base64 bytes key {token!r}") from error
    raise SketchStateError(f"unrecognized serialized key {token!r}")


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


def sketch_from_dict(payload: Dict) -> Union[MisraGriesSketch, StandardMisraGriesSketch]:
    """Reconstruct a sketch from :func:`sketch_to_dict` output.

    The reconstructed object reproduces the stored counters, stream length and
    decrement count; it continues to accept updates.
    """
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise SketchStateError(f"unsupported sketch format version {version!r}")
    kind = payload.get("kind")
    k = int(payload["k"])
    counters = {_decode_key(token): float(value)
                for token, value in payload["counters"].items()}
    if kind == "misra_gries_paper":
        sketch = MisraGriesSketch(k)
        sketch._restore_state(counters,
                              stream_length=int(payload["stream_length"]),
                              decrement_rounds=int(payload.get("decrement_rounds", 0)))
        return sketch
    if kind == "misra_gries_standard":
        sketch = StandardMisraGriesSketch(k)
        if len(counters) > k:
            raise SketchStateError("standard sketch stores at most k counters")
        sketch._counters = dict(counters)
        sketch._stream_length = int(payload["stream_length"])
        sketch._decrement_rounds = int(payload.get("decrement_rounds", 0))
        return sketch
    raise SketchStateError(f"unrecognized sketch kind {kind!r}")


def save_sketch(sketch, path: PathLike, format: Union[str, int, None] = None) -> None:
    """Write a sketch to ``path`` as JSON.

    ``format`` selects the wire version: ``"v2"`` (the default, columnar
    envelope from :mod:`repro.api.wire`) or ``"v1"`` (the original row
    format).  Only the Misra-Gries variants have restorable full state; for
    other sketches ship their counters with
    :func:`repro.api.wire.encode_counters` (readable via ``load_payload``,
    not ``load_sketch``).
    """
    if not isinstance(sketch, (MisraGriesSketch, StandardMisraGriesSketch)):
        raise ParameterError(
            f"only Misra-Gries sketches round-trip through save_sketch/load_sketch, "
            f"got {type(sketch)!r}; use repro.api.wire.encode_counters for a "
            f"counters-only export")
    if _normalize_format(format) == 2:
        from ..api.wire import encode_sketch

        payload = encode_sketch(sketch)
    else:
        payload = sketch_to_dict(sketch)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def load_sketch(path: PathLike):
    """Read a sketch previously written by :func:`save_sketch` (v1 or v2)."""
    with Path(path).open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") == 2:
        from ..api.wire import payload_to_sketch

        return payload_to_sketch(payload)
    return sketch_from_dict(payload)


def histogram_to_dict(histogram) -> Dict:
    """A JSON-serializable representation of a released PrivateHistogram."""
    return {
        "format_version": _FORMAT_VERSION,
        "kind": "private_histogram",
        "counts": {_encode_key(key): value for key, value in histogram.items()},
        "metadata": histogram.metadata.as_dict(),
    }


def histogram_from_dict(payload: Dict):
    """Reconstruct a :class:`~repro.core.results.PrivateHistogram`."""
    from ..core.results import PrivateHistogram, ReleaseMetadata

    if payload.get("kind") != "private_histogram":
        raise SketchStateError("payload does not describe a private histogram")
    metadata = ReleaseMetadata(**payload["metadata"])
    counts = {_decode_key(token): float(value) for token, value in payload["counts"].items()}
    return PrivateHistogram(counts=counts, metadata=metadata)


def save_histogram(histogram, path: PathLike, format: Union[str, int, None] = None) -> None:
    """Write a released histogram to ``path`` as JSON (``format``: v1 or v2)."""
    if _normalize_format(format) == 2:
        from ..api.wire import encode_histogram

        payload = encode_histogram(histogram)
    else:
        payload = histogram_to_dict(histogram)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def load_histogram(path: PathLike):
    """Read a histogram previously written by :func:`save_histogram` (v1 or v2)."""
    with Path(path).open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") == 2:
        from ..api.wire import payload_to_histogram

        return payload_to_histogram(payload)
    return histogram_from_dict(payload)
