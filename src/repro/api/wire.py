"""Versioned columnar wire protocol (v2) for sketches and histograms.

The v1 format (:mod:`repro.sketches.serialization`) stores counters as a
``{token: value}`` JSON object, which forces a per-key Python decode on the
aggregator.  The v2 envelope defined here is *columnar*: keys and values
travel as two parallel JSON arrays,

.. code-block:: json

    {"format": 2, "kind": "misra_gries_paper", "k": 256,
     "key_encoding": "int", "keys": [3, 17, 42], "values": [9.0, 4.0, 1.0],
     "meta": {"stream_length": 100000, "decrement_rounds": 12}}

so the integer fast path (``key_encoding == "int"``, the common case for the
paper's workloads) decodes each sketch into one ``np.asarray`` call and feeds
:func:`repro.sketches.merge.merge_many_arrays` directly — no per-key Python
at all between the wire and the vectorized merge fold.  Sketches with
non-integer keys (strings, bytes, the paper variant's dummy padding keys)
fall back to ``key_encoding == "token"`` using the same type-prefixed tokens
as v1, so every serializable key round-trips bit-exactly through either
encoding.

Envelope kinds
--------------
``misra_gries_paper`` / ``misra_gries_standard``
    Full sketch state; :func:`payload_to_sketch` reconstructs an updatable
    sketch object, exactly as the v1 loader does.
``counters``
    A bare counter export (any :class:`~repro.sketches.base.FrequencySketch`
    or plain mapping).  ``meta.sketch`` records the producing sketch type.
``private_histogram``
    A released :class:`~repro.core.results.PrivateHistogram`; ``meta`` holds
    the full :class:`~repro.core.results.ReleaseMetadata`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.results import PrivateHistogram, ReleaseMetadata
from ..exceptions import ParameterError, SketchStateError
from ..sketches.base import FrequencySketch
from ..sketches.misra_gries import MisraGriesSketch
from ..sketches.misra_gries_standard import StandardMisraGriesSketch
from ..sketches.serialization import _decode_key, _encode_key

#: Version tag of the columnar envelope ("format" field).
WIRE_FORMAT_VERSION = 2

_SKETCH_KINDS = ("misra_gries_paper", "misra_gries_standard")
_KINDS = _SKETCH_KINDS + ("counters", "private_histogram")


def _unsupported_version_message(payload: Mapping) -> str:
    declared = {field: payload[field] for field in ("format", "format_version")
                if field in payload}
    if declared:
        claim = ", ".join(f"{field}: {value!r}" for field, value in sorted(declared.items()))
        head = f"unsupported wire version ({claim})"
    else:
        head = "payload declares no wire version"
    return (f"{head}; supported versions are v1 ('format_version': 1) "
            f"and v2 ('format': {WIRE_FORMAT_VERSION})")


def wire_version(payload: Mapping) -> int:
    """The wire version of a decoded JSON payload (1 or 2)."""
    if payload.get("format") == WIRE_FORMAT_VERSION:
        return 2
    if payload.get("format_version") == 1:
        return 1
    raise SketchStateError(_unsupported_version_message(payload))


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _is_plain_int(key: Hashable) -> bool:
    # Ints beyond int64 take the token path so the decoder's np.asarray
    # fast path never overflows (and JSON numbers stay interoperable).
    return (isinstance(key, int) and not isinstance(key, bool)
            and _INT64_MIN <= key <= _INT64_MAX)


def _encode_columns(counters: Mapping[Hashable, float]) -> Dict[str, object]:
    """Columnar ``key_encoding``/``keys``/``values`` fields for a counter dict."""
    keys = list(counters.keys())
    values = [float(value) for value in counters.values()]
    if all(_is_plain_int(key) for key in keys):
        return {"key_encoding": "int", "keys": keys, "values": values}
    return {"key_encoding": "token",
            "keys": [_encode_key(key) for key in keys],
            "values": values}


class WirePayload:
    """A decoded v2 envelope.

    ``keys`` holds the decoded Python keys.  When the envelope used the
    integer encoding, ``key_array`` additionally holds the keys as an int64
    ndarray (decoded with a single ``np.asarray`` call) so columnar consumers
    like :func:`~repro.sketches.merge.merge_many_arrays` can skip Python keys
    entirely; it is ``None`` for token-encoded payloads.

    ``keys`` is **lazy** for integer payloads: a decoder that already has
    ``key_array`` may pass ``keys=None`` and the Python key list is
    materialized (one ``tolist()``) only if something actually reads it.
    The aggregator hot path — binary frames into
    :class:`~repro.api.framing.StreamingMerger` — therefore never touches a
    Python key object.

    ``frame`` is ``(body, at)`` when ``key_array`` and ``values`` are views
    of the bytes ``body`` (keys from byte ``at``, values right after them),
    so the compiled fold can read the frame itself; ``None`` otherwise.
    """

    __slots__ = ("kind", "values", "k", "meta", "key_array", "_keys", "frame")

    def __init__(self, kind: str, keys: Optional[List[Hashable]],
                 values: np.ndarray, k: Optional[int] = None,
                 meta: Optional[Dict[str, object]] = None,
                 key_array: Optional[np.ndarray] = None,
                 frame: Optional[Tuple[bytes, int]] = None) -> None:
        if keys is None and key_array is None:
            raise ParameterError(
                "WirePayload needs decoded keys (or a key_array to derive them from)")
        self.kind = kind
        self.values = values
        self.k = k
        self.meta = {} if meta is None else meta
        self.key_array = key_array
        self._keys = keys
        self.frame = frame

    @property
    def keys(self) -> List[Hashable]:
        """The decoded Python keys (materialized on first access)."""
        if self._keys is None:
            self._keys = self.key_array.tolist()
        return self._keys

    def __repr__(self) -> str:
        return (f"WirePayload(kind={self.kind!r}, count={self.values.size}, "
                f"k={self.k}, columnar={self.key_array is not None})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WirePayload):
            return NotImplemented
        return (self.kind == other.kind and self.keys == other.keys
                and np.array_equal(self.values, other.values)
                and self.k == other.k and self.meta == other.meta)

    @property
    def stream_length(self) -> int:
        """The producer's stream length (0 when the envelope carries none)."""
        return int(self.meta.get("stream_length", 0))

    def counters(self) -> Dict[Hashable, float]:
        """The payload's counters as a plain dict (insertion order preserved)."""
        return dict(zip(self.keys, self.values.tolist()))

    def merge_counters(self) -> Dict[Hashable, float]:
        """The counters a merge should consume.

        Full paper-variant sketch state carries dummy padding keys; merging
        operates on the real counters (the class-level ``counters()`` view),
        so those are stripped here — every other kind passes through as-is.
        """
        counters = self.counters()
        if self.kind == "misra_gries_paper":
            from ..sketches.misra_gries import DummyKey

            counters = {key: value for key, value in counters.items()
                        if not isinstance(key, DummyKey)}
        return counters

    def columnar(self) -> Optional[tuple]:
        """``(key_array, values)`` when the integer fast path applies, else ``None``."""
        if self.key_array is None:
            return None
        return self.key_array, self.values


def encode_counters(counters: Union[FrequencySketch, Mapping[Hashable, float]],
                    k: Optional[int] = None,
                    stream_length: Optional[int] = None,
                    sketch: Optional[str] = None) -> Dict:
    """Encode a counter mapping (or any sketch's ``counters()``) as a v2 envelope."""
    if isinstance(counters, FrequencySketch):
        source = counters
        counters = source.counters()
        if k is None:
            k = getattr(source, "size", None)
        if stream_length is None:
            stream_length = source.stream_length
        if sketch is None:
            sketch = type(source).__name__
    meta: Dict[str, object] = {"stream_length": int(stream_length or 0)}
    if sketch is not None:
        meta["sketch"] = sketch
    return {
        "format": WIRE_FORMAT_VERSION,
        "kind": "counters",
        "k": int(k) if k is not None else None,
        "meta": meta,
        **_encode_columns(counters),
    }


def encode_sketch(sketch) -> Dict:
    """Encode a sketch as a v2 envelope.

    Misra-Gries variants keep their full state (including the paper variant's
    dummy keys) and reconstruct as updatable sketch objects; every other
    :class:`FrequencySketch` is carried as a ``counters`` envelope.
    """
    if isinstance(sketch, MisraGriesSketch):
        kind = "misra_gries_paper"
        counters = sketch.raw_counters()
    elif isinstance(sketch, StandardMisraGriesSketch):
        kind = "misra_gries_standard"
        counters = sketch.counters()
    elif isinstance(sketch, FrequencySketch):
        return encode_counters(sketch)
    else:
        raise ParameterError(f"unsupported sketch type: {type(sketch)!r}")
    return {
        "format": WIRE_FORMAT_VERSION,
        "kind": kind,
        "k": sketch.size,
        "meta": {"stream_length": sketch.stream_length,
                 "decrement_rounds": sketch.decrement_rounds},
        **_encode_columns(counters),
    }


def encode_histogram(histogram: PrivateHistogram) -> Dict:
    """Encode a released :class:`PrivateHistogram` as a v2 envelope."""
    return {
        "format": WIRE_FORMAT_VERSION,
        "kind": "private_histogram",
        "k": histogram.metadata.sketch_size,
        "meta": dict(histogram.metadata.as_dict()),
        **_encode_columns(histogram.counts),
    }


def decode(payload: Mapping) -> WirePayload:
    """Decode a v2 envelope into a :class:`WirePayload`.

    Integer-encoded keys are materialized with a single ``np.asarray`` call —
    the decoded ``key_array``/``values`` pair can be handed to
    :func:`merge_many_arrays` without touching a Python object per key.
    """
    if payload.get("format") != WIRE_FORMAT_VERSION:
        raise SketchStateError(
            f"not a wire v2 payload: {_unsupported_version_message(payload)}")
    kind = payload.get("kind")
    if kind not in _KINDS:
        raise SketchStateError(f"unrecognized wire v2 kind {kind!r}")
    encoding = payload.get("key_encoding")
    raw_keys = payload.get("keys", [])
    values = np.asarray(payload.get("values", []), dtype=np.float64)
    if values.ndim != 1 or len(raw_keys) != values.size:
        raise SketchStateError(
            f"malformed columnar payload: {len(raw_keys)} keys vs {values.size} values")
    key_array: Optional[np.ndarray] = None
    if encoding == "int":
        key_array = np.asarray(raw_keys, dtype=np.int64)
        keys: List[Hashable] = key_array.tolist()
    elif encoding == "token":
        keys = [_decode_key(token) for token in raw_keys]
    else:
        raise SketchStateError(f"unrecognized key encoding {encoding!r}")
    k = payload.get("k")
    return WirePayload(kind=kind, keys=keys, values=values,
                       k=int(k) if k is not None else None,
                       meta=dict(payload.get("meta", {})),
                       key_array=key_array)


def encode_payload(wire: WirePayload) -> Dict:
    """Re-encode a decoded :class:`WirePayload` as a v2 envelope dict.

    The inverse of :func:`decode`: keys/values round-trip bit-exactly through
    the same columnar encoding the original envelope used, so a payload can
    be loaded from any v1/v2 file and re-shipped (e.g. repacked into a framed
    stream) without touching the sketch state.
    """
    return {
        "format": WIRE_FORMAT_VERSION,
        "kind": wire.kind,
        "k": int(wire.k) if wire.k is not None else None,
        "meta": dict(wire.meta),
        **_encode_columns(wire.counters()),
    }


def payload_to_sketch(payload: Union[Mapping, WirePayload]):
    """Reconstruct a Misra-Gries sketch object from a v2 sketch envelope."""
    wire = payload if isinstance(payload, WirePayload) else decode(payload)
    if wire.kind not in _SKETCH_KINDS:
        raise SketchStateError(
            f"wire payload of kind {wire.kind!r} does not describe a sketch object")
    if wire.k is None:
        raise SketchStateError("sketch envelope is missing its size k")
    counters = wire.counters()
    rounds = int(wire.meta.get("decrement_rounds", 0))
    if wire.kind == "misra_gries_paper":
        sketch = MisraGriesSketch(wire.k)
        sketch._restore_state(counters, stream_length=wire.stream_length,
                              decrement_rounds=rounds)
        return sketch
    sketch = StandardMisraGriesSketch(wire.k)
    if len(counters) > wire.k:
        raise SketchStateError("standard sketch stores at most k counters")
    sketch._counters = dict(counters)
    sketch._stream_length = wire.stream_length
    sketch._decrement_rounds = rounds
    return sketch


def payload_to_histogram(payload: Union[Mapping, WirePayload]) -> PrivateHistogram:
    """Reconstruct a :class:`PrivateHistogram` from a v2 histogram envelope."""
    wire = payload if isinstance(payload, WirePayload) else decode(payload)
    if wire.kind != "private_histogram":
        raise SketchStateError("payload does not describe a private histogram")
    metadata = ReleaseMetadata(**wire.meta)
    return PrivateHistogram(counts=wire.counters(), metadata=metadata)


def load_payload(path) -> WirePayload:
    """Read any v1 or v2 JSON file into a :class:`WirePayload`.

    v1 payloads are up-converted: sketches decode through the v1 loader and
    re-export their counters, so callers can treat every file uniformly.
    """
    import json
    from pathlib import Path

    from ..sketches.serialization import histogram_from_dict, sketch_from_dict

    with Path(path).open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    try:
        version = wire_version(payload)
    except SketchStateError as error:
        raise SketchStateError(f"{path}: {error}") from None
    if version == 2:
        return decode(payload)
    kind = payload.get("kind")
    if kind == "private_histogram":
        histogram = histogram_from_dict(payload)
        return decode(encode_histogram(histogram))
    sketch = sketch_from_dict(payload)
    return decode(encode_sketch(sketch))
