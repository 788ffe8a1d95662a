"""Sketch and histogram files.

Distributed deployments (Section 7) ship sketches from edge servers to an
aggregator; this module writes the counter-based sketches and released
histograms as JSON files so they can cross process or machine boundaries
without pickling arbitrary objects.

Every file is written as a wire v2 envelope (:mod:`repro.api.wire`), and
every file is read through :func:`repro.api.wire.load_payload`.  Files in
the older v1 layout (``format_version: 1``, counters as a ``{token: value}``
object) still load: :func:`_v1_envelope` rewrites such a dict as the
equivalent v2 envelope, so it passes the same decoder and the same checks.

Keys may be ints, strings or bytes; integer keys round-trip back to ``int``
and bytes keys are carried as base64.
"""

from __future__ import annotations

import base64
import binascii
from pathlib import Path
from typing import Dict, Hashable, Mapping, Union

from ..exceptions import ParameterError, SketchStateError
from .misra_gries import DummyKey, MisraGriesSketch
from .misra_gries_standard import StandardMisraGriesSketch

PathLike = Union[str, Path]


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


#: The v1 kinds and the field holding each one's ``{token: value}`` object.
_V1_COLUMNS = {"misra_gries_paper": "counters", "misra_gries_standard": "counters",
               "private_histogram": "counts"}


def _v1_envelope(payload: Mapping) -> Dict:
    """The wire v2 envelope a v1 file's dict stands for.

    Only the v1 layout is checked here; ``k``, ``meta``, the tokens and the
    values are checked by :func:`repro.api.wire.decode` and the
    ``payload_to_*`` restorers, as for any v2 file.
    """
    kind = payload.get("kind")
    column = _V1_COLUMNS.get(kind) if isinstance(kind, str) else None
    if payload.get("format_version") != 1 or column is None:
        raise SketchStateError(f"unrecognized v1 kind {kind!r}")
    counters = payload.get(column)
    meta = payload.get("metadata") if kind == "private_histogram" else {}
    for field, value in ((column, counters), ("metadata", meta)):
        if not isinstance(value, dict):
            raise SketchStateError(
                f"v1 {kind} file declares a bad {field} {value!r}; it must "
                "be a JSON object")
    if kind == "private_histogram":
        k = meta.get("sketch_size")
    else:
        k = payload.get("k")
        meta = {"stream_length": payload.get("stream_length"),
                "decrement_rounds": payload.get("decrement_rounds", 0)}
    return {"format": 2, "kind": kind, "k": k, "meta": meta,
            "key_encoding": "token", "keys": list(counters),
            "values": list(counters.values())}


def save_sketch(sketch, path: PathLike) -> None:
    """Write a Misra-Gries sketch to ``path`` as a wire v2 envelope.

    Only the Misra-Gries variants have restorable full state; for other
    sketches ship their counters with
    :func:`repro.api.wire.encode_counters` (readable via ``load_payload``,
    not ``load_sketch``).
    """
    if not isinstance(sketch, (MisraGriesSketch, StandardMisraGriesSketch)):
        raise ParameterError(
            f"only Misra-Gries sketches round-trip through save_sketch/load_sketch, "
            f"got {type(sketch)!r}; use repro.api.wire.encode_counters for a "
            f"counters-only export")
    from ..api.wire import encode_sketch, save_payload

    save_payload(encode_sketch(sketch), path)


def load_sketch(path: PathLike):
    """Read a sketch file (v2, or v1 written by an older release)."""
    from ..api.wire import load_payload, payload_to_sketch, refusals_naming

    payload = load_payload(path)
    with refusals_naming(path):
        return payload_to_sketch(payload)


def save_histogram(histogram, path: PathLike) -> None:
    """Write a released histogram to ``path`` as a wire v2 envelope."""
    from ..api.wire import encode_histogram, save_payload

    save_payload(encode_histogram(histogram), path)


def load_histogram(path: PathLike):
    """Read a histogram file (v2, or v1 written by an older release)."""
    from ..api.wire import load_payload, payload_to_histogram, refusals_naming

    payload = load_payload(path)
    with refusals_naming(path):
        return payload_to_histogram(payload)
