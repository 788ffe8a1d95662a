"""Length-prefixed chunked framing for wire-v2 envelopes (streaming transport).

The deployment story of the paper is ``m`` untrusted clients each exporting
one Misra-Gries sketch to an aggregator that merges and releases privately.
A plain JSON file per sketch forces the aggregator to either open ``m``
files or buffer one giant JSON array; this module defines a *framed* binary
container so all ``m`` exports travel in one stream (a file, a socket, a
pipe) and the aggregator decodes **one sketch at a time**:

.. code-block:: text

    +---------------------------+
    | magic  b"RPRF"  (4 bytes) |
    | framing version (1 byte)  |
    +---------------------------+
    | frame 0: header           |  {"kind": "frame_header", "framing": 1,
    |   u32 length (big-endian) |   "frames": m or null, "k": ..., "meta": {}}
    |   UTF-8 JSON payload      |
    +---------------------------+
    | frame 1..m: envelopes     |  each a wire-v2 envelope (format: 2),
    |   u32 length (big-endian) |  one frame per sketch export
    |   JSON or binary columnar |
    +---------------------------+

A payload frame body is one of two self-describing encodings, distinguished
by its first byte:

* ``0x7B`` (``{``) — a UTF-8 JSON wire-v2 envelope, exactly as
  :func:`repro.api.wire.decode` consumes it.
* ``0x01`` — a *binary columnar* envelope for integer-keyed exports:
  ``0x01 | u32 header_len | header JSON | int64-LE keys | float64-LE values``
  where the header carries the envelope fields minus ``keys``/``values``
  (plus ``count``).  Decoding is two ``np.frombuffer`` views — no JSON
  number parsing on the hot path — and round-trips bit-exactly (raw IEEE
  bits for values, raw two's-complement for keys).

A ``misra_gries_paper`` export that has seen fewer than ``k`` distinct
elements still holds Algorithm 1's dummy keys.  An engine-built sketch
stores them as a prefix ``DummyKey(k-d+1) ... DummyKey(k)`` of zero
counters, so when its envelope has exactly that prefix (each at ``+0.0``)
followed by plain int64 keys it also goes binary: the columns carry the
real keys only and the header declares the padding as one count,
``"dummies": d`` (absent means 0; refused on other kinds and outside
``0..k``).  Any other token-keyed envelope — a hand-restored sketch, a
non-zero dummy, a string or big-int key — stays a JSON frame, so every
frame round-trips bit for bit.

Rules:

* The first frame is always a header frame (JSON); its ``framing`` field
  repeats the container version so the header survives being copied out of
  the stream.  ``frames`` may declare the number of payload frames
  (``null`` for open-ended streams); when declared, the reader enforces it.
* Every payload frame is exactly one wire-v2 envelope
  (:mod:`repro.api.wire`), so framing composes with — rather than
  replaces — the versioned columnar wire protocol.
* A clean stream ends exactly at a frame boundary.  A truncated length
  prefix, a truncated frame body, an implausible length, an unrecognized
  frame tag, bytes that do not parse, a header field of the wrong type or
  range, or payload frames beyond a declared ``frames`` count all raise
  :class:`~repro.exceptions.FramingError`.

:class:`StreamingMerger` folds decoded frames into a running Agarwal merge
as they arrive — the aggregator never materializes the whole file, only the
current frame plus the ``<= k``-counter accumulator — and hands the summary
to :meth:`~repro.core.merging.PrivateMergedRelease.release_merged` at the
end.  The incremental fold is *bit-identical* to the buffered
``load_payload`` → :func:`~repro.sketches.merge.merge_many` path over the
frames' column pairs (property-tested in
``tests/property/test_framing_equivalence.py``).
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import check_positive_int
from ..core.merging import PrivateMergedRelease
from ..core.results import PrivateHistogram
from ..dp.rng import RandomState
from ..exceptions import FramingError, ParameterError
from ..sketches.base import FrequencySketch
from ..sketches.merge import FoldState
from . import wire as wire_module
from .wire import WIRE_FORMAT_VERSION, WirePayload

#: Container magic; the byte after it is the framing version.
MAGIC = b"RPRF"

#: Version of the framing container (independent of the envelope version).
FRAMING_VERSION = 1

#: Upper bound on a single frame's byte length.  A corrupt or garbage length
#: prefix must not make the reader allocate gigabytes before failing.
MAX_FRAME_BYTES = 1 << 28

#: First body byte of a binary columnar frame (JSON frames start with ``{``).
BINARY_FRAME_TAG = 0x01

#: First body byte of a *control* frame (``0x02 | UTF-8 JSON object``): the
#: aggregation control protocol of :mod:`repro.net` (HELLO/PUSH/RELEASE/...)
#: layered on this container format.  Payload-only streams (``repro pack``
#: files) never carry control frames; :class:`FrameReader` rejects them.
CONTROL_FRAME_TAG = 0x02

_BINARY_TAG = bytes([BINARY_FRAME_TAG])
_CONTROL_TAG = bytes([CONTROL_FRAME_TAG])

#: Whether the host's int64/float64 are the wire's little-endian layout.
_LITTLE_ENDIAN = sys.byteorder == "little"

_LENGTH = struct.Struct(">I")


@dataclass(frozen=True)
class FrameHeader:
    """The decoded header frame of a framed stream."""

    framing: int
    frames: Optional[int] = None
    k: Optional[int] = None
    meta: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {"kind": "frame_header", "framing": self.framing,
                "frames": self.frames, "k": self.k, "meta": dict(self.meta)}


def _read_exact(fileobj, count: int, what: str) -> bytes:
    """Read exactly ``count`` bytes, never more, raising on short streams."""
    chunks = []
    remaining = count
    while remaining:
        chunk = fileobj.read(remaining)
        if not chunk:
            got = count - remaining
            raise FramingError(f"truncated {what}: expected {count} bytes, got {got}")
        chunks.append(chunk)
        remaining -= len(chunk)
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)


# ---------------------------------------------------------------------------
# Frame codecs (shared by the sync reader/writer and the async repro.net
# channel — the byte layout lives here exactly once)
# ---------------------------------------------------------------------------

def stream_prefix() -> bytes:
    """The 5-byte stream prefix: magic plus container version."""
    return MAGIC + bytes([FRAMING_VERSION])


def check_stream_prefix(prefix: bytes) -> None:
    """Validate a 5-byte stream prefix, raising :class:`FramingError`."""
    if prefix[:len(MAGIC)] != MAGIC:
        raise FramingError(
            f"bad magic {prefix[:len(MAGIC)]!r}; not a framed wire stream")
    version = prefix[len(MAGIC)]
    if version != FRAMING_VERSION:
        raise FramingError(
            f"unsupported framing version {version}; this reader speaks "
            f"version {FRAMING_VERSION}")


def encode_frame(body: bytes) -> bytes:
    """Length-prefix one frame body (validates the plausibility bound)."""
    if len(body) > MAX_FRAME_BYTES:
        raise FramingError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES={MAX_FRAME_BYTES}")
    return _LENGTH.pack(len(body)) + body


def encode_json_frame(payload: Mapping) -> bytes:
    """One JSON frame (header or ``{``-tagged envelope), length prefix included."""
    return encode_frame(json.dumps(payload, sort_keys=True).encode("utf-8"))


def encode_control_frame(message: Mapping) -> bytes:
    """One control frame (tag 0x02 + JSON body), length prefix included.

    ``message`` must carry a string ``verb`` field — the control protocol's
    dispatch key (see :mod:`repro.net.protocol`).
    """
    if not isinstance(message.get("verb"), str):
        raise FramingError(
            f"control frames must carry a string 'verb' field, got {message!r}")
    body = json.dumps(message, sort_keys=True).encode("utf-8")
    return encode_frame(_CONTROL_TAG + body)


def decode_control_body(body: bytes) -> Dict[str, object]:
    """Decode a control frame body (``0x02`` tag included) into its message."""
    if body[:1] != _CONTROL_TAG:
        raise FramingError(
            f"not a control frame (tag {body[:1]!r}, expected 0x02)")
    message = FrameReader._parse_json_body(body[1:])
    if not isinstance(message.get("verb"), str):
        raise FramingError(
            f"control frame carries no string 'verb' field: {message!r}")
    return message


def encode_payload_frame(payload: Union[Mapping, WirePayload]) -> bytes:
    """One payload frame (binary columnar when possible), length prefix included."""
    return encode_frame(payload_frame_body(payload))


def payload_frame_body(payload: Union[Mapping, WirePayload]) -> bytes:
    """One payload frame *body* (no length prefix) — what ``push_raw`` and
    :func:`append_frame` consume verbatim.

    Integer-keyed envelopes, and paper-variant exports whose only other
    keys are their dummy padding prefix, go binary columnar; every other
    token-keyed envelope stays JSON (the reader decodes both)."""
    if isinstance(payload, WirePayload):
        payload = wire_module.encode_payload(payload)
    if payload.get("format") != WIRE_FORMAT_VERSION:
        raise FramingError(
            f"frames must carry wire v2 envelopes (format: {WIRE_FORMAT_VERSION}), "
            f"got format={payload.get('format')!r}")
    if payload.get("key_encoding") == "int":
        return _binary_frame_body(payload)
    padded = _dummy_padded_columns(payload)
    if padded is not None:
        return _binary_frame_body(payload, *padded)
    return json.dumps(payload, sort_keys=True).encode("utf-8")


#: Token prefix of a ``DummyKey`` (:mod:`repro.sketches.serialization`).
_DUMMY_TOKEN = "__dummy__:"


def _dummy_padded_columns(payload: Mapping) -> Optional[Tuple[int, list, list]]:
    """``(d, real keys, real values)`` of a token-encoded paper export laid
    out as an engine-built sketch stores it: ``d >= 1`` dummy tokens for
    ``DummyKey(k-d+1) ... DummyKey(k)`` first, each at ``+0.0``, then only
    int64 keys.  ``None`` for any other envelope (it stays JSON).
    """
    k = payload.get("k")
    tokens = payload.get("keys")
    values = payload.get("values")
    if (payload.get("kind") != "misra_gries_paper"
            or payload.get("key_encoding") != "token" or type(k) is not int
            or not isinstance(tokens, list) or not isinstance(values, list)
            or len(tokens) != len(values)):
        return None
    dummies = 0
    for token in tokens:
        if not (isinstance(token, str) and token.startswith(_DUMMY_TOKEN)):
            break
        dummies += 1
    if not 0 < dummies <= k or tokens[:dummies] != [
            f"{_DUMMY_TOKEN}{index}" for index in range(k - dummies + 1, k + 1)]:
        return None
    if not all(value == 0.0 and math.copysign(1.0, value) > 0
               for value in values[:dummies]):
        return None
    keys = []
    for token in tokens[dummies:]:
        # The "i:" branch of serialization._decode_key, kept to int64.
        if not (isinstance(token, str) and token.startswith("i:")):
            return None
        try:
            key = int(token[2:])
        except ValueError:
            return None
        if not wire_module._is_plain_int(key):
            return None
        keys.append(key)
    return dummies, keys, values[dummies:]


def _binary_frame_body(payload: Mapping, dummies: int = 0,
                       keys: Optional[List[int]] = None,
                       values: Optional[list] = None) -> bytes:
    """The body of one binary columnar frame (tag 0x01): the payload's int
    columns, or the real ``keys``/``values`` behind ``dummies`` padding."""
    keys = np.asarray(payload.get("keys", []) if keys is None else keys,
                      dtype="<i8")
    values = np.asarray(payload.get("values", []) if values is None
                        else values, dtype="<f8")
    if keys.size != values.size:
        raise FramingError(
            f"malformed columnar payload: {keys.size} keys vs {values.size} values")
    header = {field: payload[field] for field in ("format", "kind", "k", "meta")
              if field in payload}
    header["key_encoding"] = "int"
    header["count"] = int(keys.size)
    if dummies:
        header["dummies"] = dummies
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return b"".join((_BINARY_TAG, _LENGTH.pack(len(header_bytes)),
                     header_bytes, keys.tobytes(), values.tobytes()))


def decode_payload_body(body: bytes, what: str = "frame") -> WirePayload:
    """Decode one payload frame body (JSON envelope or binary columnar)."""
    tag = body[:1]
    if tag == b"{":
        payload = FrameReader._parse_json_body(body)
        try:
            return wire_module.decode(payload)
        except Exception as error:
            raise FramingError(
                f"{what} is not a wire v2 envelope: {error}") from None
    if tag == _BINARY_TAG:
        return _decode_binary_body(body)
    if tag == _CONTROL_TAG:
        raise FramingError(
            f"{what} is a control frame (tag 0x02); payload streams carry only "
            "wire v2 envelopes — the aggregation control protocol lives in "
            "repro.net")
    raise FramingError(
        f"unrecognized frame tag {body[:1]!r}; frames are JSON envelopes "
        "('{'), binary columnar (0x01) or control (0x02)")


def _decode_binary_body(body: bytes) -> WirePayload:
    """Decode a binary columnar frame: two ``frombuffer`` views, no JSON keys.

    Only the short JSON header goes through ``json.loads``; every header
    field is outside input, checked before use, and a bad one raises
    :class:`FramingError` naming it.
    """
    if type(body) is not bytes:
        body = bytes(body)  # the columns are views of an immutable body
    if len(body) < 5:
        raise FramingError("binary frame too short for its header length")
    (header_length,) = _LENGTH.unpack_from(body, 1)
    if 5 + header_length > len(body):
        raise FramingError("binary frame header overruns the frame body")
    header = FrameReader._parse_json_body(body[5:5 + header_length])
    kind = header.get("kind")
    if header.get("format") != wire_module.WIRE_FORMAT_VERSION:
        raise FramingError(
            f"binary frame declares format {header.get('format')!r}, "
            f"expected {wire_module.WIRE_FORMAT_VERSION}")
    if kind not in wire_module._KINDS:
        raise FramingError(f"unrecognized wire v2 kind {kind!r}")
    count = header.get("count")
    if type(count) is not int or count < 0:
        raise FramingError(f"binary frame declares a bad count {count!r}")
    k, meta = wire_module.header_k_meta(header, "binary frame", FramingError)
    dummies = _padding_count(kind, k, "dummies" in header,
                             header.get("dummies"))
    keys, values, frame = _binary_columns(body, 5 + header_length, count)
    # Lazy keys: the aggregator hot path never materializes the Python list.
    return WirePayload(kind=kind, keys=None, values=values, k=k, meta=meta,
                       key_array=keys, frame=frame, dummies=dummies)


def _padding_count(kind: str, k, declared: bool, dummies) -> int:
    """A binary frame's validated ``dummies`` header field (0 when absent)."""
    if not declared:
        return 0
    if kind != "misra_gries_paper":
        raise FramingError(
            f"binary frame of kind {kind!r} declares dummy padding; only "
            "misra_gries_paper exports carry it")
    if type(dummies) is not int or type(k) is not int or not 0 <= dummies <= k:
        raise FramingError(
            f"binary frame declares a bad dummies count {dummies!r} for k={k!r}")
    return dummies


def _binary_columns(body: bytes, offset: int, count: int) -> Tuple:
    """``(keys, values, frame)`` of a binary frame whose columns start at
    ``offset``, after checking the body holds exactly ``count`` of each.

    On a little-endian host the int64 keys and float64 values are views of
    ``body`` and ``frame`` is ``(body, offset)``, which lets the compiled
    fold read the columns in place; elsewhere they are converted copies and
    ``frame`` is ``None``.
    """
    if len(body) != offset + 16 * count:
        raise FramingError(
            f"binary frame carries {len(body) - offset} payload bytes; "
            f"count={count} requires {16 * count}")
    keys = np.frombuffer(body, dtype="<i8", count=count, offset=offset)
    values = np.frombuffer(body, dtype="<f8", count=count,
                           offset=offset + 8 * count)
    if _LITTLE_ENDIAN:
        return keys, values, (body, offset)
    return keys.astype(np.int64), values.astype(np.float64), None


def parse_header_body(body: Optional[bytes]) -> FrameHeader:
    """Validate and decode the mandatory first (header) frame body."""
    header = FrameReader._parse_json_body(body) if body is not None else None
    if header is None or header.get("kind") != "frame_header":
        raise FramingError("first frame must be a frame_header")
    framing = header.get("framing")
    if framing != FRAMING_VERSION:
        raise FramingError(f"header declares framing version {framing!r}, "
                           f"expected {FRAMING_VERSION}")
    frames = header.get("frames")
    if frames is not None and (type(frames) is not int or frames < 0):
        raise FramingError(f"header declares a bad frame count {frames!r}")
    k, meta = wire_module.header_k_meta(header, "header", FramingError)
    return FrameHeader(framing=FRAMING_VERSION, frames=frames, k=k, meta=meta)


class FrameWriter:
    """Write a framed stream of wire-v2 envelopes to a binary file-like.

    The magic and header frame are written on construction; each
    :meth:`write_sketch` / :meth:`write_payload` call appends one frame.
    Usable as a context manager; :meth:`close` verifies a declared frame
    count was honored (it does not close the underlying file object).
    """

    def __init__(self, fileobj, k: Optional[int] = None,
                 frames: Optional[int] = None,
                 meta: Optional[Mapping[str, object]] = None) -> None:
        if frames is not None and (not isinstance(frames, int) or frames < 0):
            raise ParameterError(f"frames must be a non-negative count, got {frames!r}")
        self._fileobj = fileobj
        self._declared = frames
        self._written = 0
        self._closed = False
        self.header = FrameHeader(framing=FRAMING_VERSION, frames=frames,
                                  k=int(k) if k is not None else None,
                                  meta=dict(meta or {}))
        fileobj.write(stream_prefix())
        fileobj.write(encode_json_frame(self.header.as_dict()))

    @property
    def frames_written(self) -> int:
        """Number of payload frames written so far (header excluded)."""
        return self._written

    def write_payload(self, payload: Union[Mapping, WirePayload]) -> None:
        """Append one wire-v2 envelope (dict or decoded payload) as a frame."""
        if self._closed:
            raise FramingError("writer is closed")
        if self._declared is not None and self._written >= self._declared:
            raise FramingError(
                f"header declared {self._declared} frame(s); cannot write more")
        self._fileobj.write(encode_payload_frame(payload))
        self._written += 1

    def write_sketch(self, sketch) -> None:
        """Append one sketch export (any :class:`FrequencySketch`) as a frame."""
        self.write_payload(wire_module.encode_sketch(sketch))

    def write_counters(self, counters, k: Optional[int] = None,
                       stream_length: Optional[int] = None) -> None:
        """Append a bare counter export as a frame."""
        self.write_payload(wire_module.encode_counters(counters, k=k,
                                                       stream_length=stream_length))

    def close(self) -> None:
        """Finish the stream (verifies a declared frame count was met)."""
        if self._closed:
            return
        self._closed = True
        if self._declared is not None and self._written != self._declared:
            raise FramingError(
                f"header declared {self._declared} frame(s) but {self._written} "
                "were written")

    def __enter__(self) -> "FrameWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()


class FrameReader:
    """Iterate the wire-v2 envelopes of a framed stream, one frame at a time.

    Only ``fileobj.read(n)`` with explicit sizes is ever issued (one length
    prefix, then one frame body), so the reader works over non-seekable
    streams and never materializes more than a single frame.

    ``raw=True`` yields the undecoded frame *bodies* (bytes) instead of
    :class:`WirePayload` objects — the pass-through path of ``repro push``,
    which forwards a packed file's frames to an aggregator verbatim without
    decoding and re-encoding them.  Tags are still validated.
    """

    def __init__(self, fileobj, raw: bool = False) -> None:
        self._fileobj = fileobj
        self._delivered = 0
        self._exhausted = False
        self._raw = raw
        check_stream_prefix(_read_exact(fileobj, len(MAGIC) + 1, "magic header"))
        self.header = parse_header_body(self._read_frame_bytes("header frame"))

    def _read_frame_bytes(self, what: str) -> Optional[bytes]:
        """The next frame body, or ``None`` at a clean end of stream."""
        prefix = self._fileobj.read(_LENGTH.size)
        if not prefix:
            return None
        if len(prefix) < _LENGTH.size:
            raise FramingError(
                f"truncated length prefix: expected {_LENGTH.size} bytes, "
                f"got {len(prefix)} (trailing garbage?)")
        (length,) = _LENGTH.unpack(prefix)
        if length > MAX_FRAME_BYTES:
            raise FramingError(
                f"frame length {length} exceeds MAX_FRAME_BYTES={MAX_FRAME_BYTES} "
                "(corrupt length prefix or trailing garbage)")
        return _read_exact(self._fileobj, length, what)

    @staticmethod
    def _parse_json_body(body: bytes) -> Dict:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise FramingError(f"frame body is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise FramingError(f"frame body must be a JSON object, got {type(payload)!r}")
        return payload

    def __iter__(self) -> Iterator[WirePayload]:
        return self

    def __next__(self) -> WirePayload:
        if self._exhausted:
            raise StopIteration
        body = self._read_frame_bytes(f"frame {self._delivered + 1}")
        declared = self.header.frames
        if body is None:
            self._exhausted = True
            if declared is not None and self._delivered != declared:
                raise FramingError(
                    f"stream ended after {self._delivered} frame(s); header "
                    f"declared {declared}")
            raise StopIteration
        if declared is not None and self._delivered >= declared:
            raise FramingError(
                f"stream carries more frames than the declared {declared} "
                "(trailing garbage?)")
        self._delivered += 1
        if self._raw:
            if body[:1] not in (b"{", _BINARY_TAG):
                decode_payload_body(body, f"frame {self._delivered}")  # raises
            return body
        return decode_payload_body(body, f"frame {self._delivered}")


# ---------------------------------------------------------------------------
# Verbatim re-emit helpers (the WAL spool path: repro.net.wal appends the
# exact bytes of every accepted PUSH frame and replays them on recovery)
# ---------------------------------------------------------------------------

def write_stream_header(fileobj, k: Optional[int] = None,
                        meta: Optional[Mapping[str, object]] = None) -> int:
    """Open a framed stream on ``fileobj``: magic prefix plus header frame.

    Returns the number of bytes written.  Unlike :class:`FrameWriter` this
    leaves the stream open-ended (no declared frame count) and hands back no
    writer object — the append-only shape a write-ahead spool needs, where
    frames are re-emitted verbatim with :func:`append_frame`.
    """
    prefix = stream_prefix()
    header = encode_json_frame(FrameHeader(framing=FRAMING_VERSION, k=k,
                                           meta=dict(meta or {})).as_dict())
    fileobj.write(prefix)
    fileobj.write(header)
    return len(prefix) + len(header)


def append_frame(fileobj, body: bytes) -> int:
    """Re-emit one frame body verbatim (length prefix added, tag preserved).

    Returns the number of bytes written, so callers tracking a committed
    byte watermark can advance it without a ``tell()`` on the file object.
    """
    data = encode_frame(body)
    fileobj.write(data)
    return len(data)


def replay_raw_frames(fileobj, count: int, what: str = "spool") -> Iterator[bytes]:
    """Yield exactly ``count`` verbatim frame bodies from a framed stream.

    The stream prefix and header frame are consumed first; iteration stops
    after ``count`` bodies without touching any bytes beyond them (so an
    uncommitted spool tail past the committed watermark is never read, let
    alone folded).  A stream that ends before ``count`` bodies raises
    :class:`FramingError` — the ledger said those frames were durable.
    """
    reader = FrameReader(fileobj, raw=True)
    delivered = 0
    for body in reader:
        if delivered >= count:
            return
        yield body
        delivered += 1
        if delivered == count:
            return
    if delivered < count:
        raise FramingError(
            f"{what} ends after {delivered} frame(s); the checkpoint ledger "
            f"committed {count}")


class StreamingMerger:
    """Fold framed sketch exports into one Agarwal-merged summary incrementally.

    The merger keeps only the running ``<= k``-counter accumulator, one
    :class:`~repro.sketches.merge.FoldState`; each :meth:`add` folds one
    frame as one step and discards it, so the aggregator's live memory is
    one frame plus ``O(k)`` — never the whole stream.  The fold maps keys
    to ids through its own compacted key table, which the compiled step
    probes for int64 keys read in place from a binary frame.  The final
    summary is **bit-identical** to the buffered ``merge_many`` of every
    frame because both equal the seed pairwise left fold.
    """

    def __init__(self, k: int) -> None:
        self._k = check_positive_int(k, "k")
        self._frames = 0
        self._total_length = 0
        self._fold = FoldState(self._k)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def frames(self) -> int:
        """Number of sketch exports folded so far."""
        return self._frames

    @property
    def total_stream_length(self) -> int:
        """Sum of the folded envelopes' declared stream lengths."""
        return self._total_length

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------

    def add(self, payload: Union[WirePayload, Mapping]) -> "StreamingMerger":
        """Fold one sketch export (decoded payload or raw v2 envelope dict)."""
        if isinstance(payload, Mapping):
            payload = wire_module.decode(payload)
        self._frames += 1
        self._total_length += payload.stream_length
        columnar = payload.columnar()
        if columnar is None:
            counters = payload.merge_counters()
            columnar = list(counters), np.fromiter(
                counters.values(), dtype=np.float64, count=len(counters))
        self._fold.step(*columnar, payload.frame)
        return self

    def add_summary(self, payload: Union[WirePayload, Mapping]) -> "StreamingMerger":
        """Fold one relay *summary* frame, adopting its origin accounting.

        A summary frame (:func:`summary_payload`) is the merged state of a
        whole origin session re-encoded as one envelope — a fixed point of
        the fold, so adding it to a fresh merger reproduces the origin
        session's summary bit-identically.  The envelope's
        ``meta["relay"]["frames"]`` records how many sketch exports the
        origin folded; that count (not 1) is what release metadata must
        report, so it is carried into this merger's frame accounting.
        """
        if isinstance(payload, Mapping):
            payload = wire_module.decode(payload)
        origin = origin_frames(payload)
        self.add(payload)
        self._frames += origin - 1
        return self

    def consume(self, frames: Iterable[Union[WirePayload, Mapping]]) -> "StreamingMerger":
        """Fold every frame of an iterable (e.g. a :class:`FrameReader`)."""
        for payload in frames:
            self.add(payload)
        return self

    def absorb(self, other: "StreamingMerger") -> "StreamingMerger":
        """Fold another merger's summary into this one as a single contribution.

        This is the deterministic fan-in of the aggregation service and of
        the multi-file ``repro merge --framed`` path: each source (framed
        file, client session) folds its own frames through its own merger,
        and the per-source summaries are absorbed in a canonical order.  The
        Agarwal merge is not associative, so the two-level fold is a
        *different* (equally valid, Section 7 tree-of-servers) aggregation
        than the flat fold over all frames — which is why both the network
        release and the offline CLI use exactly this method.  Frame and
        stream-length accounting carries over, so release metadata reports
        the true number of folded sketch exports.
        """
        if not isinstance(other, StreamingMerger):
            raise ParameterError(
                f"can only absorb another StreamingMerger, got {type(other)!r}")
        if other._k != self._k:
            raise ParameterError(
                f"cannot absorb a merger folded at k={other._k} into one "
                f"folded at k={self._k}")
        if other._frames == 0:
            return self
        self._frames += other._frames
        self._total_length += other._total_length
        self._fold.step(*other._fold.arrays())
        return self

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def merged(self) -> Dict[Hashable, float]:
        """The current merged summary (at most ``k`` counters)."""
        return self._fold.counters()

    def release(self, mechanism: PrivateMergedRelease,
                rng: RandomState = None) -> PrivateHistogram:
        """Release the folded aggregate through a :class:`PrivateMergedRelease`.

        The summary is already the Agarwal fold of every frame, so it goes
        straight to
        :meth:`~repro.core.merging.PrivateMergedRelease.release_merged`:
        the released histogram is exactly what the buffered release of all
        frames would produce for the trusted-merged strategy.
        """
        from ..core.merging import MergeStrategy

        if self._frames == 0:
            raise ParameterError("no frames folded yet; nothing to release")
        if mechanism.strategy is not MergeStrategy.TRUSTED_MERGED:
            raise ParameterError(
                f"streaming merge releases the {MergeStrategy.TRUSTED_MERGED.value} "
                f"strategy; {mechanism.strategy.value!r} needs per-sketch state "
                "(use PrivateMergedRelease.release on the buffered sketches)")
        if mechanism.k != self._k:
            raise ParameterError(
                f"merger folded at k={self._k} but the mechanism is calibrated "
                f"to k={mechanism.k}")
        return mechanism.release_merged(self.merged(), rng,
                                        self._total_length, self._frames)


# ---------------------------------------------------------------------------
# Convenience file-level helpers
# ---------------------------------------------------------------------------

def write_frames(target, payloads: Iterable[Union[Mapping, WirePayload, FrequencySketch]],
                 k: Optional[int] = None,
                 frames: Optional[int] = None,
                 meta: Optional[Mapping[str, object]] = None) -> int:
    """Pack envelopes/sketches into a framed stream at ``target`` (path or file).

    ``frames`` declares the expected payload count in the header so readers
    can detect a stream truncated at a frame boundary; when ``payloads`` is
    a sized collection it is declared automatically.  Returns the number of
    payload frames written.
    """
    if frames is None and hasattr(payloads, "__len__"):
        frames = len(payloads)

    def _pack(fileobj) -> int:
        with FrameWriter(fileobj, k=k, frames=frames, meta=meta) as writer:
            for payload in payloads:
                if isinstance(payload, FrequencySketch):
                    writer.write_sketch(payload)
                else:
                    writer.write_payload(payload)
            return writer.frames_written

    if hasattr(target, "write"):
        return _pack(target)
    path = Path(target)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fileobj:
        return _pack(fileobj)


def iter_frames(source) -> Iterator[WirePayload]:
    """Yield the envelopes of a framed stream (path or binary file-like)."""
    if hasattr(source, "read"):
        yield from FrameReader(source)
        return
    with Path(source).open("rb") as fileobj:
        yield from FrameReader(fileobj)


#: Envelope ``meta`` key a relay summary frame carries its origin
#: accounting under (``{"frames": <origin sketch exports>}``).
RELAY_META_KEY = "relay"


def origin_frames(payload: WirePayload) -> int:
    """Sketch exports a relay summary frame stands for (1 when it declares
    no ``meta["relay"]["frames"]`` count)."""
    relay = payload.meta.get(RELAY_META_KEY)
    if not isinstance(relay, Mapping):
        return 1
    declared = relay.get("frames")
    if type(declared) is not int or declared < 1:  # bool too
        raise FramingError(
            f"relay summary frame declares a bad origin frame count "
            f"{declared!r}")
    return declared


def summary_payload(merger: StreamingMerger) -> Dict[str, object]:
    """Encode a merger's summary as one relay forward frame (v2 envelope).

    The envelope is a *fixed point* of the fold: its counters are the
    merger's merged state in seed dict order, its ``stream_length`` is the
    origin total, and folding it as the sole frame of a fresh merger (via
    :meth:`StreamingMerger.add_summary`) reproduces the origin summary
    bit-identically — dense first step with ``<= k`` entries is the
    identity assignment.  ``meta["relay"]["frames"]`` carries the origin
    frame count so downstream release metadata still reports the true
    number of folded sketch exports.
    """
    if merger.frames == 0:
        raise ParameterError("merger folded no frames; nothing to summarize")
    envelope = wire_module.encode_counters(
        merger.merged(), k=merger._k,
        stream_length=merger.total_stream_length)
    envelope["meta"][RELAY_META_KEY] = {"frames": merger.frames}
    return envelope


class MergerCombiner:
    """Combine per-source mergers in canonical order, paying only for new parts.

    The combine is the left fold of :meth:`StreamingMerger.absorb` over the
    live (non-empty) parts, so folding a list and later folding its
    extension continues from the same state.  The combiner keeps that state:
    a private :class:`StreamingMerger` plus the identity list of the parts
    it has absorbed.  When the next part list still starts with that list,
    only the new tail is absorbed; anything else (a part sorted in before
    the prefix, a replaced part) rebuilds the fold from scratch.  Either
    way the result is the fold of exactly the given parts, bit for bit.

    A single live part passes through untouched — the two-level fold of one
    source is bit-identical to its flat fold, so ``repro merge --framed``
    over one file (and a one-client aggregation session) keeps exactly the
    historical flat-fold result.  Parts are only ever read, never mutated.
    """

    def __init__(self, k: int) -> None:
        self._k = check_positive_int(k, "k")
        #: Parts absorbed by the most recent :meth:`combine` call.
        self.last_absorbed = 0
        self._reset()

    def _reset(self) -> None:
        """Drop the cached fold; the next :meth:`combine` rebuilds it."""
        self._merger = StreamingMerger(self._k)
        self._absorbed: List[StreamingMerger] = []

    def combine(self, parts: Sequence[StreamingMerger]) -> StreamingMerger:
        """The combined summary of ``parts``, in the given order.

        The returned merger is owned by the combiner (or is the single live
        part itself): read or release it, do not fold into it.
        """
        self.last_absorbed = 0
        live = [part for part in parts if part.frames]
        if len(live) == 1:
            return live[0]
        # Mergers define no __eq__, so list equality is part identity.
        if live[:len(self._absorbed)] != self._absorbed:
            self._reset()
        try:
            for part in live[len(self._absorbed):]:
                self._merger.absorb(part)
                self._absorbed.append(part)
                self.last_absorbed += 1
        except BaseException:
            # absorb may fail half-way through its update; never reuse it.
            self._reset()
            raise
        return self._merger


def combine_mergers(parts: Sequence[StreamingMerger], k: int) -> StreamingMerger:
    """Combine per-source mergers into one summary, in the given order.

    A one-shot :class:`MergerCombiner`: a single non-empty source passes
    through untouched, multiple sources are absorbed in sequence order (the
    caller supplies the canonical ordering, e.g. CLI argument order or
    client ordinals).
    """
    return MergerCombiner(k).combine(parts)


def merge_frames(source, k: Optional[int] = None) -> StreamingMerger:
    """Stream-merge a framed file into a :class:`StreamingMerger`.

    ``k`` defaults to the stream header's declared sketch size.
    """
    def _fold(fileobj) -> StreamingMerger:
        reader = FrameReader(fileobj)
        size = k if k is not None else reader.header.k
        if size is None:
            raise ParameterError(
                "the framed stream's header declares no k; pass k explicitly")
        return StreamingMerger(size).consume(reader)

    if hasattr(source, "read"):
        return _fold(source)
    with Path(source).open("rb") as fileobj:
        return _fold(fileobj)
