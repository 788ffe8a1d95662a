"""Truncation fuzz: a packed framed file cut at EVERY byte offset.

The framed container is the wire format, the pack format *and* the WAL spool
format, so its failure mode under truncation is load-bearing three times
over.  Property: for a packed multi-frame file of ``L`` bytes, reading any
strict prefix must raise :class:`FramingError` — never hang, never return
partial data — and the error must be byte-for-byte identical whether the
binary header scan runs on the pure-python backend or the compiled kernel.
"""

import io

import pytest

from repro import kernels
from repro.api.framing import FrameReader, FrameWriter, FramingError
from repro.api.wire import encode_counters

pytestmark = pytest.mark.chaos

K = 16

BACKENDS = [
    "python",
    pytest.param("cc", marks=pytest.mark.skipif(
        not kernels.available(), reason="no C toolchain on this host")),
]


def _packed_bytes():
    """A 4-frame file mixing binary columnar and JSON token frames."""
    buffer = io.BytesIO()
    with FrameWriter(buffer, k=K, frames=4) as writer:
        writer.write_payload(encode_counters({1: 10.0, 2: 20.0}, k=K,
                                             stream_length=30))
        writer.write_payload(encode_counters({"a": 5.0, "b": 2.5}, k=K,
                                             stream_length=7))
        writer.write_payload(encode_counters({-(2**62): 1.0, 7: 3.0}, k=K,
                                             stream_length=4))
        writer.write_payload(encode_counters({3: 1.5}, k=K, stream_length=1))
    return buffer.getvalue()


def _read_all(data):
    return list(FrameReader(io.BytesIO(data)))


def _outcome(data, backend, monkeypatch):
    """(error type name, message) for one cut under one kernel backend."""
    monkeypatch.setenv("REPRO_KERNELS", backend)
    try:
        _read_all(data)
    except FramingError as error:
        return type(error).__name__, str(error)
    except Exception as error:  # anything else fails the property
        return "UNEXPECTED:" + type(error).__name__, str(error)
    return None, None


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_strict_prefix_raises_framing_error(backend, monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", backend)
    data = _packed_bytes()
    survivors = []
    for cut in range(len(data)):
        try:
            frames = _read_all(data[:cut])
        except FramingError:
            continue
        survivors.append((cut, len(frames)))
    assert survivors == [], (
        f"{len(survivors)} cut offset(s) returned partial data instead of "
        f"raising FramingError: {survivors[:10]}")


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_intact_file_still_parses(backend, monkeypatch):
    """The fuzz property must not hold vacuously."""
    monkeypatch.setenv("REPRO_KERNELS", backend)
    frames = _read_all(_packed_bytes())
    assert len(frames) == 4
    assert dict(zip(frames[0].keys, frames[0].values)) == {1: 10.0, 2: 20.0}


@pytest.mark.skipif(not kernels.available(),
                    reason="no compiled kernel provider in this environment")
def test_truncation_errors_identical_across_backends(monkeypatch):
    """Same cut, same error, whichever backend scans the binary headers."""
    data = _packed_bytes()
    mismatches = []
    for cut in range(len(data) + 1):
        python = _outcome(data[:cut], "python", monkeypatch)
        compiled = _outcome(data[:cut], "cc", monkeypatch)
        if python != compiled:
            mismatches.append((cut, python, compiled))
    assert mismatches == [], (
        f"{len(mismatches)} offset(s) diverge between backends: "
        f"{mismatches[:5]}")


@pytest.mark.parametrize("backend", BACKENDS)
def test_truncated_stream_prefix_and_header_raise_too(backend, monkeypatch):
    """Cuts inside the 5-byte magic and the header frame, explicitly."""
    monkeypatch.setenv("REPRO_KERNELS", backend)
    data = _packed_bytes()
    for cut in range(0, 12):
        with pytest.raises(FramingError):
            _read_all(data[:cut])


@pytest.mark.parametrize("backend", BACKENDS)
def test_trailing_garbage_after_a_complete_file_raises(backend, monkeypatch):
    """The dual property: extra bytes past the declared frames are rejected,
    so a spool tail glued onto a complete file cannot smuggle frames in."""
    monkeypatch.setenv("REPRO_KERNELS", backend)
    data = _packed_bytes()
    for garbage in (b"\x00", b"\x00\x00\x00\x01X", data[5:40]):
        with pytest.raises(FramingError):
            _read_all(data + garbage)
