"""Frozen writer of a relay leaf's old forward spool directory.

Relay leaves run with a WAL once kept their forward queue as files in
``wal_dir/forward``: one ``fwd-<index:08d>.frames`` per staged batch, a
framed stream whose header meta carried the batch's ledger facts followed
by its summary frames, renamed ``.frames.acked`` once the root acked it.
The library now keeps the queue as rows in the checkpoint ledger and
converts such a directory once when the leaf starts.  ``write_batch``
writes one of those files byte for byte as the staging code did, so the
tests can check that conversion.

Like the frozen ``_reference*`` engine modules, this file records a past
behaviour and must not change with the library.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Optional, Sequence, Union

_MAGIC = b"RPRF"
_FRAMING_VERSION = 1
_LENGTH = struct.Struct(">I")


def _frame(body: bytes) -> bytes:
    return _LENGTH.pack(len(body)) + body


def write_batch(forward_dir: Union[str, Path], *, index: int,
                root_ordinal: int, covered_seq: int, leaf: int,
                k: Optional[int], bodies: Sequence[bytes],
                acked: bool = False) -> Path:
    """Write one staged batch file (``acked`` as its renamed tombstone)."""
    forward_dir = Path(forward_dir)
    forward_dir.mkdir(parents=True, exist_ok=True)
    header = {"kind": "frame_header", "framing": _FRAMING_VERSION,
              "frames": None, "k": k,
              "meta": {"relay_batch": index, "root_ordinal": root_ordinal,
                       "covered_seq": covered_seq, "leaf": leaf,
                       "frames": len(bodies)}}
    data = (_MAGIC + bytes([_FRAMING_VERSION])
            + _frame(json.dumps(header, sort_keys=True).encode("utf-8"))
            + b"".join(_frame(body) for body in bodies))
    name = f"fwd-{index:08d}.frames" + (".acked" if acked else "")
    path = forward_dir / name
    path.write_bytes(data)
    return path
