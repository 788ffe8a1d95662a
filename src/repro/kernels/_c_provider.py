"""Compiled kernel provider backed by the system C toolchain.

Builds :data:`repro.kernels._c_src.C_SOURCE` once into a shared object with
``cc -O2 -fPIC -shared`` (no extra dependencies — just a working C compiler)
and loads it through :mod:`ctypes`.  The binary is cached under
``$REPRO_KERNELS_CACHE`` (default ``~/.cache/repro-kernels``) keyed on a hash
of the source text, so editing the C invalidates stale builds and concurrent
processes converge on one file via an atomic rename.

The provider degrades to *unavailable* — never an import error — when no
compiler exists, the build fails, or the cache directory cannot be written;
:func:`error` keeps the reason for ``kernel_info()``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Dict, Optional

import numpy as np

from ._c_src import C_SOURCE, MG_NOMEM, SOURCE_VERSION

PROVIDER_NAME = "cc"

_lib = None
_kernels: Optional[Dict] = None
_error: Optional[str] = None
_loaded = False

_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)
_P = ctypes.c_void_p
_N = ctypes.c_int64
_NoBytes = ctypes.c_char * 0


def _ptr(array, dtype) -> int:
    """The data address of ``array``, after the checks ndpointer made.

    Array arguments go in as raw addresses (``c_void_p``): an ndpointer
    argtype costs several microseconds per array per call.  The check stays:
    a one-dimensional C-contiguous ndarray of exactly ``dtype``, else
    ``TypeError`` before anything enters C.  The per-frame kernels take the
    frame's ``bytes`` plus offsets instead, skipping even this lookup.  A
    writable array's address is read through a zero-length ctypes view of
    its buffer, a third of the cost of ``ndarray.ctypes``.
    """
    if (type(array) is not np.ndarray or array.dtype != dtype
            or array.ndim != 1 or not array.flags.c_contiguous):
        raise TypeError(
            f"kernel buffer must be a one-dimensional C-contiguous {dtype} "
            f"ndarray, got {getattr(array, 'dtype', type(array))!s} with "
            f"shape {getattr(array, 'shape', None)}")
    if array.flags.writeable:
        return ctypes.addressof(_NoBytes.from_buffer(array))
    return array.ctypes.data


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def cache_dir() -> str:
    """The build-cache directory (``REPRO_KERNELS_CACHE`` overrides)."""
    override = os.environ.get("REPRO_KERNELS_CACHE")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-kernels")


def _find_compiler() -> Optional[str]:
    override = os.environ.get("REPRO_KERNELS_CC")
    if override:
        return override if shutil.which(override) else None
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _source_tag() -> str:
    digest = hashlib.sha256(
        f"v{SOURCE_VERSION}:".encode() + C_SOURCE.encode()).hexdigest()
    return digest[:16]


def shared_object_path() -> str:
    return os.path.join(cache_dir(), f"repro_kernels_{_source_tag()}.so")


def _build_shared_object() -> str:
    """Compile the C source into the cache; returns the .so path."""
    target = shared_object_path()
    if os.path.exists(target):
        return target
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found (tried $REPRO_KERNELS_CC, cc, gcc, clang)")
    directory = cache_dir()
    os.makedirs(directory, exist_ok=True)
    fd, c_path = tempfile.mkstemp(suffix=".c", dir=directory)
    so_tmp = c_path[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(C_SOURCE)
        result = subprocess.run(
            [compiler, "-O2", "-fPIC", "-shared", "-o", so_tmp, c_path],
            capture_output=True, text=True, timeout=120)
        if result.returncode != 0:
            raise RuntimeError(
                f"{compiler} failed ({result.returncode}): {result.stderr.strip()[:500]}")
        # Atomic publish: concurrent builders race benignly to the same name.
        os.replace(so_tmp, target)
    finally:
        for leftover in (c_path, so_tmp):
            try:
                os.unlink(leftover)
            except OSError:
                pass
    return target


def _bind(lib) -> Dict:
    lib.repro_mg_update.restype = _N
    lib.repro_mg_update.argtypes = [_P, _P, _P, _P, _P, _N, _P, _N]
    # A c_void_p argument takes an address or a bytes object, whose buffer
    # ctypes passes without a copy.
    lib.repro_fold_step.restype = _N
    lib.repro_fold_step.argtypes = [_P, _N, _P, _N, _N, _P, _N, _N, _N, _N,
                                    _P, _P, _P, _P, _P, _P, _P]
    fold_step_c = lib.repro_fold_step

    def mg_update(keys, dummy, stored, ins_seq, io, chunk):
        state = [_ptr(array, _I64)
                 for array in (keys, dummy, stored, ins_seq, io)]
        chunk_at = _ptr(chunk, _I64)
        k = keys.shape[0]
        _check(dummy.shape[0] == stored.shape[0] == ins_seq.shape[0] == k,
               "mg_update state arrays differ in length")
        _check(io.shape[0] >= 3, "mg_update io needs 3 slots")
        status = lib.repro_mg_update(*state, k, chunk_at, chunk.shape[0])
        if status == MG_NOMEM:
            raise MemoryError("repro_mg_update: allocation failed")
        return int(status)

    def fold_step(size, acc, active, scratch_ids, scratch_vals, zero_live,
                  state):
        # Resolved once per binding: per call only the sketches are checked.
        domain = acc.shape[0]
        capacity = min(active.shape[0], scratch_ids.shape[0],
                       scratch_vals.shape[0])
        _check(state.shape[0] >= 2, "fold_step state needs 2 slots")
        applied = ctypes.c_int64()
        buffers = (_ptr(acc, _F64), _ptr(active, _I64),
                   _ptr(scratch_ids, _I64), _ptr(scratch_vals, _F64),
                   _ptr(zero_live, _I64), _ptr(state, _I64),
                   ctypes.addressof(applied))

        def bound(keys, values, low, frame=None):
            # ``frame``: ``(body, at)`` when keys and values are the int64
            # and float64 columns of the bytes ``body`` from byte ``at`` on
            # — C then reads the body itself, with no address lookup.
            if frame is None:
                keys_buf, keys_at = _ptr(keys, _I64), 0
                values_buf, values_at = _ptr(values, _F64), 0
                n = keys.shape[0]
            else:
                keys_buf, keys_at = frame
                if type(keys_buf) is not bytes:
                    raise TypeError("fold_step frame body must be bytes, got "
                                    f"{type(keys_buf).__name__}")
                n = len(keys)
                values_buf, values_at = keys_buf, keys_at + 8 * n
                _check(0 <= keys_at and values_at + 8 * n <= len(keys_buf),
                       "fold_step frame columns overrun the frame body")
            _check(len(values) == n,
                   "fold_step keys and values differ in length")
            _check(int(state[0]) + n <= capacity,
                   "fold_step buffers too small for this frame")
            return fold_step_c(keys_buf, keys_at, values_buf, values_at, n,
                               None, 1, low, domain, size, *buffers)

        def run(keys, values, low, lengths):
            """Fold the sketches laid end to end in ``keys``/``values``,
            ``lengths[i]`` entries each: ``(status, steps applied)``."""
            keys_at, values_at = _ptr(keys, _I64), _ptr(values, _F64)
            lengths_at = _ptr(lengths, _I64)
            spans = lengths.tolist()
            total = sum(spans)
            _check(min(spans, default=0) >= 0 and total <= keys.shape[0]
                   and total <= values.shape[0],
                   "fold_step run lengths are negative or overrun the arrays")
            # No step leaves more than ``size`` ids live.
            _check(max(int(state[0]), size) + max(spans, default=0)
                   <= capacity, "fold_step buffers too small for this run")
            status = fold_step_c(keys_at, 0, values_at, 0, total, lengths_at,
                                 len(spans), low, domain, size, *buffers)
            return status, applied.value

        # Keeps every bound buffer alive as long as C may write to it.
        bound.buffers = (acc, active, scratch_ids, scratch_vals, zero_live,
                         state, applied)
        bound.run = run
        return bound

    return {"mg_update": mg_update, "fold_step": fold_step}


def load() -> Optional[Dict]:
    """Kernel table for this provider, or ``None`` (reason in :func:`error`)."""
    global _lib, _kernels, _error, _loaded
    if _loaded:
        return _kernels
    _loaded = True
    try:
        path = _build_shared_object()
        _lib = ctypes.CDLL(path)
        _kernels = _bind(_lib)
    except Exception as exc:  # degrade to unavailable, keep the reason
        _error = f"{type(exc).__name__}: {exc}"
        _kernels = None
    return _kernels


def available() -> bool:
    return load() is not None


def error() -> Optional[str]:
    load()
    return _error


def info() -> Dict:
    table = load()
    return {
        "name": PROVIDER_NAME,
        "available": table is not None,
        "error": _error,
        "kernels": sorted(table) if table else [],
        "artifact": shared_object_path() if table is not None else None,
    }


def reset_for_tests() -> None:
    """Forget the load result so tests can flip cache/compiler env vars."""
    global _lib, _kernels, _error, _loaded
    _lib = None
    _kernels = None
    _error = None
    _loaded = False
