"""Compiled kernel provider backed by Numba's ``@njit`` (when installed).

Rather than keeping a second copy of the algorithms, this provider
re-executes the source of :mod:`repro.kernels._engine` in a namespace where
``jit`` is bound to ``numba.njit(cache=True, fastmath=False)`` (the engine
module binds ``jit`` to the identity only when it is not already defined).
Every function compiles in nopython mode on first call; ``fastmath`` stays
off so float adds/subtracts keep their source order and the results remain
bit-identical to the python engines.

When numba is not installed the provider is simply unavailable — the
``auto`` backend then resolves to the C provider or pure python.
"""

from __future__ import annotations

import importlib.util
from typing import Dict, Optional

PROVIDER_NAME = "numba"

_kernels: Optional[Dict] = None
_error: Optional[str] = None
_loaded = False


def _compile_kernels() -> Dict:
    import numba

    spec = importlib.util.find_spec("repro.kernels._engine")
    if spec is None or spec.origin is None:
        raise RuntimeError("cannot locate repro.kernels._engine source")
    with open(spec.origin, "r", encoding="utf-8") as handle:
        source = handle.read()
    namespace: Dict = {
        "__name__": "repro.kernels._engine__numba",
        "__file__": spec.origin,
        # Seen by the engine's ``try: jit`` probe, replacing the identity
        # decorator with the real compiler.
        "jit": numba.njit(cache=True, fastmath=False),
    }
    exec(compile(source, spec.origin, "exec"), namespace)
    return {
        "mg_update": namespace["mg_update"],
        "fold_interned": namespace["fold_interned"],
        "fold_step": namespace["bind_fold_step"](namespace["fold_step"]),
        "scan_binary_header": namespace["scan_binary_header"],
    }


def load() -> Optional[Dict]:
    """Kernel table for this provider, or ``None`` (reason in :func:`error`)."""
    global _kernels, _error, _loaded
    if _loaded:
        return _kernels
    _loaded = True
    try:
        _kernels = _compile_kernels()
    except ImportError:
        _error = "numba is not installed"
        _kernels = None
    except Exception as exc:  # numba present but broken: degrade, keep reason
        _error = f"{type(exc).__name__}: {exc}"
        _kernels = None
    return _kernels


def available() -> bool:
    return load() is not None


def error() -> Optional[str]:
    load()
    return _error


def numba_version() -> Optional[str]:
    try:
        import numba

        return str(numba.__version__)
    except ImportError:
        return None


def info() -> Dict:
    table = load()
    return {
        "name": PROVIDER_NAME,
        "available": table is not None,
        "error": _error,
        "kernels": sorted(table) if table else [],
        "numba_version": numba_version(),
    }


def reset_for_tests() -> None:
    """Forget the load result so tests can monkeypatch the import away."""
    global _kernels, _error, _loaded
    _kernels = None
    _error = None
    _loaded = False
