"""Optional compiled kernel tier for the interpreter-bound hot paths.

The hot loops that stay python-bound after vectorization — the
Misra-Gries per-element eviction loop behind ``update_batch``, the interned
merge fold behind ``merge_many``/``merge_many_arrays``, one step of that
fold behind the served ``StreamingMerger`` (``fold_step``: a binder that
takes one :class:`~repro.sketches.merge.FoldState`'s buffers once and
returns a per-frame ``step(keys, values, low) -> status``), and the binary
columnar frame-header parse — have compiled implementations provided by (in
preference order):

``numba``
    ``@njit``-compiled from the shared source in
    :mod:`repro.kernels._engine` (no build step; used when numba is
    installed).
``cc``
    A C mirror (:mod:`repro.kernels._c_src`) compiled on demand with the
    system C compiler and loaded via ctypes (used when a toolchain exists
    but numba does not).

Both produce **bit-identical** results to the pure-python engines — same
keys, same float bits, same dict order — which the property suite verifies
against the frozen references.  With neither provider available everything
silently runs pure python, exactly as before this tier existed.

Backend selection
-----------------
* Registry specs: ``{"name": "misra_gries", "backend": "compiled"}``
  (``auto`` | ``python`` | ``compiled`` | ``numba`` | ``cc``).
* The ``REPRO_KERNELS`` environment variable overrides every in-code
  request (``off`` is accepted as an alias of ``python``).
* ``auto`` (the default everywhere) picks the best available provider and
  falls back to python silently — emitting one
  :class:`KernelFallbackWarning` per process the first time it does so —
  while ``compiled``/``numba``/``cc`` raise
  :class:`~repro.exceptions.ParameterError` when the request cannot be
  honoured.

``kernel_info()`` (also surfaced as ``repro list --backends``) reports what
actually resolved, so a deploy can verify it is running native kernels.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable, Dict, Optional

from ..exceptions import ParameterError
from . import _c_provider, _numba_provider

__all__ = [
    "BACKENDS",
    "KERNEL_NAMES",
    "KernelFallbackWarning",
    "available",
    "get_kernel",
    "kernel_info",
    "resolve_backend",
    "validate_backend",
]

#: Accepted ``backend=`` values (``off`` is accepted as an env alias).
BACKENDS = ("auto", "python", "compiled", "numba", "cc")

#: The kernels every provider implements.
KERNEL_NAMES = ("mg_update", "fold_interned", "fold_step", "scan_binary_header")

#: Environment variable overriding every in-code backend request.
ENV_VAR = "REPRO_KERNELS"

_PROVIDERS = {
    _numba_provider.PROVIDER_NAME: _numba_provider,
    _c_provider.PROVIDER_NAME: _c_provider,
}
#: Preference order for ``auto``/``compiled``.
_PROVIDER_ORDER = (_numba_provider.PROVIDER_NAME, _c_provider.PROVIDER_NAME)

_fallback_warned = False


class KernelFallbackWarning(UserWarning):
    """Emitted once per process when ``auto`` finds no compiled provider."""


def validate_backend(backend: str) -> str:
    """Normalize and validate a ``backend=`` parameter value."""
    if not isinstance(backend, str):
        raise ParameterError(
            f"backend must be one of {BACKENDS}, got {backend!r}")
    choice = backend.strip().lower()
    if choice == "off":
        choice = "python"
    if choice not in BACKENDS:
        raise ParameterError(
            f"backend must be one of {BACKENDS}, got {backend!r}")
    return choice


def _first_available() -> Optional[str]:
    for name in _PROVIDER_ORDER:
        if _PROVIDERS[name].available():
            return name
    return None


def resolve_backend(requested: Optional[str] = None) -> str:
    """Resolve a backend request to ``"python"`` or a provider name.

    The ``REPRO_KERNELS`` environment variable (read at call time, so a
    deploy or a test can flip it without touching code) overrides
    ``requested``; ``None`` means ``auto``.  Explicit compiled requests
    raise :class:`~repro.exceptions.ParameterError` when unavailable;
    ``auto`` falls back to ``"python"``, warning once per process only when
    *no* provider exists at all.
    """
    global _fallback_warned
    env = os.environ.get(ENV_VAR, "").strip()
    if env:
        choice = validate_backend(env)
    else:
        choice = validate_backend(requested) if requested is not None else "auto"
    if choice == "python":
        return "python"
    if choice in _PROVIDERS:
        if not _PROVIDERS[choice].available():
            raise ParameterError(
                f"kernel backend {choice!r} requested but unavailable: "
                f"{_PROVIDERS[choice].error()}")
        return choice
    if choice == "compiled":
        name = _first_available()
        if name is None:
            raise ParameterError(
                "kernel backend 'compiled' requested but no provider is "
                f"available (numba: {_numba_provider.error()}; "
                f"cc: {_c_provider.error()})")
        return name
    # auto
    name = _first_available()
    if name is None:
        if not _fallback_warned:
            _fallback_warned = True
            warnings.warn(
                "no compiled kernel provider is available (numba missing and "
                "the C toolchain build failed); repro.kernels is running the "
                "pure-python engines",
                KernelFallbackWarning, stacklevel=2)
        return "python"
    return name


def get_kernel(name: str, backend: Optional[str] = None) -> Optional[Callable]:
    """The compiled kernel ``name`` for a backend request, or ``None``.

    ``None`` means "use the pure-python engine" — either because the request
    resolved to ``python`` or because the resolved provider lacks ``name``.
    """
    resolved = resolve_backend(backend)
    if resolved == "python":
        return None
    table = _PROVIDERS[resolved].load()
    if table is None:
        return None
    return table.get(name)


def available() -> bool:
    """Whether any compiled provider is available."""
    return _first_available() is not None


def backend_name(requested: Optional[str] = None) -> str:
    """Like :func:`resolve_backend` but never raises (for reporting)."""
    try:
        return resolve_backend(requested)
    except ParameterError:
        return "python"


def kernel_info() -> Dict:
    """What the kernel tier resolved to — providers, kernels, versions.

    This is the operator-facing deploy check (``repro list --backends``):
    ``backend`` is what ``auto`` resolves to right now, ``providers`` carries
    per-provider availability (with the failure reason when not), and
    ``kernels`` maps each kernel to the backend that will actually run it.
    """
    env = os.environ.get(ENV_VAR, "").strip()
    try:
        resolved = resolve_backend(None)
        resolve_error = None
    except ParameterError as exc:
        resolved = "python"
        resolve_error = str(exc)
    providers = {name: _PROVIDERS[name].info() for name in _PROVIDER_ORDER}
    kernels = {}
    for kernel in KERNEL_NAMES:
        if resolved != "python" and kernel in providers[resolved]["kernels"]:
            kernels[kernel] = resolved
        else:
            kernels[kernel] = "python"
    return {
        "backend": resolved,
        "env": env or None,
        "error": resolve_error,
        "providers": providers,
        "kernels": kernels,
        "numba_version": _numba_provider.numba_version(),
    }


def reset_for_tests() -> None:
    """Reset provider caches and the warn-once flag (test isolation)."""
    global _fallback_warned
    _fallback_warned = False
    _numba_provider.reset_for_tests()
    _c_provider.reset_for_tests()
