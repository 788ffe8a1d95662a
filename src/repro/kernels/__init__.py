"""Optional compiled kernel tier for the interpreter-bound hot paths.

The hot loops that stay python-bound after vectorization — the
Misra-Gries per-element eviction loop behind ``update_batch`` and the Agarwal
merge fold (``fold_step``: a binder that takes one
:class:`~repro.sketches.merge.FoldState`'s buffers once and returns a
per-frame ``step(keys, values, low[, frame]) -> status`` for the served
``StreamingMerger``; ``step.run(keys, values, low, lengths)`` folds the
run of sketches behind ``merge_many``; either way
over the state's key ids — offsets from ``low``, or key-table ids at
``low = 0``) — have compiled implementations in one provider:

``cc``
    The C source in :mod:`repro.kernels._c_src`, compiled on demand with
    the system C compiler and loaded via ctypes.

It produces **bit-identical** results to the pure-python engines — same
keys, same float bits, same dict order — which the property suite verifies
by running each kernel against its python engine.  Without a C toolchain
everything runs the pure-python engines, with the same results, after one
:class:`KernelFallbackWarning`.

Backend selection
-----------------
The ``REPRO_KERNELS`` environment variable (read at call time) is the only
switch: ``auto`` (the default) runs ``cc`` when it builds and falls back to
python — emitting one :class:`KernelFallbackWarning` per process
the first time it does so — ``python`` forces the pure-python engines, and
``cc`` raises :class:`~repro.exceptions.ParameterError` when the provider is
unavailable.  Any other value raises ``ParameterError`` too.

``kernel_info()`` (also surfaced as ``repro list --backends``) reports what
actually resolved, so a deploy can verify it is running native kernels.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable, Dict, Optional

from ..exceptions import ParameterError
from . import _c_provider

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

#: Accepted ``REPRO_KERNELS`` values.
BACKENDS = ("auto", "python", "cc")

#: The kernels the provider implements.
KERNEL_NAMES = ("mg_update", "fold_step")

#: Environment variable selecting the kernel backend.
ENV_VAR = "REPRO_KERNELS"

_fallback_warned = False

#: ``get_kernel``'s resolutions: raw ``REPRO_KERNELS`` value (``None`` when
#: unset) -> the provider's kernel table, or ``None`` for python.
_resolved: Dict[Optional[str], Optional[Dict[str, Callable]]] = {}


class KernelFallbackWarning(UserWarning):
    """Emitted once per process when ``auto`` finds no compiled provider."""


def validate_backend(backend: str) -> str:
    """Normalize and validate a ``REPRO_KERNELS`` value."""
    choice = backend.strip().lower() if isinstance(backend, str) else None
    if choice not in BACKENDS:
        raise ParameterError(
            f"kernel backend must be one of {BACKENDS}, got {backend!r}")
    return choice


def resolve_backend() -> str:
    """Resolve ``REPRO_KERNELS`` (unset means ``auto``) to ``"python"`` or
    ``"cc"``.

    The variable is read at call time, so a deploy or a test can flip it
    without touching code.  ``cc`` raises
    :class:`~repro.exceptions.ParameterError` when the provider is
    unavailable; ``auto`` falls back to ``"python"``, warning once per
    process.
    """
    global _fallback_warned
    env = os.environ.get(ENV_VAR, "").strip()
    choice = validate_backend(env) if env else "auto"
    if choice == "python":
        return "python"
    if _c_provider.available():
        return _c_provider.PROVIDER_NAME
    if choice == "cc":
        raise ParameterError(
            f"kernel backend 'cc' requested but unavailable: "
            f"{_c_provider.error()}")
    if not _fallback_warned:
        _fallback_warned = True
        warnings.warn(
            "no compiled kernel provider is available (the C toolchain build "
            "failed); repro.kernels is running the pure-python engines",
            KernelFallbackWarning, stacklevel=2)
    return "python"


def get_kernel(name: str) -> Optional[Callable]:
    """The compiled kernel ``name``, or ``None`` to use the python engine.

    Hot paths call this once per batch or fold, so the resolution is
    memoized on the raw ``REPRO_KERNELS`` string: flipping the variable
    still switches the backend on the next call, while an unchanged value
    costs one environment read.  Refused values are never memoized; they
    raise on every call.
    """
    raw = os.environ.get(ENV_VAR)
    try:
        table = _resolved[raw]
    except KeyError:
        table = None if resolve_backend() == "python" else _c_provider.load()
        _resolved[raw] = table
    return None if table is None else table[name]


def available() -> bool:
    """Whether the compiled provider is available."""
    return _c_provider.available()


def kernel_info() -> Dict:
    """What the kernel tier resolved to — provider, kernels, env override.

    This is the operator-facing deploy check (``repro list --backends``):
    ``backend`` is what ``REPRO_KERNELS`` resolves to right now,
    ``providers`` carries the provider's availability (with the failure
    reason when not), and ``kernels`` maps each kernel to the backend that
    will actually run it.
    """
    env = os.environ.get(ENV_VAR, "").strip()
    try:
        resolved = resolve_backend()
        resolve_error = None
    except ParameterError as exc:
        resolved = "python"
        resolve_error = str(exc)
    return {
        "backend": resolved,
        "env": env or None,
        "error": resolve_error,
        "providers": {_c_provider.PROVIDER_NAME: _c_provider.info()},
        "kernels": {kernel: resolved for kernel in KERNEL_NAMES},
    }


def reset_for_tests() -> None:
    """Reset the provider cache, the resolution memo and the warn-once flag
    (test isolation)."""
    global _fallback_warned
    _fallback_warned = False
    _resolved.clear()
    _c_provider.reset_for_tests()
