"""Random-number-generator plumbing.

Every randomized component in the library accepts an optional ``rng``
argument.  ``ensure_rng`` normalizes the accepted forms (``None``, an integer
seed, or an existing :class:`numpy.random.Generator`) into a Generator so that
experiments are reproducible end to end by passing a single seed at the top.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..exceptions import ParameterError

RandomState = Union[None, int, np.random.Generator]


def ensure_rng(rng: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from flexible input.

    Parameters
    ----------
    rng:
        ``None`` for a fresh nondeterministic generator, an ``int`` seed for a
        reproducible generator, or an existing ``Generator`` which is returned
        unchanged.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, bool):
        raise ParameterError(f"rng must be None, an int seed or a Generator, got {rng!r}")
    if isinstance(rng, (int, np.integer)):
        if rng < 0:
            raise ParameterError(f"rng seed must be non-negative, got {rng}")
        return np.random.default_rng(int(rng))
    raise ParameterError(f"rng must be None, an int seed or a Generator, got {rng!r}")


def spawn_rngs(rng: RandomState, count: int) -> list[np.random.Generator]:
    """Split a generator into ``count`` independent child generators.

    Useful when an experiment fans out over repetitions and each repetition
    should use an independent, reproducible stream of randomness.
    """
    if count < 0:
        raise ParameterError(f"count must be non-negative, got {count}")
    parent = ensure_rng(rng)
    seeds = parent.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(seed)) for seed in seeds]
