"""Named synthetic datasets used by the examples and benchmarks.

The paper's motivating applications are high-volume streams such as network
monitoring and search-query logs.  Since no real traces ship with the paper
(and none are needed for a pure-algorithm reproduction), this module provides
reproducible synthetic stand-ins with realistic shape: heavy-tailed element
popularity and, for the user-level dataset, bounded per-user contributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Union

from ..exceptions import ParameterError
from ..dp.rng import RandomState
from .generators import planted_heavy_hitters_stream, uniform_stream, zipf_stream
from .user_streams import distinct_user_stream


@dataclass(frozen=True)
class SyntheticDataset:
    """A named, reproducible synthetic workload.

    ``stream`` is either a flat element stream (list of ints) or a user-level
    stream (list of frozensets) depending on ``user_level``.
    """

    name: str
    description: str
    stream: Union[List[int], List[frozenset]]
    universe_size: int
    user_level: bool = False

    @property
    def length(self) -> int:
        """Number of stream items (elements, or users for user-level data)."""
        return len(self.stream)


def _network_flows(n: int, rng: RandomState) -> SyntheticDataset:
    """Synthetic stand-in for a network-flow destination log (very skewed)."""
    universe = 50_000
    stream = zipf_stream(n, universe, exponent=1.3, rng=rng)
    return SyntheticDataset(
        name="network_flows",
        description=("Synthetic network monitoring trace: destination identifiers with "
                     "Zipf(1.3) popularity over a 50k-address universe."),
        stream=stream,
        universe_size=universe,
    )


def _search_queries(n: int, rng: RandomState) -> SyntheticDataset:
    """Synthetic stand-in for a search-query log (moderately skewed)."""
    universe = 200_000
    stream = zipf_stream(n, universe, exponent=1.1, rng=rng)
    return SyntheticDataset(
        name="search_queries",
        description=("Synthetic search-query log: query identifiers with Zipf(1.1) "
                     "popularity over a 200k-query universe."),
        stream=stream,
        universe_size=universe,
    )


def _flat_background(n: int, rng: RandomState) -> SyntheticDataset:
    """A nearly-uniform workload where there are no true heavy hitters."""
    universe = 100_000
    stream = uniform_stream(n, universe, rng=rng)
    return SyntheticDataset(
        name="flat_background",
        description="Uniform background traffic over a 100k universe (no heavy hitters).",
        stream=stream,
        universe_size=universe,
    )


def _planted_heavy_hitters(n: int, rng: RandomState) -> SyntheticDataset:
    """A workload with 20 planted heavy hitters holding half of the mass."""
    universe = 100_000
    stream = planted_heavy_hitters_stream(n, universe, num_heavy=20,
                                          heavy_fraction=0.5, rng=rng)
    return SyntheticDataset(
        name="planted_heavy_hitters",
        description="20 planted heavy hitters carrying 50% of a 100k-universe stream.",
        stream=stream,
        universe_size=universe,
    )


def _user_purchases(n: int, rng: RandomState) -> SyntheticDataset:
    """Synthetic user-level dataset: each user contributes up to 8 distinct items."""
    universe = 20_000
    stream = distinct_user_stream(n, universe, max_contribution=8, exponent=1.2, rng=rng)
    return SyntheticDataset(
        name="user_purchases",
        description=("User-level purchases: each of the n users contributes a set of up to 8 "
                     "distinct item identifiers, Zipf(1.2) popularity, 20k-item universe."),
        stream=stream,
        universe_size=universe,
        user_level=True,
    )


_REGISTRY: Dict[str, Callable[[int, RandomState], SyntheticDataset]] = {
    "network_flows": _network_flows,
    "search_queries": _search_queries,
    "flat_background": _flat_background,
    "planted_heavy_hitters": _planted_heavy_hitters,
    "user_purchases": _user_purchases,
}


def list_datasets() -> List[str]:
    """Names of the available synthetic datasets."""
    return sorted(_REGISTRY.keys())


def load_dataset(name: str, n: int = 100_000, rng: RandomState = 0) -> SyntheticDataset:
    """Generate the named dataset with ``n`` items using seed/generator ``rng``.

    Datasets are generated on the fly (nothing is stored on disk) so ``rng``
    fully determines the content; the default seed 0 makes examples and
    benchmarks reproducible out of the box.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError as exc:
        known = ", ".join(list_datasets())
        raise ParameterError(f"unknown dataset {name!r}; available: {known}") from exc
    return factory(n, rng)
