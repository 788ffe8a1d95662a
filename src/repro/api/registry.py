"""Unified registry of sketches and release mechanisms.

The paper describes one pipeline — sketch a stream, release the sketch under
differential privacy, optionally merge many users' sketches — but the
implementing classes grew bespoke constructor and release signatures.  This
module puts every sketch and every release mechanism (the paper's and all
baselines) behind a single addressable namespace:

>>> from repro.api import list_mechanisms, make_mechanism
>>> sorted(list_mechanisms())[:3]
['bohler_kerschbaum', 'chan', 'exact']
>>> mechanism = make_mechanism({"name": "pmg", "noise": "geometric"}, epsilon=1.0, delta=1e-6)
>>> mechanism.consumes
'sketch'

A *spec* is either a registered name (``"pmg"``) or a dict with a ``name``
field plus constructor parameters (``{"name": "pmg", "noise": "geometric"}``).
Spec parameters are validated against the factory signature — unknown
parameters raise :class:`~repro.exceptions.ParameterError` — while *defaults*
(the grab-bag of pipeline-level parameters like ``epsilon``/``delta``/``k``)
are silently filtered to whatever each factory accepts, so one parameter set
can drive any mechanism.

Every mechanism is wrapped in a :class:`MechanismAdapter` with a uniform
``release(fitted, rng=None, **context)`` method; ``consumes`` declares what
the mechanism releases ("sketch", "stream", "user_stream" or "sketch_list"),
which is how the :class:`~repro.api.pipeline.Pipeline` facade and the CLI
dispatch without mechanism-specific glue.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

from ..baselines.bohler_kerschbaum import BohlerKerschbaumMG
from ..baselines.chan import ChanPrivateMisraGries
from ..baselines.exact_histogram import StabilityHistogram
from ..baselines.local_dp import LocalDPFrequencyEstimator
from ..baselines.prefix_tree import PrefixTreeHeavyHitters
from ..core.continual import ContinualConfig
from ..core.gshm import GaussianSparseHistogram
from ..core.merging import MergeStrategy, PrivateMergedRelease
from ..core.private_misra_gries import PrivateMisraGries
from ..core.pure_dp import ApproximateDPReducedRelease, PureDPMisraGries
from ..core.results import PrivateHistogram
from ..core.user_level import UserLevelRelease
from ..exceptions import ParameterError
from ..sketches.base import FrequencySketch
from ..sketches.count_min import CountMinSketch
from ..sketches.count_sketch import CountSketch
from ..sketches.exact import ExactCounter
from ..sketches.misra_gries import MisraGriesSketch
from ..sketches.misra_gries_standard import StandardMisraGriesSketch
from ..sketches.space_saving import SpaceSavingSketch

MechanismSpec = Union[str, Mapping[str, Any]]
SketchSpec = Union[str, Mapping[str, Any]]


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------

@runtime_checkable
class Sketch(Protocol):
    """Structural interface every registered sketch satisfies."""

    def update(self, element: Hashable) -> None: ...

    def estimate(self, element: Hashable) -> float: ...

    def counters(self) -> Dict[Hashable, float]: ...

    @property
    def stream_length(self) -> int: ...


@runtime_checkable
class ReleaseMechanism(Protocol):
    """Structural interface every registered mechanism adapter satisfies."""

    name: str
    consumes: str

    def release(self, fitted: Any, rng: Any = None, **context: Any) -> PrivateHistogram: ...


# ---------------------------------------------------------------------------
# Adapter
# ---------------------------------------------------------------------------

#: What a mechanism releases: a single frequency sketch, a raw element
#: stream, a user-level stream (sets of elements), several sketches, or a
#: checkpointed stream (a raw stream released repeatedly at epoch boundaries,
#: with the budget accounted over the whole timeline).
CONSUMES = ("sketch", "stream", "user_stream", "sketch_list", "checkpointed_stream")


@dataclass(frozen=True)
class MechanismAdapter:
    """Uniform wrapper around one configured release mechanism.

    ``impl`` is the underlying mechanism object (e.g. a
    :class:`PrivateMisraGries` instance) for callers that need the full
    class-level API; ``release`` is the one method the facade and CLI use.
    """

    name: str
    consumes: str
    impl: Any
    _release: Callable[[Any, Any, Any, Dict[str, Any]], PrivateHistogram]
    default_sketch: str = "misra_gries"
    #: True for mechanisms whose noise/threshold calibration assumes a
    #: *single-stream* sketch (neighbouring inputs change one counter chain,
    #: Lemma 4).  Releasing a merge()/sharded-fit summary — where up to ``k``
    #: counters can change by 1 between neighbours (Corollary 18) — through
    #: such a mechanism silently under-noises; the Pipeline facade refuses
    #: unless ``allow_single_stream_calibration=True`` is passed.
    single_stream: bool = False

    def release(self, fitted: Any, rng: Any = None, **context: Any) -> PrivateHistogram:
        """Release ``fitted`` (whatever :attr:`consumes` names) privately."""
        return self._release(self.impl, fitted, rng, context)


def _sketch_context(fitted, context) -> Tuple[Any, Optional[int], Optional[int]]:
    """Normalize a fitted sketch-or-dict plus context into (payload, k, n)."""
    if isinstance(fitted, FrequencySketch):
        return fitted, getattr(fitted, "size", context.get("k")), fitted.stream_length
    return fitted, context.get("k"), context.get("stream_length")


def _as_counter_dict(fitted) -> Dict[Hashable, float]:
    if isinstance(fitted, FrequencySketch):
        return fitted.counters()
    return {key: float(value) for key, value in fitted.items()}


# ---------------------------------------------------------------------------
# Registry storage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegistryEntry:
    """One registered sketch or mechanism factory."""

    name: str
    factory: Callable[..., Any]
    description: str = ""
    aliases: Tuple[str, ...] = ()
    consumes: Optional[str] = None

    def parameters(self) -> List[str]:
        """Keyword parameters the factory accepts (for docs and validation)."""
        return [name for name, param in inspect.signature(self.factory).parameters.items()
                if param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)]


_SKETCHES: Dict[str, RegistryEntry] = {}
_MECHANISMS: Dict[str, RegistryEntry] = {}


def _register(table: Dict[str, RegistryEntry], entry: RegistryEntry) -> None:
    for name in (entry.name, *entry.aliases):
        if name in table:
            raise ParameterError(f"duplicate registration for {name!r}")
        table[name] = entry


def register_sketch(name: str, *, description: str = "",
                    aliases: Tuple[str, ...] = ()) -> Callable:
    """Decorator registering a sketch factory under ``name`` (plus aliases)."""
    def decorator(factory: Callable) -> Callable:
        _register(_SKETCHES, RegistryEntry(name=name, factory=factory,
                                           description=description, aliases=aliases))
        return factory
    return decorator


def register_mechanism(name: str, *, consumes: str = "sketch", description: str = "",
                       aliases: Tuple[str, ...] = ()) -> Callable:
    """Decorator registering a mechanism factory under ``name`` (plus aliases).

    The factory must return a :class:`MechanismAdapter` (or any object
    satisfying the :class:`ReleaseMechanism` protocol).
    """
    if consumes not in CONSUMES:
        raise ParameterError(f"consumes must be one of {CONSUMES}, got {consumes!r}")

    def decorator(factory: Callable) -> Callable:
        _register(_MECHANISMS, RegistryEntry(name=name, factory=factory,
                                             description=description, aliases=aliases,
                                             consumes=consumes))
        return factory
    return decorator


def list_sketches() -> Dict[str, str]:
    """Registered sketch names (canonical only) mapped to their descriptions."""
    return {name: entry.description for name, entry in sorted(_SKETCHES.items())
            if name == entry.name}


def list_mechanisms() -> Dict[str, str]:
    """Registered mechanism names (canonical only) mapped to their descriptions."""
    return {name: entry.description for name, entry in sorted(_MECHANISMS.items())
            if name == entry.name}


def sketch_entry(name: str) -> RegistryEntry:
    """The registry entry for a sketch name or alias."""
    try:
        return _SKETCHES[name]
    except KeyError:
        raise ParameterError(
            f"unknown sketch {name!r}; registered: {', '.join(sorted(list_sketches()))}") from None


def mechanism_entry(name: str) -> RegistryEntry:
    """The registry entry for a mechanism name or alias."""
    try:
        return _MECHANISMS[name]
    except KeyError:
        raise ParameterError(
            f"unknown mechanism {name!r}; "
            f"registered: {', '.join(sorted(list_mechanisms()))}") from None


def normalize_spec(spec: Union[str, Mapping[str, Any]]) -> Tuple[str, Dict[str, Any]]:
    """Split a spec (name or ``{"name": ..., **params}`` dict) into (name, params)."""
    if isinstance(spec, str):
        return spec, {}
    if isinstance(spec, Mapping):
        params = dict(spec)
        name = params.pop("name", None)
        if not isinstance(name, str):
            raise ParameterError(f"spec dict must carry a string 'name' field, got {spec!r}")
        return name, params
    raise ParameterError(f"spec must be a name or a dict with a 'name' field, got {spec!r}")


def _build(entry: RegistryEntry, spec_params: Dict[str, Any],
           defaults: Mapping[str, Any]) -> Any:
    """Instantiate a registry entry.

    ``spec_params`` (from the spec dict) must all be accepted by the factory;
    ``defaults`` are filtered to the factory's signature so pipeline-level
    parameter grab-bags can be passed to any entry.
    """
    accepted = set(entry.parameters())
    unknown = set(spec_params) - accepted
    if unknown:
        raise ParameterError(
            f"{entry.name!r} does not accept parameter(s) {sorted(unknown)}; "
            f"accepted: {sorted(accepted)}")
    kwargs = {key: value for key, value in defaults.items() if key in accepted}
    kwargs.update(spec_params)
    return entry.factory(**kwargs)


def make_sketch(spec: SketchSpec, **defaults: Any) -> Sketch:
    """Construct a sketch from a spec, e.g. ``make_sketch("misra_gries", k=256)``."""
    name, params = normalize_spec(spec)
    return _build(sketch_entry(name), params, defaults)


def make_mechanism(spec: MechanismSpec, **defaults: Any) -> MechanismAdapter:
    """Construct a mechanism adapter from a spec, e.g. ``make_mechanism("pmg", epsilon=1.0)``."""
    name, params = normalize_spec(spec)
    adapter = _build(mechanism_entry(name), params, defaults)
    if not isinstance(adapter, MechanismAdapter):
        raise ParameterError(
            f"factory for {name!r} returned {type(adapter)!r}, not a MechanismAdapter")
    return adapter


# ---------------------------------------------------------------------------
# Sketch registrations
# ---------------------------------------------------------------------------

@register_sketch("misra_gries", aliases=("mg",),
                 description="Paper-variant Misra-Gries (Algorithm 1): k counters, "
                             "dummy-key padding, lazy decrements, vectorized batch path.")
def _make_misra_gries(k: int = 64) -> MisraGriesSketch:
    return MisraGriesSketch(k)


@register_sketch("misra_gries_standard", aliases=("standard_mg",),
                 description="Textbook Misra-Gries: at most k counters, eager eviction.")
def _make_misra_gries_standard(k: int = 64) -> StandardMisraGriesSketch:
    return StandardMisraGriesSketch(k)


@register_sketch("space_saving",
                 description="SpaceSaving: overwrite the minimum counter instead of decrementing.")
def _make_space_saving(k: int = 64) -> SpaceSavingSketch:
    return SpaceSavingSketch(k)


@register_sketch("count_min",
                 description="CountMin: depth x width hash table of non-negative counters.")
def _make_count_min(k: int = 512, width: Optional[int] = None, depth: int = 3,
                    seed: int = 0) -> CountMinSketch:
    return CountMinSketch(width=width if width is not None else k, depth=depth, seed=seed)


@register_sketch("count_sketch",
                 description="CountSketch: signed hash table, unbiased estimates via medians.")
def _make_count_sketch(k: int = 512, width: Optional[int] = None, depth: int = 3,
                       seed: int = 0) -> CountSketch:
    return CountSketch(width=width if width is not None else k, depth=depth, seed=seed)


@register_sketch("exact",
                 description="Exact counter (unbounded memory); the ground-truth baseline.")
def _make_exact(k: Optional[int] = None) -> ExactCounter:
    return ExactCounter()


# ---------------------------------------------------------------------------
# Mechanism registrations — the paper's releases
# ---------------------------------------------------------------------------

@register_mechanism("pmg", consumes="sketch", aliases=("private_misra_gries",),
                    description="Algorithm 2: per-counter + shared noise on the MG sketch, "
                                "threshold 1 + 2 ln(3/delta)/epsilon (the paper's main mechanism).")
def _make_pmg(epsilon: float = 1.0, delta: float = 1e-6, noise: str = "laplace",
              standard_sketch: bool = False) -> MechanismAdapter:
    impl = PrivateMisraGries(epsilon=epsilon, delta=delta, noise=noise,
                             standard_sketch=standard_sketch)

    def release(mechanism, fitted, rng, context):
        payload, k, length = _sketch_context(fitted, context)
        if isinstance(payload, (MisraGriesSketch, StandardMisraGriesSketch)):
            return mechanism.release(payload, rng=rng)
        return mechanism.release(_as_counter_dict(payload), rng=rng, k=k,
                                 stream_length=length)

    return MechanismAdapter(
        name="pmg", consumes="sketch", impl=impl, _release=release,
        default_sketch="misra_gries_standard" if standard_sketch else "misra_gries",
        single_stream=True)


@register_mechanism("pure_dp", consumes="sketch", aliases=("pure_dp_mg",),
                    description="Section 6: sensitivity-reduced sketch + Laplace(2/eps) over "
                                "the whole universe, pure epsilon-DP.")
def _make_pure_dp(epsilon: float = 1.0, universe_size: int = 1024,
                  top_k: Optional[int] = None) -> MechanismAdapter:
    impl = PureDPMisraGries(epsilon=epsilon, universe_size=universe_size, top_k=top_k)

    def release(mechanism, fitted, rng, context):
        payload, k, length = _sketch_context(fitted, context)
        if isinstance(payload, MisraGriesSketch):
            return mechanism.release(payload, rng=rng)
        return mechanism.release(_as_counter_dict(payload), k=k, rng=rng,
                                 stream_length=length)

    return MechanismAdapter(name="pure_dp", consumes="sketch", impl=impl,
                            _release=release, single_stream=True)


@register_mechanism("reduced", consumes="sketch", aliases=("approx_reduced",),
                    description="Section 6 (eps, delta) variant: Algorithm 3 post-processing, "
                                "probabilistic rounding, threshold 4 + 2 ln(1/delta)/eps.")
def _make_reduced(epsilon: float = 1.0, delta: float = 1e-6) -> MechanismAdapter:
    impl = ApproximateDPReducedRelease(epsilon=epsilon, delta=delta)

    def release(mechanism, fitted, rng, context):
        payload, k, length = _sketch_context(fitted, context)
        if isinstance(payload, MisraGriesSketch):
            return mechanism.release(payload, rng=rng)
        return mechanism.release(_as_counter_dict(payload), k=k, rng=rng,
                                 stream_length=length)

    return MechanismAdapter(name="reduced", consumes="sketch", impl=impl,
                            _release=release, single_stream=True)


@register_mechanism("gshm", consumes="sketch",
                    description="Gaussian Sparse Histogram Mechanism (Theorem 23): Gaussian "
                                "noise on non-zero counters, remove below 1 + tau.")
def _make_gshm(epsilon: float = 1.0, delta: float = 1e-6, l: Optional[int] = None,
               k: Optional[int] = None, calibration: str = "exact") -> MechanismAdapter:
    structure = l if l is not None else k
    if structure is None:
        raise ParameterError("gshm requires the sensitivity structure parameter l (or k)")
    impl = GaussianSparseHistogram(epsilon=epsilon, delta=delta, l=structure,
                                   calibration=calibration)

    def release(mechanism, fitted, rng, context):
        payload, size, length = _sketch_context(fitted, context)
        return mechanism.release(_as_counter_dict(payload), rng=rng,
                                 stream_length=length or 0, sketch_size=size)

    return MechanismAdapter(name="gshm", consumes="sketch", impl=impl, _release=release)


@register_mechanism("pamg", consumes="user_stream", aliases=("user_level_pamg",),
                    description="Theorem 30 user-level route: Privacy-Aware MG sketch "
                                "(Algorithm 4) released through the GSHM, noise independent of m.")
def _make_pamg(epsilon: float = 1.0, delta: float = 1e-6, k: int = 64,
               max_contribution: int = 8, calibration: str = "exact") -> MechanismAdapter:
    impl = UserLevelRelease(epsilon=epsilon, delta=delta, k=k,
                            max_contribution=max_contribution)

    def release(mechanism, fitted, rng, context):
        return mechanism.release_pamg(list(fitted), rng=rng, calibration=calibration)

    return MechanismAdapter(name="pamg", consumes="user_stream", impl=impl, _release=release)


@register_mechanism("user_level", consumes="user_stream", aliases=("user_level_flattened",),
                    description="Lemma 20 user-level route: flatten the stream and run "
                                "Algorithm 2 with group-privacy scaled parameters.")
def _make_user_level(epsilon: float = 1.0, delta: float = 1e-6, k: int = 64,
                     max_contribution: int = 8) -> MechanismAdapter:
    impl = UserLevelRelease(epsilon=epsilon, delta=delta, k=k,
                            max_contribution=max_contribution)

    def release(mechanism, fitted, rng, context):
        return mechanism.release_flattened(list(fitted), rng=rng)

    return MechanismAdapter(name="user_level", consumes="user_stream", impl=impl,
                            _release=release)


@register_mechanism("merged", consumes="sketch_list", aliases=("merged_release",),
                    description="Section 7: aggregate many per-stream MG sketches and release "
                                "(trusted_sum / trusted_merged / untrusted strategies).")
def _make_merged(epsilon: float = 1.0, delta: float = 1e-6, k: Optional[int] = None,
                 strategy: Union[str, MergeStrategy] = MergeStrategy.TRUSTED_MERGED
                 ) -> MechanismAdapter:
    if k is None:
        # The merge truncation and the GSHM noise are both calibrated to k,
        # so a silent default would miscalibrate the DP guarantee.
        raise ParameterError("the merged release requires the sketch size k")
    impl = PrivateMergedRelease(epsilon=epsilon, delta=delta, k=k,
                                strategy=MergeStrategy(strategy))

    def release(mechanism, fitted, rng, context):
        from .wire import WirePayload, payload_to_sketch

        items = list(fitted)
        columnar = [item.columnar() if isinstance(item, WirePayload) else None
                    for item in items]
        if items and all(pair is not None for pair in columnar):
            # All inputs arrived on the v2 integer wire: stay columnar.
            return mechanism.release_arrays(
                [pair[0] for pair in columnar], [pair[1] for pair in columnar],
                rng=rng, total_stream_length=context.get("stream_length"))

        def materialize(item):
            if not isinstance(item, WirePayload):
                return item
            if item.kind in ("misra_gries_paper", "misra_gries_standard"):
                return payload_to_sketch(item)
            return item.counters()

        return mechanism.release([materialize(item) for item in items], rng=rng,
                                 total_stream_length=context.get("stream_length"))

    return MechanismAdapter(name="merged", consumes="sketch_list", impl=impl,
                            _release=release)


@register_mechanism("continual", consumes="checkpointed_stream",
                    aliases=("continual_heavy_hitters",),
                    description="Continual observation: per-block Algorithm 2 releases "
                                "('blocks' linear or 'binary_tree' logarithmic noise "
                                "growth), budget accounted over the whole timeline.")
def _make_continual(epsilon: float = 1.0, delta: float = 1e-6, k: int = 64,
                    block_size: int = 1000, strategy: str = "blocks",
                    max_blocks: int = 1024) -> MechanismAdapter:
    # Epoch parameters are validated eagerly (ContinualConfig.__post_init__),
    # so a bad block_size/strategy/max_blocks fails at construction with
    # ParameterError, not at release time inside the monitor.
    config = ContinualConfig(k=k, epsilon=epsilon, delta=delta,
                             block_size=block_size, strategy=strategy,
                             max_blocks=max_blocks)

    def release(mechanism, fitted, rng, context):
        monitor = mechanism.build(rng)
        monitor.process_stream(fitted)
        monitor.flush()
        return monitor.as_histogram()

    return MechanismAdapter(name="continual", consumes="checkpointed_stream",
                            impl=config, _release=release)


# ---------------------------------------------------------------------------
# Mechanism registrations — baselines
# ---------------------------------------------------------------------------

@register_mechanism("chan", consumes="sketch",
                    description="Chan et al. [PETS 2012] baseline: Laplace(k/eps) noise, "
                                "pure (needs universe_size) or thresholded (needs delta).")
def _make_chan(epsilon: float = 1.0, k: int = 64, delta: Optional[float] = 1e-6,
               universe_size: Optional[int] = None) -> MechanismAdapter:
    impl = ChanPrivateMisraGries(epsilon=epsilon, k=k, delta=delta,
                                 universe_size=universe_size)

    def release(mechanism, fitted, rng, context):
        payload, _, length = _sketch_context(fitted, context)
        if isinstance(payload, MisraGriesSketch):
            return mechanism.release(payload, rng=rng)
        return mechanism.release(_as_counter_dict(payload), rng=rng, stream_length=length)

    return MechanismAdapter(name="chan", consumes="sketch", impl=impl, _release=release)


@register_mechanism("bohler_kerschbaum", consumes="sketch", aliases=("bk",),
                    description="Boehler-Kerschbaum [CCS 2021] baseline: sensitivity-1 noise "
                                "as published (privacy-violating) or corrected to k.")
def _make_bk(epsilon: float = 1.0, delta: float = 1e-6, k: int = 64,
             as_published: bool = False) -> MechanismAdapter:
    impl = BohlerKerschbaumMG(epsilon=epsilon, delta=delta, k=k, as_published=as_published)

    def release(mechanism, fitted, rng, context):
        payload, _, length = _sketch_context(fitted, context)
        if isinstance(payload, MisraGriesSketch):
            return mechanism.release(payload, rng=rng)
        return mechanism.release(_as_counter_dict(payload), rng=rng, stream_length=length)

    return MechanismAdapter(name="bohler_kerschbaum", consumes="sketch", impl=impl,
                            _release=release)


@register_mechanism("exact", consumes="stream", aliases=("stability_histogram",),
                    description="Non-streaming stability histogram: exact counts + "
                                "Laplace(1/eps) + threshold (the gold-standard baseline).")
def _make_exact_mechanism(epsilon: float = 1.0, delta: Optional[float] = 1e-6,
                          universe_size: Optional[int] = None,
                          sensitivity: float = 1.0) -> MechanismAdapter:
    impl = StabilityHistogram(epsilon=epsilon, delta=delta, universe_size=universe_size,
                              sensitivity=sensitivity)

    def release(mechanism, fitted, rng, context):
        return mechanism.run(list(fitted), rng=rng)

    return MechanismAdapter(name="exact", consumes="stream", impl=impl, _release=release,
                            default_sketch="exact")


@register_mechanism("local_dp", consumes="stream", aliases=("oue",),
                    description="Local-model baseline: Optimized Unary Encoding frequency "
                                "estimation, phi-heavy hitters from the debiased histogram.")
def _make_local_dp(epsilon: float = 1.0, universe_size: int = 1024,
                   phi: float = 0.01) -> MechanismAdapter:
    impl = LocalDPFrequencyEstimator(epsilon=epsilon, universe_size=universe_size)

    def release(mechanism, fitted, rng, context):
        return mechanism.heavy_hitters(list(fitted), context.get("phi", phi), rng=rng)

    return MechanismAdapter(name="local_dp", consumes="stream", impl=impl, _release=release)


@register_mechanism("prefix_tree", consumes="stream",
                    description="Frequency-oracle baseline: hierarchy of private CountMin "
                                "sketches searched for phi-heavy dyadic intervals.")
def _make_prefix_tree(epsilon: float = 1.0, delta: float = 1e-6, universe_size: int = 1024,
                      width: int = 512, depth: int = 3, branching: int = 2,
                      phi: float = 0.01) -> MechanismAdapter:
    impl = PrefixTreeHeavyHitters(epsilon=epsilon, delta=delta, universe_size=universe_size,
                                  width=width, depth=depth, branching=branching)

    def release(mechanism, fitted, rng, context):
        return mechanism.heavy_hitters(list(fitted), context.get("phi", phi), rng=rng)

    return MechanismAdapter(name="prefix_tree", consumes="stream", impl=impl,
                            _release=release)
