"""The ``Pipeline`` facade: sketch → private release → query, in one object.

The paper's workflow is a single pipeline, and this class exposes it as one:

>>> from repro.api import Pipeline
>>> pipe = Pipeline(sketch="misra_gries", mechanism="pmg", k=256,
...                 epsilon=1.0, delta=1e-6)
>>> histogram = pipe.fit([1, 2, 1, 1, 3, 1]).release(rng=0)
>>> histogram.metadata.mechanism
'PMG'

``sketch`` and ``mechanism`` are registry specs (names or ``{"name": ...}``
dicts; see :mod:`repro.api.registry`), so every registered mechanism —
the paper's releases and all baselines — is reachable from the same
constructor.  Remaining keyword arguments (``epsilon``, ``delta``, ``k``,
``universe_size``, ``max_contribution``, ...) form a parameter grab-bag that
each factory filters to its own signature.

``fit`` dispatches on what the mechanism consumes:

* ``"sketch"`` mechanisms stream elements into the configured sketch;
  integer ndarrays (and int lists) ride the vectorized ``update_batch``
  path automatically.
* ``"stream"`` / ``"user_stream"`` mechanisms buffer the raw stream (the
  local-DP and user-level mechanisms must see the elements themselves).
* ``"sketch_list"`` mechanisms build one sketch per ``fit`` call — each call
  represents one server's stream in the Section 7 distributed setting.

``merge`` folds other pipelines, sketches, counter mappings or columnar wire
payloads into a new pipeline via the Agarwal et al. bounded merge; payloads
that arrived on the v2 integer wire join :func:`~repro.sketches.merge.merge_many`
as their key and value columns, with no per-key Python.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Union

from .._batching import as_int_array
from .._validation import check_positive_int
from ..core.results import PrivateHistogram
from ..exceptions import ParameterError, SketchStateError
from ..sketches.base import FrequencySketch
from ..sketches.merge import merge_many, merge_tree
from . import wire as wire_module
from .registry import (
    MechanismAdapter,
    MechanismSpec,
    SketchSpec,
    make_mechanism,
    make_sketch,
    mechanism_entry,
    normalize_spec,
)

Mergeable = Union["Pipeline", FrequencySketch, Mapping[Hashable, float],
                  wire_module.WirePayload, Mapping]


class Pipeline:
    """One configured sketch-and-release pipeline.

    Parameters
    ----------
    sketch:
        Sketch spec (``"misra_gries"``, ``{"name": "count_min", "depth": 5}``,
        ...).  ``None`` uses the mechanism's natural default.
    mechanism:
        Mechanism spec (``"pmg"``, ``{"name": "pmg", "noise": "geometric"}``,
        ...); see :func:`repro.api.list_mechanisms`.
    **params:
        Pipeline-level parameters (``k``, ``epsilon``, ``delta``,
        ``universe_size``, ``max_contribution``, ``phi``, ...).  Each factory
        picks the ones it accepts; spec-dict parameters win over these.
    """

    def __init__(self, sketch: Optional[SketchSpec] = None,
                 mechanism: MechanismSpec = "pmg", **params: Any) -> None:
        self._params = dict(params)
        self._mechanism: MechanismAdapter = make_mechanism(mechanism, **params)
        self._mechanism_spec = mechanism
        self._sketch_spec = sketch if sketch is not None else self._mechanism.default_sketch
        self._sketch: Optional[FrequencySketch] = None
        self._counters: Optional[Dict[Hashable, float]] = None  # merged state
        self._merged_state = False  # counters came from merge()/fit(workers=N)
        self._buffer: List = []            # stream / user_stream mechanisms
        self._sketches: List = []          # sketch_list mechanisms
        self._stream_length = 0
        self._last_release: Optional[PrivateHistogram] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def mechanism(self) -> MechanismAdapter:
        """The configured mechanism adapter."""
        return self._mechanism

    @property
    def mechanism_name(self) -> str:
        """Canonical registry name of the configured mechanism."""
        return self._mechanism.name

    @property
    def stream_length(self) -> int:
        """Number of stream items processed across all ``fit`` calls."""
        return self._stream_length

    @property
    def k(self) -> Optional[int]:
        """The pipeline's sketch size, when one is configured."""
        if self._sketch is not None:
            return getattr(self._sketch, "size", self._params.get("k"))
        return self._params.get("k")

    def counters(self) -> Dict[Hashable, float]:
        """Current fitted counters (sketch counters, or the merged state)."""
        if self._counters is not None:
            return dict(self._counters)
        if self._sketch is not None:
            return self._sketch.counters()
        raise SketchStateError("pipeline holds no fitted sketch state")

    def __repr__(self) -> str:
        return (f"Pipeline(sketch={self._sketch_spec!r}, "
                f"mechanism={self.mechanism_name!r}, n={self._stream_length})")

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def _ensure_sketch(self) -> FrequencySketch:
        if self._counters is not None:
            raise SketchStateError(
                "this pipeline holds merged counters (from merge() or a sharded "
                "fit); continue with fit(stream, workers=2) or more to fold "
                "further shards in, or create a fresh Pipeline to fit "
                "sequentially")
        if self._sketch is None:
            self._sketch = make_sketch(self._sketch_spec, **self._params)
        return self._sketch

    #: Sketch specs the sharded ``fit(stream, workers=N)`` path supports:
    #: the shard sketches are paper-variant Misra-Gries and the fan-in is the
    #: Agarwal ``merge_tree``, which is only a meaningful summary for the
    #: Misra-Gries family.
    _SHARDABLE_SKETCHES = ("misra_gries", "mg")

    #: Minimum stream elements per shard before ``fit(stream, workers=N)``
    #: fans out to worker processes.  Sketching is tens of nanoseconds per
    #: element while a process pool costs milliseconds to spin up, so a
    #: shard needs roughly this many elements before a worker pays for
    #: itself; shorter streams are sharded less (``num_shards =
    #: min(workers, size // 65536)``) and a single-shard fit runs in
    #: process with no pool at all, producing the exact result the pool
    #: would have.
    _MIN_SHARD_ELEMENTS = 65536

    def fit(self, stream: Iterable[Hashable],
            workers: Optional[int] = None) -> "Pipeline":
        """Process one stream; returns ``self`` for chaining.

        Integer ndarray (and int-list) streams dispatch to the vectorized
        ``update_batch`` engine for sketch-consuming mechanisms.  For
        ``sketch_list`` mechanisms each ``fit`` call contributes one
        per-stream sketch to the eventual merged release.

        ``workers=N`` (N > 1) shards an integer ndarray stream into up to
        ``N`` contiguous slices, sketches each slice in its own process and
        tree-merges the shard sketches
        (:func:`repro.core.merging.sketch_and_merge_shards`).  The result is
        a size-``k`` merged summary with the same Misra-Gries guarantee
        (estimates within ``n/(k+1)``, Lemma 29) as the sequential fit — the
        individual counter values differ.  Every shard carries at least
        :attr:`_MIN_SHARD_ELEMENTS` elements, so short streams use fewer
        shards, and a fit that collapses to one shard runs in-process with
        the sequential fit's exact summary.  Only the ``misra_gries`` sketch
        spec and sketch/sketch_list mechanisms support sharding;
        stream-consuming mechanisms must see the raw elements and reject
        ``workers``.  A sharded fit leaves the pipeline holding a merged
        summary, so later ``fit`` calls on it must also pass ``workers``
        (they fold into the summary); a plain ``fit`` raises like any merged
        pipeline.

        .. warning::
            A merged summary has a different *privacy* sensitivity structure
            than a single-stream sketch: neighbouring inputs can change up
            to ``k`` counters by 1 (Corollary 18), which is what the
            merged-sensitivity releases (``merged``, ``gshm`` with
            ``l = k``) are calibrated to.  Algorithm-2 style mechanisms
            (``pmg``, ``reduced``, ...) release sharded/merged state with
            their single-stream calibration, exactly as they do for
            :meth:`merge` results — choose a merged-sensitivity mechanism
            when the DP guarantee must cover the sharded input.
        """
        consumes = self._mechanism.consumes
        if workers is not None:
            check_positive_int(workers, "workers")
            if consumes not in ("sketch", "sketch_list"):
                raise ParameterError(
                    f"{self.mechanism_name!r} consumes the raw stream; "
                    "sharded fit only applies to sketch-building pipelines")
            if workers > 1:
                return self._fit_sharded(stream, workers)
        if consumes == "sketch":
            sketch = self._ensure_sketch()
            before = sketch.stream_length
            sketch.update_all(stream)
            self._stream_length += sketch.stream_length - before
        elif consumes in ("stream", "user_stream", "checkpointed_stream"):
            items = list(stream)
            self._buffer.extend(items)
            self._stream_length += len(items)
        else:  # sketch_list: one sketch per fitted stream
            from ..sketches.misra_gries import MisraGriesSketch

            sketch = MisraGriesSketch(self._sketch_list_k())
            sketch.update_all(stream)
            self._sketches.append(sketch)
            self._stream_length += sketch.stream_length
        self._last_release = None
        return self

    def _sketch_list_k(self) -> int:
        """The sketch size for per-stream sketches of a sketch_list fit.

        The mechanism's own calibrated ``k`` (e.g. ``PrivateMergedRelease.k``)
        wins over the pipeline default, so the built sketches can never
        disagree with the release calibration.
        """
        size = self._params.get("k")
        if size is None:
            size = getattr(self._mechanism.impl, "k", None)
        return size if size is not None else 64

    def _fit_sharded(self, stream, workers: int) -> "Pipeline":
        """Shard → parallel sketch → ``merge_tree`` fan-in (see :meth:`fit`)."""
        from ..core.merging import sketch_and_merge_shards

        consumes = self._mechanism.consumes
        if consumes == "sketch_list":
            # merge() rejects collapsing untrusted/trusted-sum sketch lists;
            # the sharded fan-in performs the same collapse per fit call.
            self._require_tree_mergeable(self)
        spec_name, _ = normalize_spec(self._sketch_spec)
        if consumes == "sketch" and spec_name not in self._SHARDABLE_SKETCHES:
            raise ParameterError(
                f"sharded fit builds Misra-Gries shard sketches; sketch spec "
                f"{spec_name!r} cannot be merged with merge_tree")
        batch = as_int_array(stream)
        if batch is None:
            raise ParameterError(
                "fit(stream, workers=N) shards integer ndarray (or int-list) "
                "streams; process other streams sequentially")
        if consumes == "sketch":
            # Resolve k exactly as the sequential fit would (spec-dict
            # parameters win over the pipeline grab-bag), so the sharded
            # summary carries the same n/(k+1) guarantee.
            size = make_sketch(self._sketch_spec, **self._params).size
        else:
            size = self._sketch_list_k()
        # Cutover: a process fan-out only pays off when every shard carries
        # enough elements (see _MIN_SHARD_ELEMENTS); short streams collapse
        # to fewer shards, and a single shard is sketched in-process.
        num_shards = min(workers, max(1, int(batch.size) // self._MIN_SHARD_ELEMENTS))
        merged = sketch_and_merge_shards(batch, size, num_shards)
        if consumes == "sketch_list":
            self._sketches.append(merged)
        else:
            contributions = []
            if self._sketch is not None:
                contributions.append(self._sketch.counters())
            elif self._counters is not None:
                contributions.append(self._counters)
            contributions.append(merged)
            self._sketch = None
            self._counters = merge_tree(contributions, size) if len(contributions) > 1 else merged
            self._merged_state = True
        self._stream_length += int(batch.size)
        self._last_release = None
        return self

    def add_sketch(self, sketch: Union[FrequencySketch, Mapping[Hashable, float],
                                       wire_module.WirePayload]) -> "Pipeline":
        """Add a pre-built sketch or wire envelope (``sketch_list`` mechanisms only).

        Decoded v2 payloads are kept as-is: an unpadded integer-encoded
        envelope reaches the merged release as its key and value columns.
        """
        if self._mechanism.consumes != "sketch_list":
            raise SketchStateError(
                f"{self.mechanism_name!r} releases a single fitted input; use fit()")
        if isinstance(sketch, Mapping) and sketch.get("format") == wire_module.WIRE_FORMAT_VERSION:
            sketch = wire_module.decode(sketch)
        self._sketches.append(sketch)
        if isinstance(sketch, (FrequencySketch, wire_module.WirePayload)):
            self._stream_length += sketch.stream_length
        self._last_release = None
        return self

    @classmethod
    def from_sketch(cls, sketch: Union[FrequencySketch, Mapping[Hashable, float],
                                       wire_module.WirePayload],
                    mechanism: MechanismSpec = "pmg", **params: Any) -> "Pipeline":
        """Wrap an already-built sketch (or decoded wire payload) in a pipeline.

        When ``k`` is not given it is read off the sketch/envelope, so
        k-calibrated mechanisms (chan, bohler_kerschbaum, gshm, merged) are
        scaled to the sketch actually being released rather than a default.
        """
        if "k" not in params:
            if isinstance(sketch, wire_module.WirePayload):
                size = sketch.k
            else:
                size = getattr(sketch, "size", None)
            if isinstance(size, int):
                params["k"] = size
        pipeline = cls(mechanism=mechanism, **params)
        if pipeline._mechanism.consumes not in ("sketch", "sketch_list"):
            raise ParameterError(
                f"{pipeline.mechanism_name!r} consumes a raw stream; "
                "feed it with fit() instead of from_sketch()")
        if pipeline._mechanism.consumes == "sketch_list":
            return pipeline.add_sketch(sketch)
        if isinstance(sketch, wire_module.WirePayload):
            payload = sketch
            if payload.kind in ("misra_gries_paper", "misra_gries_standard"):
                sketch = wire_module.payload_to_sketch(payload)
            else:
                pipeline._counters = payload.counters()
                pipeline._stream_length = payload.stream_length
                if payload.k is not None:
                    pipeline._params.setdefault("k", payload.k)
                return pipeline
        if isinstance(sketch, FrequencySketch):
            pipeline._sketch = sketch
            pipeline._stream_length = sketch.stream_length
        else:
            pipeline._counters = {key: float(value) for key, value in sketch.items()}
        return pipeline

    # ------------------------------------------------------------------
    # Release and queries
    # ------------------------------------------------------------------

    def _fitted(self) -> Any:
        consumes = self._mechanism.consumes
        if consumes == "sketch":
            if self._counters is not None:
                return self._counters
            if self._sketch is None:
                raise SketchStateError("nothing fitted yet; call fit(stream) first")
            return self._sketch
        if consumes in ("stream", "user_stream", "checkpointed_stream"):
            if not self._buffer:
                raise SketchStateError("nothing fitted yet; call fit(stream) first")
            return self._buffer
        if self._counters is not None:
            return [self._counters]
        if not self._sketches:
            raise SketchStateError("nothing fitted yet; call fit(stream) or add_sketch first")
        return self._sketches

    def release(self, rng: Any = None, **context: Any) -> PrivateHistogram:
        """Release the fitted state privately; caches the result for queries.

        Merged pipeline state (from :meth:`merge` or ``fit(workers=N)``)
        carries the merged sensitivity structure (Corollary 18: up to ``k``
        counters change by 1 between neighbours).  Single-stream mechanisms
        (``pmg``, ``reduced``, ``pure_dp``) would silently release it with
        their single-stream calibration, so they raise
        :class:`~repro.exceptions.ParameterError` instead — release through
        a merged-sensitivity mechanism (``merged``, or ``gshm`` with
        ``l = k``), or pass ``allow_single_stream_calibration=True`` (here
        or to the constructor) to accept the weaker guarantee knowingly.
        """
        allow = bool(context.pop(
            "allow_single_stream_calibration",
            self._params.get("allow_single_stream_calibration", False)))
        if self._merged_state and self._mechanism.single_stream and not allow:
            raise ParameterError(
                f"mechanism {self.mechanism_name!r} is calibrated for a "
                "single-stream sketch, but this pipeline holds a merged "
                "summary (from merge() or fit(workers=N)) whose neighbours "
                "can differ in up to k counters (Corollary 18) — the "
                "single-stream noise under-protects it. Release through a "
                "merged-sensitivity mechanism (mechanism='merged', or 'gshm' "
                "with l = k), or pass allow_single_stream_calibration=True "
                "to accept the miscalibrated release.")
        context.setdefault("k", self._params.get("k"))
        context.setdefault("stream_length", self._stream_length)
        if "phi" in self._params:
            context.setdefault("phi", self._params["phi"])
        self._last_release = self._mechanism.release(self._fitted(), rng=rng, **context)
        return self._last_release

    def heavy_hitters(self, phi: float, rng: Any = None) -> Dict[Hashable, float]:
        """phi-heavy hitters of the (cached or freshly drawn) private release."""
        if not (0 < phi < 1):
            raise ParameterError(f"phi must be in (0,1), got {phi}")
        histogram = self._last_release
        if histogram is None:
            histogram = self.release(rng=rng)
        cutoff = phi * max(histogram.metadata.stream_length, self._stream_length)
        return histogram.heavy_hitters(cutoff)

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    @staticmethod
    def _require_tree_mergeable(pipeline: "Pipeline") -> None:
        """Only trusted-merged ``sketch_list`` pipelines may be tree-merged.

        The untrusted strategy privatizes every sketch *before* merging and
        trusted-sum applies Algorithm 3 per sketch; collapsing their raw
        sketches into one summary would silently change those semantics.
        """
        from ..core.merging import MergeStrategy

        strategy = getattr(pipeline._mechanism.impl, "strategy", None)
        if strategy is not None and strategy is not MergeStrategy.TRUSTED_MERGED:
            raise ParameterError(
                f"cannot tree-merge a {MergeStrategy(strategy).value!r} "
                f"sketch_list pipeline: that strategy needs its per-sketch "
                f"structure (release it directly instead)")

    @staticmethod
    def _entry_counters(entry) -> Dict[Hashable, float]:
        """Counters of one ``_sketches`` entry (sketch, dict or wire payload)."""
        if isinstance(entry, wire_module.WirePayload):
            return entry.merge_counters()
        if isinstance(entry, FrequencySketch):
            return entry.counters()
        return {key: float(value) for key, value in entry.items()}

    def _merge_contribution(self, other: Mergeable):
        """Normalize a merge input to ``(sketch, stream length)``: a
        counter dict, or the ``(keys, values)`` columns of an integer wire
        payload."""
        if isinstance(other, Pipeline):
            if other._buffer:
                raise ParameterError(
                    f"cannot merge a {other.mechanism_name!r} pipeline: merging applies "
                    "to sketch-consuming pipelines (a fitted sketch or merged counters)")
            if other._sketches:
                self._require_tree_mergeable(other)
                size = other._params.get("k") or other.k
                if size is None:
                    raise ParameterError(
                        "merging a sketch_list pipeline requires its parameter k")
                return (merge_tree([self._entry_counters(sketch)
                                    for sketch in other._sketches], size),
                        other.stream_length)
            return other.counters(), other.stream_length
        if isinstance(other, wire_module.WirePayload):
            columns = other.columnar()
            if columns is None:
                columns = other.merge_counters()
            return columns, other.stream_length
        if isinstance(other, FrequencySketch):
            return other.counters(), other.stream_length
        if isinstance(other, Mapping):
            if other.get("format") == wire_module.WIRE_FORMAT_VERSION:
                return self._merge_contribution(wire_module.decode(other))
            return {key: float(value) for key, value in other.items()}, 0
        raise ParameterError(f"cannot merge {type(other)!r} into a pipeline")

    def merge(self, others: Union[Mergeable, Sequence[Mergeable]]) -> "Pipeline":
        """Merge this pipeline with others into a new pipeline (Agarwal merge).

        ``others`` may be a single item or a sequence of sketch-consuming
        pipelines, sketches, counter mappings, or v2 wire payloads (decoded
        or raw JSON dicts); stream-buffering pipelines are rejected.  A
        ``sketch_list`` pipeline (its own or among ``others``) contributes
        the pairwise :func:`~repro.sketches.merge.merge_tree` reduction of
        its per-stream sketches — the Section 7 "tree of servers" fan-in
        (trusted-merged strategy only; the untrusted and trusted-sum
        strategies need their per-sketch structure and are rejected).
        The result is a new :class:`Pipeline` with the same mechanism whose
        fitted state is the size-``k`` merged summary.  Integer v2 wire
        payloads join the fold as their ``(keys, values)`` columns.

        .. warning::
            Merged summaries carry the merged sensitivity structure
            (Corollary 18: up to ``k`` counters change by 1 between
            neighbours); single-stream mechanisms like ``pmg`` release the
            result with their single-stream calibration.  Use a
            merged-sensitivity mechanism (``merged``, ``gshm`` with
            ``l = k``) when the DP guarantee must cover the merged input.
        """
        size = self._params.get("k") or self.k
        if size is None:
            raise ParameterError("merging requires the pipeline parameter k")
        if isinstance(others, (Pipeline, FrequencySketch, Mapping, wire_module.WirePayload)):
            others = [others]
        contributions = [self._merge_contribution(self)] if self._has_state() else []
        contributions.extend(self._merge_contribution(other) for other in others)
        if not contributions:
            raise SketchStateError("nothing to merge")
        total_length = sum(length for _, length in contributions)
        sketches = [sketch for sketch, _ in contributions]
        if self._mechanism.consumes == "sketch_list":
            self._require_tree_mergeable(self)
            # Tree reduction over the contributing summaries: each sketch_list
            # contribution is already a tree-merged summary of its servers, so
            # one more pairwise tree round combines the server groups.
            merged = merge_tree(sketches, size)
        else:
            merged = merge_many(sketches, size)
        result = Pipeline(sketch=self._sketch_spec, mechanism=self._mechanism_spec,
                          **self._params)
        result._counters = merged
        result._merged_state = True
        result._stream_length = total_length
        return result

    def _has_state(self) -> bool:
        return (self._sketch is not None or self._counters is not None
                or bool(self._buffer) or bool(self._sketches))

    # ------------------------------------------------------------------
    # Wire export
    # ------------------------------------------------------------------

    def to_wire(self) -> Dict:
        """The fitted state as a v2 columnar wire envelope (JSON-ready dict)."""
        if self._sketch is not None:
            return wire_module.encode_sketch(self._sketch)
        if self._counters is not None:
            return wire_module.encode_counters(self._counters, k=self._params.get("k"),
                                               stream_length=self._stream_length)
        raise SketchStateError("pipeline holds no fitted sketch state to export")

    # ------------------------------------------------------------------
    # Network conveniences (repro.net)
    # ------------------------------------------------------------------

    def _net_params(self) -> Dict[str, Any]:
        """epsilon/delta/k for the aggregation service, read off this pipeline."""
        impl = self._mechanism.impl
        resolved = {}
        for field in ("epsilon", "delta"):
            value = self._params.get(field, getattr(impl, field, None))
            if value is None:
                raise ParameterError(
                    f"the aggregation service needs {field}; pass it to the "
                    f"Pipeline constructor")
            resolved[field] = value
        resolved["k"] = self._params.get("k", getattr(impl, "k", None))
        return resolved

    def serve(self, **overrides: Any):
        """An :class:`~repro.net.AggregatorServer` configured like this pipeline.

        Reads ``epsilon``/``delta``/``k`` off the pipeline parameters (k may
        be ``None``: the server then adopts the first session's size).  The
        server is *not* started — ``await server.start(address)`` (or use
        ``repro serve`` on the command line).
        """
        from ..net import AggregatorServer

        params = {**self._net_params(), **overrides}
        return AggregatorServer(**params)

    def connect(self, address: str, **overrides: Any):
        """An :class:`~repro.net.AggregatorClient` for ``address``.

        The client declares this pipeline's ``k``; use it as an async
        context manager to push :meth:`to_wire` exports and request
        releases.
        """
        from ..net import AggregatorClient

        overrides.setdefault("k", self._params.get("k"))
        return AggregatorClient(address, **overrides)


def describe_pipeline(mechanism: MechanismSpec) -> Dict[str, Any]:
    """What a mechanism spec consumes and accepts (CLI/docs helper)."""
    name, params = normalize_spec(mechanism)
    entry = mechanism_entry(name)
    return {"name": entry.name, "consumes": entry.consumes,
            "description": entry.description,
            "parameters": entry.parameters(), "spec_overrides": params}
