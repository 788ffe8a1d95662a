"""Section 7: privately releasing merged Misra-Gries sketches.

The library supports the three aggregation regimes the paper discusses.

Trusted aggregator, unbounded memory (``MergeStrategy.TRUSTED_SUM``)
    Apply the Algorithm 3 post-processing to every sketch, sum the resulting
    counters and release the sum.  The l1-sensitivity of the aggregate stays
    below 2, so Laplace(2/epsilon) noise plus a threshold (or noise over the
    whole universe for pure DP) suffices and the error does not grow with the
    number of merges.  The aggregator may hold more than ``k`` counters.

Trusted aggregator, bounded memory (``MergeStrategy.TRUSTED_MERGED``)
    Merge with the Agarwal et al. algorithm (at most ``2k`` counters at any
    time).  Corollary 18 shows neighbouring merged sketches differ by 1 in at
    most ``k`` counters, so the release can use either Laplace noise with
    scale ``k/epsilon`` plus a threshold, or — exploiting the l2-sensitivity
    of sqrt(k) — the Gaussian Sparse Histogram Mechanism with ``l = k``
    (the default here).

Untrusted aggregator (``MergeStrategy.UNTRUSTED``)
    Each stream's sketch is released with Algorithm 2 *before* merging, and
    the noisy sketches are merged non-privately.  The noise (and in particular
    the thresholding error) grows linearly with the number of sketches, which
    is the behaviour experiment E6 demonstrates.
"""

from __future__ import annotations

import enum
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import check_delta, check_epsilon, check_positive_int
from ..dp.distributions import sample_laplace
from ..dp.rng import RandomState, ensure_rng
from ..dp.thresholds import stability_histogram_threshold
from ..exceptions import ParameterError
from ..sketches.base import FrequencySketch
from ..sketches.merge import (
    merge_many,
    merge_many_arrays,
    merge_tree,
    merge_tree_arrays,
    sum_counters,
)
from ..sketches.misra_gries import MisraGriesSketch
from .gshm import GaussianSparseHistogram
from .private_misra_gries import PrivateMisraGries
from .results import PrivateHistogram, ReleaseMetadata
from .sensitivity_reduction import reduce_sensitivity

SketchLike = Union[MisraGriesSketch, Mapping[Hashable, float], FrequencySketch]


def merge_sketches(sketches: Sequence[SketchLike], k: int) -> Dict[Hashable, float]:
    """Merge several Misra-Gries summaries into one of size at most ``k``.

    Thin re-export of :func:`repro.sketches.merge.merge_many` (the vectorized
    key-interning fold) so users of the core package do not need to import
    the sketches subpackage directly.  For very large collections consider
    :func:`repro.sketches.merge.merge_tree`.
    """
    return merge_many(list(sketches), k)


def sketch_streams(streams: Sequence, k: int) -> List[MisraGriesSketch]:
    """Build one paper-variant sketch of size ``k`` per input stream.

    Integer streams (ndarrays or lists of ints) go through the vectorized
    :meth:`~repro.sketches.MisraGriesSketch.update_batch` path, which is the
    intended entry point for the distributed setting of Section 7: each edge
    server sketches its own traffic at batch speed before shipping the sketch
    to the aggregator.  Sketching one batch across processes is
    :func:`sketch_and_merge_shards`.
    """
    size = check_positive_int(k, "k")
    return [MisraGriesSketch.from_stream(size, stream) for stream in streams]


# ---------------------------------------------------------------------------
# Zero-copy sharded sketching over shared memory
# ---------------------------------------------------------------------------
#
# The library's one sketching fan-out.  The input batch lives in one
# SharedMemory segment the workers view with ``np.frombuffer``, and each
# worker writes its sketch's columnar export ``[count][keys[k]][values[k]]``
# into its own fixed-size slot of an output segment.  The parent then folds
# the slots with :func:`~repro.sketches.merge.merge_tree_arrays` directly on
# the shared buffer — the sketch state is never pickled and never copied.


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker registration.

    On Python <= 3.12 ``SharedMemory(name=...)`` registers the segment with
    the *attaching* process's resource tracker, which either double-books it
    (fork: the tracker is shared with the creating parent) or unlinks the
    parent's segment when the worker exits (spawn: the worker has its own
    tracker).  The parent owns both segments and unlinks them itself, so
    workers must attach untracked; newer Pythons expose ``track=False`` for
    exactly this.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _sketch_shard_to_slot(input_name: str, output_name: str, dtype: np.dtype,
                          k: int, start: int, stop: int, slot: int) -> int:
    """Worker: sketch ``batch[start:stop]`` and export columns to its slot."""
    in_shm = _attach_untracked(input_name)
    out_shm = _attach_untracked(output_name)
    try:
        chunk = np.frombuffer(in_shm.buf, dtype=dtype, count=stop - start,
                              offset=8 * start)
        counters = MisraGriesSketch.from_stream(k, chunk).counters()
        count = len(counters)
        base = slot * _shard_slot_bytes(k)
        header = np.frombuffer(out_shm.buf, dtype=np.int64, count=1, offset=base)
        keys = np.frombuffer(out_shm.buf, dtype=dtype, count=count,
                             offset=base + 8)
        values = np.frombuffer(out_shm.buf, dtype=np.float64, count=count,
                               offset=base + 8 + 8 * k)
        keys[:] = np.fromiter(counters.keys(), dtype=dtype, count=count)
        values[:] = np.fromiter(counters.values(), dtype=np.float64, count=count)
        header[0] = count
        # Views must die before close(), or close() raises BufferError.
        del chunk, header, keys, values
        return count
    finally:
        in_shm.close()
        out_shm.close()


def _shard_slot_bytes(k: int) -> int:
    """Bytes of one shard's output slot: count + k keys + k values."""
    return 8 + 16 * k


def _create_segment(stack: ExitStack, nbytes: int) -> shared_memory.SharedMemory:
    """Create a segment whose close + unlink ``stack`` owns from birth."""
    shm = shared_memory.SharedMemory(create=True, size=nbytes)
    stack.callback(_close_unlink, shm)
    return shm


def _close_unlink(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except BufferError:  # pragma: no cover - leaked view; unlink still works
        pass
    try:
        shm.unlink()
    except OSError:  # pragma: no cover
        pass


def _shard_bounds(total: int, num_shards: int) -> List[Tuple[int, int]]:
    """Contiguous non-empty ``(start, stop)`` spans, as ``np.array_split``."""
    base, extra = divmod(total, num_shards)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for index in range(num_shards):
        size = base + (1 if index < extra else 0)
        if size:
            bounds.append((start, start + size))
        start += size
    return bounds


def _slot_dtype(batch: np.ndarray) -> np.dtype:
    """The 8-byte key type of the shared segments: int64, or uint64 when a
    key exceeds ``2**63 - 1``."""
    if (batch.dtype.kind == "u" and batch.size
            and int(batch.max()) > np.iinfo(np.int64).max):
        return np.dtype(np.uint64)
    return np.dtype(np.int64)


def _pool_sketch_and_merge(batch: np.ndarray, k: int,
                           bounds: Sequence[Tuple[int, int]]) -> Dict[int, float]:
    """One pool process per shard, reading and writing shared segments."""
    dtype = _slot_dtype(batch)
    batch = np.ascontiguousarray(batch, dtype=dtype)
    slot_bytes = _shard_slot_bytes(k)
    with ExitStack() as stack:
        input_shm = _create_segment(stack, batch.nbytes)
        output_shm = _create_segment(stack, slot_bytes * len(bounds))
        np.frombuffer(input_shm.buf, dtype=dtype, count=batch.size)[:] = batch
        with ProcessPoolExecutor(max_workers=len(bounds)) as pool:
            futures = [
                pool.submit(_sketch_shard_to_slot, input_shm.name,
                            output_shm.name, dtype, k, start, stop, slot)
                for slot, (start, stop) in enumerate(bounds)]
            counts = [future.result() for future in futures]
        keys_list = []
        values_list = []
        for slot, count in enumerate(counts):
            base = slot * slot_bytes
            keys_list.append(np.frombuffer(output_shm.buf, dtype=dtype,
                                           count=count, offset=base + 8))
            values_list.append(np.frombuffer(output_shm.buf, dtype=np.float64,
                                             count=count,
                                             offset=base + 8 + 8 * k))
        # merge_tree_arrays materializes plain python keys/values, so nothing
        # in the result references the shared buffers.
        merged = merge_tree_arrays(keys_list, values_list, k)
        del keys_list, values_list
        return merged


def sketch_and_merge_shards(batch: np.ndarray, k: int,
                            num_shards: int) -> Dict[int, float]:
    """Shard one integer batch, sketch the shards in parallel, merge.

    Splits ``batch`` exactly like ``np.array_split`` into ``num_shards``
    contiguous shards and sketches each in its own process, one process per
    non-empty shard, reading straight from a shared input segment; the
    parent tree-folds the columnar shard exports with
    :func:`~repro.sketches.merge.merge_tree_arrays` over views of the shared
    output segment.  Segment slots carry the batch's keys as int64, or as
    uint64 when a key exceeds ``2**63 - 1``.  A single shard, or a host
    without usable shared memory, takes the in-process loop instead:
    ``merge_tree`` over one sketch per shard.  Both routes return the
    identical merged dict (keys, float bits and order).
    """
    size = check_positive_int(k, "k")
    check_positive_int(num_shards, "num_shards")
    bounds = _shard_bounds(batch.size, num_shards)
    if len(bounds) > 1:
        try:
            return _pool_sketch_and_merge(batch, size, bounds)
        except OSError:  # no usable /dev/shm
            pass
    shards = [batch[start:stop] for start, stop in bounds]
    return merge_tree([sketch.counters() for sketch in sketch_streams(shards, size)],
                      size)


def _noisy_threshold_filter(aggregate: Mapping[Hashable, float], scale: float,
                            threshold: float,
                            generator: np.random.Generator) -> Dict[Hashable, float]:
    """Laplace-noise + threshold filter over a counter dict in one NumPy pass.

    One bulk Laplace sample (the generator consumes its bit stream exactly as
    the seed's per-key scalar draws did), one threshold mask, one dict built
    from the surviving indices.  Equal output to the seed loop kept in
    :func:`repro.core._reference.reference_trusted_sum_filter`.
    """
    keys = list(aggregate.keys())
    if not keys:
        return {}
    values = np.fromiter(aggregate.values(), dtype=float, count=len(keys))
    noise = np.asarray(sample_laplace(scale, size=len(keys), rng=generator), dtype=float)
    noisy = values + noise
    noisy_list = noisy.tolist()
    return {keys[index]: noisy_list[index]
            for index in np.flatnonzero(noisy >= threshold).tolist()}


class MergeStrategy(str, enum.Enum):
    """How a collection of per-stream sketches is aggregated and privatized."""

    TRUSTED_SUM = "trusted_sum"
    TRUSTED_MERGED = "trusted_merged"
    UNTRUSTED = "untrusted"


@dataclass(frozen=True)
class PrivateMergedRelease:
    """Private release of Misra-Gries sketches aggregated over several streams.

    Parameters
    ----------
    epsilon, delta:
        Privacy budget of the overall release.  Streams are assumed disjoint
        (each user appears in exactly one stream), so parallel composition
        applies and the per-sketch budget equals the overall budget.
    k:
        Sketch size used by every input sketch.
    strategy:
        One of :class:`MergeStrategy`; see the module docstring.
    """

    epsilon: float
    delta: float
    k: int
    strategy: MergeStrategy = MergeStrategy.TRUSTED_MERGED

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        check_delta(self.delta)
        check_positive_int(self.k, "k")
        if not isinstance(self.strategy, MergeStrategy):
            object.__setattr__(self, "strategy", MergeStrategy(self.strategy))

    # ------------------------------------------------------------------
    # Release
    # ------------------------------------------------------------------

    def release(self, sketches: Sequence[SketchLike], rng: RandomState = None,
                total_stream_length: Optional[int] = None,
                streams: Optional[int] = None) -> PrivateHistogram:
        """Aggregate the given per-stream sketches and release privately.

        ``streams`` overrides the stream count recorded in the release
        metadata — used by the streaming aggregator, which folds ``m``
        framed exports into one summary before handing it here.
        """
        if not sketches:
            raise ParameterError("at least one sketch is required")
        generator = ensure_rng(rng)
        length = total_stream_length if total_stream_length is not None else self._total_length(sketches)
        count = streams if streams is not None else len(sketches)
        if self.strategy is MergeStrategy.TRUSTED_SUM:
            return self._release_trusted_sum(sketches, generator, length, count)
        if self.strategy is MergeStrategy.TRUSTED_MERGED:
            return self._release_trusted_merged(sketches, generator, length, count)
        return self._release_untrusted(sketches, generator, length, count)

    def release_arrays(self, keys_list: Sequence[np.ndarray],
                       values_list: Sequence[np.ndarray],
                       rng: RandomState = None,
                       total_stream_length: Optional[int] = None,
                       streams: Optional[int] = None) -> PrivateHistogram:
        """Release sketches that arrive in columnar wire form.

        This is the aggregator's v2 wire entry point: each sketch is a
        parallel (integer keys, float values) array pair, e.g. decoded
        straight off :mod:`repro.api.wire` envelopes.  The default
        ``TRUSTED_MERGED`` strategy folds the arrays through
        :func:`~repro.sketches.merge.merge_many_arrays` — no per-key Python
        between the wire and the private release — and produces exactly the
        histogram :meth:`release` computes on the corresponding dicts.  The
        other strategies need per-sketch dict post-processing (Algorithm 3,
        or one Algorithm 2 release per sketch) and fall back to it.
        """
        if not len(keys_list):
            raise ParameterError("at least one sketch is required")
        generator = ensure_rng(rng)
        length = total_stream_length if total_stream_length is not None else 0
        count = streams if streams is not None else len(keys_list)
        if self.strategy is MergeStrategy.TRUSTED_MERGED:
            merged = merge_many_arrays(keys_list, values_list, self.k)
            return self._gshm_release(merged, generator, length, count,
                                      ", columnar wire")
        sketches = [dict(zip(np.asarray(keys).tolist(), np.asarray(values, dtype=float).tolist()))
                    for keys, values in zip(keys_list, values_list)]
        return self.release(sketches, rng=generator, total_stream_length=length,
                            streams=count)

    # -- trusted aggregator, post-process then sum --------------------------------

    def _release_trusted_sum(self, sketches, generator, length, count) -> PrivateHistogram:
        reduced = [self._reduce(sketch) for sketch in sketches]
        aggregate = sum_counters(reduced)
        scale = 2.0 / self.epsilon
        threshold = stability_histogram_threshold(self.epsilon, self.delta, sensitivity=2.0)
        released = _noisy_threshold_filter(aggregate, scale, threshold, generator)
        metadata = ReleaseMetadata(
            mechanism="MergedMG-TrustedSum",
            epsilon=self.epsilon,
            delta=self.delta,
            noise_scale=scale,
            threshold=threshold,
            sketch_size=self.k,
            stream_length=length,
            notes=f"streams={count}, unbounded aggregator memory",
        )
        return PrivateHistogram(counts=released, metadata=metadata)

    # -- trusted aggregator, Agarwal merge then GSHM -------------------------------

    def _release_trusted_merged(self, sketches, generator, length, count) -> PrivateHistogram:
        merged = merge_many([self._counters(sketch) for sketch in sketches], self.k)
        return self._gshm_release(merged, generator, length, count, "")

    def _gshm_release(self, merged: Mapping[Hashable, float], generator,
                      length: int, streams: int, note: str) -> PrivateHistogram:
        """The trusted-merged GSHM release of an already-merged summary.

        Shared by the dict and columnar wire entry points so the two paths
        cannot drift.
        """
        mechanism = GaussianSparseHistogram(epsilon=self.epsilon, delta=self.delta, l=self.k)
        histogram = mechanism.release(merged, rng=generator, stream_length=length,
                                      sketch_size=self.k)
        metadata = ReleaseMetadata(
            mechanism="MergedMG-TrustedMerged",
            epsilon=self.epsilon,
            delta=self.delta,
            noise_scale=histogram.metadata.noise_scale,
            threshold=histogram.metadata.threshold,
            sketch_size=self.k,
            stream_length=length,
            notes=f"streams={streams}, GSHM with l=k={self.k}{note}",
        )
        return PrivateHistogram(counts=histogram.counts, metadata=metadata)

    # -- untrusted aggregator -------------------------------------------------------

    def _release_untrusted(self, sketches, generator, length, count) -> PrivateHistogram:
        mechanism = PrivateMisraGries(epsilon=self.epsilon, delta=self.delta)
        noisy_summaries: List[Dict[Hashable, float]] = []
        for sketch in sketches:
            if isinstance(sketch, MisraGriesSketch):
                histogram = mechanism.release(sketch, rng=generator)
            else:
                histogram = mechanism.release(dict(self._counters(sketch)), rng=generator, k=self.k)
            noisy_summaries.append(histogram.as_dict())
        merged = merge_many(noisy_summaries, self.k)
        threshold = mechanism.threshold(self.k)
        metadata = ReleaseMetadata(
            mechanism="MergedMG-Untrusted",
            epsilon=self.epsilon,
            delta=self.delta,
            noise_scale=1.0 / self.epsilon,
            threshold=threshold,
            sketch_size=self.k,
            stream_length=length,
            notes=(f"streams={count}; each sketch privatized with Algorithm 2 "
                   "before merging, error grows with the number of streams"),
        )
        return PrivateHistogram(counts=merged, metadata=metadata)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _counters(self, sketch: SketchLike) -> Dict[Hashable, float]:
        if isinstance(sketch, FrequencySketch):
            return sketch.counters()
        return {key: float(value) for key, value in sketch.items()}

    def _reduce(self, sketch: SketchLike) -> Dict[Hashable, float]:
        if isinstance(sketch, MisraGriesSketch):
            return reduce_sensitivity(sketch)
        return reduce_sensitivity(self._counters(sketch), self.k)

    def _total_length(self, sketches: Sequence[SketchLike]) -> int:
        total = 0
        for sketch in sketches:
            if isinstance(sketch, FrequencySketch):
                total += sketch.stream_length
        return total
