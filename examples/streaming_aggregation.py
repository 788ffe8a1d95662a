"""Streaming aggregation: framed sketch exports, merged one frame at a time.

The deployment story of Section 7: ``m`` untrusted clients each sketch their
own traffic and export the sketch to an aggregator, which merges everything
and publishes one differentially private histogram.  This example runs the
full transport loop:

1. every client sketches its stream (the vectorized batch engine) and ships
   ``counters()`` as one frame of a length-prefix framed stream
   (:class:`repro.api.framing.FrameWriter`, binary columnar frames);
2. the aggregator folds the stream **frame by frame** with
   :class:`repro.api.framing.StreamingMerger` — live memory is one frame
   plus the ``<= k``-counter accumulator, never the whole file;
3. the folded aggregate feeds
   :meth:`repro.core.merging.PrivateMergedRelease.release_merged` (the
   trusted-merged GSHM release).

The same merged summary is also computed with the buffered ``merge_many``
fold over the exports' ``(keys, values)`` arrays to show the streamed
result is bit-identical, and
a sharded ``Pipeline.fit(stream, workers=2)`` demonstrates the process-level
fan-out on a single machine.

Run with ``python examples/streaming_aggregation.py`` (add ``--quick`` for a
smaller workload, as used by the test suite).
"""

import argparse
import io

import numpy as np

from repro.analysis import format_table
from repro.api import Pipeline
from repro.api.framing import FrameReader, FrameWriter, StreamingMerger
from repro.core.merging import PrivateMergedRelease
from repro.sketches import MisraGriesSketch, merge_many
from repro.streams import zipf_stream


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller workload")
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--delta", type=float, default=1e-6)
    parser.add_argument("--k", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    clients = args.clients or (16 if args.quick else 128)
    per_client = 5_000 if args.quick else 50_000
    universe = 10_000

    # 1. Every client sketches its own stream and appends one frame.
    transport = io.BytesIO()  # in production: a file, socket or pipe
    exports = []
    with FrameWriter(transport, k=args.k, frames=clients) as writer:
        for client in range(clients):
            stream = zipf_stream(per_client, universe, exponent=1.2,
                                 rng=args.seed + client, as_array=True)
            sketch = MisraGriesSketch.from_stream(args.k, stream)
            writer.write_counters(sketch.counters(), k=args.k,
                                  stream_length=sketch.stream_length)
            exports.append(sketch.counters())
    framed = transport.getvalue()

    # 2. The aggregator folds the framed stream one sketch at a time.
    merger = StreamingMerger(args.k).consume(FrameReader(io.BytesIO(framed)))

    # 3. ... and releases the aggregate privately.
    mechanism = PrivateMergedRelease(epsilon=args.epsilon, delta=args.delta,
                                     k=args.k)
    histogram = merger.release(mechanism, rng=args.seed + 1)

    # Cross-check: the buffered fold produces the identical summary.
    columns = [(np.fromiter(c.keys(), dtype=np.int64, count=len(c)),
                np.fromiter(c.values(), dtype=np.float64, count=len(c)))
               for c in exports]
    buffered = merge_many(columns, args.k)
    assert merger.merged() == buffered, "streamed fold must match buffered fold"

    # Bonus: shard one big stream over two worker processes (merge_tree fan-in).
    big = zipf_stream(4 * per_client, universe, exponent=1.2,
                      rng=args.seed + 999, as_array=True)
    sharded = Pipeline(sketch="misra_gries", mechanism="pmg", k=args.k,
                       epsilon=args.epsilon, delta=args.delta)
    sharded.fit(big, workers=2)

    print("Streaming aggregation (framed wire transport)")
    print(f"  clients={clients}, per-client stream={per_client}, k={args.k}")
    print(f"  framed transport: {len(framed):,} bytes, "
          f"{merger.frames} frames, {merger.total_stream_length:,} elements")
    print(f"  streamed fold == buffered fold: True "
          f"({len(merger.merged())} merged counters)")
    print(f"  sharded Pipeline.fit(workers=2): {sharded.stream_length:,} "
          f"elements -> {len(sharded.counters())} counters")
    print()
    top = sorted(histogram.as_dict().items(), key=lambda kv: -kv[1])[:10]
    rows = [{"element": key, "noisy count": round(value, 1)} for key, value in top]
    print(format_table(rows, title=f"top released elements "
                                   f"({histogram.metadata.mechanism})"))


if __name__ == "__main__":
    main()
