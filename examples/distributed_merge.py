"""Distributed aggregation scenario: merging sketches from many servers.

Section 7 of the paper: a dataset is spread over many servers, each computes
a Misra-Gries sketch of its own stream, and an aggregator combines them.
This example drives the whole scenario through the unified API:

* each "server" sketches its shard (:func:`repro.core.sketch_streams`) and
  exports its state as a **v2 columnar wire envelope**
  (:meth:`Pipeline.to_wire`) — exactly what it would ship over the network;
* the aggregator adds the decoded envelopes to a
  ``Pipeline(mechanism={"name": "merged", "strategy": ...})`` and releases
  under each of the three aggregation regimes; for the default
  ``trusted_merged`` strategy the integer envelopes stay columnar all the
  way into :func:`~repro.sketches.merge.merge_many` (their key and value
  arrays, no per-key Python), while the other strategies build per-sketch
  counter dicts for their Algorithm 3 / Algorithm 2 post-processing.

Run with ``python examples/distributed_merge.py`` (``--quick`` for CI).
"""

import argparse

from repro.analysis import format_table
from repro.api import Pipeline, decode
from repro.core import MergeStrategy, sketch_streams
from repro.sketches import ExactCounter
from repro.streams import split_contiguous, zipf_stream


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--delta", type=float, default=1e-6)
    parser.add_argument("--k", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    n = 60_000 if args.quick else 600_000
    universe = 2_000
    stream = zipf_stream(n, universe, exponent=1.3, rng=args.seed, as_array=True)
    counter = ExactCounter.from_stream(stream.tolist())
    truth = counter.counters()
    top_elements = [element for element, _ in counter.top(20)]
    server_counts = [2, 8, 32] if args.quick else [2, 8, 32, 128]

    rows = []
    for servers in server_counts:
        parts = split_contiguous(stream, servers)
        sketches = sketch_streams(parts, args.k)
        # Each server ships its sketch as a columnar v2 envelope.
        envelopes = [decode(Pipeline.from_sketch(sketch).to_wire()) for sketch in sketches]
        for strategy in MergeStrategy:
            aggregator = Pipeline(
                mechanism={"name": "merged", "strategy": strategy.value},
                k=args.k, epsilon=args.epsilon, delta=args.delta)
            for envelope in envelopes:
                aggregator.add_sketch(envelope)
            histogram = aggregator.release(rng=args.seed + servers)
            top_error = sum(abs(histogram.estimate(x) - truth[x])
                            for x in top_elements) / len(top_elements)
            rows.append({
                "servers": servers,
                "strategy": strategy.value,
                "released": len(histogram),
                "mean error (top-20)": top_error,
            })

    print(format_table(rows, title=f"Merging {n} elements across servers "
                                   f"(k={args.k}, eps={args.epsilon})"))
    print()
    print("Trusted aggregation keeps the error flat as the number of servers grows;")
    print("with an untrusted aggregator every server pays its own noise and threshold,")
    print("so the error of moderately heavy elements grows with the number of streams.")


if __name__ == "__main__":
    main()
