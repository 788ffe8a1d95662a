"""Command-line interface for the library.

The CLI is a thin layer over the unified API registry
(:mod:`repro.api.registry`): every registered release mechanism — the
paper's and all baselines — is reachable through ``repro release
--mechanism <name>``, and ``repro list`` enumerates what is available.

Examples
--------
Generate a synthetic workload, sketch it, and release it::

    repro generate --dataset network_flows -n 100000 --out flows.txt
    repro sketch --stream flows.txt -k 256 --out flows.sketch.json
    repro release --sketch flows.sketch.json --epsilon 1.0 --delta 1e-6 \
        --out flows.hist.json
    repro heavy-hitters --histogram flows.hist.json --phi 0.01

Pick any registered mechanism by name (``repro list`` shows them all)::

    repro release --mechanism chan --sketch flows.sketch.json --epsilon 1.0
    repro release --mechanism local_dp --stream flows.txt --universe 10000 \
        --phi 0.01 --epsilon 2.0
    repro release --mechanism pamg --stream users.txt --user-level -m 8 \
        --epsilon 1.0 --delta 1e-6 -k 256

Merge sketches produced on several servers (integer-keyed files join the
fold as key and value columns; files in the older v1 layout still load)::

    repro merge --epsilon 1.0 --delta 1e-6 -k 256 \
        --out merged.hist.json server1.sketch.json server2.sketch.json

Pack many sketch exports into one length-prefix framed stream and merge it
without ever buffering the whole file (the aggregator folds one frame at a
time through :class:`repro.api.framing.StreamingMerger`)::

    repro pack --out exports.frames server1.sketch.json server2.sketch.json
    repro merge --framed --epsilon 1.0 --delta 1e-6 --out merged.hist.json \
        exports.frames

Monitor a stream continually (one private release per closed block)::

    repro release --mechanism continual --stream flows.txt --epsilon 1.0 \
        --delta 1e-6 -k 64 --block-size 1000

Run the live aggregation service (``repro.net``): one server, any number of
concurrent pushing clients, then a release request that returns the DP
histogram over everything committed so far.  Give each pushing client a
distinct ``--ordinal`` and the result is bit-identical to ``repro merge
--framed`` over the same files with the same seed::

    repro serve --listen 127.0.0.1:7788 --epsilon 1.0 --delta 1e-6 -k 256 &
    repro push --to 127.0.0.1:7788 --ordinal 0 server1.frames
    repro push --to 127.0.0.1:7788 --ordinal 1 server2.frames
    repro request-release --to 127.0.0.1:7788 --seed 4 --out merged.hist.json

Scale out with a relay tree (``repro.net.relay``): leaves accept clients and
forward committed sessions to a root started with ``--accept-relays``; a
release through any leaf is bit-identical to the flat single-server run::

    repro serve --listen 127.0.0.1:7788 --epsilon 1.0 --delta 1e-6 -k 256 \
        --accept-relays &
    repro relay --listen 127.0.0.1:7789 --upstream 127.0.0.1:7788 \
        --epsilon 1.0 --delta 1e-6 -k 256 --ordinal 0 &
    repro push --to 127.0.0.1:7789 --ordinal 0 server1.frames
    repro request-release --to 127.0.0.1:7789 --seed 4

``repro stats ADDRESS`` pretty-prints any server's live counters (sessions,
committed frames, fold rate, and — for relays — the upstream forward state).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional, Sequence

from .analysis.metrics import summarize_errors
from .analysis.reporting import format_table
from .api.pipeline import Pipeline
from .api.registry import list_mechanisms, list_sketches, make_sketch, mechanism_entry
from .api.wire import (dump_payload, encode_counters, encode_histogram,
                       load_payload, refusals_naming, save_payload)
from .core.merging import MergeStrategy
from .exceptions import ReproError
from .sketches.exact import ExactCounter
from .sketches.serialization import load_histogram, save_histogram, save_sketch
from .streams.datasets import list_datasets, load_dataset
from .streams.generators import uniform_stream, zipf_stream
from .streams.io import read_stream, write_stream


def _add_hardening_flags(parser: argparse.ArgumentParser) -> None:
    """Multi-tenant hardening flags shared by `serve` and `relay`."""
    parser.add_argument("--budget-epsilon", type=float, default=None,
                        help="total epsilon budget across releases; the first "
                             "RELEASE whose composed spend would exceed it is "
                             "refused with a budget_exhausted error (with "
                             "--wal-dir the spend survives kill -9)")
    parser.add_argument("--budget-delta", type=float, default=None,
                        help="total delta budget across releases (default: "
                             "unconstrained — only the epsilon budget and "
                             "the vacuous delta >= 1 line bind)")
    parser.add_argument("--composition", choices=("basic", "advanced"),
                        default="basic",
                        help="how release spends compose against the budget: "
                             "basic (epsilons/deltas add) or advanced "
                             "(Dwork & Roth Thm 3.20; needs a budget with "
                             "delta > 0) (default basic)")
    parser.add_argument("--auth-token", default=None,
                        help="require this session token in every HELLO "
                             "(client and relay roles); sessions without it "
                             "are rejected with auth_failed")
    parser.add_argument("--max-session-frames", type=int, default=None,
                        help="per-session quota on pushed frames; exceeding "
                             "it rejects only that session (quota_exceeded)")
    parser.add_argument("--max-session-bytes", type=int, default=None,
                        help="per-session quota on pushed payload bytes")
    parser.add_argument("--max-session-sketches", type=int, default=None,
                        help="per-session quota on origin sketch exports (a "
                             "relay summary counts its origin exports)")


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by `serve` and `relay` (repro.obs)."""
    parser.add_argument("--log-json", default=None, metavar="PATH",
                        help="append one JSON line per traced span (session, "
                             "push, release) to PATH; '-' streams to stderr")
    parser.add_argument("--no-metrics", action="store_true",
                        help="disable the in-process metrics registry (no "
                             "metrics stanza in STATS; instrumentation sites "
                             "become no-ops)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(prog="repro",
                                     description="Differentially private Misra-Gries toolkit")
    subparsers = parser.add_subparsers(dest="command", required=True)

    listing = subparsers.add_parser("list",
                                    help="list registered mechanisms and sketches")
    listing.add_argument("--what", choices=["mechanisms", "sketches", "all"], default="all")
    listing.add_argument("--backends", action="store_true",
                         help="report the compiled kernel backends (what "
                              "REPRO_KERNELS resolves to)")

    generate = subparsers.add_parser("generate", help="generate a synthetic stream")
    generate.add_argument("--dataset", choices=list_datasets() + ["zipf", "uniform"],
                          default="zipf")
    generate.add_argument("-n", type=int, default=100_000, help="stream length")
    generate.add_argument("--universe", type=int, default=10_000)
    generate.add_argument("--exponent", type=float, default=1.2, help="Zipf exponent")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output stream file")

    sketch = subparsers.add_parser("sketch", help="build a sketch from a stream file")
    sketch.add_argument("--stream", required=True)
    sketch.add_argument("--type", dest="sketch_type", default="misra_gries",
                        choices=sorted(list_sketches()),
                        help="registered sketch type (default misra_gries)")
    sketch.add_argument("-k", type=int, required=True, help="sketch size")
    sketch.add_argument("--depth", type=int, default=3,
                        help="rows for the hash-table sketches (count_min/count_sketch)")
    sketch.add_argument("--out", required=True, help="output sketch JSON file")

    release = subparsers.add_parser(
        "release", help="release a sketch or stream under differential privacy")
    release.add_argument("--mechanism", default=None, choices=sorted(list_mechanisms()),
                         help="registered mechanism (default: pmg, or pure_dp when "
                              "--delta is omitted)")
    release.add_argument("--sketch", action="append", default=None,
                         help="sketch JSON file (repeatable for the merged mechanism)")
    release.add_argument("--stream", default=None,
                         help="stream file (for stream/user-level mechanisms)")
    release.add_argument("--user-level", action="store_true",
                         help="read --stream as a user-level stream (one comma-separated "
                              "set per line)")
    release.add_argument("--epsilon", type=float, required=True)
    release.add_argument("--delta", type=float, default=None,
                         help="omit for the pure-DP release (requires --universe)")
    release.add_argument("--universe", type=int, default=None,
                         help="universe size (pure_dp, chan, local_dp, prefix_tree, exact)")
    release.add_argument("-k", type=int, default=None, help="sketch size context")
    release.add_argument("-m", "--max-contribution", type=int, default=None,
                         help="distinct elements per user (user-level mechanisms)")
    release.add_argument("--noise", choices=["laplace", "geometric"], default=None)
    release.add_argument("--phi", type=float, default=None,
                         help="heavy-hitter fraction (local_dp, prefix_tree)")
    release.add_argument("--block-size", type=int, default=None,
                         help="elements per release epoch (continual mechanism)")
    release.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                         help="extra mechanism parameter (repeatable; value parsed as JSON "
                              "when possible)")
    release.add_argument("--seed", type=int, default=None)
    release.add_argument("--out", default=None, help="output histogram JSON (stdout if omitted)")

    merge = subparsers.add_parser("merge", help="privately release merged sketches")
    merge.add_argument("sketches", nargs="+",
                       help="sketch JSON files (v1 or v2), or framed streams "
                            "with --framed")
    merge.add_argument("--framed", action="store_true",
                       help="treat inputs as length-prefix framed streams "
                            "(repro pack output) and merge them frame by frame "
                            "without buffering")
    merge.add_argument("--epsilon", type=float, required=True)
    merge.add_argument("--delta", type=float, required=True)
    merge.add_argument("-k", type=int, default=None,
                       help="sketch size (required for JSON inputs; framed "
                            "streams default to their header's k)")
    merge.add_argument("--strategy", choices=[s.value for s in MergeStrategy],
                       default=MergeStrategy.TRUSTED_MERGED.value)
    merge.add_argument("--seed", type=int, default=None)
    merge.add_argument("--out", default=None, help="output histogram JSON (stdout if omitted)")

    pack = subparsers.add_parser(
        "pack", help="pack sketch JSON files into one framed stream")
    pack.add_argument("sketches", nargs="+", help="sketch JSON files (v1 or v2)")
    pack.add_argument("--out", required=True, help="output framed stream file")
    pack.add_argument("-k", type=int, default=None,
                      help="sketch size recorded in the stream header "
                           "(default: taken from the inputs when they agree)")

    serve = subparsers.add_parser(
        "serve", help="run the asyncio aggregation server (repro.net)")
    serve.add_argument("--listen", default="127.0.0.1:0",
                       help="endpoint to bind: HOST:PORT (:0 for an ephemeral "
                            "port) or unix:/path (default 127.0.0.1:0)")
    serve.add_argument("--epsilon", type=float, required=True)
    serve.add_argument("--delta", type=float, required=True)
    serve.add_argument("-k", type=int, default=None,
                       help="sketch size all sessions must agree on (default: "
                            "adopt the first session's declared k)")
    serve.add_argument("--releases", type=int, default=None,
                       help="exit after serving this many releases (default: "
                            "run until SIGINT/SIGTERM)")
    serve.add_argument("--drain-timeout", type=float, default=5.0,
                       help="seconds to wait for in-flight sessions on shutdown")
    serve.add_argument("--ready-file", default=None,
                       help="write the bound address to this file once listening "
                            "(lets scripts discover an ephemeral port)")
    serve.add_argument("--wal-dir", default=None,
                       help="write-ahead log directory: accepted frames are "
                            "spooled + fsynced before they are acked, and a "
                            "restart on the same directory replays committed "
                            "sessions bit-identically")
    serve.add_argument("--read-timeout", type=float, default=30.0,
                       help="per-read seconds before a stalling (slow-loris) "
                            "peer is rejected; 0 disables (default 30)")
    serve.add_argument("--accept-relays", action="store_true",
                       help="accept role=relay sessions (leaf aggregators "
                            "forwarding per-origin-session summary frames); "
                            "required to act as a relay tree's root")
    _add_hardening_flags(serve)
    _add_obs_flags(serve)

    relay = subparsers.add_parser(
        "relay",
        help="run a leaf aggregator that forwards committed sessions to an "
             "upstream root (repro.net.relay)")
    relay.add_argument("--listen", default="127.0.0.1:0",
                       help="endpoint to bind: HOST:PORT (:0 for an ephemeral "
                            "port) or unix:/path (default 127.0.0.1:0)")
    relay.add_argument("--upstream", required=True,
                       help="the root aggregator's endpoint (must run with "
                            "--accept-relays)")
    relay.add_argument("--epsilon", type=float, required=True)
    relay.add_argument("--delta", type=float, required=True)
    relay.add_argument("-k", type=int, default=None,
                       help="sketch size all sessions must agree on (default: "
                            "adopt the first session's declared k)")
    relay.add_argument("--ordinal", type=int, default=0,
                       help="this leaf's position among its siblings; it "
                            "prefixes every forwarded session's root ordinal, "
                            "so give each leaf a distinct one (default 0)")
    relay.add_argument("--forward-on", choices=("commit", "release"),
                       default="release",
                       help="when to push committed sessions upstream: "
                            "eagerly as each commits, or lazily when a "
                            "release is requested (default release)")
    relay.add_argument("--releases", type=int, default=None,
                       help="exit after proxying this many releases (default: "
                            "run until SIGINT/SIGTERM)")
    relay.add_argument("--drain-timeout", type=float, default=5.0,
                       help="seconds to wait for in-flight sessions on shutdown")
    relay.add_argument("--ready-file", default=None,
                       help="write the bound address to this file once listening")
    relay.add_argument("--wal-dir", default=None,
                       help="write-ahead log directory; also holds the "
                            "durable forward queue (rows in its ledger), so a "
                            "leaf crash mid-forward re-pushes on restart — "
                            "crash safety needs a --wal-dir on both tiers")
    relay.add_argument("--read-timeout", type=float, default=30.0,
                       help="per-read seconds before a stalling (slow-loris) "
                            "peer is rejected; 0 disables (default 30)")
    relay.add_argument("--accept-relays", action="store_true",
                       help="also accept role=relay sessions, making this a "
                            "mid-tier of a deeper relay chain")
    relay.add_argument("--forward-max-elapsed", type=float, default=60.0,
                       help="total retry budget in seconds for each upstream "
                            "forward (default 60)")
    _add_hardening_flags(relay)
    _add_obs_flags(relay)
    relay.add_argument("--upstream-token", default=None,
                       help="session token this leaf presents to the upstream "
                            "in every forward/release HELLO (required when "
                            "the root runs --auth-token; the leaf-to-root "
                            "hop is a trust boundary)")

    stats = subparsers.add_parser(
        "stats",
        help="fetch and pretty-print an aggregation server's STATS counters")
    stats.add_argument("address", help="server endpoint (HOST:PORT or unix:/path)")
    stats.add_argument("--timeout", type=float, default=30.0)
    stats.add_argument("--retries", type=int, default=5,
                       help="connection attempts before giving up")
    stats.add_argument("--token", default=None,
                       help="session token (required when the server runs "
                            "--auth-token)")
    stats.add_argument("--json", action="store_true",
                       help="dump the raw STATS reply as JSON (the same dict "
                            "the console renders; external scrapers consume "
                            "this)")

    status = subparsers.add_parser(
        "status",
        help="live operator console over repeated STATS polls (repro.obs)")
    status.add_argument("address", help="server endpoint (HOST:PORT or unix:/path)")
    status.add_argument("--watch", action="store_true",
                        help="repaint continuously (plain-ANSI full-screen "
                             "refresh) until Ctrl-C; default is one frame")
    status.add_argument("--once", action="store_true",
                        help="print a single status frame and exit (the "
                             "default; explicit for scripts)")
    status.add_argument("--json", action="store_true",
                        help="with --once: dump the raw STATS reply as JSON "
                             "(shares the stats --json code path)")
    status.add_argument("--interval", type=float, default=2.0,
                        help="seconds between --watch polls (default 2)")
    status.add_argument("--iterations", type=int, default=None,
                        help="stop --watch after N repaints (default: until "
                             "Ctrl-C; tests and demos bound the loop)")
    status.add_argument("--timeout", type=float, default=30.0)
    status.add_argument("--retries", type=int, default=5)
    status.add_argument("--token", default=None,
                        help="session token (required when the server runs "
                             "--auth-token)")

    loadgen = subparsers.add_parser(
        "loadgen",
        help="simulate 10^4-10^6 clients against a flat server or a "
             "self-hosted relay tree and measure sustained throughput")
    loadgen.add_argument("--clients", type=int, default=None,
                         help="simulated client population (default 100000; "
                              "--quick: 10000)")
    loadgen.add_argument("--concurrency", type=int, default=128,
                         help="clients in flight at once (default 128)")
    loadgen.add_argument("--arrival", choices=("closed", "poisson", "uniform"),
                         default="closed",
                         help="arrival process: closed-loop back-to-back "
                              "(default), poisson gaps, or uniform gaps")
    loadgen.add_argument("--rate", type=float, default=1000.0,
                         help="arrivals/s for poisson/uniform (default 1000)")
    loadgen.add_argument("--exponent", type=float, default=1.2,
                         help="Zipf exponent of each client stream (default 1.2)")
    loadgen.add_argument("--stream-length", type=int, default=None,
                         help="items per simulated client stream (default "
                              "200; --quick: 50)")
    loadgen.add_argument("--universe", type=int, default=None,
                         help="Zipf universe size (default 10000; --quick: "
                              "1000)")
    loadgen.add_argument("--frames-per-client", type=int, default=1,
                         help="PUSH frames per client session (default 1)")
    loadgen.add_argument("--churn", type=float, default=0.0,
                         help="fraction of clients dying mid-push (default 0)")
    loadgen.add_argument("-k", type=int, default=64,
                         help="sketch size (default 64)")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="harness RNG seed (payload pool + churn draws)")
    loadgen.add_argument("--releases", type=int, default=3,
                         help="release probes after the wave (default 3)")
    loadgen.add_argument("--timeout", type=float, default=30.0,
                         help="per-operation client timeout (default 30)")
    loadgen.add_argument("--to", default=None,
                         help="target an external server instead of "
                              "self-hosting (HOST:PORT or unix:/path)")
    loadgen.add_argument("--leaves", type=int, default=0,
                         help="self-host a relay tree with this many leaves "
                              "(default 0 = one flat server)")
    loadgen.add_argument("--depth", type=int, default=1,
                         help="relay tiers between leaves and root (default 1)")
    loadgen.add_argument("--quick", action="store_true",
                         help="CI smoke profile: 10^4 clients, shorter "
                              "streams, smaller universe (explicit flags "
                              "still win)")
    loadgen.add_argument("--json", action="store_true",
                         help="dump the full report as JSON")

    push = subparsers.add_parser(
        "push", help="push sketch exports to an aggregation server")
    push.add_argument("inputs", nargs="+",
                      help="framed streams (repro pack output) and/or sketch "
                           "JSON files (v1 or v2)")
    push.add_argument("--to", required=True, help="server endpoint "
                                                  "(HOST:PORT or unix:/path)")
    push.add_argument("--ordinal", type=int, default=None,
                      help="this client's position in the canonical release "
                           "order (distinct ordinals make releases "
                           "bit-reproducible under concurrency)")
    push.add_argument("-k", type=int, default=None,
                      help="sketch size to declare (default: the inputs' k)")
    push.add_argument("--timeout", type=float, default=30.0)
    push.add_argument("--retries", type=int, default=5,
                      help="connection attempts before giving up")
    push.add_argument("--resume", action="store_true",
                      help="survive crashes and lost acks: retry the whole "
                           "push with jittered backoff, skipping the frames "
                           "the server reports it holds for --ordinal (the "
                           "durable prefix on a --wal-dir server; all of "
                           "them once the ordinal has committed, on any "
                           "server); needs --ordinal and a single framed "
                           "input")
    push.add_argument("--max-elapsed", type=float, default=60.0,
                      help="total retry budget in seconds for --resume "
                           "(default 60)")
    push.add_argument("--token", default=None,
                      help="session token (required when the server runs "
                           "--auth-token)")

    wal = subparsers.add_parser(
        "wal", help="inspect or replay an aggregation write-ahead log")
    wal_sub = wal.add_subparsers(dest="wal_command", required=True)
    wal_inspect = wal_sub.add_parser(
        "inspect", help="list the sessions a --wal-dir holds")
    wal_inspect.add_argument("wal_dir", help="the server's --wal-dir")
    wal_replay = wal_sub.add_parser(
        "replay",
        help="release the committed sessions of a --wal-dir offline "
             "(bit-identical to what a restarted server would release)")
    wal_replay.add_argument("wal_dir", help="the server's --wal-dir")
    wal_replay.add_argument("--epsilon", type=float, required=True)
    wal_replay.add_argument("--delta", type=float, required=True)
    wal_replay.add_argument("--seed", type=int, default=None)
    wal_replay.add_argument("--out", default=None,
                            help="output histogram JSON (stdout if omitted)")

    request = subparsers.add_parser(
        "request-release",
        help="ask an aggregation server for the DP histogram of everything "
             "committed so far")
    request.add_argument("--to", required=True, help="server endpoint")
    request.add_argument("--seed", type=int, default=None)
    request.add_argument("--timeout", type=float, default=30.0)
    request.add_argument("--retries", type=int, default=5)
    request.add_argument("--token", default=None,
                         help="session token (required when the server runs "
                              "--auth-token)")
    request.add_argument("--out", default=None,
                         help="output histogram JSON (stdout if omitted)")

    heavy = subparsers.add_parser("heavy-hitters", help="query heavy hitters from a histogram")
    heavy.add_argument("--histogram", required=True, help="released histogram JSON file")
    heavy.add_argument("--phi", type=float, required=True,
                       help="heavy-hitter fraction of the stream length")
    heavy.add_argument("--top", type=int, default=None, help="print only the top N")

    evaluate = subparsers.add_parser("evaluate",
                                     help="compare a released histogram with the exact counts")
    evaluate.add_argument("--histogram", required=True)
    evaluate.add_argument("--stream", required=True)

    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_list(args: argparse.Namespace) -> int:
    if getattr(args, "backends", False):
        from .kernels import kernel_info

        info = kernel_info()
        rows = []
        for name, provider in info["providers"].items():
            rows.append({
                "provider": name,
                "available": "yes" if provider["available"] else "no",
                "detail": (", ".join(provider["kernels"]) if provider["available"]
                           else (provider["error"] or "unavailable")),
            })
        rows.append({"provider": "python", "available": "yes",
                     "detail": "pure-python engines (always available)"})
        print(format_table(rows, title="compiled kernel providers"))
        print()
        env = f" (REPRO_KERNELS={info['env']})" if info["env"] else ""
        print(f"resolved backend: {info['backend']}{env}")
        if info["error"]:
            print(f"  refused: {info['error']}")
        for kernel, backend in info["kernels"].items():
            print(f"  {kernel}: {backend}")
        return 0
    if args.what in ("mechanisms", "all"):
        rows = []
        for name, description in list_mechanisms().items():
            entry = mechanism_entry(name)
            rows.append({"mechanism": name, "consumes": entry.consumes,
                         "description": description})
        print(format_table(rows, title="registered release mechanisms"))
    if args.what == "all":
        print()
    if args.what in ("sketches", "all"):
        rows = [{"sketch": name, "description": description}
                for name, description in list_sketches().items()]
        print(format_table(rows, title="registered sketches"))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "zipf":
        stream = zipf_stream(args.n, args.universe, exponent=args.exponent, rng=args.seed)
    elif args.dataset == "uniform":
        stream = uniform_stream(args.n, args.universe, rng=args.seed)
    else:
        dataset = load_dataset(args.dataset, n=args.n, rng=args.seed)
        if dataset.user_level:
            write_stream(args.out, dataset.stream, user_level=True)
            print(f"wrote {dataset.length} user records to {args.out}")
            return 0
        stream = dataset.stream
    count = write_stream(args.out, stream)
    print(f"wrote {count} elements to {args.out}")
    return 0


def _cmd_sketch(args: argparse.Namespace) -> int:
    stream = read_stream(args.stream)
    sketch = make_sketch(args.sketch_type, k=args.k, depth=args.depth)
    sketch.update_all(stream)
    if args.sketch_type in ("misra_gries", "misra_gries_standard"):
        save_sketch(sketch, args.out)
    else:
        # Non-MG sketches have no restorable full state; ship their counters
        # as a v2 envelope (readable by `repro release/merge`).
        save_payload(encode_counters(sketch, k=args.k), args.out)
    print(f"sketched {sketch.stream_length} elements with {args.sketch_type} "
          f"(k={args.k}) -> {args.out}")
    return 0


def _emit_histogram(histogram, out: Optional[str]) -> None:
    if out:
        save_histogram(histogram, out)
        print(f"released {len(histogram)} elements -> {out}")
    else:
        dump_payload(encode_histogram(histogram), sys.stdout)
        print()


def _parse_params(pairs: Sequence[str]) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for pair in pairs:
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise ReproError(f"--param expects KEY=VALUE, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _infer_k(payloads) -> Optional[int]:
    """The single sketch size the payloads agree on, else ``None`` (with a
    uniform ``error:`` line naming what they actually declare)."""
    declared = sorted({payload.k for payload in payloads if payload.k is not None})
    if len(declared) == 1:
        return declared[0]
    print(f"error: pass -k (the sketch files declare "
          f"k={declared if declared else 'nothing'})", file=sys.stderr)
    return None


def _release_params(args: argparse.Namespace) -> Dict[str, Any]:
    params: Dict[str, Any] = {"epsilon": args.epsilon}
    if args.delta is not None:
        params["delta"] = args.delta
    if args.universe is not None:
        params["universe_size"] = args.universe
    if args.k is not None:
        params["k"] = args.k
    if args.max_contribution is not None:
        params["max_contribution"] = args.max_contribution
    if args.noise is not None:
        params["noise"] = args.noise
    if args.phi is not None:
        params["phi"] = args.phi
    if args.block_size is not None:
        params["block_size"] = args.block_size
    params.update(_parse_params(args.param))
    return params


def _cmd_release(args: argparse.Namespace) -> int:
    mechanism = args.mechanism
    if mechanism is None:
        # Back-compat default: Algorithm 2 when delta is given, the pure-DP
        # release otherwise (which needs an explicit universe).
        mechanism = "pmg" if args.delta is not None else "pure_dp"
    params = _release_params(args)
    consumes = mechanism_entry(mechanism).consumes
    if mechanism == "pure_dp" and args.universe is None:
        print("error: the pure-DP release requires --universe", file=sys.stderr)
        return 2

    if consumes in ("stream", "user_stream", "checkpointed_stream"):
        if args.stream is None:
            print(f"error: mechanism {mechanism!r} releases a raw stream; pass --stream "
                  f"(and --user-level for user-level input)", file=sys.stderr)
            return 2
        user_level = consumes == "user_stream" or args.user_level
        stream = read_stream(args.stream, user_level=user_level)
        pipeline = Pipeline(mechanism=mechanism, **params).fit(stream)
    else:
        if not args.sketch:
            print(f"error: mechanism {mechanism!r} releases a sketch; pass --sketch",
                  file=sys.stderr)
            return 2
        payloads = [load_payload(path) for path in args.sketch]
        if consumes == "sketch_list":
            if "k" not in params:
                # The merged release is calibrated to k; take it from the
                # envelopes when they agree rather than guessing.
                inferred = _infer_k(payloads)
                if inferred is None:
                    return 2
                params["k"] = inferred
            pipeline = Pipeline(mechanism=mechanism, **params)
            for payload in payloads:
                pipeline.add_sketch(payload)
        else:
            if len(payloads) > 1:
                print(f"error: mechanism {mechanism!r} releases a single sketch, "
                      f"got {len(payloads)}", file=sys.stderr)
                return 2
            with refusals_naming(args.sketch[0]):
                pipeline = Pipeline.from_sketch(payloads[0], mechanism=mechanism,
                                                **params)
    histogram = pipeline.release(rng=args.seed)
    _emit_histogram(histogram, args.out)
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    if args.framed:
        return _cmd_merge_framed(args)
    k = args.k
    payloads = [load_payload(path) for path in args.sketches]
    if k is None:
        k = _infer_k(payloads)
        if k is None:
            return 2
    # One dispatch path with `release --mechanism merged`: the registered
    # adapter hands v2 integer inputs over as key and value columns and
    # materializes per-sketch state otherwise.
    pipeline = Pipeline(mechanism={"name": "merged", "strategy": args.strategy},
                        k=k, epsilon=args.epsilon, delta=args.delta)
    for payload in payloads:
        pipeline.add_sketch(payload)
    histogram = pipeline.release(rng=args.seed)
    _emit_histogram(histogram, args.out)
    return 0


def _cmd_merge_framed(args: argparse.Namespace) -> int:
    # Streaming aggregation: fold each framed file one frame at a time
    # through its own StreamingMerger — nothing beyond the current frame and
    # the <= k-counter accumulators is ever resident — then combine the
    # per-file summaries in argument order.  This two-level fold is exactly
    # what the aggregation server performs over its client sessions, so
    # `repro serve` + N `repro push` clients + `repro request-release` is
    # bit-identical to this command over the same files and seed.
    from pathlib import Path

    from .api.framing import FrameReader, StreamingMerger, combine_mergers
    from .core.merging import PrivateMergedRelease

    if MergeStrategy(args.strategy) is not MergeStrategy.TRUSTED_MERGED:
        print(f"error: --framed streams the {MergeStrategy.TRUSTED_MERGED.value} "
              f"strategy; {args.strategy!r} needs the buffered `repro merge`",
              file=sys.stderr)
        return 2
    parts = []
    k = args.k
    for path in args.sketches:
        with Path(path).open("rb") as fileobj:
            reader = FrameReader(fileobj)
            declared = reader.header.k
            if k is None:
                k = declared
            if k is None:
                print(f"error: {path} declares no k in its header; pass -k",
                      file=sys.stderr)
                return 2
            if args.k is None and declared is not None and declared != k:
                # Mirror the buffered path: disagreeing declared sizes need
                # an explicit -k rather than a silent truncation to the
                # first stream's k.
                print(f"error: {path} declares k={declared} but the merge "
                      f"is folding at k={k}; pass -k to override",
                      file=sys.stderr)
                return 2
            parts.append(StreamingMerger(k).consume(reader))
    merger = combine_mergers(parts, k)
    mechanism = PrivateMergedRelease(epsilon=args.epsilon, delta=args.delta, k=k,
                                     strategy=MergeStrategy.TRUSTED_MERGED)
    histogram = merger.release(mechanism, rng=args.seed)
    _emit_histogram(histogram, args.out)
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    from .api.framing import write_frames

    payloads = [load_payload(path) for path in args.sketches]
    k = args.k
    if k is None:
        k = _infer_k(payloads)
        if k is None:
            return 2
    count = write_frames(args.out, payloads, k=k)
    print(f"packed {count} sketch export(s) (k={k}) -> {args.out}")
    return 0


def _serve_loop(args: argparse.Namespace, make_server, banner: str) -> int:
    """Shared serve/relay driver: bind, announce, wait, drain, report."""
    import asyncio
    import signal
    from pathlib import Path

    async def _serve() -> int:
        server = make_server()
        await server.start(args.listen)
        if args.ready_file:
            ready = Path(args.ready_file)
            ready.parent.mkdir(parents=True, exist_ok=True)
            ready.write_text(server.address + "\n", encoding="utf-8")
        print(f"{banner} listening on {server.address} "
              f"(epsilon={args.epsilon}, delta={args.delta}, k={args.k})",
              flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        waiters = [asyncio.ensure_future(stop.wait())]
        if args.releases is not None:
            waiters.append(asyncio.ensure_future(server.wait_release_limit()))
        try:
            await asyncio.wait(waiters, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for waiter in waiters:
                waiter.cancel()
            await server.aclose(drain=True)
        stats = server.stats()
        print(f"server drained: {stats['sessions_committed']} committed "
              f"session(s), {stats['frames']} frame(s), "
              f"{stats['releases']} release(s), "
              f"{stats['sessions_rejected']} rejected", flush=True)
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        return 0


def _hardening_kwargs(args: argparse.Namespace) -> Optional[Dict[str, Any]]:
    """Budget/auth/quota server kwargs from the shared hardening flags.

    Returns ``None`` (after printing the error) on inconsistent flags.
    """
    from .dp.accounting import PrivacyParams

    budget = None
    if args.budget_epsilon is not None:
        # Epsilon-only budget: leave the delta dimension unconstrained
        # (just below the vacuous line) instead of 0.0, which would refuse
        # even the first approximate-DP release.
        delta = (args.budget_delta if args.budget_delta is not None
                 else 1.0 - 1e-12)
        budget = PrivacyParams(epsilon=args.budget_epsilon, delta=delta)
    elif args.budget_delta is not None:
        print("error: --budget-delta needs --budget-epsilon", file=sys.stderr)
        return None
    if args.composition == "advanced" and (
            args.budget_delta is None or args.budget_delta <= 0):
        # An implicit near-1 delta would hand the advanced bound a junk
        # delta' slack of ~0.5, so advanced demands the real number.
        print("error: --composition advanced needs an explicit "
              "--budget-delta > 0 (the delta' slack defaults to half of it)",
              file=sys.stderr)
        return None
    return {
        "budget": budget,
        "composition": args.composition,
        "auth_token": args.auth_token,
        "max_session_frames": args.max_session_frames,
        "max_session_bytes": args.max_session_bytes,
        "max_session_sketches": args.max_session_sketches,
    }


def _obs_kwargs(args: argparse.Namespace) -> Dict[str, Any]:
    """Server kwargs from the shared observability flags.

    A ``--log-json`` file handle stays open for the server's whole life
    (the process exit closes it); ``-`` streams spans to stderr so they
    interleave with the banner instead of polluting stdout.
    """
    log_json = None
    if args.log_json == "-":
        log_json = sys.stderr
    elif args.log_json:
        log_json = open(args.log_json, "a", encoding="utf-8")
    return {"metrics": not args.no_metrics, "log_json": log_json}


def _cmd_serve(args: argparse.Namespace) -> int:
    from .net import AggregatorServer

    hardening = _hardening_kwargs(args)
    if hardening is None:
        return 2
    obs = _obs_kwargs(args)

    def make_server():
        read_timeout = args.read_timeout if args.read_timeout > 0 else None
        return AggregatorServer(epsilon=args.epsilon, delta=args.delta,
                                k=args.k, drain_timeout=args.drain_timeout,
                                max_releases=args.releases,
                                wal_dir=args.wal_dir,
                                read_timeout=read_timeout,
                                accept_relays=args.accept_relays,
                                **hardening, **obs)

    return _serve_loop(args, make_server, "aggregation server")


def _cmd_relay(args: argparse.Namespace) -> int:
    from .net import RelayAggregatorServer

    hardening = _hardening_kwargs(args)
    if hardening is None:
        return 2
    obs = _obs_kwargs(args)

    def make_server():
        read_timeout = args.read_timeout if args.read_timeout > 0 else None
        return RelayAggregatorServer(epsilon=args.epsilon, delta=args.delta,
                                     k=args.k, upstream=args.upstream,
                                     relay_ordinal=args.ordinal,
                                     forward_on=args.forward_on,
                                     forward_max_elapsed=args.forward_max_elapsed,
                                     upstream_token=args.upstream_token,
                                     drain_timeout=args.drain_timeout,
                                     max_releases=args.releases,
                                     wal_dir=args.wal_dir,
                                     read_timeout=read_timeout,
                                     accept_relays=args.accept_relays,
                                     **hardening, **obs)

    return _serve_loop(args, make_server,
                       f"relay leaf {args.ordinal} (upstream {args.upstream})")


def _cmd_stats(args: argparse.Namespace) -> int:
    from .obs import console

    stats = console.poll_stats(args.address, token=args.token,
                               timeout=args.timeout, retries=args.retries)
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True, default=str))
        return 0
    print(console.render_stats(stats, args.address))
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from .obs import console

    if args.watch and not args.once:
        return console.watch(args.address, interval=args.interval,
                             token=args.token, timeout=args.timeout,
                             retries=args.retries,
                             iterations=args.iterations)
    stats = console.poll_stats(args.address, token=args.token,
                               timeout=args.timeout, retries=args.retries)
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True, default=str))
        return 0
    print(console.render_status(stats, args.address))
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .obs.loadgen import LoadgenConfig, run_loadgen

    quick = args.quick
    config = LoadgenConfig(
        clients=(args.clients if args.clients is not None
                 else (10_000 if quick else 100_000)),
        concurrency=args.concurrency,
        arrival=args.arrival,
        rate=args.rate,
        exponent=args.exponent,
        stream_length=(args.stream_length if args.stream_length is not None
                       else (50 if quick else 200)),
        universe=(args.universe if args.universe is not None
                  else (1_000 if quick else 10_000)),
        frames_per_client=args.frames_per_client,
        churn=args.churn,
        k=args.k,
        seed=args.seed,
        releases=args.releases,
        timeout=args.timeout,
        to=args.to,
        leaves=args.leaves,
        depth=args.depth,
    )
    report = run_loadgen(config)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True,
                         default=str))
        return 0 if not report.clients_failed else 1
    target = (args.to if args.to is not None
              else (f"self-hosted tree ({config.leaves} leaves, depth "
                    f"{config.depth})" if config.leaves
                    else "self-hosted flat server"))
    overview = [{
        "target": target,
        "clients": config.clients,
        "concurrency": config.concurrency,
        "arrival": config.arrival,
        "churn": f"{config.churn:.1%}",
        "ok": report.clients_ok,
        "churned": report.clients_churned,
        "failed": report.clients_failed,
    }]
    print(format_table(overview, title="load wave"))
    print()
    throughput = [{
        "elapsed (s)": f"{report.elapsed_s:.2f}",
        "frames": report.frames_total,
        "frames/s": f"{report.sustained_frames_per_sec:.0f}",
        "clients/s": f"{report.sustained_clients_per_sec:.0f}",
        "payload bytes": report.bytes_total,
    }]
    print(format_table(throughput, title="sustained throughput"))
    if report.latencies:
        print()
        rows = []
        for name in sorted(report.latencies):
            summary = report.latencies[name]
            if not summary.get("count"):
                continue
            rows.append({
                "op": name,
                "count": summary["count"],
                "p50": f"{summary['p50'] * 1e3:.2f} ms",
                "p90": f"{summary['p90'] * 1e3:.2f} ms",
                "p99": f"{summary['p99'] * 1e3:.2f} ms",
                "max": f"{summary['max'] * 1e3:.2f} ms",
            })
        if rows:
            print(format_table(rows, title="client-side latency"))
    if report.errors:
        print()
        print(f"{len(report.errors)} error(s); first: {report.errors[0]}",
              file=sys.stderr)
    return 0 if not report.clients_failed else 1


def _cmd_push(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from .api.framing import MAGIC, FrameReader
    from .net import AggregatorClient

    # Probe every input up front so the session can declare the k the
    # exports actually use — the server then rejects a disagreeing
    # aggregation at HELLO time instead of folding miscalibrated sketches.
    inputs = []  # (path, is_framed, payload-or-None)
    declared = set()
    for path in map(Path, args.inputs):
        with path.open("rb") as probe:
            framed = probe.read(len(MAGIC)) == MAGIC
        if framed:
            with path.open("rb") as fileobj:
                header_k = FrameReader(fileobj).header.k
            if header_k is not None:
                declared.add(header_k)
            inputs.append((path, True, None))
        else:
            payload = load_payload(path)
            if payload.k is not None:
                declared.add(payload.k)
            inputs.append((path, False, payload))
    k = args.k
    if k is None:
        if len(declared) > 1:
            print(f"error: inputs declare k={sorted(declared)}; pass -k",
                  file=sys.stderr)
            return 2
        k = declared.pop() if declared else None

    if args.resume:
        from .net import push_file_resilient

        if args.ordinal is None:
            print("error: --resume needs --ordinal (the durable session "
                  "identity the server resumes by)", file=sys.stderr)
            return 2
        if len(inputs) != 1 or not inputs[0][1]:
            print("error: --resume pushes exactly one framed (repro pack) "
                  "input", file=sys.stderr)
            return 2
        total = push_file_resilient(args.to, inputs[0][0], ordinal=args.ordinal,
                                    k=k, auth_token=args.token,
                                    timeout=args.timeout,
                                    connect_retries=args.retries,
                                    max_elapsed=args.max_elapsed)
        # The BYE ack proves the commit, not its durability: a server
        # without --wal-dir holds the session in memory only.
        print(f"pushed {total} sketch export(s) (k={k}) -> {args.to} "
              "(committed)")
        return 0

    async def _push():
        async with AggregatorClient(args.to, k=k, ordinal=args.ordinal,
                                    auth_token=args.token,
                                    timeout=args.timeout,
                                    connect_retries=args.retries) as client:
            total = 0
            for path, framed, payload in inputs:
                if framed:
                    total += await client.push_file(path)
                else:
                    total += await client.push([payload])
            return total, client.server_k

    total, agreed = asyncio.run(_push())
    print(f"pushed {total} sketch export(s) (k={agreed}) -> {args.to}")
    return 0


def _cmd_wal(args: argparse.Namespace) -> int:
    from .api.wire import payload_to_histogram
    from .exceptions import RemoteError
    from .net import SessionWal
    from .net.server import AggregatorServer

    if args.wal_command == "inspect":
        from .net import is_reserved_record
        from .net.relay import FORWARD_ROW_PREFIX, ForwardBatch

        wal = SessionWal(args.wal_dir)
        try:
            records = wal.store.records()
            reserved = [r for r in records if is_reserved_record(r)]
            records = [r for r in records if not is_reserved_record(r)]
            if not records and not reserved:
                print(f"{args.wal_dir}: no sessions recorded")
                return 0
            usage = wal.spool_usage()
            print(f"{args.wal_dir}: {len(records)} session(s), "
                  f"{usage['spools']} spool file(s), "
                  f"{usage['bytes']} byte(s) on disk")
            for record in reserved:
                if record.session_id.startswith(FORWARD_ROW_PREFIX):
                    # A relay leaf's forward-queue row.
                    batch = ForwardBatch.from_record(record)
                    print(f"  {record.session_id}: forward batch "
                          f"{batch.index} root_ordinal={batch.root_ordinal} "
                          f"covered_seq={batch.covered_seq} "
                          + ("acked" if batch.acked else "queued"))
                    continue
                # The privacy accountant's spend row: releases charged under
                # the recorded composition mode, no spool.
                print(f"  {record.session_id}: "
                      f"{record.committed_frames} release(s) charged "
                      f"(composition={record.client or '-'})")
            for record in records:
                spool = wal.spool_path(record)
                size = spool.stat().st_size if spool.exists() else 0
                state = (f"committed seq={record.commit_seq}"
                         if record.commit_seq is not None else "open")
                tail = size - record.committed_bytes
                print(f"  {record.session_id}: ordinal={record.ordinal} "
                      f"client={record.client or '-'} k={record.k} "
                      f"frames={record.committed_frames} "
                      f"bytes={record.committed_bytes} {state} "
                      f"spool={record.spool}"
                      + (f" (+{tail}B uncommitted tail)" if tail > 0 else ""))
            return 0
        finally:
            wal.close()

    # replay: run the exact recovery + release path a restarted server uses,
    # minus the socket — guaranteeing bit-identical output by construction.
    server = AggregatorServer(epsilon=args.epsilon, delta=args.delta,
                              wal_dir=args.wal_dir)
    try:
        server._recover_from_wal()
        envelope = server.perform_release(args.seed)
    except RemoteError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        server.wal.close()
    histogram = payload_to_histogram(envelope)
    _emit_histogram(histogram, args.out)
    return 0


def _cmd_request_release(args: argparse.Namespace) -> int:
    from .net import request_release

    histogram = request_release(args.to, seed=args.seed,
                                auth_token=args.token, timeout=args.timeout,
                                connect_retries=args.retries)
    _emit_histogram(histogram, args.out)
    return 0


def _cmd_heavy_hitters(args: argparse.Namespace) -> int:
    histogram = load_histogram(args.histogram)
    length = histogram.metadata.stream_length
    cutoff = args.phi * length
    heavy = histogram.heavy_hitters(cutoff)
    ranked = sorted(heavy.items(), key=lambda kv: -kv[1])
    if args.top is not None:
        ranked = ranked[:args.top]
    rows = [{"element": key, "noisy count": value} for key, value in ranked]
    print(format_table(rows, title=f"{args.phi:.4g}-heavy hitters (cutoff {cutoff:.1f})"))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    histogram = load_histogram(args.histogram)
    stream = read_stream(args.stream)
    truth = ExactCounter.from_stream(stream).counters()
    summary = summarize_errors(histogram, truth)
    rows = [summary.as_dict()]
    print(format_table(rows, title=f"error of {args.histogram} against {args.stream}"))
    return 0


_HANDLERS = {
    "list": _cmd_list,
    "generate": _cmd_generate,
    "sketch": _cmd_sketch,
    "release": _cmd_release,
    "merge": _cmd_merge,
    "pack": _cmd_pack,
    "serve": _cmd_serve,
    "relay": _cmd_relay,
    "stats": _cmd_stats,
    "status": _cmd_status,
    "loadgen": _cmd_loadgen,
    "push": _cmd_push,
    "wal": _cmd_wal,
    "request-release": _cmd_request_release,
    "heavy-hitters": _cmd_heavy_hitters,
    "evaluate": _cmd_evaluate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
