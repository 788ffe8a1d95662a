"""Non-interactive entry point for the performance suite.

Runs the selected workload groups in :mod:`bench_perf_suite`, adds the
``src/`` line count (``src_lines``: lines of ``src/repro/**/*.py``), appends
the resulting record to ``BENCH_sketch.json`` at the repository root (so every
PR extends the same performance and code-size trajectory) and prints a
human-readable summary.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py            # full suite
    PYTHONPATH=src python benchmarks/run_bench.py --quick    # CI-sized run
    PYTHONPATH=src python benchmarks/run_bench.py --dry-run  # don't write
    PYTHONPATH=src python benchmarks/run_bench.py --workloads merge,release
    cd benchmarks && python -m run_bench                     # module form

Exit status is non-zero if the acceptance-criteria speedups regress below
their floors (>= 10x on the all-distinct k=1024 sketch workload, >= 3x on
the E11 Zipf k=1024 workload, >= 10x on the m=256 k=1024 merge workload,
>= 8x on the framed streaming-merge workload, >= 0.5x on the socket
aggregation service vs the offline framed fold, >= 0.5x on the WAL-backed
service vs the in-memory one, >= 0.7x on the 2x4 relay tree vs the flat
8-client server, >= 3x on the trusted-sum release workload, >= 0.9x on the
auth-on served-release cycle vs the open server, and — when the C kernel
provider builds — >= 8x over the seed plus >= 3x over the vectorized python
batch path on the zipf k=64 update workload and >= 2x on the m=256 k=1024
columnar merge fold), so the script can gate CI.
``--workloads`` lets the merge/release floors gate independently of the
sketch floors: only floors whose workload group actually ran are enforced,
and the compiled-kernel floors are waived (with a notice) when the record
shows the C provider was unavailable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

#: The package whose size ``src_lines`` tracks.
SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

from bench_perf_suite import (
    BENCH_PATH,
    WORKLOAD_GROUPS,
    append_record,
    format_record,
    run_suite,
)

#: Acceptance floors for optimized-vs-seed speedups, keyed by speedup name,
#: valued (workload group, floor).  A floor only gates when its group ran.
FLOORS = {
    "all_distinct_k1024_batch": ("sketch", 10.0),
    "zipf_e11_k1024_batch": ("sketch", 3.0),
    "merge_m256_k1024_arrays": ("merge", 10.0),
    "framed_merge_m256_k1024_streaming": ("framed_merge", 8.0),
    # The socket service may cost at most 2x the offline framed fold.
    "net_aggregate_m256_k1024_socket_4clients": ("net_aggregate", 0.5),
    # Crash safety (WAL spools + fsync commits) may cost at most 2x.
    "durability_m256_k1024_wal_sqlite_4clients": ("durability", 0.5),
    # The 2-leaves x 4-clients relay tree vs one flat 8-client server: the
    # extra hop may cost at most ~1.4x the flat service.
    "relay_m256_k1024_relay_2x4": ("relay", 0.7),
    "release_trusted_sum_k1024_vectorized": ("release", 3.0),
    # Requiring session tokens (one hmac.compare_digest at HELLO) must stay
    # in the noise: auth-on serving may cost at most ~1.1x the open server.
    "release_served_auth_k256_auth_on": ("release", 0.9),
    # The load harness's bounded concurrency vs one client at a time.  On
    # loopback the single server core saturates either way (measured
    # 1.2-2.6x depending on population size), so the floor only pins that
    # the semaphore/task machinery never makes the wave *slower* than the
    # sequential loop.
    "loadgen_flat_k64_concurrent": ("loadgen", 1.05),
    # Observability (counters, histograms, trace spans) is read-side only
    # and must stay in the noise: obs-on serving >= 0.9x obs-off.
    "obs_serve_k256_obs_on": ("loadgen", 0.9),
    "kernels_update_zipf_k64_compiled_batch": ("kernels", 8.0),
    "kernels_update_zipf_k64_compiled_vs_python": ("kernels", 3.0),
    "kernels_fold_m256_k1024_compiled_vs_python": ("kernels", 2.0),
}

#: Floors that only exist when the C kernel provider is available;
#: waived (not failed) when the record's ``kernels`` stanza says the run
#: fell back to pure python.
COMPILED_FLOORS = frozenset(name for name in FLOORS if "compiled" in name)


def src_lines(root: Path = SRC_ROOT) -> int:
    """Lines of every ``*.py`` file under ``root``."""
    return sum(len(path.read_bytes().splitlines())
               for path in sorted(root.rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--quick", action="store_true",
                        help="smaller streams (CI-sized, ~seconds)")
    parser.add_argument("--dry-run", action="store_true",
                        help="run and print, but do not append to the history file")
    parser.add_argument("--workloads", type=str, default=None, metavar="GROUPS",
                        help="comma-separated workload groups to run "
                             f"(default: all of {','.join(WORKLOAD_GROUPS)})")
    parser.add_argument("--output", type=Path, default=BENCH_PATH,
                        help=f"history file to append to (default: {BENCH_PATH})")
    args = parser.parse_args(argv)

    selected = None
    if args.workloads is not None:
        selected = [name.strip() for name in args.workloads.split(",") if name.strip()]
        unknown = [name for name in selected if name not in WORKLOAD_GROUPS]
        if unknown:
            parser.error(f"unknown workload group(s) {unknown}; "
                         f"choose from {','.join(WORKLOAD_GROUPS)}")

    record = run_suite(quick=args.quick, workloads=selected)
    record["src_lines"] = src_lines()
    print(format_record(record))
    print(f"  src_lines: {record['src_lines']}")
    if not args.dry_run:
        path = append_record(record, args.output)
        print(f"\nappended record to {path}")

    ran = set(record.get("workloads", []))
    active = {name: floor for name, (group, floor) in FLOORS.items() if group in ran}
    if not record.get("kernels", {}).get("available", False):
        waived = sorted(name for name in active if name in COMPILED_FLOORS)
        for name in waived:
            del active[name]
        if waived:
            print(f"no C kernel provider; waiving floors {waived}")
    failures = [name for name, floor in active.items()
                if record["speedups"].get(name, 0.0) < floor]
    if failures:
        print(f"perf regression: {failures} below acceptance floors "
              f"{ {name: active[name] for name in failures} }", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
