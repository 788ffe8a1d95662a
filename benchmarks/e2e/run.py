"""Served-pipeline benchmark: one workload against ``repro serve`` subprocesses.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload ingest --seed 1 --seconds 15
    python3 benchmarks/e2e/run.py --workload ingest --seed 1 --trace 1

One run makes its inputs from ``--seed`` and pins itself, and so every
server it spawns, to one CPU.  It then runs up to ``workloads.ROUNDS``
identical rounds.  Each round spawns a fresh server (timing its set-up),
warms it up, drives a fixed amount of traffic sized by ``--seconds``, times
its releases, and checks every release made with the run's seed against an
offline rebuild.  Every metric is taken per round and reported as its 10th
percentile over the rounds, counted from the better side.  The run prints one
JSON report, then, as its last line, the summary ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics, or with ``--trace 1`` the
per-layer ones.  A traced run measures the same rounds twice, untraced and
then traced, and reports the ratio of the two as the tracing overhead.
Workloads, metrics and the layer map are described in ``README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

#: A run gives up (and fails) once this many seconds have passed.
RUN_LIMIT_S = 170.0

#: The rounds of one pass may take this many times ``--seconds`` of wall
#: time, set-up and warm-up included; at full host speed all of them fit.
ROUNDS_WALL_FACTOR = 1.7

#: End-to-end metrics with a regression bound: name -> unit.  The session
#: rate and the p90 latencies are in the report too, but carry no bound
#: (see README.md).
END_TO_END = {
    "setup_s": "s",
    "served_elements_per_s": "1/s",
    "push_p50_ms": "ms",
    "session_p50_ms": "ms",
    "release_p50_ms": "ms",
    "server_cpu_s": "s",
    "server_peak_rss_mb": "MB",
}

#: Metrics where higher is better; lower is better for every other one.
HIGHER_IS_BETTER = {"served_elements_per_s", "sessions_per_s"}


def bench_env() -> Dict[str, str]:
    """Environment of the server: this process's, with this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class ServerProcess:
    """One ``repro serve`` subprocess listening on a unix socket."""

    def __init__(self, workdir: Path, launcher: List[str], flags: List[str],
                 timeout: float = 60.0) -> None:
        workdir.mkdir(parents=True)
        # A unix socket path must fit in 108 bytes; prefer the shorter form.
        socket_path = min(os.path.relpath(workdir / "sock"),
                          str(workdir / "sock"), key=len)
        self.address = f"unix:{socket_path}"
        ready = workdir / "ready"
        self._log_path = workdir / "server.log"
        self._log = open(self._log_path, "wb")
        argv = launcher + ["serve", "--listen", self.address,
                           "--ready-file", str(ready)] + flags
        started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                     stderr=self._log, env=bench_env())
        try:
            self.setup_s = self._await_ready(ready, started, timeout)
        except BaseException:
            self.stop()
            raise
        self.ready_cpu_s = self.cpu_s()

    def _await_ready(self, ready: Path, started: float, timeout: float) -> float:
        while True:
            if ready.exists() and ready.read_text().endswith("\n"):
                return time.perf_counter() - started
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode} "
                                   f"before it was ready: {self.log_tail()}")
            if time.perf_counter() - started > timeout:
                raise RuntimeError(f"server not ready after {timeout:.0f}s")
            time.sleep(0.002)

    def cpu_s(self) -> float:
        """CPU seconds the server's live threads have run so far.

        Read from ``schedstat`` in nanoseconds: ``stat``'s utime+stime count
        clock ticks, too coarse for the fraction of a second some rounds use.
        """
        total = 0
        for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
            with open(task / "schedstat") as schedstat:
                total += int(schedstat.read().split()[0])
        return total / 1e9

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (VmHWM) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def log_tail(self) -> str:
        self._log.flush()
        return self._log_path.read_bytes()[-2000:].decode("utf-8", "replace")

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM (the server drains and exits), SIGKILL if it will not."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _percentile(values: List[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _spawn(workload, workdir: Path, traced_spans: Optional[Path] = None,
           timeout: float = 60.0) -> ServerProcess:
    flags = workload.server_flags()
    if workload.wal:
        flags += ["--wal-dir", str(workdir / "wal")]
    if traced_spans is None:
        launcher = [sys.executable, "-m", "repro.cli"]
    else:
        launcher = [sys.executable, str(HERE / "traced_serve.py"),
                    "--spans", str(traced_spans)]
    return ServerProcess(workdir, launcher, flags, timeout=timeout)


async def _traffic(workload, inputs, server, seed: int, sessions: int) -> Dict:
    """One round: warm-up, the timed sessions, then the timed releases.

    Closed-loop workloads release ``workload.releases`` times after the
    sessions, all with ``seed``, and every one is checked by the gate.  The
    open loop releases while it pushes, then releases once more with
    ``seed`` for the gate.
    """
    from workloads import Driver, Tally

    driver = Driver(workload, inputs, server.address, seed)
    warm, timed, final = Tally(), Tally(), Tally()
    await driver.closed_loop(warm, range(workload.warmup_sessions))
    client = await driver.release(warm, None, seed)
    if client is not None:
        await client.close(bye=False)
    ordinals = range(workload.warmup_sessions,
                     workload.warmup_sessions + sessions)
    cpu_before, generator_before = server.cpu_s(), time.process_time()
    if workload.release_every:
        client = await driver.open_loop(timed, ordinals, inputs.dues)
    else:
        await driver.closed_loop(timed, ordinals)
        client = None
    server_cpu = server.cpu_s() - cpu_before
    generator_cpu = time.process_time() - generator_before
    for _ in range(workload.releases):
        client = await driver.release(timed, client, seed, keep=True)
    if workload.release_every:
        client = await driver.release(final, client, seed, keep=True)
    if client is not None:
        await client.close(bye=False)
    return {"driver": driver, "tallies": (warm, timed, final),
            "server_cpu": server_cpu, "generator_cpu": generator_cpu}


def _round(workload, inputs, seed: int, sessions: int, workdir: Path,
           deadline: float, traced_spans: Optional[Path] = None) -> Dict:
    """Spawn a server, drive one round against it, stop it, and remove its
    directory (socket and write-ahead log)."""
    server = _spawn(workload, workdir, traced_spans,
                    timeout=max(1.0, deadline - time.monotonic()))
    try:
        result = asyncio.run(asyncio.wait_for(
            _traffic(workload, inputs, server, seed, sessions),
            timeout=max(1.0, deadline - time.monotonic())))
        result["peak_rss_mb"] = server.peak_rss_mb()
        result["server_life_cpu"] = server.cpu_s() - server.ready_cpu_s
    finally:
        server.stop(timeout=max(5.0, deadline - time.monotonic()))
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = server.setup_s
    return result


def _check(workload, inputs, rounds: List[Dict], seed: int,
           drop_session: bool) -> Optional[str]:
    """The correctness gate: what differs, or ``None`` when all is right.

    Every release a round made with ``seed`` must equal, byte for byte, the
    offline rebuild from exactly the sessions that round committed.
    """
    from workloads import compare_releases, offline_release

    expected: Dict[tuple, bytes] = {}
    for index, result in enumerate(rounds):
        if result["driver"].mismatched_builds:
            return (f"round {index}: {result['driver'].mismatched_builds} "
                    "in-loop builds differ from the pool")
        tallies = result["tallies"]
        acked = sorted(ordinal for tally in tallies for ordinal in tally.acked)
        if drop_session:
            acked = acked[:-1]
        released = [body for tally in tallies for body in tally.released]
        if not released:
            return f"round {index}: no release with the run's seed was served"
        # Rounds that committed the same sessions share one rebuild.
        key = tuple(acked)
        if key not in expected:
            expected[key] = offline_release(workload, inputs, acked, seed)
        for served in released:
            problem = compare_releases(served, expected[key])
            if problem:
                return f"round {index}: {problem}"
    return None


def _round_metrics(workload, result: Dict) -> Dict[str, float]:
    """Every end-to-end metric (and the p90s) of one round."""
    timed = result["tallies"][1]
    rate = len(timed.acked) / timed.elapsed_s if timed.elapsed_s else 0.0
    metrics = {
        "setup_s": result["setup_s"],
        "served_elements_per_s":
            rate * workload.frames_per_session * workload.stream_length,
        "sessions_per_s": rate,
    }
    for name in ("push", "session", "release"):
        samples = getattr(timed, name + "_s")
        metrics[f"{name}_p50_ms"] = 1e3 * _percentile(samples, 50)
        metrics[f"{name}_p90_ms"] = 1e3 * _percentile(samples, 90)
    metrics["server_cpu_s"] = result["server_cpu"]
    metrics["server_peak_rss_mb"] = result["peak_rss_mb"]
    return metrics


def _best_decile(values: List[float], higher_is_better: bool) -> float:
    """The 10th percentile of ``values`` counted from the better side.

    The shared host runs at full speed or well below it, in stretches of
    seconds to minutes (see README.md).  A median over rounds moves with the
    share of rounds that fell in slow stretches.  This percentile stays with
    the full-speed rounds as long as a run has two of them.
    """
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=10)
    return cuts[-1] if higher_is_better else cuts[0]


def _pass(workload, inputs, seed: int, sessions: int, rounds: int,
          wall_s: float, workdir: Path, deadline: float,
          traced_dir: Optional[Path] = None, drop_session: bool = False) -> Dict:
    """Up to ``rounds`` rounds, the correctness gate, and the metrics.

    No round starts once the rounds have taken ``wall_s`` seconds, so a run
    on a slow host still ends in bounded time.  Every round is the same
    fixed work, so a run with fewer rounds changes no round's numbers.
    """
    results = []
    started = time.monotonic()
    while len(results) < rounds and time.monotonic() - started < wall_s:
        index = len(results)
        spans = None if traced_dir is None else traced_dir / f"round-{index}.jsonl"
        results.append(_round(workload, inputs, seed, sessions,
                              workdir / str(index), deadline, spans))
    problem = _check(workload, inputs, results, seed, drop_session)
    per_round = [_round_metrics(workload, result) for result in results]
    timed = [result["tallies"][1] for result in results]
    tallies = [tally for result in results for tally in result["tallies"]]
    errors: Dict[str, int] = {}
    for tally in tallies:
        for code, count in tally.errors.items():
            errors[code] = errors.get(code, 0) + count
    attempted = sum(tally.attempted for tally in tallies)
    failed = sum(tally.failed for tally in tallies)
    lag = [value for tally in timed for value in tally.lag_s]
    return {
        "correct": problem is None,
        "problem": problem,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_ratio": failed / attempted if attempted else 0.0,
        "errors": errors,
        "end_to_end": {
            name: _best_decile([metrics[name] for metrics in per_round],
                               name in HIGHER_IS_BETTER)
            for name in per_round[0]},
        "rounds": len(results),
        "per_round": per_round,
        # Per round, so each percentile's support is visible.
        "samples": {name: [len(getattr(tally, name + "_s")) for tally in timed]
                    for name in ("push", "session", "release")},
        "timed_s": sum(tally.elapsed_s for tally in timed),
        "generator_cpu_s": sum(result["generator_cpu"] for result in results),
        "server_life_cpu_s": sum(result["server_life_cpu"] for result in results),
        # Open loop only: how late sessions started.  A backlog shows as a
        # second half of a round that starts later than the first.
        "generator_lag_s": ({
            "p50": _percentile(lag, 50),
            "p90_first_half": statistics.median(
                _percentile(t.lag_s[:len(t.lag_s) // 2], 90) for t in timed),
            "p90_second_half": statistics.median(
                _percentile(t.lag_s[len(t.lag_s) // 2:], 90) for t in timed),
        } if lag else None),
    }


def _per_layer(workload, untraced: Dict, traced: Dict,
               server_spans: List[List], generator_spans: List) -> Dict[str, float]:
    """Span counts and times, process CPU, and the tracing overhead.

    ``server_spans`` holds one list of spans per server process (round).
    """
    from spans import (GENERATOR_SPANS, SERVER_SPANS, summarize,
                       summarize_processes, time_metric)

    server = summarize_processes(server_spans)
    summary = {**summarize(generator_spans), **server}
    metrics: Dict[str, float] = {}
    for target in GENERATOR_SPANS + SERVER_SPANS:
        row = summary.get(target[0], {})
        timed = time_metric(*target)
        metrics[f"{target[0]}.calls"] = row.get("calls", 0)
        metrics[timed] = row.get(timed.rsplit(".", 1)[1], 0.0)
    server_self = sum(row.get("self_s", 0.0) for row in server.values())
    metrics["server.cpu_s"] = traced["server_life_cpu_s"]
    metrics["generator.cpu_s"] = traced["generator_cpu_s"]
    metrics["server.unattributed_s"] = traced["server_life_cpu_s"] - server_self
    # Traced over untraced served rate; on the open loop the push rate is
    # fixed, so the release median stands in.
    plain, spanned = untraced["end_to_end"], traced["end_to_end"]
    if workload.release_every:
        ratio = plain["release_p50_ms"] / spanned["release_p50_ms"]
    else:
        ratio = spanned["served_elements_per_s"] / plain["served_elements_per_s"]
    metrics["trace.overhead_ratio"] = ratio
    return metrics


def _git_commit() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    """sha256 over ``src/repro``'s python files (names and bytes)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(workload, seed: int, seconds: float, sessions: int,
                rounds: int) -> Dict:
    """What a result depends on beyond the code: host, backend, inputs."""
    from repro.kernels import kernel_info

    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "kernel_backend": kernel_info()["backend"],
        "seed": seed,
        "seconds": seconds,
        "workload": {**workload.params(), "rounds": rounds,
                     "sessions_per_round": sessions},
    }


def run_workload(name: str, seed: int = 0, seconds: float = 15.0,
                 trace: bool = False, *, sessions: Optional[int] = None,
                 rounds: Optional[int] = None, workdir: Optional[Path] = None,
                 limit_s: float = RUN_LIMIT_S, drop_session: bool = False,
                 **sizes) -> Dict:
    """One benchmark run.

    ``sessions`` (timed sessions per round), ``rounds`` and ``sizes``
    (``Workload`` fields such as ``pool``, ``warmup_sessions`` or
    ``releases``) shrink it; the tests use them.  ``drop_session`` leaves
    one acked session out of the offline rebuild, so the correctness gate
    must fail.
    """
    import dataclasses

    from spans import GENERATOR_SPANS, LAYERS, SpanRecorder, read_spans
    from workloads import ROUNDS, WORKLOADS, make_inputs

    deadline = time.monotonic() + limit_s
    workload = dataclasses.replace(WORKLOADS[name], **sizes)
    sessions = workload.sessions(seconds) if sessions is None else sessions
    rounds = ROUNDS if rounds is None else rounds
    workdir = Path(workdir) if workdir is not None else BUILD / "e2e"
    workdir.mkdir(parents=True, exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=workdir))
    recorder = SpanRecorder()
    report: Dict = {"workload": name,
                    "fingerprint": fingerprint(workload, seed, seconds,
                                               sessions, rounds)}
    try:
        if trace:
            with recorder.install(GENERATOR_SPANS):
                inputs = make_inputs(workload, seed, sessions)
        else:
            inputs = make_inputs(workload, seed, sessions)
        wall_s = ROUNDS_WALL_FACTOR * seconds
        untraced = _pass(workload, inputs, seed, sessions, rounds, wall_s,
                         rundir / "untraced", deadline,
                         drop_session=drop_session)
        report["untraced"] = untraced
        passes = [untraced]
        if trace:
            tracedir = workdir / "trace" / name
            shutil.rmtree(tracedir, ignore_errors=True)
            (tracedir / "generator").mkdir(parents=True)
            with recorder.install(GENERATOR_SPANS):
                traced = _pass(workload, inputs, seed, sessions, rounds,
                               wall_s, rundir / "traced", deadline,
                               traced_dir=tracedir / "server")
            recorder.write(tracedir / "generator" / "spans.jsonl")
            server_spans = [read_spans(tracedir / "server" / f"round-{index}.jsonl")
                            for index in range(traced["rounds"])]
            report["traced"] = traced
            report["per_layer"] = _per_layer(workload, untraced, traced,
                                             server_spans, recorder.spans)
            report["layers"] = LAYERS
            report["spans_dir"] = str(tracedir)
            passes.append(traced)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    report.update(correct=all(one["correct"] for one in passes),
                  attempted=sum(one["attempted"] for one in passes),
                  failed=sum(one["failed"] for one in passes))
    return report


def summary_line(report: Dict, trace: bool) -> Dict:
    """The last output line: correctness, counts, and the metric set."""
    if trace:
        from spans import per_layer_units
        units = per_layer_units()
        values = report["per_layer"]
    else:
        units = END_TO_END
        values = report["untraced"]["end_to_end"]
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="ingest")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="run length; sizes the fixed amount of traffic")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or bare --trace): report per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    # Everything the run writes stays in this checkout, the compiled-kernel
    # cache included (the server inherits this environment).
    os.environ["REPRO_KERNELS_CACHE"] = str(BUILD / "repro-kernels")
    # The generator and every server it spawns share one CPU.  Each round
    # trip between them is then a switch on that CPU, not a wake-up of an
    # idle one, whose latency on a shared virtual machine varies far more
    # than the work measured.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    try:
        report = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except (RuntimeError, OSError, TimeoutError) as error:
        print(f"error: {args.workload} run failed: {error}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=1))
    print(json.dumps(summary_line(report, bool(args.trace))))
    if not report["correct"]:
        problem = report["untraced"]["problem"] or \
            report.get("traced", {}).get("problem")
        print(f"error: correctness gate failed: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
