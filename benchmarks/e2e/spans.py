"""In-memory spans for the traced benchmark run.

A span is recorded around every call of a wrapped public callable: its
name, a parent id (the span open in the same asyncio task when the call
started), and start/end times from one monotonic clock.  Spans stay in
memory while the run goes on and are written as JSON lines when it ends.

Wrapping patches the callable where the program looks it up (a class
attribute or a module attribute), so nothing under ``src/`` changes, and
:meth:`SpanRecorder.install` undoes every patch when it exits.

Self time is a span's duration minus the durations of its child spans.  It
is computed for synchronous calls only: a coroutine's duration includes
time suspended while other tasks ran, so async spans report wall time
(``<span>.wall_s``) instead of self time (``<span>.self_s``).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import time
from typing import Dict, Iterable, List

# One context variable per process: asyncio copies the context into every
# task, so concurrent sessions each see their own open span.
_OPEN_SPAN: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_open_span", default=None)

#: Spans the benchmark wraps, as ``(span name, module, attribute path)``.
#: The span name is the callable's path relative to ``repro``'s packages.
CLIENT_BUILD_SPANS = (
    ("sketches.MisraGriesSketch.update_batch", "repro.sketches.misra_gries",
     "MisraGriesSketch.update_batch"),
    ("wire.encode_sketch", "repro.api.wire", "encode_sketch"),
    ("framing.encode_payload_frame", "repro.api.framing",
     "encode_payload_frame"),
)
CLIENT_SESSION_SPANS = (
    ("client.AggregatorClient.connect", "repro.net.client",
     "AggregatorClient.connect"),
    ("client.AggregatorClient.push_encoded", "repro.net.client",
     "AggregatorClient.push_encoded"),
    ("client.AggregatorClient.bye", "repro.net.client", "AggregatorClient.bye"),
    ("client.AggregatorClient.request_release_payload", "repro.net.client",
     "AggregatorClient.request_release_payload"),
)
SERVER_SPANS = (
    ("protocol.FrameChannel.next_event", "repro.net.protocol",
     "FrameChannel.next_event"),
    ("framing.decode_payload_body", "repro.api.framing", "decode_payload_body"),
    ("framing.StreamingMerger.add", "repro.api.framing", "StreamingMerger.add"),
    ("wal.SessionWal.attach", "repro.net.wal", "SessionWal.attach"),
    ("wal.SessionJournal.append", "repro.net.wal", "SessionJournal.append"),
    ("wal.SessionJournal.commit", "repro.net.wal", "SessionJournal.commit"),
    ("wal.SessionJournal.mark_committed", "repro.net.wal",
     "SessionJournal.mark_committed"),
    ("os.fsync", "os", "fsync"),
    ("store.SqliteCheckpointStore.put", "repro.net.store",
     "SqliteCheckpointStore.put"),
    ("session.Session.run", "repro.net.session", "Session.run"),
    ("server.AggregatorServer.commit", "repro.net.server",
     "AggregatorServer.commit"),
    ("server.AggregatorServer.perform_release", "repro.net.server",
     "AggregatorServer.perform_release"),
    ("server.AggregatorServer.committed_mergers", "repro.net.server",
     "AggregatorServer.committed_mergers"),
    ("framing.StreamingMerger.absorb", "repro.api.framing",
     "StreamingMerger.absorb"),
    ("budget.BudgetAccountant.charge", "repro.net.budget",
     "BudgetAccountant.charge"),
    ("framing.StreamingMerger.release", "repro.api.framing",
     "StreamingMerger.release"),
)
GENERATOR_SPANS = CLIENT_BUILD_SPANS + CLIENT_SESSION_SPANS

#: Which spans run on which workload, and the end-to-end metrics each layer
#: should move there.  A span listed for a workload must report calls > 0
#: on it.  ``MisraGriesSketch``/encode spans also cover input generation,
#: which every workload performs, so they are listed everywhere; only on
#: ``edge`` do they run inside the timed loop.
_ALL = ("ingest", "ingest_wal", "edge", "release_mix")
LAYERS = (
    {"layer": "client build and encode",
     "spans": [name for name, _, _ in CLIENT_BUILD_SPANS],
     "workloads": _ALL,
     "moves": {"edge": ["served_elements_per_s"]},
     "unmoved": {"ingest": ["served_elements_per_s"]}},
    {"layer": "frame read, decode and fold",
     "spans": ["protocol.FrameChannel.next_event",
               "framing.decode_payload_body", "framing.StreamingMerger.add"],
     "workloads": _ALL,
     "moves": {"ingest": ["served_elements_per_s", "push_p50_ms"],
               "ingest_wal": ["served_elements_per_s", "push_p50_ms"]},
     "unmoved": {"release_mix": ["session_p50_ms"]}},
    {"layer": "write-ahead log",
     "spans": ["wal.SessionWal.attach", "wal.SessionJournal.append",
               "wal.SessionJournal.commit", "wal.SessionJournal.mark_committed",
               "os.fsync", "store.SqliteCheckpointStore.put"],
     "workloads": ("ingest_wal",),
     "moves": {"ingest_wal": ["push_p50_ms", "served_elements_per_s"]},
     "unmoved": {"ingest": ["push_p50_ms", "served_elements_per_s"]}},
    {"layer": "sessions",
     "spans": ["client.AggregatorClient.connect",
               "client.AggregatorClient.push_encoded",
               "client.AggregatorClient.bye", "session.Session.run",
               "server.AggregatorServer.commit"],
     "workloads": _ALL,
     "moves": {"release_mix": ["session_p50_ms", "server_cpu_s"]},
     "unmoved": {}},
    {"layer": "release",
     "spans": ["server.AggregatorServer.perform_release",
               "server.AggregatorServer.committed_mergers",
               "framing.StreamingMerger.absorb",
               "budget.BudgetAccountant.charge",
               "framing.StreamingMerger.release",
               "client.AggregatorClient.request_release_payload"],
     "workloads": _ALL,
     "moves": {"release_mix": ["release_p50_ms", "server_cpu_s",
                               "session_p50_ms"]},
     "unmoved": {}},
)


def spans_for(workload: str) -> List[str]:
    """Every span that must report calls > 0 on ``workload``."""
    return [span for layer in LAYERS if workload in layer["workloads"]
            for span in layer["spans"]]


#: Process-level per-layer metrics and their units.
PROCESS_METRICS = {"server.cpu_s": "s", "generator.cpu_s": "s",
                   "server.unattributed_s": "s", "trace.overhead_ratio": "ratio"}


def per_layer_units() -> Dict[str, str]:
    """The per-layer metric set of a traced run: name -> unit.

    Spans that run on every workload contribute ``.calls`` and their time;
    a workload-specific layer (the WAL) appears in the report but not here,
    so no per-layer metric reads zero on a workload by construction.
    """
    everywhere = {span for layer in LAYERS if layer["workloads"] == _ALL
                  for span in layer["spans"]}
    units: Dict[str, str] = {}
    for target in GENERATOR_SPANS + SERVER_SPANS:
        if target[0] in everywhere:
            units[f"{target[0]}.calls"] = "count"
            units[time_metric(*target)] = "s"
    units.update(PROCESS_METRICS)
    return units


def _resolve(module: str, path: str):
    """``(owner, attribute name, the callable itself)`` of one target."""
    owner = importlib.import_module(module)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    # A class's own __dict__ holds the plain function, not a bound method.
    function = owner.__dict__[attribute] if isinstance(owner, type) \
        else getattr(owner, attribute)
    return owner, attribute, function


def time_metric(name: str, module: str, path: str) -> str:
    """``<span>.wall_s`` for a coroutine function, else ``<span>.self_s``."""
    function = _resolve(module, path)[2]
    return f"{name}.wall_s" if inspect.iscoroutinefunction(function) \
        else f"{name}.self_s"


class SpanRecorder:
    """Collects spans around wrapped callables; one per process."""

    def __init__(self) -> None:
        #: ``(id, parent id, name, start, end, is_async)`` per finished span.
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)

    def wrap(self, name: str, function):
        """``function`` with a span recorded around every call."""
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                span_id = next(ids)
                parent = _OPEN_SPAN.get()
                token = _OPEN_SPAN.set(span_id)
                start = clock()
                try:
                    return await function(*args, **kwargs)
                finally:
                    end = clock()
                    _OPEN_SPAN.reset(token)
                    spans.append((span_id, parent, name, start, end, True))
            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = _OPEN_SPAN.get()
            token = _OPEN_SPAN.set(span_id)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                _OPEN_SPAN.reset(token)
                spans.append((span_id, parent, name, start, end, False))
        return traced

    @contextlib.contextmanager
    def install(self, targets: Iterable[tuple]):
        """Patch every ``(span, module, attribute path)`` target; undo on exit."""
        undo = []
        try:
            for name, module, path in targets:
                owner, attribute, original = _resolve(module, path)
                setattr(owner, attribute, self.wrap(name, original))
                undo.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(undo):
                setattr(owner, attribute, original)

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end, is_async in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent,
                                      "name": name, "start": start,
                                      "end": end, "async": is_async}))
                out.write("\n")


def read_spans(path) -> List[tuple]:
    """Spans written by :meth:`SpanRecorder.write`."""
    with open(path, encoding="utf-8") as lines:
        return [(row["id"], row["parent"], row["name"], row["start"],
                 row["end"], row["async"])
                for row in map(json.loads, lines)]


def summarize(spans) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls`` and ``self_s`` (sync) or ``wall_s`` (async)."""
    child_time: Dict[int, float] = {}
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    summary: Dict[str, Dict[str, float]] = {}
    for span_id, _, name, start, end, is_async in spans:
        row = summary.setdefault(
            name, {"calls": 0, "wall_s" if is_async else "self_s": 0.0})
        row["calls"] += 1
        if is_async:
            row["wall_s"] += end - start
        else:
            row["self_s"] += (end - start) - child_time.get(span_id, 0.0)
    return summary


def summarize_processes(span_lists) -> Dict[str, Dict[str, float]]:
    """:func:`summarize` of several processes' spans, summed per span name.

    Span ids restart in every process, so each process's spans are
    summarized on their own before the rows are added.
    """
    total: Dict[str, Dict[str, float]] = {}
    for spans in span_lists:
        for name, row in summarize(spans).items():
            into = total.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                into[key] += value
    return total
