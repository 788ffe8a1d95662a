"""Async aggregation service: server/client tier over the framed wire protocol.

The network subsystem of the paper's deployment story — ``m`` untrusted
clients ship Misra-Gries sketch exports to one aggregator, which merges them
as they arrive and publishes a differentially private histogram on request:

* :mod:`repro.net.protocol` — the control protocol (HELLO/PUSH/RELEASE/STATS
  verbs as tag-``0x02`` control frames layered on the PR-4 framed container)
  and :class:`FrameChannel`, the bounded-read asyncio frame pump.
* :mod:`repro.net.session` — the server-side session state machine
  (AWAIT_HELLO → READY ⇄ PUSHING → COMMITTED | REJECTED).
* :mod:`repro.net.server` — :class:`AggregatorServer`: concurrent sessions,
  per-session :class:`~repro.api.framing.StreamingMerger` folds, k agreement,
  fault containment, graceful drain.
* :mod:`repro.net.client` — :class:`AggregatorClient` (async) plus the
  synchronous one-shot helpers the ``repro push`` / ``repro request-release``
  CLI subcommands use, including the crash-surviving
  :func:`push_file_resilient`.
* :mod:`repro.net.wal` — the durability layer: per-session write-ahead
  spools of verbatim PUSH frames, burst-fsync commits, replay-on-restart.
* :mod:`repro.net.store` — the pluggable checkpoint ledger behind the WAL
  (sqlite first; the interface is redis-shaped so another backend is one
  module).
* :mod:`repro.net.backoff` — jittered, budget-capped retry delays and
  :func:`retry_async`, the one retry loop every resilient code path drives.
* :mod:`repro.net.budget` — :class:`BudgetAccountant`: server-side privacy
  budget accounting.  Every RELEASE charges the per-release (epsilon, delta)
  under basic or advanced composition; once a configured budget would be
  exceeded the release is refused with ``budget_exhausted``, and the charged
  count persists through the WAL checkpoint store so kill -9 cannot reset
  the budget.  Token auth at HELLO (``auth_token``) and per-session
  frame/byte/sketch quotas harden the same session plumbing.
* :mod:`repro.net.relay` — :class:`RelayAggregatorServer`: the
  aggregator-of-aggregators tier.  A leaf accepts normal client sessions
  and forwards each committed session's summary upstream (one fixed-point
  summary frame per origin session, durable forward queue, idempotent
  resume), so an ``N leaves x M clients`` tree releases bit-identically to
  one flat server over the same ``N*M`` sessions.

Observability: every layer above records into the server's
:class:`~repro.obs.metrics.MetricsRegistry` (``metrics=`` constructor
argument; on by default) — frame/fold/WAL-fsync latency histograms,
session gauges, budget spend — and the accept→fold→commit→release path is
wrapped in :class:`~repro.obs.trace.Tracer` spans (``--log-json``).  The
whole obs layer is read-side only: releases are bit-identical with it on,
off, or absent (property-tested in ``tests/property/test_obs_equivalence``).

A release triggered over the network is bit-identical (keys, values, dict
order) to ``repro merge --framed`` over the same exports with the same seed:
both fold each source through its own merger and combine the summaries
through :class:`~repro.api.framing.MergerCombiner` in canonical (ordinal)
order (the server keeps the fold between releases) — and, with ``repro serve --wal-dir``, that identity survives kill -9 at any
byte of the conversation: committed sessions replay from their spools in
recorded commit order.
"""

from .backoff import Backoff, retry_async
from .budget import BudgetAccountant, BudgetSpend
from .client import (AggregatorClient, fetch_stats, push_file,
                     push_file_resilient, request_release,
                     transient_push_error)
from .protocol import Address, FrameChannel, parse_address
from .relay import RelayAggregatorServer, serve_relay
from .server import AggregatorServer, serve
from .session import CommittedSession, Session, SessionState
from .store import (BUDGET_SESSION_ID, CheckpointStore, MemoryCheckpointStore,
                    SessionRecord, SqliteCheckpointStore, is_reserved_record,
                    open_store)
from .wal import SessionJournal, SessionWal, WalRecovery

__all__ = [
    "Address",
    "AggregatorClient",
    "AggregatorServer",
    "BUDGET_SESSION_ID",
    "Backoff",
    "BudgetAccountant",
    "BudgetSpend",
    "CheckpointStore",
    "CommittedSession",
    "FrameChannel",
    "MemoryCheckpointStore",
    "RelayAggregatorServer",
    "Session",
    "SessionJournal",
    "SessionRecord",
    "SessionState",
    "SessionWal",
    "SqliteCheckpointStore",
    "WalRecovery",
    "fetch_stats",
    "is_reserved_record",
    "open_store",
    "parse_address",
    "push_file",
    "push_file_resilient",
    "request_release",
    "retry_async",
    "serve",
    "serve_relay",
    "transient_push_error",
]
