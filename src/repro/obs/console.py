"""The ``repro status`` live operator console (and shared stats renderer).

Plain-ANSI, zero-dependency (no curses, no rich): the watch loop repaints
the whole screen with ``ESC[2J ESC[H`` between STATS polls, so it works in
any dumb terminal and degrades to plain sequential output when piped.

Three entry points, all driven by the CLI:

* :func:`render_stats` — the one canonical text rendering of a STATS reply
  (``repro stats`` and ``repro status --once`` share it, and ``--json``
  callers skip it entirely and dump the same dict — one code path, two
  formats).
* :func:`render_status` — the live-console frame: :func:`render_stats`
  plus *rates* (fold + forward throughput over the previous poll) and the
  histogram-percentile table pulled from the embedded ``metrics`` stanza.
* :func:`watch` — the poll/clear/repaint loop (``repro status --watch``).

This module imports :mod:`repro.net` and therefore must **not** be
imported from ``repro.obs.__init__`` (see the package docstring's import
discipline); the CLI imports it lazily as ``repro.obs.console``.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ..analysis.reporting import format_table

__all__ = ["render_stats", "render_status", "watch", "poll_stats"]

#: ANSI clear-screen + cursor-home (the whole "TUI framework").
CLEAR = "\x1b[2J\x1b[H"


def poll_stats(address: str, *, token: Optional[str] = None,
               timeout: float = 30.0, retries: int = 5) -> Dict[str, object]:
    """One STATS poll (a thin wrapper so console callers share defaults)."""
    from ..net import fetch_stats

    return fetch_stats(address, auth_token=token, timeout=timeout,
                       connect_retries=retries)


def _privacy_pair(stanza) -> str:
    if not isinstance(stanza, dict):
        return "-"
    eps, delta = stanza.get("epsilon"), stanza.get("delta")
    eps = "inf" if eps is None else f"{eps:.6g}"
    delta = "inf" if delta is None else f"{delta:.6g}"
    return f"({eps}, {delta})"


def _human_bytes(count) -> str:
    if not isinstance(count, (int, float)):
        return "-"
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} GiB"


def _age(now: float, stamp) -> str:
    if not isinstance(stamp, (int, float)):
        return "-"
    return f"{max(0.0, now - stamp):.1f}s ago"


def render_stats(stats: Dict[str, object], address: str) -> str:
    """The canonical text rendering of one STATS reply."""
    blocks = []
    uptime = stats.get("uptime_s")
    frames = stats.get("frames", 0)
    throughput = (f"{frames / uptime:.1f}/s"
                  if isinstance(uptime, (int, float)) and uptime > 0 else "-")
    privacy = stats.get("privacy") or {}
    per_release = privacy.get("per_release") or {}
    overview = [{
        "role": stats.get("role", "aggregator"),
        "k": stats.get("k"),
        "epsilon/release": per_release.get("epsilon"),
        "delta/release": per_release.get("delta"),
        "accept relays": "yes" if stats.get("accept_relays") else "no",
        "auth": "token" if stats.get("auth_required") else "open",
        "uptime (s)": (f"{uptime:.1f}"
                       if isinstance(uptime, (int, float)) else "-"),
        "fold rate": throughput,
    }]
    blocks.append(format_table(overview, title=f"aggregator at {address}"))
    totals = [{
        "sessions active": stats.get("sessions_active", 0),
        "committed": stats.get("sessions_committed", 0),
        "rejected": stats.get("sessions_rejected", 0),
        "frames": frames,
        "stream length": stats.get("stream_length", 0),
        "releases": stats.get("releases", 0),
    }]
    wal = stats.get("wal")
    if isinstance(wal, dict):
        totals[0]["wal spools"] = wal.get("spools", 0)
        totals[0]["wal bytes"] = _human_bytes(wal.get("bytes"))
    blocks.append(format_table(totals, title="totals"))
    if privacy:
        spent = privacy.get("spent") or {}
        budget_row = {
            "composition": privacy.get("composition", "-"),
            "releases charged": privacy.get("releases_charged", 0),
            "spent (eps, delta)": ("vacuous" if spent.get("vacuous")
                                   else _privacy_pair(spent)),
            "budget (eps, delta)": (_privacy_pair(privacy.get("budget"))
                                    if privacy.get("budget") else "none"),
            "remaining": (_privacy_pair(privacy.get("remaining"))
                          if privacy.get("budget") else "-"),
            "exhausted": "yes" if privacy.get("exhausted") else "no",
        }
        blocks.append(format_table([budget_row], title="privacy budget"))
    now = time.time()
    active = stats.get("active") or []
    if active:
        rows = [{
            "ordinal": "-" if row.get("ordinal") is None else row["ordinal"],
            "client": row.get("client") or "-",
            "role": row.get("role", "client"),
            "state": row.get("state", "-"),
            "frames": row.get("frames", 0),
            "bytes": _human_bytes(row.get("bytes")),
            "connected": _age(now, row.get("connected_at")),
            "last frame": _age(now, row.get("last_frame_at")),
        } for row in active]
        blocks.append(format_table(rows, title="live sessions"))
    sessions = stats.get("sessions") or []
    if sessions:
        listed = stats.get("sessions_listed", len(sessions))
        committed = stats.get("sessions_committed", len(sessions))
        title = "committed sessions (release order)"
        if isinstance(committed, int) and committed > len(sessions):
            title += f" — first {listed} of {committed}"
        rows = [{
            "ordinal": "-" if entry.get("ordinal") is None else entry["ordinal"],
            "client": entry.get("client") or "-",
            "frames": entry.get("frames", 0),
            "commit seq": entry.get("seq"),
        } for entry in sessions]
        blocks.append(format_table(rows, title=title))
    forward = stats.get("forward")
    if isinstance(forward, dict):
        backoff = forward.get("last_backoff")
        rows = [{
            "upstream": forward.get("upstream", "-"),
            "policy": forward.get("policy", "-"),
            "leaf ordinal": forward.get("relay_ordinal", "-"),
            "queued": forward.get("queued", 0),
            "acked": forward.get("acked", 0),
            "last backoff": (f"{backoff:.2f}s"
                             if isinstance(backoff, (int, float)) else "-"),
            "error": forward.get("error") or "-",
        }]
        blocks.append(format_table(rows, title="upstream forward state"))
    return "\n\n".join(blocks)


def _histogram_rows(stats: Dict[str, object]) -> list:
    metrics = stats.get("metrics")
    if not isinstance(metrics, dict):
        return []
    rows = []
    for name, summary in (metrics.get("histograms") or {}).items():
        if not isinstance(summary, dict) or not summary.get("count"):
            continue
        rows.append({
            "histogram": name,
            "count": summary["count"],
            "mean": f"{summary['mean'] * 1e3:.3f} ms",
            "p50": f"{summary['p50'] * 1e3:.3f} ms",
            "p90": f"{summary['p90'] * 1e3:.3f} ms",
            "p99": f"{summary['p99'] * 1e3:.3f} ms",
            "max": f"{summary['max'] * 1e3:.3f} ms",
        })
    return rows


def _rate(now_stats: Dict[str, object], prev_stats: Dict[str, object],
          elapsed: float, key: str) -> str:
    if elapsed <= 0:
        return "-"
    now_value = now_stats.get(key)
    prev_value = prev_stats.get(key)
    if not (isinstance(now_value, (int, float))
            and isinstance(prev_value, (int, float))):
        return "-"
    return f"{(now_value - prev_value) / elapsed:.1f}/s"


def render_status(stats: Dict[str, object], address: str, *,
                  prev: Optional[Dict[str, object]] = None,
                  elapsed: float = 0.0) -> str:
    """One live-console frame: stats tables + rates + percentiles.

    ``prev``/``elapsed`` are the previous poll and the seconds since it;
    the fold/commit/release rates are deltas over that interval (the
    overview's "fold rate" is the lifetime average, these are *current*).
    """
    blocks = [render_stats(stats, address)]
    if prev is not None and elapsed > 0:
        window = stats.get("metrics") or {}
        prev_window = prev.get("metrics") or {}

        def _counter_rate(name: str) -> str:
            counters = (window.get("counters") or {}
                        if isinstance(window, dict) else {})
            prev_counters = (prev_window.get("counters") or {}
                             if isinstance(prev_window, dict) else {})
            now_value = counters.get(name)
            if not isinstance(now_value, (int, float)):
                return "-"
            # A counter absent from the previous poll was created since:
            # its whole value accrued this interval.
            prev_value = prev_counters.get(name, 0)
            if not isinstance(prev_value, (int, float)):
                return "-"
            return f"{(now_value - prev_value) / elapsed:.1f}/s"

        rates = [{
            "interval": f"{elapsed:.1f}s",
            "folds": _counter_rate("server.frames_total"),
            "bytes": _counter_rate("server.bytes_total"),
            "commits": _counter_rate("server.commits_total"),
            "frames (total ctr)": _rate(stats, prev, elapsed, "frames"),
            "releases": _rate(stats, prev, elapsed, "releases"),
        }]
        blocks.append(format_table(rates, title="throughput (this interval)"))
    histogram_rows = _histogram_rows(stats)
    if histogram_rows:
        blocks.append(format_table(
            histogram_rows, title="latency percentiles (sliding window)"))
    return "\n\n".join(blocks)


def watch(address: str, *, interval: float = 2.0,
          token: Optional[str] = None, timeout: float = 30.0,
          retries: int = 5, iterations: Optional[int] = None,
          stream=None, clock=time.monotonic,
          sleep=time.sleep) -> int:
    """The ``repro status --watch`` loop: poll, clear, repaint, sleep.

    ``iterations`` bounds the loop for tests/examples (``None`` = until
    interrupted); ``stream``/``clock``/``sleep`` are injectable the same
    way the metrics clocks are.  Returns 0 on a clean end (including
    Ctrl-C, which is how operators leave a watch).
    """
    import sys

    out = stream if stream is not None else sys.stdout
    prev: Optional[Dict[str, object]] = None
    prev_at: Optional[float] = None
    count = 0
    try:
        while iterations is None or count < iterations:
            stats = poll_stats(address, token=token, timeout=timeout,
                               retries=retries)
            now = clock()
            elapsed = (now - prev_at) if prev_at is not None else 0.0
            frame = render_status(stats, address, prev=prev, elapsed=elapsed)
            out.write(CLEAR + frame + "\n")
            out.flush()
            prev, prev_at = stats, now
            count += 1
            if iterations is not None and count >= iterations:
                break
            sleep(interval)
    except KeyboardInterrupt:
        out.write("\n")
    return 0
