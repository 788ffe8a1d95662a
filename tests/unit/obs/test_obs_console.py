"""Unit tests for the operator console renderer and watch loop.

Everything runs over canned STATS dicts with injected stream/clock/sleep —
no server, no sockets, no real time.
"""

import io

import pytest

from repro.obs import console
from repro.obs.console import (CLEAR, render_stats, render_status, watch,
                               _human_bytes)


def make_stats(**overrides):
    """A canned STATS reply shaped like AggregatorServer.stats()."""
    stats = {
        "role": "aggregator",
        "k": 64,
        "frames": 120,
        "stream_length": 4800,
        "releases": 2,
        "sessions_active": 1,
        "sessions_committed": 3,
        "sessions_rejected": 1,
        "sessions_listed": 3,
        "uptime_s": 10.0,
        "started_at": 1_000.0,
        "auth_required": False,
        "accept_relays": False,
        "privacy": {
            "per_release": {"epsilon": 1.0, "delta": 1e-6},
            "composition": "basic",
            "releases_charged": 2,
            "spent": {"epsilon": 2.0, "delta": 2e-6},
            "budget": None,
            "remaining": None,
            "exhausted": False,
        },
        "sessions": [
            {"ordinal": 0, "client": "c0", "frames": 40, "seq": 1},
            {"ordinal": 1, "client": "c1", "frames": 40, "seq": 2},
            {"ordinal": 2, "client": "c2", "frames": 40, "seq": 3},
        ],
        "active": [
            {"ordinal": 3, "client": "c3", "role": "client",
             "state": "pushing", "frames": 7, "bytes": 2048,
             "connected_at": 999.0, "last_frame_at": 1_000.0},
        ],
        "wal": {"dir": "/tmp/wal", "spools": 2, "bytes": 4096},
        "metrics": {
            "version": 1,
            "window_s": 60.0,
            "counters": {"server.frames_total": 120,
                         "server.bytes_total": 98304,
                         "server.commits_total": 3},
            "gauges": {"server.sessions_active": 1.0},
            "histograms": {
                "server.fold_seconds": {"count": 120, "mean": 0.001,
                                        "p50": 0.0009, "p90": 0.002,
                                        "p99": 0.004, "max": 0.01},
                "server.frame_seconds": {"count": 0},
            },
        },
    }
    stats.update(overrides)
    return stats


class TestHumanBytes:
    @pytest.mark.parametrize("count,expected", [
        (0, "0 B"),
        (512, "512 B"),
        (2048, "2.0 KiB"),
        (3 * 1024 * 1024, "3.0 MiB"),
        (None, "-"),
        ("nope", "-"),
    ])
    def test_formats(self, count, expected):
        assert _human_bytes(count) == expected


class TestRenderStats:
    def test_contains_every_block(self):
        text = render_stats(make_stats(), "127.0.0.1:7000")
        assert "aggregator at 127.0.0.1:7000" in text
        assert "totals" in text
        assert "privacy budget" in text
        assert "live sessions" in text
        assert "committed sessions (release order)" in text
        assert "wal spools" in text
        assert "4.0 KiB" in text        # wal bytes humanized
        assert "pushing" in text        # live session state

    def test_minimal_stats_render(self):
        # A bare pre-obs server reply (no wal/active/metrics stanzas)
        # must still render — backward compatibility with old servers.
        stats = {"role": "aggregator", "k": 8, "frames": 0,
                 "sessions_committed": 0, "releases": 0, "uptime_s": 1.0}
        text = render_stats(stats, "unix:/tmp/s.sock")
        assert "aggregator at unix:/tmp/s.sock" in text
        assert "wal" not in text
        assert "live sessions" not in text

    def test_capped_session_list_titled(self):
        stats = make_stats(sessions_committed=500, sessions_listed=3)
        text = render_stats(stats, "a")
        assert "first 3 of 500" in text

    def test_forward_stanza_renders(self):
        stats = make_stats(forward={
            "upstream": "127.0.0.1:9000", "policy": "commit",
            "relay_ordinal": 2, "queued": 5, "acked": 10,
            "last_backoff": 0.5, "error": None,
        })
        text = render_stats(stats, "leaf")
        assert "upstream forward state" in text
        assert "127.0.0.1:9000" in text
        assert "0.50s" in text


class TestRenderStatus:
    def test_first_frame_has_no_rates(self):
        text = render_status(make_stats(), "a")
        assert "throughput (this interval)" not in text
        assert "latency percentiles (sliding window)" in text

    def test_rates_are_counter_deltas(self):
        prev = make_stats()
        stats = make_stats()
        stats["frames"] = 220
        stats["metrics"]["counters"] = dict(
            stats["metrics"]["counters"], **{"server.frames_total": 220})
        text = render_status(stats, "a", prev=prev, elapsed=2.0)
        assert "throughput (this interval)" in text
        # (220 - 120) frames over 2 s = 50.0/s, in both the metrics-counter
        # column and the top-level frames column.
        assert text.count("50.0/s") >= 2

    def test_empty_histograms_skipped(self):
        stats = make_stats()
        stats["metrics"]["histograms"] = {"server.frame_seconds": {"count": 0}}
        text = render_status(stats, "a")
        assert "latency percentiles" not in text

    def test_histogram_values_in_ms(self):
        text = render_status(make_stats(), "a")
        assert "server.fold_seconds" in text
        assert "1.000 ms" in text       # mean 0.001 s
        # the count-0 histogram row is dropped
        assert "server.frame_seconds" not in text


class TestWatch:
    def test_bounded_iterations_paint_and_rate(self, monkeypatch):
        polls = [make_stats(), make_stats(frames=220)]
        monkeypatch.setattr(console, "poll_stats",
                            lambda address, **kwargs: polls.pop(0))
        ticks = iter([0.0, 2.0])
        sleeps = []
        out = io.StringIO()
        rc = watch("127.0.0.1:7000", interval=1.5, iterations=2,
                   stream=out, clock=lambda: next(ticks),
                   sleep=sleeps.append)
        assert rc == 0
        painted = out.getvalue()
        assert painted.count(CLEAR) == 2
        assert sleeps == [1.5]          # no sleep after the final frame
        assert "throughput (this interval)" in painted

    def test_keyboard_interrupt_is_clean_exit(self, monkeypatch):
        def boom(address, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(console, "poll_stats", boom)
        out = io.StringIO()
        rc = watch("a", iterations=5, stream=out,
                   clock=lambda: 0.0, sleep=lambda _s: None)
        assert rc == 0
