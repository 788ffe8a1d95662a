"""Tiny runs of every served-pipeline benchmark workload.

Each workload runs once, traced, at a tiny size (``run_workload``'s size
arguments) against a real ``repro serve`` subprocess.  Every wait is bounded:
the server's start and stop by subprocess timeouts, the traffic by an
asyncio timeout, each client call by its own timeout.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
from spans import spans_for
from workloads import WORKLOADS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

#: Per-workload sizes: two rounds of a few sessions, a small pool.
TINY = {
    "ingest": dict(sessions=3, warmup_sessions=1, pool=4, releases=2),
    "ingest_wal": dict(sessions=3, warmup_sessions=1, pool=4, releases=2),
    "edge": dict(sessions=3, warmup_sessions=1, pool=4, releases=2),
    "release_mix": dict(sessions=40, warmup_sessions=2, pool=8),
}
LIMIT_S = 90.0


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("e2e")
    return {name: run.run_workload(name, seed=3, trace=True, rounds=2,
                                   workdir=workdir, limit_s=LIMIT_S, **TINY[name])
            for name in WORKLOADS}


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def test_benchmark_json_lists_the_workloads():
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_run_is_correct_and_emits_every_metric_with_its_unit(traced_runs, name):
    report = traced_runs[name]
    assert report["correct"], report["untraced"]["problem"]
    assert report["failed"] == 0, report["untraced"]["errors"]
    for trace, listed in ((False, BENCHMARK["end_to_end"]),
                          (True, BENCHMARK["per_layer"])):
        line = run.summary_line(report, trace)
        assert {metric: value["unit"] for metric, value
                in line["metrics"].items()} == _units(listed)
        assert all(isinstance(value["value"], (int, float))
                   for value in line["metrics"].values())
    assert report["fingerprint"]["kernel_backend"]
    assert report["fingerprint"]["workload"]["name"] == name


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_trace_reports_every_listed_span(traced_runs, name):
    per_layer = traced_runs[name]["per_layer"]
    missing = [span for span in spans_for(name)
               if not per_layer[f"{span}.calls"] > 0]
    assert not missing
    # Each server process numbers its spans from 1; mixing two rounds'
    # parents would subtract one round's children from another's spans.
    assert traced_runs[name]["traced"]["rounds"] == 2
    assert all(value >= 0 for metric, value in per_layer.items()
               if metric.endswith(".self_s"))
    assert per_layer["trace.overhead_ratio"] > 0
    assert "server.unattributed_s" in per_layer


def test_gate_fails_on_a_dropped_session(tmp_path):
    report = run.run_workload("release_mix", seed=5, rounds=1,
                              workdir=tmp_path, limit_s=LIMIT_S,
                              drop_session=True, **TINY["release_mix"])
    assert report["failed"] == 0
    assert not report["correct"]
    assert report["untraced"]["problem"]
