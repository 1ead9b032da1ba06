"""serve suite: cells, totals, baseline gate, rendering."""

import json

import pytest

from repro.harness.serve_bench import _percentile, run_serve_bench
from repro.harness.suites import baseline_checks, baseline_entry, render
from repro.trace.metrics import MetricsRegistry

TINY = dict(sessions=8, nodes=3, slots=2, waves=2, seed=0, state_elems=32)


@pytest.fixture(scope="module")
def tiny_report():
    # Smallest campaign that still exercises every cell's fault lever.
    result = run_serve_bench(**TINY)
    return {**result, "suite": "serve", "config": TINY,
            "ok": all(c["ok"] for c in result["checks"])}


def test_percentile_nearest_rank():
    assert _percentile([], 0.99) == 0.0
    assert _percentile([5.0], 0.99) == 5.0
    xs = [float(i) for i in range(1, 101)]
    assert _percentile(xs, 0.50) == 51.0  # index round(0.5 * 99) = 50
    assert _percentile(xs, 0.99) == 99.0
    assert _percentile(xs, 1.00) == 100.0


def test_campaign_runs_every_cell_clean(tiny_report):
    r = tiny_report
    assert [c["cell"] for c in r["cells"]] == [
        "baseline", "ecc", "kernel-hang", "node-death", "eviction-storm",
    ]
    assert r["metrics"]["lost_sessions"] == 0
    assert r["metrics"]["digest_mismatches"] == 0
    assert [(c["name"], c["ok"]) for c in r["checks"]] == [
        ("zero lost sessions", True), ("every digest equal", True),
    ]
    assert r["ok"]
    # The chaos cells actually recovered through their intended rungs.
    by_cell = {c["cell"]: c for c in r["cells"]}
    assert by_cell["node-death"]["failovers"] > 0
    assert by_cell["eviction-storm"]["parks"] > by_cell["baseline"]["parks"]
    json.dumps(r)  # JSON-safe end to end


def test_virtual_time_report_is_deterministic(tiny_report):
    again = run_serve_bench(**TINY)
    for key in ("metrics", "counters", "cells"):
        assert tiny_report[key] == again[key]


def test_gate_against_baseline_file(tiny_report, tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(
        {"version": 1, "suites": {"serve": baseline_entry("serve", tiny_report)}}
    ))
    baseline = json.loads(path.read_text())
    checks = baseline_checks("serve", tiny_report, baseline)
    assert [c["name"] for c in checks] == [
        "baseline entry", "resume_p99_ms vs baseline",
        "sessions_per_sec vs baseline",
    ]
    assert all(c["ok"] for c in checks)
    assert "exact match" in checks[1]["detail"]
    assert "exact match" in checks[2]["detail"]
    # A regressed run fails the gate.
    worse = json.loads(json.dumps(tiny_report))
    worse["metrics"]["resume_p99_ms"] *= 2.0
    assert not baseline_checks("serve", worse, baseline)[1]["ok"]
    slower = json.loads(json.dumps(tiny_report))
    slower["metrics"]["sessions_per_sec"] *= 0.79
    assert not baseline_checks("serve", slower, baseline)[2]["ok"]


def test_missing_baseline_fails(tiny_report):
    (entry,) = baseline_checks("serve", tiny_report, {"version": 1})
    assert entry["name"] == "baseline entry"
    assert not entry["ok"]


def test_format_is_human_readable(tiny_report):
    text = render(tiny_report)
    assert "zero lost sessions" in text
    assert "resume_p99_ms" in text
    assert "bench serve: PASS" in text


def test_metrics_merge_matches_shared_registry():
    # Per-cell registries merged == one registry fed everything.
    shared, a, b = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
    for reg in (shared, a):
        reg.counter("c").inc(3)
        reg.histogram("h").record(10.0)
        reg.histogram("h").record(300.0)
    for reg in (shared, b):
        reg.counter("c").inc(2)
        reg.gauge("g").set(7)
        reg.histogram("h").record(0.5)
    a.merge(b)
    assert a.snapshot() == shared.snapshot()
