"""Golden-file checks of the Chrome/Perfetto trace_event export.

Runs Gaussian (scale 0.05, V100, seed 0) through ``repro trace``'s
checks — overhead, digest, device accounting, eq. 2 — and validates the
exported JSON the way Perfetto's importer would: required keys per
phase type, globally sorted timestamps, stable pid/tid assignment
across exports, and flow ids that appear exactly as start/finish pairs.
Per-stream spans are checked on SimpleStreams, whose kernels spread
over several streams.
"""

import json

import pytest

from repro.apps.rodinia import Gaussian
from repro.apps.simple_streams import SimpleStreams
from repro.harness import Machine, run_app
from repro.harness.metrics import total_calls_formula
from repro.harness.trace_bench import device_accounting_check, run_trace_bench
from repro.trace import Tracer
from repro.trace.export import (
    DEVICE_PID,
    HOST_PID,
    assign_tracks,
    to_chrome_trace,
)


@pytest.fixture(scope="module")
def bench():
    """One traced Gaussian run (with its untraced twin) shared by every
    test here."""
    return run_trace_bench(Gaussian, scale=0.05, gpu="V100", seed=0)


def test_bench_gates_pass(bench):
    report, _ = bench
    assert [c["name"] for c in report["checks"] if c["ok"]] == [
        "overhead ≤1.25×",
        "traced digest equals untraced",
        "span totals equal the devices' own counters",
        "eq. 2 equals the traced call spans",
    ]


def test_export_is_valid_trace_event_json(bench):
    _, tracer = bench
    obj = to_chrome_trace(tracer, label="gaussian")
    # Round-trips through JSON untouched.
    obj = json.loads(json.dumps(obj))
    events = obj["traceEvents"]
    assert events, "trace must not be empty"
    for ev in events:
        assert ev["ph"] in ("M", "X", "s", "f", "i")
        assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
        if ev["ph"] == "M":
            assert ev["name"] in ("process_name", "thread_name")
            assert "name" in ev["args"]
        else:
            assert ev["ts"] >= 0
        if ev["ph"] == "X":
            assert ev["dur"] >= 0
            assert "cat" in ev
        if ev["ph"] == "f":
            assert ev["bp"] == "e"
        if ev["ph"] == "i":
            assert ev["s"] == "t"
    assert obj["otherData"]["label"] == "gaussian"
    assert obj["otherData"]["metrics"]["counters"]


def test_events_sorted_by_timestamp(bench):
    _, tracer = bench
    events = to_chrome_trace(tracer)["traceEvents"]
    timed = [e for e in events if e["ph"] != "M"]
    keys = [(e["ts"], e["pid"], e["tid"], e["ph"]) for e in timed]
    assert keys == sorted(keys)


def test_pid_tid_assignment_stable(bench):
    _, tracer = bench
    first = assign_tracks(tracer)
    second = assign_tracks(tracer)
    assert first == second
    for track, (pid, _tid) in first.items():
        if track.startswith(("stream-", "copy-")):
            assert pid == DEVICE_PID
        else:
            assert pid == HOST_PID
    pairs = list(first.values())
    assert len(pairs) == len(set(pairs)), "(pid, tid) must be unique per track"
    # Exporting twice yields byte-identical JSON.
    a = json.dumps(to_chrome_trace(tracer), sort_keys=True)
    b = json.dumps(to_chrome_trace(tracer), sort_keys=True)
    assert a == b


def test_flow_ids_paired(bench):
    _, tracer = bench
    events = to_chrome_trace(tracer)["traceEvents"]
    starts = [e["id"] for e in events if e["ph"] == "s"]
    finishes = [e["id"] for e in events if e["ph"] == "f"]
    assert starts, "Gaussian launches kernels, flows expected"
    assert sorted(starts) == sorted(finishes)
    assert len(starts) == len(set(starts)), "flow ids must be unique"


def test_eq2_matches_traced_spans_exactly(bench):
    report, tracer = bench
    span_calls = tracer.api_call_counter()
    assert total_calls_formula(span_calls) == sum(span_calls.values())
    assert report["metrics"]["eq2_total"] == sum(span_calls.values())
    launches = span_calls["cudaLaunchKernel"]
    assert launches == span_calls["cudaPushCallConfiguration"]
    assert launches == span_calls["cudaPopCallConfiguration"]


def test_per_stream_spans_sum_to_timeline_busy():
    tracer = Tracer()
    run_app(SimpleStreams(scale=0.05), Machine(), mode="crac", noise=False,
            tracer=tracer)
    timeline = tracer.timeline()
    per_track: dict[str, int] = {}
    for s in tracer.spans:
        if s.cat in ("kernel", "copy"):
            per_track[s.track] = per_track.get(s.track, 0) + s.duration_ns
    streams = [t for t in per_track if t.startswith("stream-")]
    assert len(streams) >= 2, "SimpleStreams uses multiple streams"
    assert sum(per_track[t] for t in streams) == timeline.kernel_busy_ns
    assert sum(
        v for t, v in per_track.items() if t.startswith("copy-")
    ) == timeline.copy_busy_ns


def test_device_op_escaping_the_tracer_fails_cross_check(backend):
    tracer = Tracer()
    tracer.attach(backend)
    backend.launch("k", duration_ns=1_000)
    devices = backend.runtime.devices
    assert device_accounting_check(tracer, devices)["ok"]
    (dev,) = devices
    dev.tracer = None  # one launch the tracer never sees
    backend.launch("k", duration_ns=1_000)
    dev.tracer = tracer
    result = device_accounting_check(tracer, devices)
    assert not result["ok"]
    assert "kernels 1 vs 2" in result["detail"]
