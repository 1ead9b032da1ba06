"""Unit tests of the Tracer: spans, flow pairing, metrics, overhead."""

import pytest

from repro.gpu.timing import TRACE_HOOK_NS
from repro.trace import Tracer


@pytest.fixture
def traced_backend(backend):
    tracer = Tracer()
    tracer.attach(backend)
    return backend, tracer


def test_api_spans_recorded(traced_backend):
    backend, tracer = traced_backend
    ptr = backend.malloc(1024)
    backend.free(ptr)
    api = [s for s in tracer.spans if s.cat == "api"]
    names = [s.name for s in api]
    assert "cudaMalloc" in names and "cudaFree" in names
    for s in api:
        assert s.end_ns > s.start_ns
        assert s.track == "api"
    assert tracer.metrics.counter("api.calls").value >= 2


def test_launch_flow_pairing(traced_backend):
    backend, tracer = traced_backend
    backend.launch("k", duration_ns=10_000)
    launch = [s for s in tracer.spans if s.name == "cudaLaunchKernel"]
    kernel = [s for s in tracer.spans if s.cat == "kernel"]
    assert len(launch) == 1 and len(kernel) == 1
    assert launch[0].flow_phase == "s"
    assert kernel[0].flow_phase == "f"
    assert launch[0].flow_id == kernel[0].flow_id is not None
    assert kernel[0].track == "stream-0"


def test_copy_span_on_engine_track(traced_backend):
    backend, tracer = traced_backend
    ptr = backend.malloc(4096)
    backend.memcpy(ptr, b"\x01" * 4096, 4096, "h2d")
    copies = [s for s in tracer.spans if s.cat == "copy"]
    assert copies and copies[0].track == "copy-h2d"
    nbytes = dict(copies[0].args)["nbytes"]
    assert nbytes >= 4096  # wire size includes transfer framing
    assert tracer.metrics.counter("device.copied_bytes.h2d").value == nbytes


def test_overhead_charged_per_api_call(traced_backend):
    backend, tracer = traced_backend
    before = backend.process.clock_ns
    backend.device_synchronize()
    spent = backend.process.clock_ns - before
    assert tracer.overhead_ns == (
        TRACE_HOOK_NS * len([s for s in tracer.spans if s.cat == "api"])
    )
    assert spent >= TRACE_HOOK_NS  # the hook cost lands on the clock


def test_untraced_backend_charges_nothing(backend):
    t0 = backend.process.clock_ns
    backend.device_synchronize()
    cost_untraced = backend.process.clock_ns - t0
    tracer = Tracer()
    tracer.attach(backend)
    t1 = backend.process.clock_ns
    backend.device_synchronize()
    cost_traced = backend.process.clock_ns - t1
    assert cost_traced == cost_untraced + TRACE_HOOK_NS
    tracer.detach(backend)
    assert backend.tracer is None
    t2 = backend.process.clock_ns
    backend.device_synchronize()
    assert backend.process.clock_ns - t2 == cost_untraced
    recorded = len(tracer.spans)
    backend.launch("k", duration_ns=1_000)  # devices detached too
    assert len(tracer.spans) == recorded


def test_begin_segment_bumps_and_marks(traced_backend):
    backend, tracer = traced_backend
    backend.launch("k", duration_ns=1_000)
    assert tracer.segment == 0
    tracer.begin_segment("restart", backend.process.clock_ns)
    assert tracer.segment == 1
    backend.launch("k2", duration_ns=1_000)
    segs = {s.name: s.segment for s in tracer.spans if s.cat == "kernel"}
    assert segs == {"k": 0, "k2": 1}
    marks = [i for i in tracer.instants if i.name == "segment:restart"]
    assert len(marks) == 1 and marks[0].track == "recovery"


def test_clamp_stream_truncates_and_drops(traced_backend):
    backend, tracer = traced_backend
    end = backend.runtime.cudaLaunchKernel("k", duration_ns=50_000)
    cut = end - 25_000.0
    tracer.clamp_stream(0, cut)
    spans = [s for s in tracer.spans if s.cat == "kernel"]
    assert len(spans) == 1
    assert spans[0].name == "aborted:k"
    assert spans[0].end_ns == cut
    # A span entirely after the cut is dropped.
    end2 = backend.runtime.cudaLaunchKernel("k2", duration_ns=1_000)
    tracer.clamp_stream(0, end2 - 2_000.0)
    names = [s.name for s in tracer.spans if s.cat == "kernel"]
    assert "k2" not in names and "aborted:k2" not in names


def test_device_busy_and_api_counter(traced_backend):
    backend, tracer = traced_backend
    backend.launch("k", duration_ns=5_000)
    backend.launch("k", duration_ns=7_000)
    timeline = tracer.timeline()
    assert timeline.kernel_busy_ns == 12_000
    assert timeline.copy_busy_ns == 0
    counter = tracer.api_call_counter()
    assert counter["cudaLaunchKernel"] == 2
    assert counter["cudaPushCallConfiguration"] == 2


def test_ckpt_and_recovery_spans(traced_backend):
    _, tracer = traced_backend
    tracer.ckpt_span("write", 10, 20, bytes=100)
    tracer.recovery_span("retry", 5, 6, attempt=1)
    assert tracer.metrics.counter("ckpt.write").value == 1
    assert tracer.metrics.counter("ckpt.write_ns").value == 10
    assert tracer.metrics.counter("recovery.retry").value == 1
    tracks = {s.track for s in tracer.spans}
    assert {"ckpt", "recovery"} <= tracks


def test_metrics_snapshot_sorted_and_json_safe(traced_backend):
    import json

    backend, tracer = traced_backend
    backend.launch("k", duration_ns=3_000)
    snap = tracer.metrics.snapshot()
    assert list(snap["counters"]) == sorted(snap["counters"])
    json.dumps(snap)  # must be JSON-serializable as-is
    hist = snap["histograms"]["api.dispatch_ns"]
    assert hist["count"] == 3  # push + pop + launch
    assert hist["min"] > 0
