"""Tests for the GPU timeline (nvprof --print-gpu-trace model), the
aggregate ``Tracer.timeline()`` computes over kernel/copy spans."""

import numpy as np
import pytest

from repro.trace import Tracer


@pytest.fixture
def tracer(backend):
    t = Tracer()
    t.attach(backend)
    return t


class TestTraceRecording:
    def test_kernels_recorded_with_names(self, backend, tracer):
        backend.launch("k", duration_ns=1000)
        backend.launch("k2", duration_ns=2000)
        backend.device_synchronize()
        rep = tracer.timeline()
        assert rep.kernels["k"].count == 1
        assert rep.kernels["k2"].total_ns == 2000

    def test_copies_recorded(self, backend, tracer):
        data = np.zeros(1024, dtype=np.uint8)
        p = backend.malloc(1024)
        backend.memcpy(p, data, 1024, "h2d")
        rep = tracer.timeline()
        assert rep.copy_busy_ns > 0
        assert rep.events >= 1

    def test_events_time_ordered_per_stream(self, backend, tracer):
        s = backend.stream_create()
        for _ in range(5):
            backend.launch("k", duration_ns=1000, stream=s)
        backend.device_synchronize()
        stream_spans = [
            e for e in tracer.spans if e.cat == "kernel" and e.stream_sid == s.sid
        ]
        assert len(stream_spans) == 5
        for a, b in zip(stream_spans, stream_spans[1:]):
            assert b.start_ns >= a.end_ns

    def test_concurrent_streams_overlap_in_trace(self, backend, tracer):
        s1, s2 = backend.stream_create(), backend.stream_create()
        backend.launch("k", duration_ns=10_000, stream=s1)
        backend.launch("k2", duration_ns=10_000, stream=s2)
        backend.device_synchronize()
        k = [e for e in tracer.spans if e.cat == "kernel"]
        assert k[0].start_ns < k[1].end_ns and k[1].start_ns < k[0].end_ns

    def test_utilization_over_one_with_concurrency(self, backend, tracer):
        streams = [backend.stream_create() for _ in range(8)]
        for s in streams:
            backend.launch("k", duration_ns=100_000, stream=s)
        backend.device_synchronize()
        rep = tracer.timeline()
        assert rep.kernel_utilization > 4.0  # 8 concurrent kernels

    def test_empty_trace_report(self, backend, tracer):
        rep = tracer.timeline()
        assert rep.events == 0
        assert rep.kernel_utilization == 0.0

    def test_mean_duration(self, backend, tracer):
        backend.launch("k", duration_ns=1000)
        backend.launch("k", duration_ns=3000)
        backend.device_synchronize()
        rep = tracer.timeline()
        assert rep.kernels["k"].mean_ns == 2000

