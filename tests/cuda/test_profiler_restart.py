"""Splice-aware timeline regressions.

``TimelineReport.span_ns`` was ``max(end) - min(start)`` over all
events, which produced garbage across a restart splice and a
zero-division-adjacent mess on empty/single-event traces — now each
splice segment contributes its own span.
"""

import pytest

from repro.trace import TimelineReport, Tracer


@pytest.fixture
def tracer(backend):
    t = Tracer()
    t.attach(backend)
    return t


class TestSpliceAwareTimeline:
    def test_empty_timeline_is_well_defined(self, tracer):
        rep = tracer.timeline()
        assert rep == TimelineReport(0, 0, 0, {}, 0, segments=0)
        assert rep.kernel_utilization == 0.0

    def test_single_event_trace(self, backend, tracer):
        backend.launch("k", duration_ns=5_000)
        rep = tracer.timeline()
        assert rep.events == 1
        assert rep.segments == 1
        assert rep.span_ns == 5_000
        assert rep.kernel_busy_ns == 5_000

    def test_span_sums_per_segment_not_across_the_cut(self, backend, tracer):
        backend.launch("k", duration_ns=5_000)
        backend.device_synchronize()
        tracer.begin_segment("restart", backend.process.clock_ns)
        backend.process.advance(1_000_000_000)  # downtime must not inflate span
        backend.launch("k2", duration_ns=7_000)
        rep = tracer.timeline()
        assert rep.segments == 2
        assert rep.events == 2
        assert rep.span_ns == 12_000
        assert rep.kernel_busy_ns == 12_000
        naive = 1e9  # the old max(end)-min(start) would exceed this
        assert rep.span_ns < naive

    def test_empty_segments_are_not_counted(self, backend, tracer):
        tracer.begin_segment("restart", backend.process.clock_ns)
        backend.launch("k", duration_ns=5_000)
        tracer.begin_segment("restart", backend.process.clock_ns)
        rep = tracer.timeline()
        assert rep.segments == 1
        assert rep.span_ns == 5_000
