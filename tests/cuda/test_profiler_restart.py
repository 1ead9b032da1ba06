"""Profiler window and splice-aware timeline regressions.

Two fixed bugs:

- ``Nvprof.report()`` silently dropped negative call-counter deltas
  (``if v > 0``), masking counter resets — an *unexplained* backwards
  counter now raises instead of under-reporting;
- ``TimelineReport.span_ns`` was ``max(end) - min(start)`` over all
  events, which produced garbage across a restart splice and a
  zero-division-adjacent mess on empty/single-event traces — now each
  splice segment contributes its own span.
"""

import pytest

from repro.cuda.profiler import Nvprof
from repro.errors import CudaError
from repro.trace import TimelineReport, Tracer


class TestWindowCarry:
    def test_unexplained_backwards_counter_raises(self, backend):
        prof = Nvprof(backend)
        prof.start()
        backend.launch("k")
        backend.call_counter.clear()  # reset mid-window
        with pytest.raises(CudaError) as exc:
            prof.report()
        assert "went backwards" in str(exc.value)
        assert "start()" in str(exc.value)

    def test_exec_time_spans_the_whole_window(self, backend):
        prof = Nvprof(backend)
        t_start = backend.process.clock_ns
        prof.start()
        backend.launch("k")
        backend.device_synchronize()
        t_mid = backend.process.clock_ns
        backend.process.advance(1e6)  # restart downtime
        backend.launch("k")
        rep = prof.report()
        assert rep.exec_time_s * 1e9 >= (t_mid - t_start) + 1e6
        assert rep.cps == pytest.approx(
            rep.total_calls / rep.exec_time_s
        )

    def test_start_discards_carry(self, backend):
        prof = Nvprof(backend)
        prof.start()
        backend.launch("k")
        prof.start()  # a fresh window forgets what came before
        backend.launch("k")
        rep = prof.report()
        assert rep.kernel_launches == 1


@pytest.fixture
def tracer(backend):
    t = Tracer()
    t.attach(backend)
    return t


class TestSpliceAwareTimeline:
    def test_empty_timeline_is_well_defined(self, tracer):
        rep = tracer.timeline()
        assert rep == TimelineReport(0.0, 0.0, 0.0, {}, 0, segments=0)
        assert rep.kernel_utilization == 0.0

    def test_single_event_trace(self, backend, tracer):
        backend.launch("k", duration_ns=5_000.0)
        rep = tracer.timeline()
        assert rep.events == 1
        assert rep.segments == 1
        assert rep.span_ns == pytest.approx(5_000.0)
        assert rep.kernel_busy_ns == pytest.approx(5_000.0)

    def test_span_sums_per_segment_not_across_the_cut(self, backend, tracer):
        backend.launch("k", duration_ns=5_000.0)
        backend.device_synchronize()
        tracer.begin_segment("restart", backend.process.clock_ns)
        backend.process.advance(1e9)  # downtime must not inflate span
        backend.launch("k2", duration_ns=7_000.0)
        rep = tracer.timeline()
        assert rep.segments == 2
        assert rep.events == 2
        assert rep.span_ns == pytest.approx(12_000.0)
        assert rep.kernel_busy_ns == pytest.approx(12_000.0)
        naive = 1e9  # the old max(end)-min(start) would exceed this
        assert rep.span_ns < naive

    def test_empty_segments_are_not_counted(self, backend, tracer):
        tracer.begin_segment("restart", backend.process.clock_ns)
        backend.launch("k", duration_ns=5_000.0)
        tracer.begin_segment("restart", backend.process.clock_ns)
        rep = tracer.timeline()
        assert rep.segments == 1
        assert rep.span_ns == pytest.approx(5_000.0)
