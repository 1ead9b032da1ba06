"""Trace/profile continuity across every recovery rung.

The instrument must report one continuous logical window no matter how
the run was healed:

- a plain checkpoint → kill → ``restart_latest`` opens a new splice
  segment but keeps every pre-cut span (and the backend's call counter
  runs on across the cut instead of resetting or under-counting);
- rung 2 (watchdog → stream reset) clamps the in-flight span to the
  reset instant (``aborted:``), drops queued spans, and records the
  fault domain's replays as fresh ``replay:`` spans — same segment, the
  device survived;
- rung 3 (ECC → device reset + restore) goes through restart: the old
  device generation's spans stay in their segment, the tracer follows
  the fresh devices, and the timeline aggregates both segments.
"""

from collections import Counter

import numpy as np

from repro.core.session import CracSession
from repro.cuda.api import FatBinary
from repro.dmtcp.store import CheckpointStore
from repro.harness.fault_injection import FaultInjector, FaultSpec

FB = FatBinary("tracing.fatbin", ("mutate",))
N = 64
NBYTES = 4 * N


def make_traced(injector=None, *, seed=7, store=None, fault_domain=False):
    """Session with a tracer attached and one device buffer."""
    session = CracSession(seed=seed, fault_injector=injector)
    if fault_domain:
        session.enable_fault_domain(store if store is not None else CheckpointStore())
    tracer = session.enable_trace()
    session.backend.register_app_binary(FB)
    ptr = session.backend.malloc(NBYTES)
    x = np.arange(N, dtype=np.float32)
    session.backend.memcpy(ptr, x, NBYTES, "h2d")
    return session, tracer, ptr


def bump(session, ptr, duration_ns=50_000):
    """Launch one kernel that increments the buffer in place."""

    def fn():
        view = session.backend.device_view(ptr, NBYTES, np.float32)
        np.add(view, 1.0, out=view)

    session.backend.launch("mutate", fn, duration_ns=duration_ns)


class TestPlainRestartSplice:
    def _run_across_cut(self):
        session, tracer, ptr = make_traced()
        store = CheckpointStore()
        bump(session, ptr)
        session.backend.device_synchronize()
        session.checkpoint(store=store)
        session.kill()
        session.restart_latest(store)
        bump(session, ptr)
        session.backend.device_synchronize()
        return session, tracer, ptr

    def test_tracer_opens_new_segment_and_keeps_old_spans(self):
        session, tracer, ptr = self._run_across_cut()
        assert tracer.segment == 1
        kernel_segments = sorted(
            {s.segment for s in tracer.spans if s.cat == "kernel"}
        )
        assert kernel_segments == [0, 1]
        restart_spans = [s for s in tracer.spans if s.name == "restart"]
        assert len(restart_spans) == 1
        assert restart_spans[0].segment == 1
        marks = [i for i in tracer.instants if i.name == "segment:restart"]
        assert len(marks) == 1

    def test_logical_timeline_monotone_across_the_cut(self):
        _, tracer, _ = self._run_across_cut()
        pre = [s for s in tracer.spans if s.segment == 0]
        post = [s for s in tracer.spans if s.segment == 1]
        assert pre and post
        assert max(s.end_ns for s in pre) <= min(
            s.start_ns for s in post if s.cat == "api"
        ) + 1  # the restart span itself straddles the cut boundary

    def test_checkpoint_stage_spans_recorded(self):
        _, tracer, _ = self._run_across_cut()
        stages = {s.name for s in tracer.spans if s.cat == "ckpt"}
        assert {"quiesce", "drain", "stage", "save-regions", "write"} <= stages
        commits = [i for i in tracer.instants if i.name == "commit"]
        assert commits

    def test_profiler_window_continuous_and_timeline_spliced(self):
        session, tracer, ptr = make_traced()
        counter_before = Counter(session.backend.call_counter)
        store = CheckpointStore()
        bump(session, ptr)
        session.backend.device_synchronize()
        session.checkpoint(store=store)
        session.kill()
        session.restart_latest(store)
        bump(session, ptr)
        session.backend.device_synchronize()
        # The restart keeps the backend, so its counter runs on across
        # the cut: no entry went backwards, and both launches count.
        delta = Counter(session.backend.call_counter)
        delta.subtract(counter_before)
        assert all(v >= 0 for v in delta.values())
        assert delta["cudaLaunchKernel"] == 2
        timeline = tracer.timeline()
        assert timeline.segments == 2
        # Splice-aware span: per-segment sum, restart downtime excluded.
        assert timeline.span_ns <= session.process.clock_ns
        assert timeline.kernel_busy_ns >= 2 * 50_000.0
        out = np.empty(N, dtype=np.float32)
        session.backend.memcpy(out, ptr, NBYTES, "d2h")
        np.testing.assert_array_equal(
            out, np.arange(N, dtype=np.float32) + 2.0
        )


class TestRung2StreamReset:
    def test_stream_reset_clamps_and_replays_in_same_segment(self):
        inj = FaultInjector([FaultSpec("kernel-hang", at_count=1)], seed=3)
        session, tracer, ptr = make_traced(inj, fault_domain=True)
        counter_before = Counter(session.backend.call_counter)
        # Intended duration > 0 s so the watchdog-bounded reset instant
        # lands strictly inside the inflated span (hang adds 30 s; the
        # watchdog fires ~30 s in — a microsecond kernel would already
        # have "finished" on the virtual timeline by then).
        bump(session, ptr, duration_ns=5_000_000_000)  # poisons the stream
        session.backend.device_synchronize()  # watchdog fires, rung 2
        names = [s.name for s in tracer.spans if s.cat == "kernel"]
        assert "aborted:mutate" in names
        assert "replay:mutate" in names
        assert tracer.segment == 0, "a stream reset is not a restart cut"
        rungs = [s for s in tracer.spans if s.cat == "recovery"]
        assert any(s.name == "stream-reset" for s in rungs)
        # Device survived: the timeline is one segment and the clamped
        # span is in it.
        timeline = tracer.timeline()
        assert timeline.segments == 1
        assert any(k.startswith("aborted:") for k in timeline.kernels)
        # The stream reset leaves the call counter intact: no entry
        # went backwards.
        counter = session.backend.call_counter
        assert all(counter[k] >= v for k, v in counter_before.items())

    def test_aborted_span_clamped_to_reset_instant(self):
        inj = FaultInjector([FaultSpec("kernel-hang", at_count=1)], seed=3)
        session, tracer, ptr = make_traced(inj, fault_domain=True)
        bump(session, ptr, duration_ns=5_000_000_000)
        session.backend.device_synchronize()
        (aborted,) = [s for s in tracer.spans if s.name == "aborted:mutate"]
        assert aborted.end_ns <= session.process.clock_ns
        # Clamped to the watchdog bound (~30 s), not the full inflated
        # completion (5 s intended + 30 s hang).
        assert aborted.duration_ns < 31e9, "not the inflated hang duration"


class TestRung3DeviceReset:
    def test_ecc_restore_splices_trace_and_timeline(self):
        inj = FaultInjector(seed=3)
        store = CheckpointStore()
        session, tracer, ptr = make_traced(
            inj, store=store, fault_domain=True
        )
        bump(session, ptr)
        session.backend.device_synchronize()
        session.fault_domain.checkpoint()
        inj.arm(FaultSpec("ecc", at_count=inj.visits["ecc"] + 1))
        bump(session, ptr)  # ECC → device reset → restore → re-execute
        session.backend.device_synchronize()
        assert session.fault_domain.report.restores == 1
        assert tracer.segment == 1, "restore goes through a restart cut"
        rungs = {s.name for s in tracer.spans if s.cat == "recovery"}
        assert {"restore", "restart"} <= rungs
        timeline = tracer.timeline()
        assert timeline.segments == 2, "old device generation kept"
        assert timeline.events >= 2
        assert session.backend.call_counter["cudaLaunchKernel"] >= 2
        out = np.empty(N, dtype=np.float32)
        session.backend.memcpy(out, ptr, NBYTES, "d2h")
        np.testing.assert_array_equal(
            out, np.arange(N, dtype=np.float32) + 2.0
        )

    def test_tracing_still_live_after_restore(self):
        inj = FaultInjector(seed=3)
        session, tracer, ptr = make_traced(
            inj, store=CheckpointStore(), fault_domain=True
        )
        bump(session, ptr)
        session.backend.device_synchronize()
        session.fault_domain.checkpoint()
        inj.arm(FaultSpec("ecc", at_count=inj.visits["ecc"] + 1))
        bump(session, ptr)
        session.backend.device_synchronize()
        events_before = tracer.timeline().events
        spans_before = len(tracer.spans)
        bump(session, ptr)  # post-recovery work must still be observed
        session.backend.device_synchronize()
        assert tracer.timeline().events > events_before
        assert len(tracer.spans) > spans_before
        new_kernels = [
            s for s in tracer.spans[spans_before:] if s.cat == "kernel"
        ]
        assert new_kernels and all(s.segment == 1 for s in new_kernels)
