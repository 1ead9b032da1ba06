"""Racecheck: cross-stream hazards found, synchronized patterns not."""

import numpy as np
import pytest

from repro.cuda.api import ManagedUse
from repro.sanitizer.planted import _machine


@pytest.fixture
def machine():
    return _machine()


def kinds(san):
    return {(h.checker, h.kind) for h in san.hazards}


class TestRaces:
    def test_cross_stream_ww_copy_flagged(self, machine):
        rt, san = machine
        s1, s2 = rt.cudaStreamCreate(), rt.cudaStreamCreate()
        dst = rt.cudaMalloc(4096)
        data = np.zeros(4096, dtype=np.uint8)
        rt.cudaMemcpy(dst, data, 4096, kind="h2d", stream=s1, async_=True)
        rt.cudaMemcpy(dst, data, 4096, kind="h2d", stream=s2, async_=True)
        assert ("racecheck", "write-write") in kinds(san)
        (h,) = [x for x in san.hazards if x.checker == "racecheck"]
        assert set(h.stream_sids) == {s1.sid, s2.sid}
        assert "cudaEventRecord" in h.missing_edge
        assert "cudaStreamWaitEvent" in h.missing_edge

    def test_disjoint_ranges_not_flagged(self, machine):
        rt, san = machine
        s1, s2 = rt.cudaStreamCreate(), rt.cudaStreamCreate()
        dst = rt.cudaMalloc(8192)
        data = np.zeros(4096, dtype=np.uint8)
        rt.cudaMemcpy(dst, data, 4096, kind="h2d", stream=s1, async_=True)
        rt.cudaMemcpy(dst, data, 4096, kind="h2d", stream=s2, async_=True,
                      dst_offset=4096)
        assert not san.hazards

    def test_same_stream_not_flagged(self, machine):
        rt, san = machine
        s1 = rt.cudaStreamCreate()
        dst = rt.cudaMalloc(4096)
        data = np.zeros(4096, dtype=np.uint8)
        rt.cudaMemcpy(dst, data, 4096, kind="h2d", stream=s1, async_=True)
        rt.cudaMemcpy(dst, data, 4096, kind="h2d", stream=s1, async_=True)
        assert not san.hazards

    def test_event_edge_suppresses_race(self, machine):
        rt, san = machine
        s1, s2 = rt.cudaStreamCreate(), rt.cudaStreamCreate()
        dst = rt.cudaMalloc(4096)
        data = np.zeros(4096, dtype=np.uint8)
        rt.cudaMemcpy(dst, data, 4096, kind="h2d", stream=s1, async_=True)
        e = rt.cudaEventCreate()
        rt.cudaEventRecord(e, s1)
        rt.cudaStreamWaitEvent(s2, e)
        rt.cudaMemcpy(dst, data, 4096, kind="h2d", stream=s2, async_=True)
        assert not san.hazards

    def test_stream_sync_suppresses_race(self, machine):
        rt, san = machine
        s1, s2 = rt.cudaStreamCreate(), rt.cudaStreamCreate()
        dst = rt.cudaMalloc(4096)
        data = np.zeros(4096, dtype=np.uint8)
        rt.cudaMemcpy(dst, data, 4096, kind="h2d", stream=s1, async_=True)
        rt.cudaStreamSynchronize(s1)
        rt.cudaMemcpy(dst, data, 4096, kind="h2d", stream=s2, async_=True)
        assert not san.hazards

    def test_default_stream_barrier_suppresses_race(self, machine):
        """Legacy stream-0 ops serialize with everything — both ways."""
        rt, san = machine
        s1, s2 = rt.cudaStreamCreate(), rt.cudaStreamCreate()
        dst = rt.cudaMalloc(4096)
        data = np.zeros(4096, dtype=np.uint8)
        rt.cudaMemcpy(dst, data, 4096, kind="h2d", stream=s1, async_=True)
        rt.cudaMemcpy(dst, data, 4096, kind="h2d", async_=True)  # stream 0
        rt.cudaMemcpy(dst, data, 4096, kind="h2d", stream=s2, async_=True)
        assert not san.hazards

    def test_kernel_read_vs_copy_write_flagged(self, machine):
        rt, san = machine
        s1, s2 = rt.cudaStreamCreate(), rt.cudaStreamCreate()
        m = rt.cudaMallocManaged(65536)
        rt.cudaLaunchKernel(
            "k", stream=s1, duration_ns=1_000_000,
            managed=[ManagedUse(m, 0, 128, mode="w")],
        )
        rt.cudaLaunchKernel(
            "k2", stream=s2, duration_ns=1_000_000,
            managed=[ManagedUse(m, 256, 128, mode="r")],
        )
        assert ("racecheck", "read-write") in kinds(san)

    def test_uvm_page_granularity(self, machine):
        """Disjoint byte ranges on one UVM page still race (the CRUM
        shadow-page failure); disjoint pages do not."""
        rt, san = machine
        s1, s2 = rt.cudaStreamCreate(), rt.cudaStreamCreate()
        m = rt.cudaMallocManaged(2 * 65536)
        rt.cudaLaunchKernel(
            "k", stream=s1, duration_ns=1_000_000,
            managed=[ManagedUse(m, 0, 64, mode="w")],
        )
        rt.cudaLaunchKernel(
            "k2", stream=s2, duration_ns=1_000_000,
            managed=[ManagedUse(m, 65536, 64, mode="w")],  # other page
        )
        assert not san.hazards
        rt.cudaLaunchKernel(
            "k2", stream=s2, duration_ns=1_000_000,
            managed=[ManagedUse(m, 4096, 64, mode="w")],  # same page as k
        )
        assert ("racecheck", "write-write") in kinds(san)

    def test_hazards_deduplicated(self, machine):
        rt, san = machine
        s1, s2 = rt.cudaStreamCreate(), rt.cudaStreamCreate()
        dst = rt.cudaMalloc(4096)
        data = np.zeros(4096, dtype=np.uint8)
        for _ in range(3):
            rt.cudaMemcpy(dst, data, 4096, kind="h2d", stream=s1,
                          async_=True)
            rt.cudaMemcpy(dst, data, 4096, kind="h2d", stream=s2,
                          async_=True)
        races = [h for h in san.hazards if h.checker == "racecheck"]
        # Many racing pairs collapse to one report per ordered stream
        # pair — not one per conflicting op pair.
        assert len(races) == 2


class TestRestartContinuity:
    def test_clocks_survive_session_restart(self):
        """A race spanning a checkpoint/restart boundary is still a race:
        the sanitizer's logical timeline continues across the restart."""
        from repro.core.session import CracSession
        from repro.cuda.api import FatBinary
        from repro.sanitizer import Sanitizer

        session = CracSession()
        san = session.enable_sanitizer(Sanitizer())
        backend = session.backend
        backend.register_app_binary(FatBinary("san.fatbin", ("k",)))
        p = backend.malloc(4096)
        backend.memset(p, 0, 4096)
        backend.device_synchronize()
        image = session.checkpoint()
        session.kill()
        session.restart(image)
        rt2 = session.split.runtime
        assert rt2.sanitizer is san
        # New work on the restarted runtime keeps feeding the same report.
        before = san.report.ops_instrumented
        backend.device_synchronize()
        assert san.report.ops_instrumented > before
