"""Tests for CRUM's checkpoint/restart path and the CRAC comparison."""

import numpy as np
import pytest

from repro.core import CracSession
from repro.core.halves import SplitProcess
from repro.cuda.api import FatBinary
from repro.proxy.crum import CrumBackend, CrumCheckpointer

FB = FatBinary("ck.fatbin", ("k",))


def make_crum(seed=81):
    split = SplitProcess(seed=seed)
    backend = CrumBackend(split.runtime)
    backend.register_app_binary(FB)
    return split, backend


class TestCrumCheckpoint:
    def test_checkpoint_restart_restores_device_state(self):
        split, backend = make_crum()
        che = CrumCheckpointer(backend)
        p = backend.malloc(256)
        backend.device_view(p, 8)[:] = np.frombuffer(b"crumdata", np.uint8)
        image = che.checkpoint()

        fresh = SplitProcess(seed=81)
        che.restart(image, fresh.runtime)
        assert backend.device_view(p, 8).tobytes() == b"crumdata"

    def test_checkpoint_drains_through_cma(self):
        """CRUM's drain crosses the proxy boundary: checkpoint time grows
        with device bytes at CMA (not just PCIe) rates."""
        split, backend = make_crum()
        che = CrumCheckpointer(backend)
        backend.malloc(100 << 20)  # 100 MB device buffer
        before = backend.channel.total_bytes
        che.checkpoint()
        assert backend.channel.total_bytes - before >= 100 << 20

    def test_restart_spawns_fresh_proxy(self):
        split, backend = make_crum(seed=83)
        che = CrumCheckpointer(backend)
        backend.malloc(64)
        image = che.checkpoint()
        fresh = SplitProcess(seed=83)
        cost = che.restart(image, fresh.runtime)
        assert cost >= CrumCheckpointer.PROXY_SPAWN_NS

    def test_resource_log_replayed(self):
        split, backend = make_crum(seed=84)
        che = CrumCheckpointer(backend)
        ptrs = [backend.malloc(4096) for _ in range(5)]
        backend.free(ptrs[2])
        image = che.checkpoint()
        fresh = SplitProcess(seed=84)
        che.restart(image, fresh.runtime)
        for i, p in enumerate(ptrs):
            assert (p in fresh.runtime.allocations) == (i != 2)

    def test_host_alloc_freed_before_a_malloc_restarts(self):
        """A ``cudaHostAlloc`` buffer is logged as well as its free, so
        replay skips the pair and the next malloc lands where it did."""
        split, backend = make_crum(seed=85)
        che = CrumCheckpointer(backend)
        pinned = backend.host_alloc(4096)
        backend.free_host(pinned)
        p = backend.malloc(4096)
        backend.device_view(p, 4)[:] = np.frombuffer(b"crum", np.uint8)
        image = che.checkpoint()
        fresh = SplitProcess(seed=85)
        che.restart(image, fresh.runtime)
        assert list(fresh.runtime.allocations) == [p]
        assert backend.device_view(p, 4).tobytes() == b"crum"
        ops = [e.op for e in backend.resource_log.entries]
        assert ops == ["host_alloc", "free_host", "malloc"]


class TestCracVsCrumCheckpointCosts:
    def test_crac_drains_cheaper_than_crum(self):
        """The structural claim: CRAC's single-address-space drain pays
        PCIe once; CRUM's pays PCIe *plus* a CMA crossing. (Both then pay
        the same host-image write, which this comparison excludes.)"""
        device_mb = 200
        from repro.gpu.timing import GPU_SPECS

        crac_drain_ns = (device_mb << 20) / GPU_SPECS["V100"].pcie_bw * 1e9

        split, backend = make_crum(seed=86)
        che = CrumCheckpointer(backend)
        backend.malloc(device_mb << 20)
        t0 = split.process.clock_ns
        che.checkpoint()
        crum_drain_ns = split.process.clock_ns - t0

        assert crum_drain_ns > 2 * crac_drain_ns

    def test_crum_restart_pays_proxy_spawn_crac_does_not(self):
        session = CracSession(seed=87)
        session.backend.register_app_binary(FB)
        session.backend.malloc(1024)
        image = session.checkpoint()
        session.kill()
        report = session.restart(image)

        split, backend = make_crum(seed=88)
        che = CrumCheckpointer(backend)
        backend.malloc(1024)
        crum_image = che.checkpoint()
        fresh = SplitProcess(seed=88)
        crum_cost = che.restart(crum_image, fresh.runtime)

        assert crum_cost > report.restart_time_ns
