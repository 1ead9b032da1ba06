"""Multi-GPU support: the paper's nodes carry four V100s (§4.1)."""

import numpy as np
import pytest

from repro.errors import CudaError
from repro.core import CracSession
from repro.core.halves import SplitProcess
from repro.cuda.api import FatBinary
from repro.cuda.interface import NativeBackend
from repro.trace import Tracer

FB = FatBinary("mg.fatbin", ("k",))


def make_backend(n_gpus=4):
    split = SplitProcess(seed=61, n_gpus=n_gpus)
    backend = NativeBackend(split.runtime)
    backend.register_app_binary(FB)
    return split, backend


class TestDeviceSelection:
    def test_device_count(self):
        _, b = make_backend(4)
        assert b.get_device_count() == 4

    def test_set_get_device(self):
        _, b = make_backend(4)
        assert b.get_device() == 0
        b.set_device(2)
        assert b.get_device() == 2

    def test_set_device_out_of_range(self):
        _, b = make_backend(2)
        with pytest.raises(CudaError):
            b.set_device(2)

    def test_single_gpu_default(self):
        split = SplitProcess(seed=62)
        assert len(split.runtime.devices) == 1


class TestPerDeviceMemory:
    def test_allocations_tagged_with_device(self):
        _, b = make_backend(2)
        p0 = b.malloc(1024)
        b.set_device(1)
        p1 = b.malloc(1024)
        assert b.runtime.buffers[p0].device_index == 0
        assert b.runtime.buffers[p1].device_index == 1

    def test_per_device_capacity(self):
        """Each GPU has its own 32 GB — allocating 20 GB on each works,
        while 40 GB on one device would not."""
        _, b = make_backend(2)
        b.malloc(20 << 30)
        b.set_device(1)
        b.malloc(20 << 30)  # fine: a different GPU's memory
        with pytest.raises(CudaError):
            b.malloc(20 << 30)  # device 1 is now over capacity

    def test_free_works_from_any_current_device(self):
        _, b = make_backend(2)
        p0 = b.malloc(1024)
        b.set_device(1)
        b.free(p0)  # UVA: frees route to the owning device

    def test_mem_get_info_is_per_device(self):
        _, b = make_backend(2)
        b.malloc(1 << 30)
        free0, total = b.mem_get_info()
        b.set_device(1)
        free1, _ = b.mem_get_info()
        assert free1 == total
        assert free0 < free1


class TestPerDeviceExecution:
    def test_kernels_on_different_gpus_overlap(self):
        split, b = make_backend(2)
        b.set_device(0)
        s0 = b.stream_create()
        b.set_device(1)
        s1 = b.stream_create()
        e0 = b.launch("k", duration_ns=1_000_000, stream=s0)
        e1 = b.launch("k", duration_ns=1_000_000, stream=s1)
        # Full overlap: separate devices, separate compute resources.
        assert abs(e0 - e1) < 50_000

    def test_copies_on_different_gpus_use_separate_engines(self):
        split, b = make_backend(2)
        data = np.zeros(12 << 20, dtype=np.uint8)  # ~1 ms over PCIe
        p0 = b.malloc(data.nbytes)
        b.set_device(1)
        p1 = b.malloc(data.nbytes)
        s1 = b.stream_create()
        b.set_device(0)
        s0 = b.stream_create()
        b.memcpy(p0, data, data.nbytes, "h2d", stream=s0, async_=True)
        b.memcpy(p1, data, data.nbytes, "h2d", stream=s1, async_=True)
        t0 = s0.ready_ns
        t1 = s1.ready_ns
        assert abs(t0 - t1) < 100_000  # parallel PCIe transfers

    def test_default_stream_launch_on_secondary_device_rejected(self):
        _, b = make_backend(2)
        b.set_device(1)
        with pytest.raises(CudaError, match="default-stream"):
            b.launch("k")

    def test_device_synchronize_covers_current_device(self):
        split, b = make_backend(2)
        b.set_device(1)
        s1 = b.stream_create()
        b.launch("k", duration_ns=5_000_000, stream=s1)
        b.device_synchronize()  # current device = 1
        assert split.process.clock_ns >= 5_000_000



class TestMultiGpuTimeline:
    def test_one_timeline_covers_every_device(self):
        split, b = make_backend(4)
        tracer = Tracer()
        tracer.attach(b)
        sids = []
        for dev in (0, 2):
            b.set_device(dev)
            s = b.stream_create()
            b.launch("k", duration_ns=10_000.0 * (dev + 1), stream=s)
            sids.append(s.sid)
        rep = tracer.timeline()
        assert rep.kernels["k"].count == 2
        assert rep.kernel_busy_ns == pytest.approx(40_000.0)
        assert rep.events == 2 and rep.segments == 1
        kernels = [s for s in tracer.spans if s.cat == "kernel"]
        assert [s.stream_sid for s in kernels] == sids
        # The two devices run concurrently: one span, not a sum.
        assert rep.span_ns < rep.kernel_busy_ns

class TestPeerCopy:
    def test_memcpy_peer_moves_content(self):
        _, b = make_backend(2)
        p0 = b.malloc(64)
        b.device_view(p0, 8)[:] = np.frombuffer(b"gpu0data", np.uint8)
        b.set_device(1)
        p1 = b.malloc(64)
        b.memcpy_peer(p1, p0, 64)
        assert b.device_view(p1, 8).tobytes() == b"gpu0data"

    def test_peer_copy_costs_transfer_time(self):
        split, b = make_backend(2)
        p0 = b.malloc(12 << 20)
        b.set_device(1)
        p1 = b.malloc(12 << 20)
        t0 = split.process.clock_ns
        b.memcpy_peer(p1, p0, 12 << 20)
        assert split.process.clock_ns - t0 > 500_000


class TestMultiGpuCrac:
    def test_checkpoint_restart_multi_gpu(self):
        """CRAC restores allocations to the right GPU at restart."""
        session = CracSession(seed=63, n_gpus=2)
        b = session.backend
        b.register_app_binary(FB)
        p0 = b.malloc(256)
        b.device_view(p0, 4)[:] = np.frombuffer(b"dev0", np.uint8)
        b.set_device(1)
        p1 = b.malloc(256)
        b.device_view(p1, 4)[:] = np.frombuffer(b"dev1", np.uint8)
        s1 = b.stream_create()
        b.set_device(0)

        image = session.checkpoint()
        session.kill()
        session.restart(image)

        b = session.backend
        assert b.runtime.buffers[p0].device_index == 0
        assert b.runtime.buffers[p1].device_index == 1
        assert b.device_view(p0, 4).tobytes() == b"dev0"
        assert b.device_view(p1, 4).tobytes() == b"dev1"
        assert s1.sid in b.runtime.streams
        assert b.runtime.current_device == 0  # cudaSetDevice state kept

    def test_replay_reproduces_cross_device_addresses(self):
        session = CracSession(seed=64, n_gpus=3)
        b = session.backend
        b.register_app_binary(FB)
        addrs = []
        for dev in (0, 2, 1, 0, 2):
            b.set_device(dev)
            addrs.append(b.malloc(4096))
        image = session.checkpoint()
        session.kill()
        session.restart(image)
        for a in addrs:
            assert a in session.runtime.buffers

    def test_current_device_restored_after_restart(self):
        session = CracSession(seed=65, n_gpus=2)
        b = session.backend
        b.register_app_binary(FB)
        b.malloc(64)
        b.set_device(1)
        b.malloc(64)
        image = session.checkpoint()  # app was on device 1
        session.kill()
        session.restart(image)
        assert session.runtime.current_device == 1
