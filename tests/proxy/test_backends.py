"""Tests for the proxy baselines: cost structure and failure modes."""

import numpy as np
import pytest

from repro.errors import CudaError, UnsupportedFeatureError
from repro.cuda.api import FatBinary, ManagedUse
from repro.cuda.cublas import CuBlas
from repro.cuda.interface import NativeBackend
from repro.gpu.uvm import UVM_PAGE
from repro.proxy import CheCudaCheckpointer, CrcudaBackend, CrumBackend, NaiveProxyBackend

from tests.conftest import APP_FATBIN, build_machine


def make(backend_cls, **kw):
    machine = build_machine(**kw)
    backend = backend_cls(machine[3])
    backend.register_app_binary(APP_FATBIN)
    return machine, backend


class TestNaiveProxyCosts:
    def test_proxy_call_much_slower_than_native(self):
        """Per-call dispatch (a cheap non-blocking call): the proxy RPC
        dwarfs the native library call."""
        (proc_p, *_), proxy = make(NaiveProxyBackend)
        (proc_n, *_), native = make(NativeBackend)
        t0 = proc_p.clock_ns
        p = proxy.malloc(64)
        proxy_cost = proc_p.clock_ns - t0
        t0 = proc_n.clock_ns
        native.malloc(64)
        native_cost = proc_n.clock_ns - t0
        assert proxy_cost > 3 * native_cost

    def test_cublas_ships_operand_buffers(self):
        (proc, *_), proxy = make(NaiveProxyBackend)
        blas = CuBlas(proxy)
        n = (1 << 20) // 4  # 1 MB vectors
        px = proxy.malloc(4 * n)
        py = proxy.malloc(4 * n)
        t0 = proc.clock_ns
        blas.sdot(px, py, n)
        cost = proc.clock_ns - t0
        # 2 × 1 MB through CMA at ~11 GB/s ≈ 180 µs dominates.
        assert cost > 150_000

    def test_kernel_launch_with_managed_ships_buffer(self):
        (proc, *_), proxy = make(NaiveProxyBackend)
        p = proxy.malloc_managed(1 << 20)
        t0 = proc.clock_ns
        proxy.launch("k", managed=[ManagedUse(p, 0, 1 << 20, "rw")])
        # in + out shipping of 1 MB each way
        assert proc.clock_ns - t0 > 150_000

    def test_channel_accounting(self):
        machine, proxy = make(NaiveProxyBackend)
        proxy.malloc(64)
        assert proxy.channel.total_rpcs >= 1


class TestCrumCosts:
    def test_crum_cheaper_than_naive_proxy_but_more_than_native(self):
        costs = {}
        for name, cls in (
            ("native", NativeBackend),
            ("crum", CrumBackend),
            ("naive", NaiveProxyBackend),
        ):
            (proc, *_), b = make(cls)
            blas = CuBlas(b)
            n = (1 << 20) // 4
            px, py = b.malloc(4 * n), b.malloc(4 * n)
            t0 = proc.clock_ns
            blas.sdot(px, py, n)
            costs[name] = proc.clock_ns - t0
        assert costs["native"] < costs["crum"] < costs["naive"]

    def test_shadow_sync_charged_per_managed_launch(self):
        (proc, *_), crum = make(CrumBackend)
        p = crum.malloc_managed(4 * UVM_PAGE)
        before = crum.shadow_pages_synced
        crum.launch("k", managed=[ManagedUse(p, 0, 4 * UVM_PAGE, "rw")])
        assert crum.shadow_pages_synced - before == 4


class TestCrumFailureModes:
    def test_two_streams_writing_same_page_rejected(self):
        _, crum = make(CrumBackend)
        p = crum.malloc_managed(UVM_PAGE)
        s1 = crum.stream_create()
        s2 = crum.stream_create()
        crum.launch(
            "k", duration_ns=1_000_000, stream=s1,
            managed=[ManagedUse(p, 0, UVM_PAGE, "w")],
        )
        with pytest.raises(UnsupportedFeatureError, match="concurrent"):
            crum.launch(
                "k", duration_ns=1_000_000, stream=s2,
                managed=[ManagedUse(p, 0, UVM_PAGE, "w")],
            )

    def test_disjoint_pages_on_two_streams_allowed(self):
        _, crum = make(CrumBackend)
        p = crum.malloc_managed(4 * UVM_PAGE)
        s1, s2 = crum.stream_create(), crum.stream_create()
        crum.launch(
            "k", duration_ns=1_000_000, stream=s1,
            managed=[ManagedUse(p, 0, UVM_PAGE, "w")],
        )
        crum.launch(  # different pages: fine
            "k", duration_ns=1_000_000, stream=s2,
            managed=[ManagedUse(p, 2 * UVM_PAGE, UVM_PAGE, "w")],
        )

    def test_host_access_during_inflight_kernel_write_rejected(self):
        """The read-modify-write restriction (§2.3)."""
        _, crum = make(CrumBackend)
        p = crum.malloc_managed(UVM_PAGE)
        s = crum.stream_create()
        crum.launch(
            "k", duration_ns=10_000_000, stream=s,
            managed=[ManagedUse(p, 0, UVM_PAGE, "w")],
        )
        with pytest.raises(UnsupportedFeatureError, match="read-modify-write"):
            crum.managed_view(p, 64)

    def test_host_access_after_synchronize_allowed(self):
        _, crum = make(CrumBackend)
        p = crum.malloc_managed(UVM_PAGE)
        crum.launch("k", managed=[ManagedUse(p, 0, UVM_PAGE, "w")])
        crum.device_synchronize()
        crum.managed_view(p, 64)  # the supported pattern

    def test_crac_handles_the_pattern_crum_rejects(self):
        """Contribution 2: CRAC supports what CRUM cannot."""
        from repro.core import CracSession

        session = CracSession(seed=13)
        b = session.backend
        b.register_app_binary(APP_FATBIN)
        p = b.malloc_managed(UVM_PAGE)
        s1, s2 = b.stream_create(), b.stream_create()
        b.launch("k", duration_ns=1_000_000, stream=s1,
                 managed=[ManagedUse(p, 0, UVM_PAGE, "w")])
        b.launch("k", duration_ns=1_000_000, stream=s2,
                 managed=[ManagedUse(p, 0, UVM_PAGE, "w")])  # no error
        image = session.checkpoint()
        session.kill()
        session.restart(image)  # and it checkpoints/restarts fine


class TestCrcuda:
    def test_no_managed_memory(self):
        _, crcuda = make(CrcudaBackend)
        with pytest.raises(UnsupportedFeatureError, match="UVA/UVM"):
            crcuda.malloc_managed(UVM_PAGE)

    def test_device_memory_still_works(self):
        _, crcuda = make(CrcudaBackend)
        p = crcuda.malloc(1024)
        crcuda.free(p)


class TestCheCuda:
    def test_pre_uva_checkpoint_restart_works(self):
        """CheCUDA's world before CUDA 4.0: no UVA, restore succeeds."""
        (proc, loader, device, rt), backend = make(NativeBackend)
        che = CheCudaCheckpointer(rt)
        p = backend.malloc(256)
        che.note_alloc("device", 256, p)
        backend.device_view(p, 4)[:] = np.frombuffer(b"data", np.uint8)
        image = che.checkpoint()

        fresh = build_machine()[3]
        che.restart(image, fresh)
        got = fresh.cudaMalloc(64)  # library is consistent: calls work
        assert got in fresh.allocations
        # Content of the replayed buffer was restored.
        assert fresh.device_view(p, 4).tobytes() == b"data"

    def test_uvm_breaks_checuda(self):
        """The §2.2 failure: UVA/UVM state cannot be destroyed/restored."""
        (proc, loader, device, rt), backend = make(NativeBackend)
        che = CheCudaCheckpointer(rt)
        p = backend.malloc_managed(UVM_PAGE)
        che.note_alloc("managed", UVM_PAGE, p)
        image = che.checkpoint()
        fresh = build_machine()[3]
        with pytest.raises(CudaError, match="INCONSISTENT"):
            che.restart(image, fresh)

    def test_destroyed_runtime_unusable_after_checkpoint(self):
        (_, _, _, rt), backend = make(NativeBackend)
        che = CheCudaCheckpointer(rt)
        che.checkpoint()
        with pytest.raises(CudaError):
            backend.malloc(64)
