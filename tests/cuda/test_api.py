"""Unit tests for the CUDA runtime library stand-in."""

import numpy as np
import pytest

from repro.errors import CudaError
from repro.cuda.api import FatBinary, ManagedUse
from repro.gpu.uvm import UVM_PAGE

from tests.conftest import APP_FATBIN, build_machine


class TestMemoryApi:
    def test_malloc_free_roundtrip(self, backend):
        p = backend.malloc(1024)
        backend.free(p)
        with pytest.raises(CudaError):
            backend.free(p)

    def test_malloc_arena_is_lower_half(self, machine, backend):
        _, loader, _, _ = machine
        p = backend.malloc(1024)
        assert loader.half_of(p) == "lower"

    def test_malloc_host_and_hostalloc_are_distinct_entry_points(self, backend):
        backend.malloc_host(64)
        backend.host_alloc(64)
        assert backend.runtime.api_log["cudaMallocHost"] == 1
        assert backend.runtime.api_log["cudaHostAlloc"] == 1

    def test_free_host(self, backend):
        p = backend.malloc_host(64)
        backend.free_host(p)
        with pytest.raises(CudaError):
            backend.free_host(p)

    def test_free_host_of_device_ptr_rejected(self, backend):
        p = backend.malloc(64)
        with pytest.raises(CudaError):
            backend.free_host(p)

    def test_managed_alloc_and_free(self, backend):
        p = backend.malloc_managed(UVM_PAGE)
        backend.free(p)  # cudaFree handles managed pointers too

    def test_active_allocations_excludes_freed(self, backend):
        p1 = backend.malloc(64)
        p2 = backend.malloc(64)
        backend.free(p1)
        active = backend.runtime.active_allocations()
        assert [b.addr for b in active] == [p2]

    def test_oom(self, machine):
        from repro.cuda.interface import NativeBackend

        proc, loader, device, runtime = machine
        b = NativeBackend(runtime)
        with pytest.raises(CudaError):
            b.malloc(device.spec.memory_bytes + 1)


class TestMemcpy:
    def test_h2d_d2h_roundtrip_with_numpy(self, backend):
        data = np.arange(256, dtype=np.float32)
        p = backend.malloc(data.nbytes)
        backend.memcpy(p, data, data.nbytes, "h2d")
        out = np.zeros_like(data)
        backend.memcpy(out, p, data.nbytes, "d2h")
        np.testing.assert_array_equal(out, data)

    def test_h2d_from_vas_address(self, machine, backend):
        proc, loader, _, _ = machine
        host = loader.mmap_for_half("upper", 4096)
        proc.vas.write(host, b"payload!")
        p = backend.malloc(8)
        backend.memcpy(p, host, 8, "h2d")
        assert backend.device_view(p, 8).tobytes() == b"payload!"

    def test_d2h_to_vas_address(self, machine, backend):
        proc, loader, _, _ = machine
        host = loader.mmap_for_half("upper", 4096)
        p = backend.malloc(8)
        backend.device_view(p, 8)[:] = np.frombuffer(b"devbytes", dtype=np.uint8)
        backend.memcpy(host, p, 8, "d2h")
        assert proc.vas.read(host, 8) == b"devbytes"

    def test_d2d(self, backend):
        a = backend.malloc(16)
        b = backend.malloc(16)
        backend.device_view(a, 16)[:] = 7
        backend.memcpy(b, a, 16, "d2d")
        assert np.all(backend.device_view(b, 16) == 7)

    def test_sync_memcpy_blocks_host(self, machine, backend):
        proc, _, _, _ = machine
        data = np.zeros(1 << 20, dtype=np.uint8)
        p = backend.malloc(data.nbytes)
        before = proc.clock_ns
        backend.memcpy(p, data, data.nbytes, "h2d")
        # 1 MB over 12 GB/s PCIe ≈ 87 µs
        assert proc.clock_ns - before > 50_000

    def test_async_memcpy_does_not_block_host(self, machine, backend):
        proc, _, _, _ = machine
        data = np.zeros(1 << 20, dtype=np.uint8)
        p = backend.malloc(data.nbytes)
        s = backend.stream_create()
        before = proc.clock_ns
        backend.memcpy(p, data, data.nbytes, "h2d", stream=s, async_=True)
        assert proc.clock_ns - before < 10_000  # just dispatch
        backend.stream_synchronize(s)
        assert proc.clock_ns - before > 50_000

    def test_bad_kind_rejected(self, backend):
        p = backend.malloc(8)
        with pytest.raises(CudaError):
            backend.memcpy(p, p, 8, "d2x")

    def test_memset(self, backend):
        p = backend.malloc(64)
        backend.memset(p, 0xAB, 64)
        assert backend.device_view(p, 64).tobytes() == b"\xab" * 64


class TestKernels:
    def test_launch_executes_content(self, backend):
        p = backend.malloc(4 * 16)
        view = backend.device_view(p, 4 * 16, np.float32)

        def k():
            view[:] = 3.0

        backend.launch("k", k, flop=16)
        assert np.all(backend.device_view(p, 4 * 16, np.float32) == 3.0)

    def test_launch_unregistered_kernel_fails(self, backend):
        with pytest.raises(CudaError):
            backend.launch("not_registered")

    def test_launch_is_async(self, machine, backend):
        proc, _, _, _ = machine
        before = proc.clock_ns
        backend.launch("k", flop=1e9)  # ~71 µs of device time on V100
        dispatch_only = proc.clock_ns - before
        assert dispatch_only < 20_000
        backend.device_synchronize()
        assert proc.clock_ns - before > 50_000

    def test_launch_counts_three_calls(self, backend):
        backend.launch("k")
        assert backend.call_counter["cudaLaunchKernel"] == 1
        assert backend.call_counter["cudaPushCallConfiguration"] == 1
        assert backend.call_counter["cudaPopCallConfiguration"] == 1

    def test_kernel_duration_override(self, machine, backend):
        proc, _, device, _ = machine
        end = backend.launch("k", duration_ns=123_456)
        assert end >= 123_456

    def test_managed_kernel_access_migrates(self, backend):
        p = backend.malloc_managed(2 * UVM_PAGE)
        rt = backend.runtime
        buf = rt.buffer(p)
        backend.launch("k", managed=[ManagedUse(p, 0, 2 * UVM_PAGE, "rw")])
        assert np.all(buf.residency == 1)  # device resident now

    def test_managed_writes_recorded(self, backend):
        p = backend.malloc_managed(UVM_PAGE)
        backend.launch("k", managed=[ManagedUse(p, 0, UVM_PAGE, "w")])
        assert len(backend.runtime.buffer(p).device_writes) == 1


class TestStreamsAndEvents:
    def test_stream_lifecycle(self, backend):
        s = backend.stream_create()
        backend.stream_destroy(s)
        with pytest.raises(CudaError):
            backend.stream_destroy(s)

    def test_cannot_destroy_default_stream(self, backend):
        with pytest.raises(CudaError):
            backend.stream_destroy(backend.runtime.default_stream)

    def test_event_elapsed_measures_kernel(self, backend):
        s = backend.stream_create()
        e1 = backend.event_create()
        e2 = backend.event_create()
        backend.event_record(e1, s)
        backend.launch("k", duration_ns=5_000_000, stream=s)
        backend.event_record(e2, s)
        assert backend.event_elapsed_ms(e1, e2) == pytest.approx(5.0, rel=0.01)

    def test_event_synchronize_blocks(self, machine, backend):
        proc, _, _, _ = machine
        s = backend.stream_create()
        e = backend.event_create()
        backend.launch("k", duration_ns=1_000_000, stream=s)
        backend.event_record(e, s)
        backend.event_synchronize(e)
        assert proc.clock_ns >= 1_000_000


class TestFatBinaries:
    def test_register_unregister(self, machine):
        from repro.cuda.interface import NativeBackend

        _, _, _, runtime = machine
        b = NativeBackend(runtime)
        fb = FatBinary("x.fatbin", ("kx",))
        h = b.register_fatbin(fb)
        b.register_function(h, "kx")
        b.launch("kx")
        b.unregister_fatbin(h)
        with pytest.raises(CudaError):
            b.launch("kx")

    def test_register_function_unknown_kernel_rejected(self, backend):
        h = backend.register_fatbin(FatBinary("y.fatbin", ("ka",)))
        with pytest.raises(CudaError):
            backend.register_function(h, "kb")

    def test_handles_are_deterministic(self):
        handles = []
        for _ in range(2):
            _, _, _, runtime = build_machine()
            h1 = runtime.cudaRegisterFatBinary(FatBinary("a", ("k1",)))
            h2 = runtime.cudaRegisterFatBinary(FatBinary("b", ("k2",)))
            handles.append((h1, h2))
        assert handles[0] == handles[1]


class TestLibraryIntegrity:
    def test_destroyed_library_rejects_calls(self, backend):
        backend.runtime.destroy()
        with pytest.raises(CudaError):
            backend.malloc(8)

    def test_restore_without_uvm_is_consistent(self):
        """Pre-CUDA-4.0 behaviour: destroy+restore works if no UVA/UVM."""
        _, _, _, rt1 = build_machine()
        rt1.cudaMalloc(64)
        snap = rt1.library_memory_snapshot()
        rt1.destroy()
        _, _, _, rt2 = build_machine()
        rt2.restore_library_memory(snap)
        rt2.cudaMalloc(64)  # works: epochs still agree (both zero)

    def test_restore_with_uvm_is_inconsistent(self):
        """§2.2: once UVA/UVM existed, restored library state cannot be
        reconciled with a fresh driver context."""
        _, _, _, rt1 = build_machine()
        rt1.cudaMallocManaged(UVM_PAGE)
        snap = rt1.library_memory_snapshot()
        rt1.destroy()
        _, _, _, rt2 = build_machine()
        rt2.restore_library_memory(snap)
        with pytest.raises(CudaError, match="INCONSISTENT"):
            rt2.cudaMalloc(64)


class TestAllocatorDeterminismAcrossInstances:
    def test_replaying_sequence_on_fresh_runtime_reproduces_addresses(self):
        """The foundation of CRAC's log-and-replay (§3.2.4)."""

        def run(seed):
            _, _, _, rt = build_machine(seed=seed)
            addrs = [rt.cudaMalloc(n) for n in (100, 4096, 1 << 20)]
            rt.cudaFree(addrs[1])
            addrs.append(rt.cudaMallocManaged(1 << 16))
            addrs.append(rt.cudaMallocHost(512))
            return addrs

        assert run(11) == run(11)

    def test_aslr_breaks_replay_determinism(self):
        """With ASLR on, the arenas land elsewhere — replay diverges."""

        def run(seed, aslr):
            _, _, _, rt = build_machine(seed=seed, aslr=aslr)
            return [rt.cudaMalloc(n) for n in (100, 4096)]

        assert run(1, True) != run(2, True)
        assert run(1, False) == run(2, False)
