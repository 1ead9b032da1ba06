"""Tests for the extended CUDA API surface (queries, prefetch, info)."""

import numpy as np
import pytest

from repro.errors import CudaError
from repro.cuda.api import ManagedUse
from repro.gpu.uvm import UVM_PAGE, PageLocation


class TestMemGetInfo:
    def test_free_decreases_with_allocations(self, backend):
        free0, total = backend.mem_get_info()
        assert free0 == total
        backend.malloc(1 << 20)
        free1, _ = backend.mem_get_info()
        assert free0 - free1 >= 1 << 20

    def test_free_recovers_after_free(self, backend):
        p = backend.malloc(1 << 20)
        backend.free(p)
        free, total = backend.mem_get_info()
        assert free == total


class TestPointerAttributes:
    def test_device_pointer(self, backend):
        p = backend.malloc(4096)
        attrs = backend.pointer_get_attributes(p + 100)  # interior pointer
        assert attrs["type"] == "device"
        assert attrs["devicePointer"] == p
        assert attrs["size"] == 4096

    def test_managed_pointer(self, backend):
        p = backend.malloc_managed(UVM_PAGE)
        assert backend.pointer_get_attributes(p)["type"] == "managed"

    def test_pinned_pointer(self, backend):
        p = backend.malloc_host(512)
        assert backend.pointer_get_attributes(p)["type"] == "host-pinned"

    def test_unregistered_pointer(self, backend):
        assert backend.pointer_get_attributes(0xDEAD)["type"] == "unregistered"


class TestQueries:
    def test_stream_query_false_while_busy(self, machine, backend):
        s = backend.stream_create()
        backend.launch("k", duration_ns=10_000_000, stream=s)
        assert not backend.stream_query(s)
        backend.stream_synchronize(s)
        assert backend.stream_query(s)

    def test_event_query(self, backend):
        s = backend.stream_create()
        e = backend.event_create()
        assert not backend.event_query(e)  # never recorded
        backend.launch("k", duration_ns=5_000_000, stream=s)
        backend.event_record(e, s)
        assert not backend.event_query(e)  # still in flight
        backend.event_synchronize(e)
        assert backend.event_query(e)


class TestPrefetch:
    def test_prefetch_moves_residency_to_device(self, backend):
        p = backend.malloc_managed(4 * UVM_PAGE)
        backend.mem_prefetch(p, 4 * UVM_PAGE, to_device=True)
        buf = backend.runtime.buffer(p)
        assert np.all(buf.residency == int(PageLocation.DEVICE))

    def test_prefetch_back_to_host(self, backend):
        p = backend.malloc_managed(2 * UVM_PAGE)
        backend.mem_prefetch(p, 2 * UVM_PAGE, to_device=True)
        backend.mem_prefetch(p, 2 * UVM_PAGE, to_device=False)
        buf = backend.runtime.buffer(p)
        assert np.all(buf.residency == int(PageLocation.HOST))

    def test_prefetch_avoids_kernel_fault_stall(self, machine, backend):
        """A prefetched kernel launch runs faster than a faulting one
        (the whole point of cudaMemPrefetchAsync)."""
        proc, _, device, _ = machine
        n = 64 * UVM_PAGE

        def kernel_time(prefetch):
            p = backend.malloc_managed(n)
            if prefetch:
                backend.mem_prefetch(p, n, to_device=True)
                backend.device_synchronize()
            t0 = proc.clock_ns
            backend.launch("k", managed=[ManagedUse(p, 0, n, "r")],
                           duration_ns=1000)
            backend.device_synchronize()
            elapsed = proc.clock_ns - t0
            backend.free(p)
            return elapsed

        assert kernel_time(prefetch=True) < kernel_time(prefetch=False) / 2

    def test_prefetch_of_device_pointer_rejected(self, backend):
        p = backend.malloc(4096)
        with pytest.raises(CudaError):
            backend.mem_prefetch(p, 4096)

    def test_prefetch_is_idempotent(self, backend):
        p = backend.malloc_managed(UVM_PAGE)
        backend.mem_prefetch(p, UVM_PAGE, to_device=True)
        faults_before = backend.runtime.uvm.fault_count
        backend.mem_prefetch(p, UVM_PAGE, to_device=True)
        assert backend.runtime.uvm.fault_count == faults_before
