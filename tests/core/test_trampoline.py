"""Tests for the CRAC trampoline backend: costs, logging, virtualization."""

import pytest

from repro.core import CracBackend, SplitProcess
from repro.cuda.api import FatBinary
from repro.cuda.interface import NativeBackend
from repro.errors import CudaError
from repro.gpu.timing import DEFAULT_HOST_COSTS
from repro.linux.process import SYSCALL_NS, WRFSBASE_NS

FB = FatBinary("app.fatbin", ("k",))


def make_backend(fsgsbase=False, seed=2):
    split = SplitProcess(seed=seed, fsgsbase=fsgsbase)
    backend = CracBackend(split.runtime)
    backend.register_app_binary(FB)
    return split, backend


class TestTrampolineCost:
    def test_each_call_does_two_fs_switches(self):
        split, backend = make_backend()
        before = split.process.fs_switch_count
        backend.malloc(64)
        assert split.process.fs_switch_count - before == 2

    def test_crac_call_costs_more_than_native(self):
        split_c, crac = make_backend()
        split_n = SplitProcess(seed=2)
        native = NativeBackend(split_n.runtime)
        t0 = split_c.process.clock_ns
        crac.malloc(64)
        crac_cost = split_c.process.clock_ns - t0
        t0 = split_n.process.clock_ns
        native.malloc(64)
        native_cost = split_n.process.clock_ns - t0
        assert crac_cost > native_cost

    def test_overhead_is_small_fraction_of_dispatch(self):
        """CRAC's per-call overhead must support ~1% app-level overhead:
        two fs switches + body ≪ typical inter-call gap (~10 µs)."""
        costs = DEFAULT_HOST_COSTS
        per_call_extra = 2 * SYSCALL_NS + costs.trampoline_body_ns
        assert per_call_extra < 1_000  # < 1 µs

    def test_fsgsbase_reduces_cost(self):
        split_u, crac_u = make_backend(fsgsbase=False)
        split_f, crac_f = make_backend(fsgsbase=True)
        t0 = split_u.process.clock_ns
        for _ in range(100):
            crac_u.device_synchronize()
        cost_u = split_u.process.clock_ns - t0
        t0 = split_f.process.clock_ns
        for _ in range(100):
            crac_f.device_synchronize()
        cost_f = split_f.process.clock_ns - t0
        assert cost_f < cost_u
        # The saving per call is exactly two switch-cost deltas.
        expected = 100 * 2 * (SYSCALL_NS - WRFSBASE_NS)
        assert cost_u - cost_f == expected


class TestInterposition:
    def test_malloc_family_is_logged(self):
        _, backend = make_backend()
        p1 = backend.malloc(64)
        p2 = backend.malloc_managed(1 << 16)
        p3 = backend.malloc_host(128)
        p4 = backend.host_alloc(256)
        backend.free(p1)
        ops = [(e.op, e.addr) for e in backend.log.entries]
        assert ops == [
            ("malloc", p1),
            ("malloc_managed", p2),
            ("malloc_host", p3),
            ("host_alloc", p4),
            ("free", p1),
        ]

    def test_managed_free_logged_as_managed(self):
        _, backend = make_backend()
        p = backend.malloc_managed(1 << 16)
        backend.free(p)
        assert backend.log.entries[-1].op == "free_managed"

    def test_non_malloc_calls_not_logged(self):
        _, backend = make_backend()
        backend.device_synchronize()
        backend.launch("k")
        assert len(backend.log) == 0

    def test_active_allocations_from_log(self):
        _, backend = make_backend()
        p1 = backend.malloc(64)
        p2 = backend.malloc(64)
        backend.free(p1)
        active = backend.log.active_allocations()
        assert set(active) == {p2}

    def test_invalid_run_raises_cuda_error_while_virtualizing(self):
        split = SplitProcess(seed=2)
        backend = CracBackend(split.runtime, virtualize_addresses=True)
        with pytest.raises(CudaError) as run_error:
            backend.malloc_run(0, 3)
        with pytest.raises(CudaError) as call_error:
            backend.malloc(0)
        assert run_error.value.code == call_error.value.code
        assert backend.call_counter["cudaMalloc"] == 2


class TestFatbinVirtualization:
    def test_app_sees_virtual_handles(self):
        _, backend = make_backend()
        h = backend.register_fatbin(FatBinary("x", ("ka",)))
        assert h in backend.fatbin_registry
        assert backend.fatbin_registry[h]["real"] != 0

    def test_unregister_removes_entry(self):
        _, backend = make_backend()
        h = backend.register_fatbin(FatBinary("x", ("ka",)))
        backend.unregister_fatbin(h)
        assert h not in backend.fatbin_registry

    def test_reregister_patches_handles_and_keeps_kernels_launchable(self):
        split, backend = make_backend()
        fresh = SplitProcess(seed=7)
        backend.swap_runtime(fresh.runtime)
        patches = backend.reregister_fatbins()
        assert len(patches) == 1  # the app fatbin
        backend.launch("k")  # works against the fresh library


class TestHandleTracking:
    def test_streams_and_events_tracked(self):
        _, backend = make_backend()
        s = backend.stream_create()
        e = backend.event_create()
        assert s.sid in backend.live_streams
        assert e.eid in backend.live_events
        backend.stream_destroy(s)
        backend.event_destroy(e)
        assert not backend.live_streams
        assert not backend.live_events
