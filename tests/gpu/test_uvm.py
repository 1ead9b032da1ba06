"""Tests for the UVM model: residency, migration costs, write tracking."""

import numpy as np
import pytest

from repro.gpu import GPU_SPECS, GpuDevice, ManagedBuffer, Stream, UvmManager
from repro.gpu.timing import transfer_ns
from repro.gpu.uvm import UVM_PAGE, PageLocation


@pytest.fixture
def dev():
    return GpuDevice(GPU_SPECS["V100"])


@pytest.fixture
def uvm(dev):
    return UvmManager(dev)


def make_buf(uvm, size=4 * UVM_PAGE, addr=0x9000_0000):
    buf = ManagedBuffer(addr=addr, size=size)
    uvm.register(buf)
    return buf


class TestResidency:
    def test_fresh_pages_are_host_resident(self, uvm):
        buf = make_buf(uvm)
        assert np.all(buf.residency == int(PageLocation.HOST))

    def test_device_access_migrates_to_device(self, uvm):
        buf = make_buf(uvm)
        cost = uvm.device_access(buf, 0, buf.size)
        assert cost > 0
        assert np.all(buf.residency == int(PageLocation.DEVICE))

    def test_host_access_migrates_back(self, uvm):
        buf = make_buf(uvm)
        uvm.device_access(buf, 0, buf.size)
        cost = uvm.host_access(buf, 0, buf.size, write=True)
        assert cost > 0
        assert np.all(buf.residency == int(PageLocation.HOST))

    def test_access_to_resident_pages_is_free(self, uvm):
        buf = make_buf(uvm)
        assert uvm.host_access(buf, 0, buf.size, write=False) == 0.0

    def test_partial_access_migrates_only_touched_pages(self, uvm):
        buf = make_buf(uvm, size=8 * UVM_PAGE)
        uvm.device_access(buf, 0, UVM_PAGE)  # only page 0
        assert buf.residency[0] == int(PageLocation.DEVICE)
        assert np.all(buf.residency[1:] == int(PageLocation.HOST))

    def test_page_range_boundaries(self, uvm):
        buf = make_buf(uvm, size=4 * UVM_PAGE)
        assert buf.page_range(0, UVM_PAGE) == (0, 0)
        assert buf.page_range(UVM_PAGE - 1, 2) == (0, 1)
        assert buf.page_range(UVM_PAGE, UVM_PAGE) == (1, 1)


class TestCosts:
    def test_fault_cost_scales_with_pages(self, uvm):
        buf = make_buf(uvm, size=16 * UVM_PAGE)
        c1 = uvm.device_access(buf, 0, UVM_PAGE)
        c16 = uvm.device_access(
            make_buf(uvm, addr=0x9100_0000, size=16 * UVM_PAGE), 0, 16 * UVM_PAGE
        )
        spec = uvm.device.spec
        # per page: one fault each, the migration rounded once per call
        assert c1 == spec.uvm_fault_ns + transfer_ns(UVM_PAGE, spec.uvm_migrate_bw)
        assert c16 == 16 * spec.uvm_fault_ns + transfer_ns(
            16 * UVM_PAGE, spec.uvm_migrate_bw
        )

    def test_fault_accounting(self, uvm):
        buf = make_buf(uvm, size=4 * UVM_PAGE)
        uvm.device_access(buf, 0, buf.size)
        assert uvm.fault_count == 4
        assert uvm.migrated_bytes == 4 * UVM_PAGE

    def test_ever_used_set_on_register(self, uvm):
        assert not uvm.ever_used
        make_buf(uvm)
        assert uvm.ever_used


class TestWriteTracking:
    def test_concurrent_same_page_writes_detected(self, uvm):
        """The CRUM-breaking pattern: two streams, same page, overlapping
        in time."""
        buf = make_buf(uvm)
        s1, s2 = Stream(), Stream()
        uvm.record_device_write(buf, 0, UVM_PAGE, s1, 0, 100)
        uvm.record_device_write(buf, 0, UVM_PAGE, s2, 50, 150)
        assert len(uvm.concurrent_same_page_writes(buf)) == 1

    def test_disjoint_pages_not_flagged(self, uvm):
        buf = make_buf(uvm)
        s1, s2 = Stream(), Stream()
        uvm.record_device_write(buf, 0, UVM_PAGE, s1, 0, 100)
        uvm.record_device_write(buf, 2 * UVM_PAGE, UVM_PAGE, s2, 0, 100)
        assert uvm.concurrent_same_page_writes(buf) == []

    def test_disjoint_times_not_flagged(self, uvm):
        buf = make_buf(uvm)
        s1, s2 = Stream(), Stream()
        uvm.record_device_write(buf, 0, UVM_PAGE, s1, 0, 100)
        uvm.record_device_write(buf, 0, UVM_PAGE, s2, 100, 200)
        assert uvm.concurrent_same_page_writes(buf) == []

    def test_same_stream_not_flagged(self, uvm):
        buf = make_buf(uvm)
        s1 = Stream()
        uvm.record_device_write(buf, 0, UVM_PAGE, s1, 0, 100)
        uvm.record_device_write(buf, 0, UVM_PAGE, s1, 50, 150)
        assert uvm.concurrent_same_page_writes(buf) == []

    def test_compaction_stashes_unobserved_conflicts(self, uvm):
        """Opportunistic enqueue-time compaction must not hide a real
        conflict: a pair dropped from the log before any overlap query
        ran is stashed and still reported later."""
        buf = make_buf(uvm)
        s1, s2 = Stream(), Stream()
        uvm.record_device_write(buf, 0, UVM_PAGE, s1, 0, 100)
        uvm.record_device_write(buf, 0, UVM_PAGE, s2, 50, 150)
        # Flood the log past the threshold with conflict-free writes so
        # the conflicting pair is compacted away before any query.
        for i in range(uvm.COMPACT_THRESHOLD + 8):
            t = 1000.0 + i
            uvm.record_device_write(buf, 0, 1, s1, t, t + 0.5, now_ns=t)
        assert len(buf.device_writes) < uvm.COMPACT_THRESHOLD, (
            "opportunistic compaction never ran"
        )
        pairs = uvm.concurrent_same_page_writes(buf)
        assert len(pairs) == 1, "compaction lost an unobserved conflict"

    def test_compacting_query_drains_reported_conflicts(self, uvm):
        buf = make_buf(uvm)
        s1, s2 = Stream(), Stream()
        uvm.record_device_write(buf, 0, UVM_PAGE, s1, 0, 100)
        uvm.record_device_write(buf, 0, UVM_PAGE, s2, 50, 150)
        uvm.compact_writes(buf, before_ns=200.0)  # stashes the pair
        assert buf.device_writes == []
        pairs = uvm.concurrent_same_page_writes(buf, compact_before_ns=200.0)
        assert len(pairs) == 1
        # Reported and drained: a later query starts from a clean slate.
        assert uvm.concurrent_same_page_writes(buf) == []

    def test_noncompacting_query_never_observes_half_drained_stash(self, uvm):
        """Regression: a compacting query must drain *exactly* what it
        reported. A conflict stashed by its own bounded compaction but
        not present in the live sweep it reported must survive for the
        next (non-compacting) query — and a non-compacting query itself
        must leave the stash untouched."""
        buf = make_buf(uvm)
        s1, s2 = Stream(), Stream()
        # Pair A lives entirely before t=200; pair B straddles it.
        uvm.record_device_write(buf, 0, UVM_PAGE, s1, 0, 100)
        uvm.record_device_write(buf, 0, UVM_PAGE, s2, 50, 150)
        uvm.record_device_write(buf, 0, UVM_PAGE, s1, 180, 400)
        uvm.record_device_write(buf, 0, UVM_PAGE, s2, 190, 420)
        # Non-compacting query: reports both pairs, drains nothing.
        assert len(uvm.concurrent_same_page_writes(buf)) == 2
        assert buf.stashed_conflicts == []
        assert len(uvm.concurrent_same_page_writes(buf)) == 2
        # Compacting query at t=200: reports both live pairs, drops the
        # first pair's records, and must not leave those pairs stashed.
        pairs = uvm.concurrent_same_page_writes(buf, compact_before_ns=200.0)
        assert len(pairs) == 2
        # The straddling records survive in the live log; their pair was
        # reported (and drained), so it must not be double-reported...
        assert len(uvm.concurrent_same_page_writes(buf)) == 1
        # ...but the still-live pair is reported again until drained.
        pairs = uvm.concurrent_same_page_writes(buf, compact_before_ns=500.0)
        assert len(pairs) == 1
        assert uvm.concurrent_same_page_writes(buf) == []
        assert buf.stashed_conflicts == []


class TestAccounting:
    def test_total_managed_bytes(self, uvm):
        make_buf(uvm, size=3 * UVM_PAGE)
        make_buf(uvm, addr=0x9200_0000, size=5 * UVM_PAGE)
        assert uvm.total_managed_bytes() == 8 * UVM_PAGE

    def test_unregister(self, uvm):
        buf = make_buf(uvm)
        uvm.unregister(buf.addr)
        assert uvm.total_managed_bytes() == 0
