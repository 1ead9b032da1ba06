"""Tests for split-process construction (Figure 1)."""

import weakref

import pytest

from repro.core import CracSession
from repro.core.halves import ARENA_WINDOWS, ENTRY_POINTS, SplitProcess
from repro.dmtcp.store import CheckpointStore
from repro.linux.loader import LOWER_HALF_WINDOW


@pytest.fixture
def split():
    return SplitProcess(seed=4)


class TestConstruction:
    def test_lower_half_loaded_first_and_in_window(self, split):
        lo, hi = LOWER_HALF_WINDOW
        for start, size in split.lower.regions:
            assert lo <= start and start + size <= hi

    def test_upper_half_outside_lower_window(self, split):
        lo, hi = LOWER_HALF_WINDOW
        for start, size in split.upper.regions:
            assert start + size <= lo or start >= hi

    def test_aslr_disabled(self, split):
        """CRAC disables ASLR via personality (§3.2.4)."""
        assert not split.process.vas.aslr

    def test_entry_table_written_into_lower_half(self, split):
        table_addr = split.entry_table.table_addr
        assert split.loader.half_of(table_addr) == "lower"
        # The table holds the entry addresses, little-endian.
        first = int.from_bytes(split.process.vas.read(table_addr, 8), "little")
        assert first == split.entry_table.resolve(ENTRY_POINTS[0])

    def test_entry_table_bytes_hold_every_entry_in_order(self, split):
        table_addr = split.entry_table.table_addr
        raw = split.process.vas.read(table_addr, 8 * len(ENTRY_POINTS))
        for i, name in enumerate(ENTRY_POINTS):
            addr = int.from_bytes(raw[8 * i : 8 * i + 8], "little")
            assert addr == split.entry_table.resolve(name)
            assert addr == split.lower.regions[0][0] + 0x100 * (i + 1)

    def test_entry_table_covers_runtime_api(self, split):
        for name in ("cudaMalloc", "cudaLaunchKernel", "__cudaRegisterFatBinary"):
            addr = split.entry_table.resolve(name)
            assert split.loader.half_of(addr) == "lower"

    def test_layout_is_deterministic_across_processes(self):
        s1, s2 = SplitProcess(seed=9), SplitProcess(seed=9)
        assert s1.lower.regions == s2.lower.regions
        assert s1.entry_table.entries == s2.entry_table.entries

    def test_skip_upper(self):
        s = SplitProcess(seed=1, load_upper=False)
        assert s.upper is None
        assert s.loader.ranges("upper") == []


class TestArenaCarving:
    def test_device_arena_lands_in_its_subwindow(self, split):
        addr = split.runtime.cudaMalloc(1024)
        lo, hi = ARENA_WINDOWS["cuda-device-arena"]
        assert lo <= addr < hi

    def test_families_live_in_disjoint_subwindows(self, split):
        rt = split.runtime
        d = rt.cudaMalloc(64)
        p = rt.cudaMallocHost(64)
        h = rt.cudaHostAlloc(64)
        m = rt.cudaMallocManaged(64)
        windows = [
            ARENA_WINDOWS["cuda-device-arena"],
            ARENA_WINDOWS["cuda-pinned-arena"],
            ARENA_WINDOWS["cuda-hostalloc-arena"],
            ARENA_WINDOWS["cuda-managed-arena"],
        ]
        for ptr, (lo, hi) in zip((d, p, h, m), windows):
            assert lo <= ptr < hi

    def test_family_addresses_independent_of_interleaving(self):
        """The property that lets CRAC skip cudaHostAlloc during replay."""
        s1 = SplitProcess(seed=3)
        d1 = s1.runtime.cudaMalloc(128)
        s1.runtime.cudaHostAlloc(256)  # interleaved hostAlloc
        m1 = s1.runtime.cudaMallocManaged(512)

        s2 = SplitProcess(seed=3)
        d2 = s2.runtime.cudaMalloc(128)
        m2 = s2.runtime.cudaMallocManaged(512)  # no hostAlloc this time

        assert (d1, m1) == (d2, m2)

    def test_upper_mmap_tracked(self, split):
        addr = split.upper_mmap(4096)
        assert split.loader.half_of(addr) == "upper"


class TestLifetime:
    """A process object is acyclic: dropping the last reference frees it
    without waiting for the cycle collector."""

    def test_split_process_dies_at_del(self, no_cycle_collector):
        split = SplitProcess(seed=2)
        split.runtime.cudaMalloc(4096)
        split.runtime.cudaMallocHost(512)
        ref = weakref.ref(split)
        del split
        assert ref() is None

    def test_restart_frees_the_killed_process(self, no_cycle_collector):
        session = CracSession(seed=5)
        session.backend.malloc(1024)
        store = CheckpointStore()
        session.checkpoint(store=store)
        ref = weakref.ref(session.split)
        session.kill()
        session.restart_latest(store)
        assert ref() is None
        assert session.split.process.alive
