"""Tests for sparse buffer contents and the deterministic arena allocator."""

import numpy as np
import pytest

from repro.errors import CudaError
from repro.gpu.memory import (
    ALLOC_ALIGN,
    ARENA_CHUNK,
    ArenaAllocator,
    PagedContents,
)


class TestPagedContents:
    def test_holes_read_as_fill(self):
        c = PagedContents(1 << 30)  # 1 GB virtual, no RAM
        assert c.read_bytes(123456, 8) == b"\0" * 8
        assert c.backed_bytes == 0

    def test_write_read_roundtrip(self):
        c = PagedContents(4096)
        c.write_bytes(100, b"hello")
        assert c.read_bytes(100, 5) == b"hello"

    def test_view_in_place_mutation(self):
        c = PagedContents(1024)
        v = c.view(0, 1024, dtype=np.float32)
        v[:] = 1.5
        assert np.all(c.view(0, 1024, dtype=np.float32) == 1.5)

    def test_view_exact_match_is_stable(self):
        c = PagedContents(1024)
        v1 = c.view(0, 1024)
        v2 = c.view(0, 1024)
        v1[0] = 42
        assert v2[0] == 42  # same storage

    def test_overlapping_views_consolidate(self):
        c = PagedContents(1000)
        c.view(0, 500)[:] = 1
        c.view(400, 500)[:] = 2
        assert c.read_bytes(0, 400) == b"\x01" * 400
        assert c.read_bytes(400, 500) == b"\x02" * 500

    def test_fill_clears_spans(self):
        c = PagedContents(10_000)
        c.write_bytes(0, b"x" * 100)
        c.fill(7)
        assert c.read_bytes(0, 3) == b"\x07\x07\x07"
        assert c.backed_bytes == 0

    def test_out_of_bounds_rejected(self):
        c = PagedContents(100)
        with pytest.raises(CudaError):
            c.view(90, 20)

    def test_snapshot_restore_roundtrip(self):
        c = PagedContents(4096)
        c.write_bytes(10, b"state")
        snap = c.snapshot()
        c.write_bytes(10, b"XXXXX")
        c.restore(snap)
        assert c.read_bytes(10, 5) == b"state"

    def test_snapshot_is_deep(self):
        c = PagedContents(4096)
        c.write_bytes(0, b"aaaa")
        snap = c.snapshot()
        c.write_bytes(0, b"bbbb")
        assert snap["spans"][0][:4] == b"aaaa"

    def test_equal_contents_same(self):
        a, b = PagedContents(1000), PagedContents(1000)
        a.write_bytes(10, b"zz")
        b.write_bytes(10, b"zz")
        assert a.equal_contents(b)

    def test_equal_contents_differs(self):
        a, b = PagedContents(1000), PagedContents(1000)
        a.write_bytes(10, b"zz")
        b.write_bytes(10, b"zy")
        assert not a.equal_contents(b)

    def test_equal_contents_layout_independent(self):
        a, b = PagedContents(1000), PagedContents(1000)
        a.write_bytes(0, b"\0" * 100)  # materialized zeros
        # b leaves the same range unmaterialized (fill 0)
        assert a.equal_contents(b)

    def test_equal_contents_different_fill(self):
        a, b = PagedContents(1000), PagedContents(1000)
        b.fill(9)
        assert not a.equal_contents(b)


def make_allocator(capacity=1 << 30):
    next_addr = [0x1000_0000]
    mmaps = []

    def mmap_fn(size):
        addr = next_addr[0]
        next_addr[0] += (size + 0xFFFF) & ~0xFFFF
        mmaps.append((addr, size))
        return addr

    alloc = ArenaAllocator(mmap_fn, capacity)
    alloc._test_mmaps = mmaps
    return alloc


class TestArenaAllocator:
    def test_first_malloc_creates_large_arena(self):
        a = make_allocator()
        a.alloc(1024)
        assert a.arena_bytes >= ARENA_CHUNK  # §3.2.1: big arena up front

    def test_first_malloc_issues_many_mmaps(self):
        """§3.2.3: one cudaMalloc may make multiple mmap calls."""
        a = make_allocator()
        a.alloc(1024)
        assert a.mmap_calls > 1

    def test_second_malloc_issues_no_mmap(self):
        """§3.2.1: subsequent cudaMalloc may not call mmap at all."""
        a = make_allocator()
        a.alloc(1024)
        before = a.mmap_calls
        a.alloc(2048)
        assert a.mmap_calls == before

    def test_alignment(self):
        a = make_allocator()
        p1 = a.alloc(1)
        p2 = a.alloc(1)
        assert p1 % ALLOC_ALIGN == 0
        assert p2 % ALLOC_ALIGN == 0
        assert p2 - p1 == ALLOC_ALIGN

    def test_determinism_same_sequence_same_addresses(self):
        """The property CRAC's log-and-replay relies on (§3.2.4)."""
        seqs = []
        for _ in range(2):
            a = make_allocator()
            addrs = [a.alloc(n) for n in (100, 5000, 64, 1 << 20)]
            a.free(addrs[1])
            addrs.append(a.alloc(3000))
            seqs.append(addrs)
        assert seqs[0] == seqs[1]

    def test_free_then_alloc_reuses_space(self):
        a = make_allocator()
        p1 = a.alloc(4096)
        a.free(p1)
        p2 = a.alloc(4096)
        assert p2 == p1

    def test_free_unknown_pointer_raises(self):
        a = make_allocator()
        with pytest.raises(CudaError):
            a.free(0xDEAD)

    def test_oom_when_capacity_exceeded(self):
        a = make_allocator(capacity=1 << 20)
        with pytest.raises(CudaError):
            a.alloc(2 << 20)

    def test_active_bytes_tracks_live_allocations(self):
        a = make_allocator()
        p = a.alloc(1000)
        assert a.active_bytes == 1024  # aligned
        a.free(p)
        assert a.active_bytes == 0

    def test_coalescing_allows_large_realloc(self):
        a = make_allocator(capacity=ARENA_CHUNK)
        half = ARENA_CHUNK // 2
        p1 = a.alloc(half - 1024)
        p2 = a.alloc(half - 1024)
        a.free(p1)
        a.free(p2)
        # Without coalescing this would need a second arena (over capacity).
        p3 = a.alloc(ARENA_CHUNK - 4096)
        assert p3 == p1

    def test_large_allocation_gets_dedicated_arena(self):
        a = make_allocator(capacity=1 << 31)
        a.alloc(16)  # creates the initial arena
        p = a.alloc(ARENA_CHUNK * 2)  # cannot fit: grows by a new arena
        assert p in a.active
        assert a.arena_bytes >= ARENA_CHUNK * 3
