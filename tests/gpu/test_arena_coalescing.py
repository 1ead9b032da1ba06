"""Free-block coalescing edge cases in the deterministic arena allocator.

The allocator is first-fit over a sorted free list; ``_release``
coalesces a released block with its left and right neighbours in
place. These tests pin the merge behaviour at every adjacency shape —
a lost merge silently fragments the arena until a large ``cudaMalloc``
grows a second arena and the restart replay diverges.
"""

import random

import pytest

from repro.errors import CudaError
from repro.gpu.memory import ALLOC_ALIGN, ARENA_CHUNK, ArenaAllocator


def make_arena(capacity=4 * ARENA_CHUNK):
    """Arena with a simple bump-pointer mmap source at 0x7000_0000_0000."""
    state = {"next": 0x7000_0000_0000}

    def mmap_fn(size):
        base = state["next"]
        state["next"] += size
        return base

    return ArenaAllocator(mmap_fn, capacity, extra_mmaps_per_arena=0)


def free_blocks(arena):
    return [(b.start, b.size) for b in arena._free]


class TestCoalescing:
    def test_free_middle_then_neighbours_merges_to_one_block(self):
        a = make_arena()
        p1, p2, p3 = a.alloc(4096), a.alloc(4096), a.alloc(4096)
        tail = free_blocks(a)  # remainder of the first arena chunk
        assert len(tail) == 1
        a.free(p2)  # isolated hole: no neighbour to merge with
        assert len(free_blocks(a)) == 2
        a.free(p1)  # left block merges with the hole (right-merge path)
        assert len(free_blocks(a)) == 2
        assert (p1, 2 * 4096) in free_blocks(a)
        a.free(p3)  # bridges hole and tail: both-neighbour merge
        assert free_blocks(a) == [(p1, ARENA_CHUNK)]

    def test_left_neighbour_merge(self):
        a = make_arena()
        p1, p2 = a.alloc(4096), a.alloc(4096)
        a.alloc(4096)  # keeps the tail from being p2's right neighbour
        a.free(p1)
        a.free(p2)  # merges into the block ending at its start
        assert (p1, 2 * 4096) in free_blocks(a)

    def test_right_neighbour_merge(self):
        a = make_arena()
        p1, p2 = a.alloc(4096), a.alloc(4096)
        a.alloc(4096)
        a.free(p2)
        a.free(p1)  # merges with the block starting at its end
        assert (p1, 2 * 4096) in free_blocks(a)

    def test_nonadjacent_blocks_stay_separate(self):
        a = make_arena()
        p1 = a.alloc(4096)
        a.alloc(4096)
        p3 = a.alloc(4096)
        a.alloc(4096)
        a.free(p1)
        a.free(p3)
        blocks = free_blocks(a)
        assert (p1, 4096) in blocks
        assert (p3, 4096) in blocks

    def test_coalesced_block_satisfies_large_alloc_without_growth(self):
        """The point of coalescing: freed fragments recombine so a
        larger request fits without mmap-ing a second arena."""
        a = make_arena()
        ptrs = [a.alloc(1 << 20) for _ in range(8)]
        big = a.alloc(ARENA_CHUNK - (8 << 20))  # consume the tail
        calls_before = a.mmap_calls
        for p in ptrs:
            a.free(p)
        merged = a.alloc(8 << 20)  # exactly the recombined fragments
        assert merged == ptrs[0]
        assert a.mmap_calls == calls_before
        a.free(merged)
        a.free(big)
        assert free_blocks(a) == [(ptrs[0], ARENA_CHUNK)]

    def test_free_all_returns_arena_to_single_block(self):
        """Interleaved odd/even free order always converges to one
        block per arena chunk."""
        a = make_arena()
        ptrs = [a.alloc(8192) for _ in range(16)]
        for p in ptrs[::2] + ptrs[1::2]:
            a.free(p)
        assert free_blocks(a) == [(ptrs[0], ARENA_CHUNK)]
        assert a.active == {}


class TestBoundaries:
    def test_alignment_rounds_request_up(self):
        a = make_arena()
        p1 = a.alloc(1)  # rounds to ALLOC_ALIGN
        p2 = a.alloc(1)
        assert p2 - p1 == ALLOC_ALIGN

    def test_adjacent_arenas_do_not_merge_across_chunks(self):
        """Two arena chunks from a contiguous mmap source coalesce only
        because the addresses really are adjacent — a gap (bookkeeping
        mmaps) must keep them separate."""
        state = {"next": 0x7000_0000_0000}

        def mmap_fn(size):
            base = state["next"]
            state["next"] += size + (1 << 16)  # guard gap between arenas
            return base

        a = ArenaAllocator(mmap_fn, 4 * ARENA_CHUNK,
                           extra_mmaps_per_arena=0)
        p1 = a.alloc(ARENA_CHUNK)  # fills chunk 1 exactly
        p2 = a.alloc(ARENA_CHUNK)  # forces chunk 2
        a.free(p1)
        a.free(p2)
        assert free_blocks(a) == [(p1, ARENA_CHUNK), (p2, ARENA_CHUNK)]

    def test_exact_fit_removes_free_block(self):
        a = make_arena()
        p1 = a.alloc(4096)
        a.alloc(4096)
        a.free(p1)
        again = a.alloc(4096)  # first-fit: exact-size hole reused
        assert again == p1
        assert all(start != p1 for start, _ in free_blocks(a))

    def test_partial_fit_splits_block(self):
        a = make_arena()
        p1 = a.alloc(8192)
        a.alloc(4096)
        a.free(p1)
        again = a.alloc(4096)  # takes the front of the 8192 hole
        assert again == p1
        assert (p1 + 4096, 4096) in free_blocks(a)

    def test_oversized_request_grows_dedicated_arena(self):
        a = make_arena(capacity=ARENA_CHUNK * 8)
        big = 3 * ARENA_CHUNK
        p = a.alloc(big)
        assert a.arena_bytes >= big
        a.free(p)
        assert (p, a.arena_bytes) in free_blocks(a) or \
            (p, 3 * ARENA_CHUNK) in free_blocks(a)


class TestReserveInteraction:
    def test_reserve_splits_and_free_recoalesces(self):
        a = make_arena()
        a.alloc(4096)  # materialize the first arena chunk
        base = free_blocks(a)[0][0]
        mid = base + (1 << 20)
        a.reserve(mid, 8192)
        assert len(free_blocks(a)) == 2  # hole split around the reserve
        a.free(mid)
        assert free_blocks(a) == [(base, ARENA_CHUNK - 4096)]

    def test_reserve_at_block_start_leaves_no_empty_head(self):
        a = make_arena()
        p1 = a.alloc(4096)
        a.free(p1)
        a.reserve(p1, 4096)  # exactly the recycled hole's head
        assert all(start != p1 for start, _ in free_blocks(a))
        assert a.active[p1] == 4096


class TestErrors:
    def test_double_free_raises(self):
        a = make_arena()
        p = a.alloc(4096)
        a.free(p)
        with pytest.raises(CudaError):
            a.free(p)

    def test_free_list_unchanged_by_invalid_free(self):
        a = make_arena()
        p = a.alloc(4096)
        a.free(p)
        before = free_blocks(a)
        with pytest.raises(CudaError):
            a.free(0xBAD)
        assert free_blocks(a) == before


class TestFreeRun:
    """``free_run`` leaves what as many ``free`` calls leave."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_sequential_frees(self, seed):
        rng = random.Random(seed)
        arenas = make_arena(), make_arena()
        sizes = [rng.choice([256, 512, 4096, 1 << 20]) for _ in range(60)]
        live = [[a.alloc(n) for n in sizes] for a in arenas]
        assert live[0] == live[1]
        for _ in range(3):
            addrs = rng.sample(live[0], rng.randrange(1, len(live[0])))
            if rng.random() < 0.5:  # an unknown pointer ends the run
                addrs.insert(rng.randrange(len(addrs)), 0xBAD)
            run = arenas[0].free_run(addrs)
            for addr in addrs[:run]:
                arenas[1].free(addr)
            assert run == addrs.index(0xBAD) if 0xBAD in addrs else len(addrs)
            assert free_blocks(arenas[0]) == free_blocks(arenas[1])
            assert arenas[0].active == arenas[1].active
            assert arenas[0].active_bytes == arenas[1].active_bytes
            freed = set(addrs[:run])
            live = [[p for p in l if p not in freed] for l in live]
            refill = [rng.choice([256, 4096]) for _ in range(10)]
            for a, l in zip(arenas, live):
                l += [a.alloc(n) for n in refill]
            assert live[0] == live[1]
