"""Device memory: sparse buffer contents and the deterministic arena.

Two paper-critical behaviours live here:

- **Arena allocation** (§3.2.1/§3.2.3): the CUDA library's first
  ``cudaMalloc`` creates a *large* allocation arena with ``mmap`` (and
  more bookkeeping mmaps besides); subsequent ``cudaMalloc`` calls
  sub-allocate from the arena and may not call ``mmap`` at all. The
  allocator is **deterministic**: the same sequence of alloc/free calls
  produces the same addresses — the property CRAC's log-and-replay
  exploits to restore every allocation at its original address.
- **Sparse contents**: buffers have a *virtual* size (checkpoint-size
  accounting can reach the paper's GB scale) but only spans actually
  written hold real numpy data, so the test suite stays laptop-sized.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from repro.errors import CudaError
from repro.gpu.intervals import EpochIntervalIndex
from repro.gpu.rows import RowTable

#: Sub-allocation alignment, matching CUDA's 256-byte texture alignment.
ALLOC_ALIGN = 256
#: Size of a freshly created malloc arena (the paper's "large CUDA malloc
#: arena" created by the first cudaMalloc).
ARENA_CHUNK = 64 << 20


def _align_up(n: int, a: int = ALLOC_ALIGN) -> int:
    return (n + a - 1) & ~(a - 1)


def _program_error(code_name: str, msg: str) -> CudaError:
    """A classified program-severity :class:`CudaError`.

    The code enum lives in :mod:`repro.cuda.errors`, which this module
    must not import at load time (``repro.cuda.__init__`` pulls in
    ``cuda.api`` which imports ``repro.gpu``); the raise paths are cold,
    so the deferred import costs nothing.
    """
    from repro.cuda.errors import CudaErrorCode

    return CudaError(
        f"{code_name}: {msg}", code=CudaErrorCode[code_name], severity="program"
    )


def merge_spans(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Normalize (start, end) intervals: sorted, disjoint, non-empty."""
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(s for s in spans if s[1] > s[0]):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def subtract_spans(
    base: list[tuple[int, int]], minus: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Interval-set difference ``base - minus`` (both normalized)."""
    out: list[tuple[int, int]] = []
    for lo, hi in base:
        parts = [(lo, hi)]
        for m_lo, m_hi in minus:
            nxt: list[tuple[int, int]] = []
            for p_lo, p_hi in parts:
                if m_hi <= p_lo or m_lo >= p_hi:
                    nxt.append((p_lo, p_hi))
                    continue
                if p_lo < m_lo:
                    nxt.append((p_lo, m_lo))
                if m_hi < p_hi:
                    nxt.append((m_hi, p_hi))
            parts = nxt
        out.extend(parts)
    return out


class PagedContents:
    """Sparse byte contents of a (possibly huge) buffer.

    Data is stored as non-overlapping *spans* — (start, ndarray) pairs —
    plus a background fill value for unmaterialized bytes. ``view()``
    returns a writable numpy view into the stored span, so kernels mutate
    contents in place; overlapping spans are consolidated on demand.

    Every mutation path also records the touched byte range in a *dirty*
    interval set so checkpointing can delta-encode device memory the way
    soft-dirty page tracking delta-encodes host memory. Because ``view()``
    hands out writable views, any viewed range counts as dirtied —
    conservative, never lossy.
    """

    __slots__ = ("size", "fill_value", "_spans", "_dirty", "_write_seq")

    def __init__(self, size: int, fill_value: int = 0) -> None:
        self.size = size
        self.fill_value = fill_value
        self._spans: dict[int, np.ndarray] = {}  # start -> uint8 array
        #: (start, end, epoch) interval index of byte ranges touched
        #: since the last committed checkpoint cut; ``epoch`` is the
        #: :attr:`write_seq` value of the range's last write
        self._dirty = EpochIntervalIndex()
        self._write_seq = 0

    @property
    def backed_bytes(self) -> int:
        return sum(a.nbytes for a in self._spans.values())

    # -- dirty-span tracking ---------------------------------------------------

    @property
    def write_seq(self) -> int:
        """Monotone write counter; a checkpoint snapshot records it so
        commit can distinguish pre-snapshot dirtiness (safe to clear)
        from bytes re-written while the image was still being flushed
        (must stay dirty for the next incremental cut)."""
        return self._write_seq

    def _mark_dirty(self, offset: int, nbytes: int) -> None:
        if nbytes <= 0:
            return
        self._write_seq += 1
        self._dirty.mark(offset, offset + nbytes, self._write_seq)

    def dirty_spans(self) -> list[tuple[int, int]]:
        """Byte ranges touched since the last :meth:`clear_dirty`."""
        return self._dirty.spans()

    @property
    def dirty_byte_count(self) -> int:
        return self._dirty.byte_count

    def clear_dirty(
        self,
        spans: list[tuple[int, int]] | None = None,
        *,
        up_to_epoch: int | None = None,
    ) -> None:
        """Drop dirty tracking once a checkpoint durably commits.

        ``spans=None`` clears everything; otherwise only the given byte
        ranges (the ones the committed image captured) are cleared. With
        ``up_to_epoch`` (the :attr:`write_seq` recorded at snapshot
        time) a range is cleared only where its last write precedes the
        snapshot — bytes the image captured but the app re-wrote while
        the (forked) write was still in flight stay dirty, so the next
        incremental cut saves the new content.
        """
        if spans is None:
            self._dirty.clear_all()
            return
        self._dirty.clear(spans, up_to_epoch=up_to_epoch)

    def dirty_bytes_since(self, epoch: int) -> int:
        """Bytes whose last write came after ``epoch`` — the
        copy-on-write exposure of a snapshot taken at that epoch."""
        return self._dirty.bytes_since(epoch)

    def dirty_snapshot(self) -> dict:
        """Deep copy of only the dirtied byte ranges (a GPU *delta*).

        ``whole=True`` marks a delta that happens to cover the entire
        buffer (e.g. after ``fill``); applying it is equivalent to a full
        :meth:`restore`, which also resets the fill value.
        """
        dirty = self.dirty_spans()
        if dirty == [(0, self.size)]:
            snap = self.snapshot()
            snap["whole"] = True
            return snap
        return {
            "size": self.size,
            "whole": False,
            "spans": {
                lo: np.frombuffer(
                    self.read_bytes(lo, hi - lo), dtype=np.uint8
                ).copy()
                for lo, hi in dirty
            },
        }

    def apply_delta(self, snap: dict) -> None:
        """Overlay a :meth:`dirty_snapshot` onto the current contents."""
        if snap["size"] != self.size:
            raise _program_error("INVALID_VALUE", "delta snapshot size mismatch")
        if snap.get("whole"):
            self.restore(snap)
            return
        for lo, arr in snap["spans"].items():
            self.write_bytes(lo, arr)

    def _check(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise _program_error(
                "INVALID_VALUE",
                f"access [{offset}, +{nbytes}) outside buffer of {self.size} bytes",
            )

    def view(self, offset: int, nbytes: int, dtype=np.uint8) -> np.ndarray:
        """A writable view of ``[offset, offset+nbytes)`` as ``dtype``.

        Materializes (with the fill value) any bytes not yet backed;
        consolidates overlapping spans so the view is one contiguous
        array. Holding a view across a *later overlapping* ``view()``
        call is allowed — consolidation reuses an exactly-matching span.

        The viewed range is conservatively marked dirty: the caller holds
        a writable view, so these bytes *may* change under us.
        """
        self._check(offset, nbytes)
        self._mark_dirty(offset, nbytes)
        exact = self._spans.get(offset)
        if exact is not None and exact.nbytes == nbytes:
            return exact.view(dtype)
        overlapping = [
            (s, a)
            for s, a in self._spans.items()
            if s < offset + nbytes and s + a.nbytes > offset
        ]
        lo = min([offset] + [s for s, _ in overlapping])
        hi = max([offset + nbytes] + [s + a.nbytes for s, a in overlapping])
        merged = np.full(hi - lo, self.fill_value, dtype=np.uint8)
        for s, a in overlapping:
            merged[s - lo : s - lo + a.nbytes] = a
            del self._spans[s]
        self._spans[lo] = merged
        return merged[offset - lo : offset - lo + nbytes].view(dtype)

    def write_bytes(self, offset: int, data: bytes | np.ndarray) -> None:
        """Copy bytes into the buffer."""
        arr = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray, memoryview)) else np.ascontiguousarray(data).view(np.uint8).ravel()
        self.view(offset, arr.nbytes)[:] = arr

    def read_bytes(self, offset: int, nbytes: int) -> bytes:
        """Copy bytes out of the buffer (holes read as the fill value)."""
        self._check(offset, nbytes)
        out = np.full(nbytes, self.fill_value, dtype=np.uint8)
        for s, a in self._spans.items():
            if s < offset + nbytes and s + a.nbytes > offset:
                lo = max(s, offset)
                hi = min(s + a.nbytes, offset + nbytes)
                out[lo - offset : hi - offset] = a[lo - s : hi - s]
        return out.tobytes()

    def copy_from(
        self, other: "PagedContents", src_offset: int, dst_offset: int, nbytes: int
    ) -> None:
        """Copy a range from ``other`` without materializing holes.

        Only the *backed* spans of the source range are copied; unbacked
        source bytes leave the destination range at the source's fill
        value. This keeps GB-scale ballast copies O(real data).

        Self-copies with overlapping ranges are memmove-safe: the backed
        source bytes are snapshotted before the destination range is
        reset, so the copy always sees the pre-call source contents.
        """
        self._check(dst_offset, nbytes)
        other._check(src_offset, nbytes)
        self._mark_dirty(dst_offset, nbytes)
        if self.fill_value != other.fill_value:
            # Rare slow path: differing fills force materialization.
            self.write_bytes(dst_offset, other.read_bytes(src_offset, nbytes))
            return
        # Gather the backed source portions first — when ``other is
        # self`` and the ranges overlap, resetting the destination
        # before reading would destroy the very bytes being copied.
        shift = dst_offset - src_offset
        parts: list[tuple[int, np.ndarray]] = []
        for s, a in list(other._spans.items()):
            lo = max(s, src_offset)
            hi = min(s + a.nbytes, src_offset + nbytes)
            if lo < hi:
                seg = a[lo - s : hi - s]
                parts.append((lo + shift, seg.copy() if other is self else seg))
        # Reset the destination range to fill wherever it is backed.
        for s, a in list(self._spans.items()):
            lo = max(s, dst_offset)
            hi = min(s + a.nbytes, dst_offset + nbytes)
            if lo < hi:
                a[lo - s : hi - s] = self.fill_value
        for dst, seg in parts:
            self.write_bytes(dst, seg)

    def fill(self, value: int) -> None:
        """cudaMemset over the whole buffer: drop spans, set fill value."""
        self._spans.clear()
        self.fill_value = value & 0xFF
        self._mark_dirty(0, self.size)

    def snapshot(self) -> dict:
        """Deep copy for checkpointing."""
        return {
            "size": self.size,
            "fill": self.fill_value,
            "spans": {s: a.copy() for s, a in self._spans.items()},
        }

    def restore(self, snap: dict) -> None:
        """Restore from :meth:`snapshot`; the whole buffer becomes dirty
        (contents were replaced wholesale — callers that restore *to the
        committed cut's state*, like restart refill, clear it after)."""
        if snap["size"] != self.size:
            raise _program_error("INVALID_VALUE", "snapshot size mismatch")
        self.fill_value = snap["fill"]
        self._spans = {s: a.copy() for s, a in snap["spans"].items()}
        self._mark_dirty(0, self.size)

    def equal_contents(self, other: "PagedContents") -> bool:
        """Bit-exact comparison (materialization-layout independent)."""
        if self.size != other.size:
            return False
        # Merge both span sets into a sorted union of intervals.
        intervals = sorted(
            [(s, s + a.nbytes) for s, a in self._spans.items()]
            + [(s, s + a.nbytes) for s, a in other._spans.items()]
        )
        merged: list[tuple[int, int]] = []
        for lo, hi in intervals:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        for lo, hi in merged:
            if self.read_bytes(lo, hi - lo) != other.read_bytes(lo, hi - lo):
                return False
        covered = sum(hi - lo for lo, hi in merged)
        if covered < self.size and self.fill_value != other.fill_value:
            return False
        return True


def leave_unbuilt(buf) -> None:
    """Take a buffer that just built its state out of its runtime's
    never-built table (unless it was freed meanwhile: another
    allocation may hold the address)."""
    table = buf.unbuilt
    if table is not None:
        buf.unbuilt = None
        addr = buf.addr
        if table.rows.get(addr) == buf.uid:  # a lone row, at dict speed
            del table.rows[addr]
        elif table.pieces and table.get(addr) == buf.uid:
            del table[addr]  # a run's member: its piece splits


@dataclass(slots=True, eq=False)
class DeviceBuffer:
    """One live device or pinned allocation, as an object.

    The runtime makes this object only when something looks the
    allocation up (``CudaRuntime.buffer``); before that the allocation
    is a row of the runtime's tables. Its :class:`PagedContents` is
    built on first use of :attr:`contents`. Until then the buffer holds
    a fresh allocation's bytes and nothing is dirty: the empty slot
    *is* "never used since creation". While unbuilt, the buffer also
    sits in its runtime's never-built table (:attr:`unbuilt`), which it
    leaves on that first build; a cut records the whole table in bulk.
    """

    addr: int
    size: int
    kind: str  # "device" | "host-pinned"
    #: index of the GPU holding this allocation ("device" kind only)
    device_index: int = 0
    #: runtime-unique allocation id; distinguishes two allocations that
    #: reused the same arena address across checkpoint cuts, so a GPU
    #: delta never stacks on a stale predecessor's bytes
    uid: int = 0
    #: the runtime's table of never-built buffers of this kind (address
    #: -> uid) while this buffer is in it; ``None`` once built
    unbuilt: RowTable | None = field(default=None, repr=False)
    freed: bool = field(default=False, init=False)
    _contents: PagedContents | None = field(
        default=None, init=False, repr=False
    )

    @property
    def contents(self) -> PagedContents:
        """The buffer's bytes, built (fresh: zero-filled, clean) on first
        use."""
        contents = self._contents
        if contents is None:
            contents = self._contents = PagedContents(self.size)
            leave_unbuilt(self)
        return contents

    @property
    def write_seq(self) -> int:
        """The contents' :attr:`PagedContents.write_seq`; 0 while unbuilt."""
        contents = self._contents
        return 0 if contents is None else contents.write_seq

    def dirty_bytes_since(self, epoch: int) -> int:
        """The contents' :meth:`PagedContents.dirty_bytes_since`; 0 while
        unbuilt."""
        contents = self._contents
        return 0 if contents is None else contents.dirty_bytes_since(epoch)


@dataclass(slots=True)
class _FreeBlock:
    start: int
    size: int


#: sort key of the arena free list
_block_start = attrgetter("start")
_block_span = attrgetter("start", "size")


class ArenaAllocator:
    """Deterministic first-fit sub-allocator over mmap-created arenas.

    Args:
        mmap_fn: called to create a new arena; returns its base address.
            In CRAC this is routed through the lower half's interposed
            ``mmap`` so arenas are attributed to the lower half.
        capacity: device memory capacity; exceeded ⇒ ``CudaError`` (OOM).
        extra_mmaps_per_arena: number of small bookkeeping mmaps issued
            alongside each arena, reproducing the paper's observation
            that one ``cudaMalloc`` may issue *many* ``mmap`` calls.
    """

    def __init__(
        self,
        mmap_fn: Callable[[int], int],
        capacity: int,
        *,
        extra_mmaps_per_arena: int = 3,
    ) -> None:
        self._mmap = mmap_fn
        self.capacity = capacity
        self.extra_mmaps_per_arena = extra_mmaps_per_arena
        self._free: list[_FreeBlock] = []  # sorted by start
        #: addr -> block size; a run carved at once is one row
        self.active = RowTable()
        #: running sum of ``active.values()`` — kept in lockstep by
        #: alloc/free/reserve so the per-alloc capacity check is O(1)
        #: instead of an O(live-allocations) recomputation
        self._active_bytes = 0
        self.arena_bytes = 0
        self.mmap_calls = 0
        #: optional repro.sanitizer hook target (memcheck lifecycle);
        #: attached by Sanitizer.attach, consulted in alloc/free
        self.sanitizer = None

    @property
    def active_bytes(self) -> int:
        return self._active_bytes

    def alloc(self, nbytes: int) -> int:
        """Allocate; deterministic for a fixed alloc/free sequence."""
        if nbytes <= 0:
            raise _program_error("INVALID_VALUE", "cudaMalloc of non-positive size")
        # _align_up(nbytes), inlined on the allocation hot path
        need = (nbytes + ALLOC_ALIGN - 1) & ~(ALLOC_ALIGN - 1)
        if self._active_bytes + need > self.capacity:
            raise _program_error(
                "MEMORY_ALLOCATION",
                "out of device memory (cudaErrorMemoryAllocation)",
            )
        for i, blk in enumerate(self._free):
            if blk.size >= need:
                addr = blk.start
                if blk.size == need:
                    self._free.pop(i)
                else:
                    blk.start += need
                    blk.size -= need
                self.active.rows[addr] = need  # a fresh key
                self._active_bytes += need
                if self.sanitizer is not None:
                    self.sanitizer.on_arena_alloc(self, addr, need)
                return addr
        # No free block fits: grow by a new arena (possibly many mmaps).
        self._grow(max(_align_up(need, 1 << 20), ARENA_CHUNK))
        return self.alloc(nbytes)

    def alloc_run(
        self, nbytes: int, count: int, expected: Sequence[int] | None = None
    ) -> Sequence[int]:
        """Carve ``count`` equal allocations at once: the addresses, free
        list, active map, arena growth and sanitizer hooks of ``count``
        sequential :meth:`alloc` calls, with one slice per free block
        instead of one scan per call. Each block's slice is one run row
        of :attr:`active`, and the addresses come back as a ``range``
        when one block held them all (a list otherwise).

        The run stops short where the next call would raise (out of
        memory, or a non-positive size): the caller re-issues that call
        through :meth:`alloc` to raise its error. With ``expected``, it
        also stops right after the first address that differs from
        ``expected`` (replay's divergence point).
        """
        if nbytes <= 0:
            return []
        need = (nbytes + ALLOC_ALIGN - 1) & ~(ALLOC_ALIGN - 1)
        # The capacity check of each call, for the whole run at once.
        count = min(count, max(0, (self.capacity - self._active_bytes) // need))
        parts: list[range] = []
        made = 0
        free = self._free
        while made < count:
            for i, blk in enumerate(free):  # first fit, as each call scans
                if blk.size >= need:
                    break
            else:
                self._grow(max(_align_up(need, 1 << 20), ARENA_CHUNK))
                continue
            taken = min(count - made, blk.size // need)
            addrs = range(blk.start, blk.start + taken * need, need)
            if expected is not None:
                want = expected[made:made + taken]
                if (want != addrs if type(want) is range
                        else want != list(addrs)):
                    taken = next(
                        k for k, (a, b) in enumerate(zip(addrs, want)) if a != b
                    ) + 1
                    addrs = addrs[:taken]
                    count = made + taken  # stop at the divergent call
            self.active.insert_run(blk.start, need, taken, need)
            self._active_bytes += taken * need
            parts.append(addrs)
            made += taken
            if blk.size == taken * need:
                del free[i]
            else:
                blk.start += taken * need
                blk.size -= taken * need
            if self.sanitizer is not None:
                for addr in addrs:
                    self.sanitizer.on_arena_alloc(self, addr, need)
        if len(parts) == 1:
            return parts[0]
        return [addr for part in parts for addr in part]

    def alloc_free_run(self, nbytes: int, count: int) -> list[int]:
        """Make ``count`` back-to-back :meth:`alloc` + :meth:`free` pairs
        of ``nbytes``; the address of each pair.

        A pair is a function of the free list: pairs are made one at a
        time until one leaves the free list as it found it (the first,
        unless it grew the arena or coalesced blocks that touched), and
        every later pair lands at that pair's address and leaves
        everything as it was, so only their sanitizer hooks are made.
        The run is empty where its first call would raise (a
        non-positive size, out of memory): the caller makes that call
        through :meth:`alloc` to raise its error.
        """
        if nbytes <= 0:
            return []
        need = (nbytes + ALLOC_ALIGN - 1) & ~(ALLOC_ALIGN - 1)
        # A pair gives back what it takes: each call passes this check
        # if the first does.
        if self._active_bytes + need > self.capacity:
            return []
        out: list[int] = []
        while len(out) < count:
            before = self.free_spans()
            addr = self.alloc(nbytes)
            self.free(addr)
            out.append(addr)
            if self.free_spans() == before:
                rest = count - len(out)
                out += [addr] * rest
                if self.sanitizer is not None:
                    for _ in range(rest):
                        self.sanitizer.on_arena_alloc(self, addr, need)
                        self.sanitizer.on_arena_free(self, addr, need)
                break
        return out

    def free_spans(self) -> list[tuple[int, int]]:
        """``(start, size)`` of each free block, in address order."""
        return list(map(_block_span, self._free))

    def _grow(self, arena_size: int) -> None:
        """Map one more arena (and its bookkeeping pages) into the free
        list."""
        base = self._mmap(arena_size)
        self.mmap_calls += 1
        for _ in range(self.extra_mmaps_per_arena):
            self._mmap(1 << 16)  # bookkeeping pages
            self.mmap_calls += 1
        self.arena_bytes += arena_size
        self._release(base, arena_size)

    def free(self, addr: int) -> int:
        """Release an allocation; returns its size."""
        active = self.active
        size = active.rows.pop(addr, None)  # a lone row, at dict speed
        if size is None and active.pieces:
            size = active.pop(addr, None)  # a run's member
        if size is None:
            if self.sanitizer is not None:
                # Record the double/invalid free before the raise so the
                # hazard survives even if the caller swallows the error.
                self.sanitizer.on_invalid_free(self, addr)
            raise _program_error(
                "INVALID_DEVICE_POINTER", f"cudaFree of unknown pointer {addr:#x}"
            )
        self._active_bytes -= size
        self._release(addr, size)
        if self.sanitizer is not None:
            self.sanitizer.on_arena_free(self, addr, size)
        return size

    def _release(self, addr: int, size: int) -> None:
        """Return ``[addr, addr+size)`` to the sorted free list,
        coalescing in place: a block that touches a free neighbour grows
        (or moves) that neighbour and builds no _FreeBlock."""
        free = self._free
        i = bisect.bisect_left(free, addr, key=_block_start)
        end = addr + size
        right = free[i] if i < len(free) and free[i].start == end else None
        if i and free[i - 1].start + free[i - 1].size == addr:
            left = free[i - 1]
            left.size += size
            if right is not None:
                left.size += right.size
                del free[i]
        elif right is not None:
            right.start = addr
            right.size += size
        else:
            free.insert(i, _FreeBlock(addr, size))

    def free_run(self, addrs: Sequence[int]) -> int:
        """Release ``addrs`` in order: the free list, active map and
        sanitizer hooks of as many sequential :meth:`free` calls.

        A ``range`` of equal, adjacent blocks (a run as :meth:`alloc_run`
        carves it) is freed as one block, and its rows leave
        :attr:`active` as one: its frees only ever merge with each other
        and with the free neighbours of its two ends, as the one block
        does. Anything else goes through :meth:`free` one address at a
        time. The run stops short at the first address that is not
        active (the call that would raise): the caller re-issues that
        call through :meth:`free` to raise its error. Returns how many it
        released.
        """
        active = self.active
        n = len(addrs)
        if type(addrs) is range and n and addrs.step > 0:
            size = addrs.step
            if active.pop_run(addrs, size):
                self._active_bytes -= n * size
                self._release(addrs[0], n * size)
                if self.sanitizer is not None:
                    for addr in addrs:
                        self.sanitizer.on_arena_free(self, addr, size)
                return n
        freed = 0
        for addr in addrs:
            if addr not in active:
                break
            self.free(addr)
            freed += 1
        return freed

    def reserve(self, addr: int, nbytes: int) -> None:
        """Mark ``[addr, addr+nbytes)`` as allocated without choosing it.

        Used at restart for re-registered ``cudaHostAlloc`` buffers: their
        pages are already mapped (restored with the upper half), so the
        fresh library must never hand out those addresses again — exactly
        as a real mmap-backed allocator would skip already-mapped pages.
        Grows arenas deterministically until the range is covered.
        """
        need = _align_up(nbytes)
        for _ in range(64):
            for i, blk in enumerate(self._free):
                if blk.start <= addr and addr + need <= blk.start + blk.size:
                    self._free.pop(i)
                    if blk.start < addr:
                        self._release(blk.start, addr - blk.start)
                    tail = blk.start + blk.size - (addr + need)
                    if tail > 0:
                        self._release(addr + need, tail)
                    self.active.rows[addr] = need  # a fresh key
                    self._active_bytes += need
                    if self.sanitizer is not None:
                        self.sanitizer.on_arena_alloc(self, addr, need)
                    return
            # Not covered yet: grow by one arena (same deterministic path
            # the original allocation took).
            self._grow(ARENA_CHUNK)
        raise _program_error(
            "INVALID_VALUE",
            f"could not reserve {addr:#x}+{nbytes:#x}: address outside any arena",
        )
