"""Byte-accurate simulated virtual address space.

The model is a sorted list of non-overlapping page-aligned
:class:`MemoryRegion` objects. Each region has a *virtual* size (used for
checkpoint-size accounting; may be huge) and *sparse page backing*: only
pages actually written hold real bytes. Reads of never-written pages
return zeros, exactly like anonymous Linux mappings.

Two behaviours matter for the paper and are modelled faithfully:

- ``mmap(MAP_FIXED)`` silently unmaps anything in its way. When the
  clobbered pages held data, a :class:`ClobberEvent` is recorded; this is
  the "silent memory corruption" of paper §3.2.2 that CRAC must prevent
  by tracking upper-half allocations.
- With ASLR enabled, non-fixed ``mmap`` picks randomized addresses; with
  ASLR disabled (``personality(ADDR_NO_RANDOMIZE)``) placement is a
  deterministic next-fit scan, which is what makes CRAC's log-and-replay
  reproduce identical addresses on restart.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from operator import attrgetter

from repro.errors import AddressSpaceError, SegmentationFault

PAGE_SIZE = 4096

#: Default placement window for non-fixed mmap (mirrors the mmap_min_addr /
#: TASK_SIZE window of a 47-bit x86-64 user address space).
DEFAULT_MMAP_WINDOW = (0x0000_7000_0000_0000, 0x0000_7FFF_F000_0000)


_start_of = attrgetter("start")


def page_align_up(n: int) -> int:
    """Round ``n`` up to a page boundary."""
    return (n + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


#: every valid permission string: ``r`` or ``-``, ``w`` or ``-``, ``x`` or ``-``
_PERMS = frozenset(r + w + x for r in "r-" for w in "w-" for x in "x-")


def _check_perms(perms: str) -> str:
    if perms not in _PERMS:
        raise AddressSpaceError(f"bad permission string {perms!r}; expected e.g. 'rw-'")
    return perms


@dataclass
class ClobberEvent:
    """Record of a MAP_FIXED (or munmap) destroying pages that held data."""

    addr: int
    size: int
    victim_tag: str
    aggressor_tag: str
    bytes_lost: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"clobber @{self.addr:#x}+{self.size:#x}: {self.aggressor_tag!r} "
            f"overwrote {self.victim_tag!r} ({self.bytes_lost} live bytes lost)"
        )


class MemoryRegion:
    """A contiguous page-aligned mapping with sparse page backing.

    Attributes:
        start: first byte address (page aligned).
        size: length in bytes (page aligned). This is the *virtual* size;
            backing pages exist only where data was written.
        perms: three-char permission string, e.g. ``"rw-"``.
        tag: free-form owner label (``"upper:heap"``, ``"lower:libcuda"``,
            ``"[stack]"`` ...). The first colon-separated component is the
            conventional *half* owner used by the loader and CRAC.
        fresh: mapped since the last checkpoint that captured it
            committed (no older image holds its bytes); see :meth:`clear_dirty`.
    """

    __slots__ = ("start", "size", "perms", "tag", "fresh", "_pages", "_dirty_epoch", "_write_seq")

    def __init__(self, start: int, size: int, perms: str, tag: str) -> None:
        if start % PAGE_SIZE or size % PAGE_SIZE or size <= 0:
            raise AddressSpaceError(
                f"region [{start:#x}, +{size:#x}) not page aligned / empty"
            )
        if perms not in _PERMS:
            _check_perms(perms)  # raises
        self.start = start
        self.size = size
        self.perms = perms
        self.tag = tag
        self.fresh = False
        self._pages: dict[int, bytearray] = {}
        #: page index → epoch of its last write (see :attr:`write_seq`) —
        #: the soft-dirty tracking incremental checkpointing relies on.
        #: A page is *dirty* while it has an entry here.
        self._dirty_epoch: dict[int, int] = {}
        self._write_seq = 0

    @property
    def dirty(self) -> set[int]:
        """Page indices written since the last :meth:`clear_dirty`."""
        return set(self._dirty_epoch)

    @property
    def write_seq(self) -> int:
        """Monotone write counter; a checkpoint snapshot records it so
        commit can distinguish pre-snapshot dirtiness (safe to clear)
        from a page re-written while the image was still being flushed
        (must stay dirty for the next incremental cut)."""
        return self._write_seq

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.start + self.size

    @property
    def backed_bytes(self) -> int:
        """Number of bytes actually held in backing pages."""
        return len(self._pages) * PAGE_SIZE

    def contains(self, addr: int, n: int = 1) -> bool:
        """True if ``[addr, addr+n)`` lies fully inside this region."""
        return self.start <= addr and addr + n <= self.end

    # -- data access (addresses are absolute) -------------------------------

    def write(self, addr: int, data: bytes | bytearray | memoryview) -> None:
        """Write ``data`` at absolute address ``addr`` (must be in range)."""
        data = memoryview(data).cast("B")
        n = len(data)
        if not self.contains(addr, max(n, 1)):
            raise SegmentationFault(addr, "write outside region")
        off = addr - self.start
        pos = 0
        self._write_seq += 1
        while pos < n:
            pg, pg_off = divmod(off + pos, PAGE_SIZE)
            take = min(PAGE_SIZE - pg_off, n - pos)
            page = self._pages.get(pg)
            if page is None:
                page = self._pages[pg] = bytearray(PAGE_SIZE)
            page[pg_off : pg_off + take] = data[pos : pos + take]
            self._dirty_epoch[pg] = self._write_seq
            pos += take

    def read(self, addr: int, n: int) -> bytes:
        """Read ``n`` bytes at absolute address ``addr``; holes read as 0."""
        if not self.contains(addr, max(n, 1)):
            raise SegmentationFault(addr, "read outside region")
        off = addr - self.start
        out = bytearray(n)
        pos = 0
        while pos < n:
            pg, pg_off = divmod(off + pos, PAGE_SIZE)
            take = min(PAGE_SIZE - pg_off, n - pos)
            page = self._pages.get(pg)
            if page is not None:
                out[pos : pos + take] = page[pg_off : pg_off + take]
            pos += take
        return bytes(out)

    # -- structural operations ----------------------------------------------

    def split(self, addr: int) -> tuple["MemoryRegion", "MemoryRegion"]:
        """Split into two regions at page-aligned absolute address ``addr``."""
        if addr % PAGE_SIZE or not (self.start < addr < self.end):
            raise AddressSpaceError(f"bad split point {addr:#x}")
        left = MemoryRegion(self.start, addr - self.start, self.perms, self.tag)
        right = MemoryRegion(addr, self.end - addr, self.perms, self.tag)
        cut_pg = (addr - self.start) // PAGE_SIZE
        for pg, page in self._pages.items():
            if pg < cut_pg:
                left._pages[pg] = page
            else:
                right._pages[pg - cut_pg] = page
        for pg, epoch in self._dirty_epoch.items():
            if pg < cut_pg:
                left._dirty_epoch[pg] = epoch
            else:
                right._dirty_epoch[pg - cut_pg] = epoch
        left._write_seq = right._write_seq = self._write_seq
        left.fresh = right.fresh = self.fresh
        return left, right

    def copy(self) -> "MemoryRegion":
        """A region equal to this one that shares no page with it: the
        same extent, owner, pages, dirty bits and write counter."""
        twin = MemoryRegion.__new__(MemoryRegion)
        twin.start, twin.size, twin.perms, twin.tag, twin.fresh = (
            self.start, self.size, self.perms, self.tag, self.fresh
        )
        pages = self._pages
        twin._pages = dict(zip(pages, map(bytearray, pages.values())))
        twin._dirty_epoch = dict(self._dirty_epoch)
        twin._write_seq = self._write_seq
        return twin

    def pages_snapshot(self) -> dict[int, bytes]:
        """Immutable copy of the backing pages, keyed by page index."""
        return {pg: bytes(page) for pg, page in self._pages.items()}

    def load_pages(self, pages: dict[int, bytes]) -> None:
        """Replace backing pages from a snapshot (used by restore)."""
        self._pages = dict(zip(pages, map(bytearray, pages.values())))
        self._write_seq += 1
        self._dirty_epoch = dict.fromkeys(pages, self._write_seq)

    def clear_dirty(
        self,
        pages: "set[int] | frozenset[int] | None" = None,
        *,
        up_to_epoch: int | None = None,
    ) -> None:
        """Reset soft-dirty tracking once a checkpoint durably commits.

        ``pages=None`` clears everything; otherwise only the given page
        indices are cleared. With ``up_to_epoch`` (the :attr:`write_seq`
        recorded at snapshot time) a page is cleared only if its last
        write precedes the snapshot — a page the image captured but the
        app re-wrote while the (forked) write was still in flight keeps
        its dirty bit, so the next incremental cut saves the new bytes.
        The region is no longer :attr:`fresh`: the image holds it.
        """
        self.fresh = False
        if pages is None:
            self._dirty_epoch.clear()
            return
        for pg in pages:
            epoch = self._dirty_epoch.get(pg)
            if epoch is not None and (up_to_epoch is None or epoch <= up_to_epoch):
                del self._dirty_epoch[pg]

    def dirty_pages_since(self, epoch: int) -> int:
        """Number of pages whose last write came after ``epoch`` — the
        copy-on-write exposure of a snapshot taken at that epoch."""
        return sum(1 for e in self._dirty_epoch.values() if e > epoch)

    def dirty_pages_snapshot(self) -> dict[int, bytes]:
        """Copies of only the pages written since the last clear."""
        return {
            pg: bytes(self._pages[pg])
            for pg in self._dirty_epoch
            if pg in self._pages
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MemoryRegion {self.start:#x}-{self.end:#x} {self.perms} "
            f"{self.tag!r} backed={self.backed_bytes}>"
        )


class VirtualAddressSpace:
    """The full simulated address space of one process.

    Args:
        aslr: whether non-fixed ``mmap`` placement is randomized. Mutable
            at runtime via :attr:`aslr` (the ``personality`` syscall model
            flips it).
        seed: RNG seed for ASLR placement, so even "random" layouts are
            reproducible in tests.
    """

    def __init__(self, aslr: bool = True, seed: int = 0) -> None:
        self.aslr = aslr
        self._rng = random.Random(seed)
        self._starts: list[int] = []  # sorted region start addresses
        self._regions: dict[int, MemoryRegion] = {}  # keyed by start
        self._next_fit_cursor = DEFAULT_MMAP_WINDOW[0]
        self.clobber_events: list[ClobberEvent] = []

    # -- inspection ----------------------------------------------------------

    def regions(self) -> list[MemoryRegion]:
        """All regions sorted by start address."""
        return [self._regions[s] for s in self._starts]

    def find(self, addr: int) -> MemoryRegion | None:
        """The region containing ``addr``, or None."""
        i = bisect.bisect_right(self._starts, addr) - 1
        if i >= 0:
            r = self._regions[self._starts[i]]
            if r.contains(addr):
                return r
        return None

    @property
    def total_mapped(self) -> int:
        """Sum of virtual sizes of all regions."""
        return sum(r.size for r in self._regions.values())

    def overlapping(self, addr: int, size: int) -> list[MemoryRegion]:
        """Regions intersecting ``[addr, addr+size)``, sorted."""
        starts, regions = self._starts, self._regions
        end = addr + size
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0:
            i = 0
        n = len(starts)
        out = []
        while i < n:
            r = regions[starts[i]]
            if r.start >= end:
                break
            if r.start + r.size > addr:
                out.append(r)
            i += 1
        return out

    # -- mmap / munmap / mprotect ---------------------------------------------

    def mmap(
        self,
        size: int,
        addr: int | None = None,
        *,
        fixed: bool = False,
        perms: str = "rw-",
        tag: str = "anon",
        window: tuple[int, int] | None = None,
    ) -> int:
        """Map ``size`` bytes and return the chosen start address.

        With ``fixed=True`` the mapping is placed exactly at ``addr``,
        silently unmapping whatever was there (Linux ``MAP_FIXED``
        semantics; a :class:`ClobberEvent` is recorded if live data dies).
        Otherwise an address is chosen inside ``window`` — randomized when
        :attr:`aslr` is on, deterministic next-fit when off.
        """
        size = page_align_up(size)
        if size == 0:
            raise AddressSpaceError("mmap of zero bytes")
        if fixed:
            if addr is None or addr % PAGE_SIZE:
                raise AddressSpaceError("MAP_FIXED requires a page-aligned address")
            self._evict(addr, size, aggressor_tag=tag)
            start = addr
        else:
            start = self._place(size, hint=addr, window=window)
        region = MemoryRegion(start, size, perms, tag)
        region.fresh = True
        self._insert(region)
        return start

    def map_regions(self, regions: list[MemoryRegion]) -> None:
        """``MAP_FIXED`` built regions (sorted by start, disjoint, pages
        loaded) in one pass — a restorer's precomputed VMA list. Whatever
        they cover is unmapped first, as :meth:`mmap` with ``fixed=True``
        would, and the sorted index takes them in one merge."""
        starts, mapped = self._starts, self._regions
        end = -1
        for region in regions:
            start = region.start
            if start < end:
                raise AddressSpaceError(
                    f"map_regions: region at {start:#x} overlaps or "
                    "precedes the one before it"
                )
            end = start + region.size
            # Evict only when a mapping is in the way: the one starting
            # last before ``end`` reaches past ``start``.
            i = bisect.bisect_left(starts, end) - 1
            if i >= 0 and starts[i] + mapped[starts[i]].size > start:
                self._evict(start, region.size, aggressor_tag=region.tag)
        mapped.update(zip(map(_start_of, regions), regions))
        self._starts = sorted(mapped)

    def munmap(self, addr: int, size: int) -> None:
        """Unmap ``[addr, addr+size)``; partial overlaps split regions."""
        size = page_align_up(size)
        if addr % PAGE_SIZE:
            raise AddressSpaceError("munmap address not page aligned")
        self._evict(addr, size, aggressor_tag="munmap", record=False)

    def mprotect(self, addr: int, size: int, perms: str) -> None:
        """Change permissions over ``[addr, addr+size)`` (must be mapped)."""
        _check_perms(perms)
        size = page_align_up(size)
        victims = self.overlapping(addr, size)
        covered = sum(min(r.end, addr + size) - max(r.start, addr) for r in victims)
        if covered != size:
            raise SegmentationFault(addr, "mprotect over unmapped range")
        for r in victims:
            self._remove(r)
            for piece in _carve(r, addr, size):
                if addr <= piece.start and piece.end <= addr + size:
                    piece.perms = perms
                self._insert(piece)

    # -- data access -----------------------------------------------------------

    def write(self, addr: int, data: bytes | bytearray | memoryview) -> None:
        """Write bytes, spanning regions if they are contiguous and writable."""
        data = memoryview(data).cast("B")
        pos = 0
        while pos < len(data):
            r = self.find(addr + pos)
            if r is None:
                raise SegmentationFault(addr + pos, "write to unmapped address")
            if "w" not in r.perms:
                raise SegmentationFault(addr + pos, "write to read-only mapping")
            take = min(r.end - (addr + pos), len(data) - pos)
            r.write(addr + pos, data[pos : pos + take])
            pos += take

    def read(self, addr: int, n: int) -> bytes:
        """Read bytes, spanning contiguous readable regions."""
        out = bytearray()
        pos = 0
        while pos < n:
            r = self.find(addr + pos)
            if r is None:
                raise SegmentationFault(addr + pos, "read of unmapped address")
            if "r" not in r.perms:
                raise SegmentationFault(addr + pos, "read of PROT_NONE mapping")
            take = min(r.end - (addr + pos), n - pos)
            out += r.read(addr + pos, take)
            pos += take
        return bytes(out)

    # -- internals ---------------------------------------------------------------

    def _first_fit(self, cand: int, size: int, hi: int) -> int | None:
        """Lowest address at or above ``cand`` where ``size`` bytes fit
        below ``hi`` without touching a mapping, or None."""
        starts, regions = self._starts, self._regions
        # i: the first region that ends past cand
        i = bisect.bisect_right(starts, cand) - 1
        if i < 0 or starts[i] + regions[starts[i]].size <= cand:
            i += 1
        while cand + size <= hi:
            if i == len(starts) or starts[i] >= cand + size:
                return cand
            cand = starts[i] + regions[starts[i]].size
            i += 1
        return None

    def _insert(self, region: MemoryRegion) -> None:
        if self.overlapping(region.start, region.size):
            raise AddressSpaceError(
                f"internal: inserting overlapping region at {region.start:#x}"
            )
        i = bisect.bisect_left(self._starts, region.start)
        self._starts.insert(i, region.start)
        self._regions[region.start] = region

    def _remove(self, region: MemoryRegion) -> None:
        i = bisect.bisect_left(self._starts, region.start)
        if i >= len(self._starts) or self._starts[i] != region.start:
            raise AddressSpaceError("internal: removing unknown region")
        self._starts.pop(i)
        del self._regions[region.start]

    def _evict(
        self, addr: int, size: int, *, aggressor_tag: str, record: bool = True
    ) -> None:
        """Unmap ``[addr, addr+size)``, splitting partial overlaps."""
        for r in self.overlapping(addr, size):
            self._remove(r)
            lost = 0
            for piece in _carve(r, addr, size):
                if addr <= piece.start and piece.end <= addr + size:
                    lost += sum(1 for _ in piece._pages) * PAGE_SIZE
                else:
                    self._insert(piece)
            if record and lost:
                self.clobber_events.append(
                    ClobberEvent(
                        addr=max(r.start, addr),
                        size=min(r.end, addr + size) - max(r.start, addr),
                        victim_tag=r.tag,
                        aggressor_tag=aggressor_tag,
                        bytes_lost=lost,
                    )
                )

    def _place(
        self, size: int, hint: int | None, window: tuple[int, int] | None
    ) -> int:
        lo, hi = window or DEFAULT_MMAP_WINDOW
        if hint is not None and hint % PAGE_SIZE == 0:
            if not self.overlapping(hint, size) and lo <= hint and hint + size <= hi:
                return hint
        if self.aslr:
            # Randomized placement with bounded retries, then fall back to scan.
            span = (hi - lo - size) // PAGE_SIZE
            if span > 0:
                for _ in range(64):
                    cand = lo + self._rng.randrange(span) * PAGE_SIZE
                    if not self.overlapping(cand, size):
                        return cand
        # Deterministic next-fit scan from the window base (or the cursor
        # when scanning the default window, to mimic Linux's top-down-ish
        # monotone behaviour without randomness), wrapping around once.
        start = lo if window is not None else max(lo, self._next_fit_cursor)
        for first in (start, lo):
            cand = self._first_fit(first, size, hi)
            if cand is not None:
                if window is None:
                    self._next_fit_cursor = cand + size
                return cand
        raise AddressSpaceError(f"out of address space for {size:#x} bytes")


def _carve(region: MemoryRegion, addr: int, size: int) -> list[MemoryRegion]:
    """Split ``region`` so that ``[addr, addr+size)`` boundaries fall on
    region boundaries; returns the pieces in address order."""
    pieces = [region]
    for cut in (addr, addr + size):
        new_pieces = []
        for p in pieces:
            if p.start < cut < p.end:
                new_pieces.extend(p.split(cut))
            else:
                new_pieces.append(p)
        pieces = new_pieces
    return pieces
