"""A cut finds each region's skips by bisect and splits its pages in one
pass, and saves exactly what the per-region rescan saved.

``DmtcpCheckpointer.checkpoint`` sorts the page-aligned plugin skips
once per cut, finds the ones that may touch a region by bisect, and
splits the region's snapshot among the surviving parts in one pass; a
region the skips cover entirely copies no page. The reference below is
the algorithm it replaced: rescan every skip for every region, subtract
them in the order the plugins gave them, and filter the snapshot once
per surviving part. Both must save the same regions, with the same
pages in the same order, and record the same captures, for skips that
are unsorted, overlap, nest, are empty or are not page-aligned.
``test_cut_parity.py`` pins the charges of a cut.
"""

import random

import pytest

from repro.dmtcp import DmtcpCheckpointer, DmtcpPlugin
from repro.dmtcp.checkpointer import _subtract_ranges
from repro.linux import PAGE_SIZE, SimProcess
from repro.linux.address_space import MemoryRegion


def reference_subtract(span, skips):
    """Remove the skips from ``span`` in the order given."""
    parts = [span]
    for s_start, s_size in skips:
        s_end = s_start + s_size
        new = []
        for lo, hi in parts:
            if s_end <= lo or s_start >= hi:
                new.append((lo, hi))
                continue
            if lo < s_start:
                new.append((lo, s_start))
            if s_end < hi:
                new.append((s_end, hi))
        parts = new
    return parts


def reference_regions(proc, ranges, *, incremental):
    """The regions the per-region rescan saved, as comparable tuples."""
    skips = []
    for s_start, s_size in ranges:
        lo = s_start - (s_start % PAGE_SIZE)
        hi = (s_start + s_size + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
        skips.append((lo, hi - lo))
    out = []
    for region in proc.vas.regions():
        snapshot = (
            region.dirty_pages_snapshot() if incremental
            else region.pages_snapshot()
        )
        r_start, r_end = region.start, region.end
        vetoed = [
            (s_start, s_size) for s_start, s_size in skips
            if s_start < r_end and r_start < s_start + s_size
        ]
        for lo, hi in reference_subtract((r_start, r_end), vetoed):
            shift = (lo - region.start) // PAGE_SIZE
            pages = [
                (pg - shift, data) for pg, data in snapshot.items()
                if lo <= region.start + pg * PAGE_SIZE < hi
            ]
            out.append((lo, hi - lo, region.perms, region.tag, pages,
                        incremental))
    return out


def _saved(image):
    return [
        (r.start, r.size, r.perms, r.tag, list(r.pages.items()),
         r.incremental)
        for r in image.regions
    ]


def _veto(ranges):
    class Veto(DmtcpPlugin):
        def skip_ranges(self):
            return list(ranges)

    return Veto()


def _process(rng):
    """A process with regions of several sizes, pages written in a
    shuffled order (the snapshot's order is the write order)."""
    proc = SimProcess(aslr=False, seed=3)
    bases = []
    for n_pages in (1, 3, 8, 2, 16, 5):
        base = proc.vas.mmap(n_pages * PAGE_SIZE, tag=f"upper:{n_pages}")
        bases.append((base, n_pages))
        for pg in rng.sample(range(n_pages), max(1, n_pages // 2)):
            proc.vas.write(base + pg * PAGE_SIZE + rng.randrange(64),
                           f"{base:x}:{pg}".encode())
    return proc, bases


def _skips(rng, bases):
    """Unsorted, overlapping, nested, empty and unaligned skips, one of
    them covering a whole region."""
    lo = bases[0][0] - 2 * PAGE_SIZE
    hi = bases[-1][0] + bases[-1][1] * PAGE_SIZE + 2 * PAGE_SIZE
    out = [(bases[3][0], bases[3][1] * PAGE_SIZE)]  # a whole region
    for _ in range(rng.randrange(3, 12)):
        start = rng.randrange(lo, hi)
        out.append((start, rng.choice([0, 1, 100, PAGE_SIZE, 3 * PAGE_SIZE + 7,
                                       rng.randrange(20 * PAGE_SIZE)])))
    out.append(out[-1])  # a duplicate
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("incremental", [False, True], ids=["full", "incr"])
def test_cut_saves_what_the_per_region_rescan_saved(seed, incremental,
                                                    monkeypatch):
    rng = random.Random(seed)
    proc, bases = _process(rng)
    ranges = _skips(rng, bases)
    half = len(ranges) // 2
    # two plugins, so the cut gathers skips from both
    ckpt = DmtcpCheckpointer(proc, [_veto(ranges[:half]),
                                    _veto(ranges[half:])])
    parent = ckpt.checkpoint() if incremental else None
    if incremental:
        base, n_pages = bases[4]
        proc.vas.write(base + (n_pages - 1) * PAGE_SIZE, b"late")
        proc.vas.write(base, b"early")
    want = reference_regions(proc, ranges, incremental=incremental)
    captures = [(r.start, frozenset(r.dirty), r.write_seq)
                for r in proc.vas.regions()]
    copied = []
    name = "dirty_pages_snapshot" if incremental else "pages_snapshot"
    snapshot = getattr(MemoryRegion, name)
    monkeypatch.setattr(MemoryRegion, name, lambda region: (
        copied.append(region.start), snapshot(region))[1])
    # uncommitted, so the image still holds its capture records
    image = ckpt.checkpoint(incremental=incremental, parent=parent,
                            defer_commit=True)
    assert _saved(image) == want
    assert [(r.start, pages, epoch) for r, pages, epoch
            in image.region_captures] == captures
    # the region a skip covers: no saved part, no page copied
    covered = bases[3][0]
    assert all(r.start != covered for r in image.regions)
    assert covered not in copied


def test_subtract_ranges_matches_the_ordered_subtraction():
    rng = random.Random(7)
    for _ in range(2000):
        span = (rng.randrange(0, 50), rng.randrange(50, 120))
        skips = [
            (rng.randrange(-10, 130), rng.choice([0, rng.randrange(1, 40)]))
            for _ in range(rng.randrange(0, 8))
        ]
        assert _subtract_ranges(span, skips) == reference_subtract(span, skips)
