"""Property-based tests (hypothesis) for address-space invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressSpaceError, SegmentationFault
from repro.linux import PAGE_SIZE, VirtualAddressSpace

# A compact op language: each op is (kind, page_offset, num_pages).
ops = st.lists(
    st.tuples(
        st.sampled_from(["mmap", "mmap_fixed", "munmap", "write", "read"]),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=1, max_value=8),
    ),
    max_size=40,
)

BASE = 0x4000_0000


def run_ops(vas, op_list):
    """Drive the VAS with a random op sequence, ignoring expected faults."""
    for kind, pg, npages in op_list:
        addr = BASE + pg * PAGE_SIZE
        size = npages * PAGE_SIZE
        try:
            if kind == "mmap":
                vas.mmap(size)
            elif kind == "mmap_fixed":
                vas.mmap(size, addr=addr, fixed=True, tag=f"t{pg}")
            elif kind == "munmap":
                vas.munmap(addr, size)
            elif kind == "write":
                vas.write(addr, b"x" * min(size, 64))
            elif kind == "read":
                vas.read(addr, min(size, 64))
        except (SegmentationFault, AddressSpaceError):
            pass


@settings(max_examples=200)
@given(ops)
def test_regions_never_overlap(op_list):
    vas = VirtualAddressSpace(aslr=False, seed=1)
    run_ops(vas, op_list)
    regions = vas.regions()
    for a, b in zip(regions, regions[1:]):
        assert a.end <= b.start


@settings(max_examples=200)
@given(ops)
def test_regions_always_page_aligned(op_list):
    vas = VirtualAddressSpace(aslr=False, seed=2)
    run_ops(vas, op_list)
    for r in vas.regions():
        assert r.start % PAGE_SIZE == 0
        assert r.size % PAGE_SIZE == 0
        assert r.size > 0


@settings(max_examples=200)
@given(ops)
def test_find_agrees_with_region_list(op_list):
    vas = VirtualAddressSpace(aslr=False, seed=3)
    run_ops(vas, op_list)
    for r in vas.regions():
        assert vas.find(r.start) is r
        assert vas.find(r.end - 1) is r
        assert vas.find(r.end) is not r


@settings(max_examples=100)
@given(
    st.integers(min_value=0, max_value=30),
    st.binary(min_size=1, max_size=3 * PAGE_SIZE),
)
def test_write_read_roundtrip(offset_pages, data):
    vas = VirtualAddressSpace(aslr=False, seed=4)
    addr = vas.mmap(40 * PAGE_SIZE)
    where = addr + offset_pages * PAGE_SIZE + 13
    vas.write(where, data)
    assert vas.read(where, len(data)) == data


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=15))
def test_split_preserves_content(total_pages, cut_page):
    if cut_page >= total_pages:
        cut_page = max(1, total_pages - 1)
        if cut_page == 0 or total_pages < 2:
            return
    vas = VirtualAddressSpace(aslr=False, seed=5)
    addr = vas.mmap(total_pages * PAGE_SIZE)
    payload = bytes((i % 251 for i in range(total_pages * PAGE_SIZE)))
    vas.write(addr, payload)
    # Split by munmapping nothing: use mprotect to force a split boundary.
    vas.mprotect(addr, cut_page * PAGE_SIZE, "r--")
    assert vas.read(addr, total_pages * PAGE_SIZE) == payload


@settings(max_examples=100)
@given(ops)
def test_total_mapped_equals_sum_of_regions(op_list):
    vas = VirtualAddressSpace(aslr=False, seed=6)
    run_ops(vas, op_list)
    assert vas.total_mapped == sum(r.size for r in vas.regions())


# -- placement and lookup against brute-force oracles --------------------------

#: a 48-page placement window inside the op language's 64-page span
WINDOW = (BASE + 8 * PAGE_SIZE, BASE + 56 * PAGE_SIZE)
VALID_PERMS = {r + w + x for r in "r-" for w in "w-" for x in "x-"}


def lowest_fit(vas, size, window):
    """Brute force: the lowest page address in ``window`` where ``size``
    bytes touch no region."""
    lo, hi = window
    for addr in range(lo, hi - size + 1, PAGE_SIZE):
        if all(r.end <= addr or addr + size <= r.start for r in vas.regions()):
            return addr
    return None


@settings(max_examples=200)
@given(ops, st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=6))
def test_windowed_mmap_returns_the_lowest_fit(op_list, sizes):
    vas = VirtualAddressSpace(aslr=False, seed=7)
    run_ops(vas, op_list)
    for npages in sizes:
        size = npages * PAGE_SIZE
        want = lowest_fit(vas, size, WINDOW)
        if want is None:
            with pytest.raises(AddressSpaceError, match="out of address space"):
                vas.mmap(size, window=WINDOW)
        else:
            assert vas.mmap(size, window=WINDOW) == want


@settings(max_examples=200)
@given(
    ops,
    st.integers(min_value=-4 * PAGE_SIZE, max_value=70 * PAGE_SIZE),
    st.integers(min_value=1, max_value=20 * PAGE_SIZE),
)
def test_overlapping_equals_a_filter_of_regions(op_list, offset, size):
    vas = VirtualAddressSpace(aslr=False, seed=8)
    run_ops(vas, op_list)
    addr = BASE + offset
    want = [r for r in vas.regions() if r.start < addr + size and addr < r.end]
    assert vas.overlapping(addr, size) == want


@settings(max_examples=200)
@given(st.text(alphabet="rwx-pRs ", max_size=4))
def test_permission_strings_are_checked_exactly(perms):
    vas = VirtualAddressSpace(aslr=False, seed=9)
    if perms in VALID_PERMS:
        addr = vas.mmap(PAGE_SIZE, perms=perms)
        assert vas.find(addr).perms == perms
        return
    message = f"bad permission string {perms!r}; expected e.g. 'rw-'"
    with pytest.raises(AddressSpaceError) as excinfo:
        vas.mmap(PAGE_SIZE, perms=perms)
    assert str(excinfo.value) == message
    assert vas.regions() == []
