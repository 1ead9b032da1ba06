"""Interior pointers resolve by the allocation that holds them.

``CudaRuntime._resolve_host_ptr`` (which pinned or managed buffer a
memcpy's host pointer lies in) and ``cudaPointerGetAttributes`` find the
allocation holding an address by a floor lookup on the allocation table:
a bisect over its run rows and one pass over its lone rows, with no run
expanded. These tests hold both to the linear scan of every allocation
they replace, on pointers into a pinned, a managed and a device
allocation and into the members of a run, before and after a member of
the run is freed.
"""

import numpy as np

from repro.core import CracSession


def _scanned_host_ptr(rt, ptr):
    """The linear scan ``_resolve_host_ptr`` made: the pinned or managed
    allocation holding ``ptr``, as ``(base, offset)``."""
    if not isinstance(ptr, (int, np.integer)):
        return None, 0
    addr = int(ptr)
    if addr in rt.allocations:
        return addr, 0
    for base, size in rt.allocations.items():
        if base <= addr < base + size and rt.kind_of(base) != "device":
            return base, addr - base
    return None, 0


def _scanned_attributes(rt, addr):
    """The linear scan ``cudaPointerGetAttributes`` made."""
    for base, size in rt.allocations.items():
        if base <= addr < base + size:
            return {"type": rt.kind_of(base), "devicePointer": base,
                    "size": size}
    return {"type": "unregistered", "devicePointer": 0, "size": 0}


def _probes(rt):
    """Every allocation's base, interior, last byte and first byte past
    it, and addresses below and above them all."""
    out = set()
    for base, size in rt.allocations.items():
        out.update((base, base + 1, base + size // 2, base + size - 1,
                    base + size, base + size + 7))
    low, high = min(rt.allocations), max(rt.allocations)
    out.update((low - 1, high + (1 << 20), 0x1000))
    return sorted(out)


def _check(session):
    rt = session.runtime
    for ptr in _probes(rt):
        buf, offset = rt._resolve_host_ptr(ptr)
        assert (None if buf is None else buf.addr, offset) == \
            _scanned_host_ptr(rt, ptr), hex(ptr)
        assert rt.cudaPointerGetAttributes(ptr) == \
            _scanned_attributes(rt, ptr), hex(ptr)


def test_interior_pointers_resolve_as_the_scan_did():
    session = CracSession(seed=0)
    b = session.backend
    pinned = b.malloc_host(5000)
    managed = b.malloc_managed(3 * 4096)
    device = b.malloc(1000)
    run = b.malloc_run(300, 40)  # 512-byte blocks holding 300 bytes each
    assert type(run) is range and len(session.runtime.allocations.rows) < 10
    _check(session)
    b.free(run[7])  # the run splits around the freed member
    b.free(run[0])
    _check(session)
    b.memcpy(device, pinned + 100, 64, "h2d")  # from inside the pinned one
    assert pinned in session.runtime._objects
    assert {device, managed} <= set(session.runtime.allocations)


def test_a_member_interior_pointer_names_its_member():
    session = CracSession(seed=0)
    run = session.backend.malloc_run(256, 1000)
    rt = session.runtime
    member = run[613]
    attrs = rt.cudaPointerGetAttributes(member + 255)
    assert attrs == {"type": "device", "devicePointer": member, "size": 256}
    assert rt._resolve_host_ptr(member + 17) == (None, 0)  # device memory
    assert rt.cudaPointerGetAttributes(run[-1] + 256)["type"] == "unregistered"
