"""An allocation nothing touched is a row, not an object.

A session makes thousands of allocations, touches a few, and is cut in
full and incrementally, killed and restarted from its store. Afterwards
no ``DeviceBuffer`` or ``ManagedBuffer`` exists for an untouched
allocation (counted over every object the collector tracks). A lookup
then makes the object with the allocation's uid, size and device, and a
second lookup returns the same object. The fault domain's restore and
failover rungs re-apply the pre-fault bytes of the buffers that hold
state only: the untouched allocations stay rows, with the same bytes.
A sanitizer's attach sweep and leak report read the rows too.
"""

import gc
import zlib

import pytest

from repro.cluster import Cluster, ClusterNode, Interconnect
from repro.core import CracSession
from repro.cuda.api import FatBinary
from repro.dmtcp.store import CheckpointStore
from repro.gpu.memory import DeviceBuffer
from repro.gpu.uvm import UVM_PAGE, ManagedBuffer
from repro.harness.fault_injection import FaultInjector, FaultSpec
from repro.sanitizer import Sanitizer

N_DEVICE = 10_000
N_MANAGED = 300


def _instances(cls: type, addrs: list[int]) -> list:
    """The live ``cls`` objects of ``addrs`` (garbage of earlier sessions
    collected first)."""
    addrs = set(addrs)
    gc.collect()
    return [
        obj for obj in gc.get_objects()
        if type(obj) is cls and obj.addr in addrs
    ]


def _cut_kill_restart(session: CracSession, cls: type, untouched: list[int]):
    """A full and an incremental cut, then ``kill`` and
    ``restart_latest``; no ``cls`` object of ``untouched`` exists at any
    point."""
    assert _instances(cls, untouched) == []
    store = CheckpointStore()
    base = session.checkpoint(store=store)
    image = session.checkpoint(store=store, incremental=True, parent=base)
    assert _instances(cls, untouched) == []
    session.kill()
    session.restart_latest(store)
    assert _instances(cls, untouched) == []
    return image


def _check_lookups(runtime, untouched: list[int], cls: type, size: int,
                   kind: str, device: int) -> None:
    """Lookups make the right objects, one per allocation; replay gave
    the allocations consecutive uids in allocation order."""
    first = runtime.buffer(untouched[0])
    for k in (0, 1, len(untouched) // 2, len(untouched) - 1):
        buf = runtime.buffer(untouched[k])
        assert type(buf) is cls
        assert (buf.addr, buf.size, buf.kind, buf.device_index) == (
            untouched[k], size, kind, device
        )
        assert buf.uid == first.uid + k
        assert buf.unbuilt is not None  # a lookup builds no contents
        assert runtime.buffer(untouched[k]) is buf
    assert len(_instances(cls, untouched)) == 4


@pytest.mark.parametrize("device", [0, 1])
def test_untouched_device_allocations_stay_rows(device):
    session = CracSession(seed=0, n_gpus=2)
    backend = session.backend
    backend.set_device(device)
    addrs = backend.malloc_run(256, N_DEVICE)
    touched, untouched = addrs[-1], addrs[:-1]
    backend.device_view(touched, 8)[:] = 1
    _cut_kill_restart(session, DeviceBuffer, untouched)

    runtime = session.runtime
    assert set(untouched) <= runtime.unbuilt_device.keys()
    assert touched not in runtime.unbuilt_device
    assert bytes(backend.device_view(touched, 8)) == b"\x01" * 8
    _check_lookups(runtime, untouched, DeviceBuffer, 256, "device", device)


def test_untouched_managed_allocations_stay_rows():
    session = CracSession(seed=0)
    backend = session.backend
    addrs = [backend.malloc_managed(UVM_PAGE) for _ in range(N_MANAGED)]
    touched, untouched = addrs[-1], addrs[:-1]
    backend.managed_view(touched, 8)[:] = 2
    image = _cut_kill_restart(session, ManagedBuffer, untouched)
    never_built = image.blob("crac/never-built")
    record = {a: never_built.sizes[a] for a in never_built.managed}
    assert record == dict.fromkeys(untouched, UVM_PAGE)
    _cut_kill_restart(session, ManagedBuffer, untouched)

    runtime = session.runtime
    assert set(untouched) <= runtime.unbuilt_managed.keys()
    assert bytes(backend.managed_view(touched, 8)) == b"\x02" * 8
    _check_lookups(runtime, untouched, ManagedBuffer, UVM_PAGE, "managed", 0)
    # First touch: host-resident zeros, and the buffer leaves the table.
    buf = runtime.buffer(untouched[0])
    assert not buf.residency.any()
    assert untouched[0] not in runtime.unbuilt_managed


FB = FatBinary("rows.fatbin", ("bump",))


def _digests(runtime) -> dict[int, int]:
    """CRC of every live allocation's bytes: a row's are a fresh
    allocation's zeros, read without making its object."""
    return {
        addr: zlib.crc32(
            bytes(size) if addr not in runtime._objects
            else runtime.buffer(addr).contents.read_bytes(0, size)
        )
        for addr, size in runtime.allocations.items()
    }


def test_restore_and_failover_rungs_leave_untouched_allocations_rows():
    """Rung 3 (restore) and rung 4 (failover) re-apply the pre-fault
    bytes of the buffers that hold state; the untouched allocations,
    before and after the cut, stay rows through both."""
    src, dst = ClusterNode("src"), ClusterNode("dst")
    cluster = Cluster([src, dst], interconnect=Interconnect(seed=6))
    injector = FaultInjector(seed=3)
    session = CracSession(seed=0, fault_injector=injector)
    src.adopt("job", session)
    domain = session.enable_fault_domain(src.store)
    backend = session.backend
    backend.register_app_binary(FB)
    addrs = backend.malloc_run(256, N_DEVICE)
    touched, untouched = addrs[-1], addrs[:-1]

    def bump():
        def fn():
            view = backend.device_view(touched, 8)
            view += 1

        backend.launch("bump", fn, duration_ns=50_000)
        backend.device_synchronize()

    bump()
    assert domain.checkpoint() is not None
    cluster.replicate("src", "dst")
    # After the cut: more untouched allocations, and a write.
    untouched = [*untouched, *backend.malloc_run(256, 100)]
    bump()
    want = _digests(session.runtime)
    assert _instances(DeviceBuffer, untouched) == []

    # Rung 3: a fatal fault in a guarded call restores the cut locally.
    injector.arm(FaultSpec("ecc", at_count=injector.visits["ecc"] + 1))
    bump()
    assert domain.report.restores == 1
    assert _instances(DeviceBuffer, untouched) == []
    runtime = session.runtime
    assert set(untouched) <= runtime.unbuilt_device.keys()
    want[touched] = zlib.crc32(bytes([3] * 8) + bytes(248))
    assert _digests(runtime) == want

    # Rung 4: the node dies; the shipped generation is restored on dst.
    domain.failover_handler = cluster.make_failover_handler(
        session, "job", "src", "dst"
    )
    domain.failover_now(RuntimeError("node died"))
    assert domain.report.failovers == 1
    assert _instances(DeviceBuffer, untouched) == []
    runtime = session.runtime
    assert set(untouched) <= runtime.unbuilt_device.keys()
    assert _digests(runtime) == want
    assert bytes(backend.device_view(untouched[0], 256)) == bytes(256)
    session.kill()


def test_sanitizer_reads_untouched_allocations_as_rows():
    """Attaching sweeps the live allocations and finishing reports the
    leaks among them, both without making an object."""
    session = CracSession(seed=0)
    backend = session.backend
    before = backend.malloc_run(256, N_DEVICE)
    sanitizer = Sanitizer()
    sanitizer.attach(session.runtime)
    after = [*backend.malloc_run(512, 3), backend.malloc_managed(UVM_PAGE)]
    report = sanitizer.finish()
    assert _instances(DeviceBuffer, [*before, *after]) == []
    assert _instances(ManagedBuffer, after) == []
    assert [(h.checker, h.kind, h.message) for h in report.hazards] == [
        ("memcheck", "leak", f"{kind} allocation of {size} bytes at "
         f"{addr:#x} never freed")
        for addr, size, kind in sorted(
            [(a, 512, "device") for a in after[:3]]
            + [(after[3], UVM_PAGE, "managed")]
        )
    ]
    session.kill()
