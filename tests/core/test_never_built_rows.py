"""An allocation nothing touched is a row, not an object.

A session makes thousands of allocations, touches a few, and is cut in
full and incrementally, killed and restarted from its store. Afterwards
no ``DeviceBuffer`` or ``ManagedBuffer`` exists for an untouched
allocation (counted over every object the collector tracks). A lookup
then makes the object with the allocation's uid, size and device, and a
second lookup returns the same object.
"""

import gc

import pytest

from repro.core import CracSession
from repro.dmtcp.store import CheckpointStore
from repro.gpu.memory import DeviceBuffer
from repro.gpu.uvm import UVM_PAGE, ManagedBuffer

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
    record = image.blob("crac/never-built")["managed"]
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
