"""The lower half is loaded once and copied into every process.

Each test builds what a from-scratch load gives through
:class:`ProgramLoader` itself, so the template is checked against the
loader, not against its own output.
"""

import struct

import pytest

from repro.core import CracSession
from repro.core.halves import (
    ENTRY_POINTS,
    EntryPointTable,
    SplitProcess,
    helper_image,
    lower_half_template,
)
from repro.dmtcp.store import CheckpointStore
from repro.linux.loader import ProgramLoader
from repro.linux.process import ADDR_NO_RANDOMIZE, SimProcess


def from_scratch(seed, fsgsbase):
    """Load the helper and write its entry table, as at a cold start."""
    process = SimProcess(aslr=True, fsgsbase=fsgsbase, seed=seed)
    process.personality(ADDR_NO_RANDOMIZE)
    loader = ProgramLoader(process)
    lower = loader.load(helper_image(), "lower")
    libcuda_base = lower.regions[0][0]
    table = EntryPointTable(
        table_addr=lower.regions[-1][0],
        entries={
            name: libcuda_base + 0x100 * (i + 1)
            for i, name in enumerate(ENTRY_POINTS)
        },
    )
    process.vas.write(
        table.table_addr,
        struct.pack(f"<{len(ENTRY_POINTS)}Q", *table.entries.values()),
    )
    return process, loader, lower, table


def regions_of(process):
    """Everything a process's regions hold: extent, owner, pages and
    dirty state."""
    return described(process.vas.regions())


def described(regions):
    return [
        (r.start, r.size, r.perms, r.tag, r.pages_snapshot(), r.dirty, r.write_seq)
        for r in regions
    ]


@pytest.mark.parametrize(
    "kw",
    [
        {"seed": 0},
        {"seed": 77, "fsgsbase": True},
        {"seed": 5, "gpu": "K600", "n_gpus": 2},
    ],
    ids=["default", "fsgsbase", "two-k600"],
)
def test_templated_process_equals_a_from_scratch_build(kw):
    split = SplitProcess(load_upper=False, **kw)
    process, loader, lower, table = from_scratch(
        kw["seed"], kw.get("fsgsbase", False)
    )
    assert regions_of(split.process) == regions_of(process)
    assert split.process.clock_ns == process.clock_ns
    assert split.process.syscall_count == process.syscall_count
    assert split.process.vas.aslr is False
    assert split.process.fsgsbase == kw.get("fsgsbase", False)
    for half in ("lower", "upper"):
        assert split.loader.ranges(half) == loader.ranges(half)
    assert split.lower.regions == lower.regions
    assert split.lower.image is lower.image
    assert split.entry_table == table


def test_a_process_writes_and_maps_only_its_own_copy():
    template = described(lower_half_template().regions)
    s1, s2 = SplitProcess(seed=1), SplitProcess(seed=2)
    before = regions_of(s2.process)
    data_start, data_size = s1.lower.regions[-1]  # helper.data
    s1.process.vas.write(data_start + data_size - 8, b"private!")
    s1.runtime.cudaMalloc(1 << 20)  # maps the device arena
    assert len(s1.process.vas.regions()) > len(s2.process.vas.regions())
    assert regions_of(s2.process) == before
    assert described(lower_half_template().regions) == template
    assert not set(map(id, s1.process.vas.regions())) & set(
        map(id, lower_half_template().regions)
    )


def test_restart_loads_no_program(monkeypatch):
    session = CracSession(seed=13)
    session.backend.malloc(4096)
    store = CheckpointStore()
    session.checkpoint(store=store)
    session.kill()
    loads = []
    original = ProgramLoader.load

    def counting_load(self, image, half):
        loads.append((image.name, half))
        return original(self, image, half)

    monkeypatch.setattr(ProgramLoader, "load", counting_load)
    session.restart_latest(store)
    assert loads == []
    assert session.split.process.alive
    lower = session.split.loader.ranges("lower")
    assert set(session.split.lower.regions) <= set(lower)
