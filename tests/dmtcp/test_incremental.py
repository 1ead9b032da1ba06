"""Tests for incremental (dirty-page) checkpointing."""

import pytest

from repro.dmtcp import DmtcpCheckpointer
from repro.linux import PAGE_SIZE, SimProcess


@pytest.fixture
def proc():
    return SimProcess(aslr=False, seed=31)


class TestDirtyTracking:
    def test_writes_mark_pages_dirty(self, proc):
        a = proc.vas.mmap(4 * PAGE_SIZE)
        region = proc.vas.find(a)
        proc.vas.write(a + PAGE_SIZE + 10, b"x")
        assert region.dirty == {1}

    def test_clear_dirty(self, proc):
        a = proc.vas.mmap(PAGE_SIZE)
        proc.vas.write(a, b"x")
        region = proc.vas.find(a)
        region.clear_dirty()
        assert region.dirty == set()
        assert region.read(a, 1) == b"x"  # content untouched

    def test_split_preserves_dirty(self, proc):
        a = proc.vas.mmap(4 * PAGE_SIZE)
        proc.vas.write(a, b"x")
        proc.vas.write(a + 3 * PAGE_SIZE, b"y")
        proc.vas.mprotect(a, 2 * PAGE_SIZE, "r--")  # forces a split
        left = proc.vas.find(a)
        right = proc.vas.find(a + 2 * PAGE_SIZE)
        assert 0 in left.dirty
        assert 1 in right.dirty  # page 3 → index 1 of the right half


class TestIncrementalCheckpoint:
    def test_requires_parent(self, proc):
        c = DmtcpCheckpointer(proc)
        with pytest.raises(ValueError):
            c.checkpoint(incremental=True)

    def test_incremental_image_much_smaller(self, proc):
        a = proc.vas.mmap(256 * PAGE_SIZE)  # 1 MB region
        proc.vas.write(a, b"z" * (64 * PAGE_SIZE))
        c = DmtcpCheckpointer(proc)
        base = c.checkpoint()
        proc.vas.write(a + 5 * PAGE_SIZE, b"delta")  # touch one page
        inc = c.checkpoint(incremental=True, parent=base)
        assert inc.size_bytes <= 2 * PAGE_SIZE
        assert inc.size_bytes < base.size_bytes / 100

    def test_incremental_checkpoint_faster(self, proc):
        proc.vas.mmap(1 << 28)  # 256 MB virtual
        c = DmtcpCheckpointer(proc)
        t0 = proc.clock_ns
        base = c.checkpoint()
        full_time = proc.clock_ns - t0
        t0 = proc.clock_ns
        c.checkpoint(incremental=True, parent=base)
        inc_time = proc.clock_ns - t0
        assert inc_time < full_time / 2

    def test_chain_links(self, proc):
        c = DmtcpCheckpointer(proc)
        base = c.checkpoint()
        i1 = c.checkpoint(incremental=True, parent=base)
        i2 = c.checkpoint(incremental=True, parent=i1)
        assert i2.chain() == [base, i1, i2]


def _mapped(proc):
    """Every region's (start, size, perms) and its backing pages."""
    return [
        (r.start, r.size, r.perms, r.pages_snapshot()) for r in proc.vas.regions()
    ]


def _restore_after(proc, change):
    """Cut a base, apply ``change(proc, a, b)`` to two written regions,
    cut an increment, and restore the chain into a fresh process."""
    a = proc.vas.mmap(4 * PAGE_SIZE, tag="upper:a")
    b = proc.vas.mmap(4 * PAGE_SIZE, tag="upper:b")
    for page in range(4):
        proc.vas.write(a + page * PAGE_SIZE, b"a%d" % page)
        proc.vas.write(b + page * PAGE_SIZE, b"b%d" % page)
    c = DmtcpCheckpointer(proc)
    base = c.checkpoint()
    change(proc, a, b)
    inc = c.checkpoint(incremental=True, parent=base)
    fresh = SimProcess(aslr=False, seed=99)
    c.restore_memory(inc, fresh)
    return fresh


class TestIncrementalRestore:
    def test_chain_restore_reconstructs_latest_state(self, proc):
        a = proc.vas.mmap(8 * PAGE_SIZE, tag="upper:data")
        proc.vas.write(a, b"v1-page0")
        proc.vas.write(a + PAGE_SIZE, b"v1-page1")
        c = DmtcpCheckpointer(proc)
        base = c.checkpoint()

        proc.vas.write(a, b"v2-page0")  # dirty page 0 only
        i1 = c.checkpoint(incremental=True, parent=base)

        proc.vas.write(a + 2 * PAGE_SIZE, b"v3-page2")
        i2 = c.checkpoint(incremental=True, parent=i1)

        fresh = SimProcess(aslr=False, seed=99)
        c.restore_memory(i2, fresh)
        assert fresh.vas.read(a, 8) == b"v2-page0"
        assert fresh.vas.read(a + PAGE_SIZE, 8) == b"v1-page1"
        assert fresh.vas.read(a + 2 * PAGE_SIZE, 8) == b"v3-page2"

    def test_restore_base_only_gives_old_state(self, proc):
        a = proc.vas.mmap(PAGE_SIZE)
        proc.vas.write(a, b"old")
        c = DmtcpCheckpointer(proc)
        base = c.checkpoint()
        proc.vas.write(a, b"new")
        c.checkpoint(incremental=True, parent=base)
        fresh = SimProcess(aslr=False)
        c.restore_memory(base, fresh)
        assert fresh.vas.read(a, 3) == b"old"

    def test_regions_created_after_base_restored_from_increment(self, proc):
        c = DmtcpCheckpointer(proc)
        base = c.checkpoint()
        b = proc.vas.mmap(PAGE_SIZE, tag="upper:late")
        proc.vas.write(b, b"late region")
        inc = c.checkpoint(incremental=True, parent=base)
        fresh = SimProcess(aslr=False)
        c.restore_memory(inc, fresh)
        assert fresh.vas.read(b, 11) == b"late region"

    def test_region_unmapped_after_base_stays_unmapped(self, proc):
        def change(proc, a, b):
            proc.vas.munmap(a, 4 * PAGE_SIZE)
            proc.vas.write(b, b"b0-new")

        fresh = _restore_after(proc, change)
        assert _mapped(fresh) == _mapped(proc)

    @pytest.mark.parametrize("pages", [(0, 4), (1, 2)], ids=["whole", "middle"])
    def test_range_made_read_only_after_base_stays_read_only(self, proc, pages):
        first, count = pages

        def change(proc, a, b):
            proc.vas.mprotect(a + first * PAGE_SIZE, count * PAGE_SIZE, "r--")

        fresh = _restore_after(proc, change)
        assert _mapped(fresh) == _mapped(proc)

    def test_range_mapped_again_after_base_reads_as_the_new_mapping(self, proc):
        remapped = []

        def change(proc, a, b):
            proc.vas.munmap(a, 4 * PAGE_SIZE)
            proc.vas.mmap(4 * PAGE_SIZE, a, fixed=True, tag="upper:a")
            proc.vas.write(a, b"new0")
            remapped.append(a)

        fresh = _restore_after(proc, change)
        page1 = remapped[0] + PAGE_SIZE
        assert fresh.vas.read(page1, 4) == proc.vas.read(page1, 4) == bytes(4)
        assert _mapped(fresh) == _mapped(proc)


class TestCracIncremental:
    def test_crac_session_incremental_restart(self):
        """Full CRAC cycle on an incremental chain."""
        import numpy as np

        from repro.core import CracSession
        from repro.cuda.api import FatBinary

        session = CracSession(seed=37)
        backend = session.backend
        backend.register_app_binary(FatBinary("inc.fatbin", ("k",)))
        upper = session.split.upper_mmap(64 * PAGE_SIZE)
        session.process.vas.write(upper, b"gen0")
        base = session.checkpoint()
        session.process.vas.write(upper, b"gen1")
        p = backend.malloc(256)
        backend.device_view(p, 4)[:] = np.frombuffer(b"gpu!", np.uint8)
        inc = session.checkpoint(incremental=True, parent=base)
        assert inc.size_bytes < base.size_bytes / 5

        session.kill()
        session.restart(inc)
        assert session.process.vas.read(upper, 4) == b"gen1"
        assert session.backend.device_view(p, 4).tobytes() == b"gpu!"
