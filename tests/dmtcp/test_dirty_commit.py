"""Regression tests: dirty-state must survive aborted checkpoints.

The original pipeline cleared each region's dirty bits *during* the
checkpoint walk, so a fault at any later stage (region-save of a later
region, the store's image-write, a 2PC abort) permanently lost them and
the next incremental cut silently omitted those pages. Dirty clearing
now happens only at the image's durable commit point.
"""

import pytest

from repro.dmtcp import DmtcpCheckpointer
from repro.dmtcp.coordinator import DmtcpCoordinator
from repro.dmtcp.store import CheckpointStore
from repro.errors import InjectedFault
from repro.harness.fault_injection import FaultInjector, FaultSpec
from repro.linux import PAGE_SIZE, SimProcess


@pytest.fixture
def proc():
    return SimProcess(aslr=False, seed=5)


def _dirty_page_set(proc, addr):
    return set(proc.vas.find(addr).dirty)


class TestCommittedCheckpointClearsDirty:
    def test_direct_checkpoint_still_clears(self, proc):
        """The store-less path keeps its old semantics: a completed
        checkpoint *is* the commit point."""
        a = proc.vas.mmap(4 * PAGE_SIZE)
        proc.vas.write(a, b"x")
        c = DmtcpCheckpointer(proc)
        image = c.checkpoint()
        assert image.committed
        assert _dirty_page_set(proc, a) == set()

    def test_commit_is_idempotent(self, proc):
        a = proc.vas.mmap(PAGE_SIZE)
        proc.vas.write(a, b"x")
        c = DmtcpCheckpointer(proc)
        image = c.checkpoint()
        proc.vas.write(a, b"y")  # re-dirty after commit
        image.mark_committed()  # second commit must not clear new dirty
        assert _dirty_page_set(proc, a) == {0}

    def test_post_snapshot_dirty_survives_commit(self, proc):
        """Pages dirtied between snapshot and commit keep their bits —
        the property forked checkpointing relies on."""
        a = proc.vas.mmap(4 * PAGE_SIZE)
        proc.vas.write(a, b"x")
        c = DmtcpCheckpointer(proc)
        image = c.checkpoint(defer_commit=True)
        proc.vas.write(a + 2 * PAGE_SIZE, b"late")  # after the snapshot
        image.mark_committed()
        assert _dirty_page_set(proc, a) == {2}


class TestAbortedCheckpointPreservesDirty:
    def test_region_save_crash_keeps_dirty_for_next_cut(self, proc):
        """THE regression: crash mid-walk, then verify the next
        incremental cut still captures the pre-crash dirties."""
        a = proc.vas.mmap(8 * PAGE_SIZE, tag="upper:data")
        proc.vas.write(a, b"base")
        fi = FaultInjector()
        c = DmtcpCheckpointer(proc, fault_injector=fi)
        base = c.checkpoint()

        proc.vas.write(a + 3 * PAGE_SIZE, b"precious dirty data")
        # Crash while walking a *later* region than the data region: the
        # buggy code had already cleared the data region's bits by then.
        fi.arm(FaultSpec(
            "region-save",
            at_count=fi.visits["region-save"] + len(proc.vas.regions()),
        ))
        with pytest.raises(InjectedFault):
            c.checkpoint(incremental=True, parent=base)

        assert 3 in _dirty_page_set(proc, a), "crash lost the dirty bits"
        inc = c.checkpoint(incremental=True, parent=base)
        saved = {
            r.start + pg * PAGE_SIZE
            for r in inc.regions
            for pg in r.pages
        }
        assert a + 3 * PAGE_SIZE in saved, (
            "post-crash incremental cut omitted the pre-crash dirty page"
        )

        fresh = SimProcess(aslr=False)
        c.restore_memory(inc, fresh)
        assert fresh.vas.read(a + 3 * PAGE_SIZE, 19) == b"precious dirty data"

    def test_store_image_write_crash_keeps_dirty(self, proc):
        a = proc.vas.mmap(4 * PAGE_SIZE, tag="upper:data")
        proc.vas.write(a, b"v0")
        fi = FaultInjector()
        c = DmtcpCheckpointer(proc, fault_injector=fi)
        coord = DmtcpCoordinator(c)
        store = CheckpointStore(fault_injector=fi)
        base = coord.checkpoint(store=store)

        proc.vas.write(a + PAGE_SIZE, b"dirty")
        fi.arm(FaultSpec("image-write", at_count=fi.visits["image-write"] + 1))
        with pytest.raises(InjectedFault):
            coord.checkpoint(incremental=True, parent=base, store=store)

        assert store.discard_partials() == 1
        assert 1 in _dirty_page_set(proc, a)
        inc = coord.checkpoint(incremental=True, parent=base, store=store)
        assert inc.committed
        assert any(r.start == a and 1 in r.pages for r in inc.regions)
        assert _dirty_page_set(proc, a) == set()

    def test_2pc_abort_keeps_dirty(self, proc):
        a = proc.vas.mmap(4 * PAGE_SIZE, tag="upper:data")
        proc.vas.write(a, b"v0")
        fi = FaultInjector()
        c = DmtcpCheckpointer(proc, fault_injector=fi)
        coord = DmtcpCoordinator(c)
        store = CheckpointStore()
        base = coord.checkpoint(store=store)

        proc.vas.write(a + 2 * PAGE_SIZE, b"dirty")
        staged = coord.stage_checkpoint(
            store, incremental=True, parent=base
        )
        assert not staged.image.committed
        assert 2 in _dirty_page_set(proc, a), (
            "staging alone must not clear dirty bits"
        )
        fi.arm(FaultSpec("commit", at_count=fi.visits["commit"] + 1))
        with pytest.raises(InjectedFault):
            DmtcpCoordinator.two_phase_commit(
                [(store, staged)], fault_injector=fi
            )
        assert staged.aborted
        assert 2 in _dirty_page_set(proc, a), "2PC abort lost dirty bits"

        # The retried 2PC captures them and only then clears.
        staged2 = coord.stage_checkpoint(store, incremental=True, parent=base)
        DmtcpCoordinator.two_phase_commit([(store, staged2)])
        assert staged2.image.committed
        assert 2 not in _dirty_page_set(proc, a)


class TestSpeculationAbortPreservesDirty:
    """Speculation-abort × defer_commit: a rolled-back speculative cut
    must leave ALL dirty bits intact — ``mark_committed`` never runs on
    it, and nothing else may clear the epochs its snapshot pinned."""

    def test_aborted_speculation_keeps_all_dirty_bits(self):
        import numpy as np

        from repro.core import CracSession
        from repro.cuda.api import FatBinary

        session = CracSession(seed=7)
        session.backend.register_app_binary(FatBinary("s.fatbin", ("k",)))
        upper = session.split.upper_mmap(8 * PAGE_SIZE)
        session.process.vas.write(upper, b"pre-cut host")
        p = session.backend.malloc(4096)
        session.backend.device_view(p, 64)[:] = np.arange(64, dtype=np.uint8)

        pre_host = set(session.process.vas.find(upper).dirty)
        buf = session.runtime.buffer(p)
        pre_gpu = buf.contents.dirty_byte_count
        assert pre_host and pre_gpu > 0

        image = session.checkpoint(speculative=True)
        # Speculative cut defers the commit: nothing cleared yet.
        assert not image.committed
        assert set(session.process.vas.find(upper).dirty) >= pre_host
        assert buf.contents.dirty_byte_count >= pre_gpu

        # More dirtying inside the capture window, then roll back.
        session.process.vas.write(upper + 4 * PAGE_SIZE, b"in-window")
        session.backend.device_view(p, 16, offset=1024)[:] = 3
        session.abort_pending_writers()

        assert not image.committed
        host_dirty = set(session.process.vas.find(upper).dirty)
        assert pre_host <= host_dirty and 4 in host_dirty, (
            "speculation abort lost host dirty bits"
        )
        assert buf.contents.dirty_byte_count >= pre_gpu, (
            "speculation abort lost GPU dirty spans"
        )
        # Even a stray commit on the rolled-back image clears nothing.
        image.mark_committed()
        assert set(session.process.vas.find(upper).dirty) == host_dirty
        assert buf.contents.dirty_byte_count >= pre_gpu

        # The next (stop-the-world) cut captures everything and is the
        # one that finally clears.
        nxt = session.checkpoint()
        assert nxt.committed
        assert set(session.process.vas.find(upper).dirty) == set()
        assert buf.contents.dirty_byte_count == 0

    def test_defer_commit_alone_keeps_dirty_until_commit(self, proc):
        """The checkpointer-level defer_commit contract the speculative
        writer builds on."""
        a = proc.vas.mmap(4 * PAGE_SIZE)
        proc.vas.write(a, b"x")
        c = DmtcpCheckpointer(proc)
        image = c.checkpoint(defer_commit=True)
        assert not image.committed
        assert _dirty_page_set(proc, a) == {0}
        image.mark_committed()
        assert _dirty_page_set(proc, a) == set()


class TestGpuDirtyPreservation:
    def test_aborted_checkpoint_keeps_gpu_dirty_spans(self):
        """The same crash-consistency property for device buffers."""
        import numpy as np

        from repro.core import CracSession
        from repro.cuda.api import FatBinary

        fi = FaultInjector()
        session = CracSession(seed=9, fault_injector=fi)
        session.backend.register_app_binary(FatBinary("t.fatbin", ("k",)))
        store = CheckpointStore(fault_injector=fi)
        p = session.backend.malloc(4096)
        session.backend.device_view(p, 8)[:] = np.arange(8, dtype=np.uint8)
        base = session.checkpoint(store=store)

        session.backend.device_view(p, 8, offset=256)[:] = 7
        buf = session.runtime.buffer(p)
        assert buf.contents.dirty_byte_count > 0
        fi.arm(FaultSpec("image-write", at_count=fi.visits["image-write"] + 1))
        with pytest.raises(InjectedFault):
            session.checkpoint(incremental=True, parent=base, store=store)
        assert buf.contents.dirty_byte_count > 0, (
            "aborted checkpoint cleared GPU dirty spans"
        )

        inc = session.checkpoint(incremental=True, parent=base, store=store)
        entry = inc.blob("crac/buffers")[p]
        assert entry["delta"]
        assert any(
            lo <= 256 < lo + len(span)
            for lo, span in entry["snapshot"]["spans"].items()
        ) or entry["snapshot"].get("whole")
        assert buf.contents.dirty_byte_count == 0
