"""Forked (copy-on-write) checkpoint semantics.

The app resumes right after quiesce + snapshot; the image write runs on
a background timeline. Commit — and the image-write fault stage — move
to write completion, preserving the 2PC/abort crash-consistency rules.
"""

import numpy as np
import pytest

from repro.core import CracSession
from repro.cuda.api import FatBinary
from repro.dmtcp.store import CheckpointStore
from repro.errors import InjectedFault
from repro.harness.fault_injection import FaultInjector, FaultSpec
from repro.linux import PAGE_SIZE


def make_session(**kw):
    session = CracSession(seed=23, **kw)
    session.backend.register_app_binary(FatBinary("fk.fatbin", ("k",)))
    return session


BIG = 512 << 20  # large enough that the write time dominates the stall


class TestForkedStall:
    def test_forked_checkpoint_stalls_less_than_synchronous(self):
        s_sync = make_session()
        s_sync.split.upper_mmap(BIG)
        t0 = s_sync.process.clock_ns
        s_sync.checkpoint()
        sync_stall = s_sync.process.clock_ns - t0

        s_fork = make_session()
        s_fork.split.upper_mmap(BIG)
        t0 = s_fork.process.clock_ns
        image = s_fork.checkpoint(forked=True)
        fork_stall = s_fork.process.clock_ns - t0

        assert fork_stall < sync_stall / 2
        assert image.checkpoint_time_ns == fork_stall
        writer = s_fork.pending_forks[0]
        assert writer.in_flight(s_fork.process.clock_ns)
        assert writer.write_end_ns > s_fork.process.clock_ns

    def test_finish_blocks_until_write_end_when_idle(self):
        session = make_session()
        session.split.upper_mmap(BIG)
        session.checkpoint(forked=True)
        writer = session.pending_forks[0]
        session.finish_forked_checkpoints()
        assert session.process.clock_ns == writer.write_end_ns
        assert writer.residual_wait_ns > 0
        assert writer.committed

    def test_app_work_overlaps_the_write(self):
        """If the app computes past write_end on its own, finish() adds
        no residual wait — the write was hidden entirely."""
        session = make_session()
        session.split.upper_mmap(BIG)
        session.checkpoint(forked=True)
        writer = session.pending_forks[0]
        session.process.advance_to(writer.write_end_ns + 1)
        session.finish_forked_checkpoints()
        assert writer.residual_wait_ns == 0.0
        assert writer.committed


class TestForkedCommitPoint:
    def test_commit_deferred_to_finish(self):
        session = make_session()
        upper = session.split.upper_mmap(4 * PAGE_SIZE)
        session.process.vas.write(upper, b"dirty")
        image = session.checkpoint(forked=True)
        assert not image.committed
        # Dirty bits must survive until the background write commits.
        assert 0 in session.process.vas.find(upper).dirty
        session.finish_forked_checkpoints()
        assert image.committed
        assert 0 not in session.process.vas.find(upper).dirty

    def test_cow_window_writes_stay_dirty_and_charge_cow(self):
        session = make_session()
        upper = session.split.upper_mmap(BIG)
        session.process.vas.write(upper, b"base")
        session.checkpoint(forked=True)
        writer = session.pending_forks[0]
        # Dirty a chunk inside the write window.
        session.process.vas.write(upper + PAGE_SIZE, b"z" * (128 * PAGE_SIZE))
        session.finish_forked_checkpoints()
        assert writer.cow_bytes > 0
        assert writer.cow_time_ns > 0
        # COW-copied pages were NOT captured by the image: still dirty.
        assert 1 in session.process.vas.find(upper).dirty

    def test_fault_at_write_completion_aborts_commit(self):
        fi = FaultInjector()
        session = make_session(fault_injector=fi)
        upper = session.split.upper_mmap(4 * PAGE_SIZE)
        session.process.vas.write(upper, b"dirty")
        image = session.checkpoint(forked=True)
        fi.arm(FaultSpec("image-write", at_count=fi.visits["image-write"] + 1))
        with pytest.raises(InjectedFault):
            session.finish_forked_checkpoints()
        assert not image.committed
        assert session.pending_forks == []
        assert 0 in session.process.vas.find(upper).dirty, (
            "crashed forked write lost dirty bits"
        )

    def test_next_checkpoint_drains_previous_fork(self):
        session = make_session()
        session.split.upper_mmap(BIG)
        first = session.checkpoint(forked=True)
        second = session.checkpoint()
        assert first.committed
        assert second.committed
        assert session.pending_forks == []


class TestCowWindowRewrite:
    """A page/span the image *captured* that is re-written inside the
    forked write window. The image holds the pre-window bytes, so the
    commit must not clear the re-write's dirty bit (epoch-bounded
    clearing) — otherwise the next incremental cut silently restores
    stale data."""

    def test_rewritten_captured_page_stays_dirty_and_restores(self):
        session = make_session()
        upper = session.split.upper_mmap(4 * PAGE_SIZE)
        base = session.checkpoint()

        session.process.vas.write(upper, b"v1")
        image = session.checkpoint(forked=True, incremental=True, parent=base)
        writer = session.pending_forks[0]
        # Re-write the SAME page the image just captured, in the window.
        session.process.vas.write(upper, b"v2")
        session.finish_forked_checkpoints()

        assert image.committed
        assert writer.cow_bytes >= PAGE_SIZE, (
            "re-write of a captured page must charge COW"
        )
        assert 0 in session.process.vas.find(upper).dirty, (
            "commit cleared a page re-written after the snapshot"
        )
        # The forked image itself holds the pre-window bytes.
        assert any(
            r.start == upper and r.pages.get(0, b"").startswith(b"v1")
            for r in image.regions
        )

        inc2 = session.checkpoint(incremental=True, parent=image)
        from repro.linux import SimProcess

        fresh = SimProcess(aslr=False)
        session.checkpointer.restore_memory(inc2, fresh)
        assert fresh.vas.read(upper, 2) == b"v2", (
            "next incremental cut restored the stale pre-window bytes"
        )

    def test_rewritten_captured_gpu_span_stays_dirty_and_restores(self):
        session = make_session()
        store = CheckpointStore()
        p = session.backend.malloc(4096)
        session.backend.device_view(p, 16)[:] = 1
        base = session.checkpoint(store=store)

        session.backend.device_view(p, 16)[:] = 2
        image = session.checkpoint(
            forked=True, incremental=True, parent=base, store=store
        )
        # Re-write the captured span inside the write window.
        session.backend.device_view(p, 16)[:] = 3
        session.finish_forked_checkpoints()

        buf = session.runtime.buffer(p)
        assert buf.contents.dirty_byte_count >= 16, (
            "commit cleared a GPU span re-written after the snapshot"
        )
        session.checkpoint(incremental=True, parent=image, store=store)
        session.kill()
        session.restart_latest(store)
        assert session.backend.device_view(p, 16).tobytes() == b"\x03" * 16, (
            "delta chain restored the stale pre-window GPU bytes"
        )


class TestForkedAbort:
    """abort(): release a background write without committing — the
    fault-domain ladder tears in-flight writers down before recovery
    rolls the session back to an older generation."""

    def test_abort_releases_without_commit_and_keeps_dirty(self):
        session = make_session()
        upper = session.split.upper_mmap(4 * PAGE_SIZE)
        session.process.vas.write(upper, b"dirty")
        p = session.backend.malloc(4096)
        session.backend.device_view(p, 16)[:] = 5
        image = session.checkpoint(forked=True)
        writer = session.pending_forks[0]
        session.abort_pending_writers()
        assert writer.aborted
        assert not image.committed
        assert session.pending_forks == []
        assert 0 in session.process.vas.find(upper).dirty
        buf = session.runtime.buffer(p)
        assert buf.contents.dirty_byte_count > 0
        # A stray commit on the released image must clear nothing.
        image.mark_committed()
        assert 0 in session.process.vas.find(upper).dirty
        assert buf.contents.dirty_byte_count > 0

    def test_abort_is_idempotent_and_noop_after_finish(self):
        session = make_session()
        session.split.upper_mmap(4 * PAGE_SIZE)
        image = session.checkpoint(forked=True)
        writer = session.pending_forks[0]
        writer.abort()
        writer.abort()  # second abort: no-op
        assert writer.aborted
        # And once finished, abort must not un-commit.
        session2 = make_session()
        session2.split.upper_mmap(4 * PAGE_SIZE)
        image2 = session2.checkpoint(forked=True)
        session2.finish_forked_checkpoints()
        writer2 = image2.forked_writer
        writer2.abort()
        assert image2.committed
        assert not writer2.aborted

    def test_fault_at_write_completion_then_abort_is_clean(self):
        """A write that crashed at completion is released by abort()
        without re-raising — the ladder can always tear down."""
        fi = FaultInjector()
        session = make_session(fault_injector=fi)
        upper = session.split.upper_mmap(4 * PAGE_SIZE)
        session.process.vas.write(upper, b"dirty")
        image = session.checkpoint(forked=True)
        writer = session.pending_forks[0]
        fi.arm(FaultSpec("image-write", at_count=fi.visits["image-write"] + 1))
        with pytest.raises(InjectedFault):
            session.finish_forked_checkpoints()
        writer.abort()  # post-crash teardown: idempotent, no raise
        assert not image.committed
        assert 0 in session.process.vas.find(upper).dirty

    def test_finish_after_abort_is_noop(self):
        session = make_session()
        session.split.upper_mmap(4 * PAGE_SIZE)
        image = session.checkpoint(forked=True)
        writer = session.pending_forks.pop(0)
        writer.abort()
        writer.finish(session.process)  # must not resurrect the write
        assert not image.committed
        assert writer.aborted


class TestForkedWithStore:
    def test_generation_appears_at_finish_not_fork(self):
        session = make_session()
        session.split.upper_mmap(BIG)
        store = CheckpointStore()
        session.checkpoint(store=store, forked=True)
        assert store.generations == []
        session.finish_forked_checkpoints()
        assert len(store.generations) == 1

    def test_store_write_crash_leaves_partial_and_dirty(self):
        fi = FaultInjector()
        session = make_session(fault_injector=fi)
        upper = session.split.upper_mmap(4 * PAGE_SIZE)
        session.process.vas.write(upper, b"dirty")
        store = CheckpointStore(fault_injector=fi)
        image = session.checkpoint(store=store, forked=True)
        fi.arm(FaultSpec("image-write", at_count=fi.visits["image-write"] + 1))
        with pytest.raises(InjectedFault):
            session.finish_forked_checkpoints()
        assert store.generations == []
        assert store.discard_partials() == 1
        assert not image.committed
        assert 0 in session.process.vas.find(upper).dirty

    def test_kill_with_inflight_fork_still_commits(self):
        """The forked child outlives the parent (CRUM's model): the
        generation is restorable even though the app died mid-write."""
        session = make_session()
        upper = session.split.upper_mmap(BIG)
        session.process.vas.write(upper, b"survives")
        p = session.backend.malloc(4096)
        session.backend.device_view(p, 8)[:] = np.arange(8, dtype=np.uint8)
        store = CheckpointStore()
        session.checkpoint(store=store, forked=True)
        writer = session.pending_forks[0]
        assert writer.in_flight(session.process.clock_ns)
        death_clock = session.process.clock_ns
        session.kill()
        # The parent never waited out the write window...
        assert death_clock <= writer.write_end_ns
        # ...but the child committed the generation.
        assert len(store.generations) == 1
        report = session.restart_latest(store)
        assert report.generation == 1
        assert session.process.vas.read(upper, 8) == b"survives"
        assert session.backend.device_view(p, 8).tobytes() == bytes(range(8))
