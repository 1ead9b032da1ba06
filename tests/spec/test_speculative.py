"""Speculative (validated-concurrency) checkpoint semantics.

The cut does not quiesce: kernels keep launching through the capture
window, validation at finish time detects in-window mutations via the
handle-version table + dirty epochs, conflicted resources replay, and
the committed image stays digest-equal to a stop-the-world cut. A
rolled-back speculation falls back to the forked path with every dirty
bit intact.
"""

import numpy as np
import pytest

from repro.core import CracSession
from repro.cuda.api import FatBinary
from repro.dmtcp.store import CheckpointStore
from repro.errors import SpeculationAbortedError
from repro.harness.fault_injection import FaultInjector, FaultSpec
from repro.linux import PAGE_SIZE


def make_session(**kw):
    session = CracSession(seed=23, **kw)
    session.backend.register_app_binary(FatBinary("sp.fatbin", ("k",)))
    return session


BIG = 512 << 20  # large enough that capture + write dominate the stall


class TestSpeculativeStall:
    def test_stall_is_near_zero_vs_forked(self):
        s_fork = make_session()
        s_fork.split.upper_mmap(BIG)
        t0 = s_fork.process.clock_ns
        s_fork.checkpoint(forked=True)
        fork_stall = s_fork.process.clock_ns - t0

        s_spec = make_session()
        s_spec.split.upper_mmap(BIG)
        t0 = s_spec.process.clock_ns
        image = s_spec.checkpoint(speculative=True)
        spec_stall = s_spec.process.clock_ns - t0

        # The forked mode still pays quiesce + snapshot walk; the
        # speculative cut pays only the version-table snapshot.
        assert spec_stall < fork_stall / 10
        assert image.checkpoint_time_ns == spec_stall
        writer = s_spec.pending_forks[0]
        assert writer.in_flight(s_spec.process.clock_ns)
        assert writer.validate_end_ns > s_spec.process.clock_ns

    def test_kernels_keep_launching_through_the_window(self):
        session = make_session()
        session.split.upper_mmap(BIG)
        session.checkpoint(speculative=True)
        writer = session.pending_forks[0]
        assert writer.in_flight(session.process.clock_ns)
        # No quiesce: the device accepts work mid-capture.
        for _ in range(4):
            session.backend.launch("k")
        assert session.device.total_kernels >= 4
        session.finish_forked_checkpoints()
        assert writer.committed

    def test_app_work_overlapping_the_window_hides_the_wait(self):
        session = make_session()
        session.split.upper_mmap(BIG)
        session.checkpoint(speculative=True)
        writer = session.pending_forks[0]
        session.process.advance_to(writer.validate_end_ns + 1)
        session.finish_forked_checkpoints()
        assert writer.residual_wait_ns == 0.0
        assert writer.committed


class TestValidation:
    def test_clean_window_commits_without_conflicts(self):
        session = make_session()
        p = session.backend.malloc(4096)
        session.backend.device_view(p, 4096)[:] = 3
        session.checkpoint(speculative=True)
        writer = session.pending_forks[0]
        session.finish_forked_checkpoints()
        assert writer.committed
        assert writer.invalidated == 0
        assert writer.replayed_bytes == 0

    def test_in_window_buffer_write_is_invalidated_and_replayed(self):
        session = make_session()
        p = session.backend.malloc(1 << 20)
        session.backend.device_view(p, 1 << 20)[:] = 17
        image = session.checkpoint(speculative=True)
        session.backend.device_view(p, 1 << 19)[:] = 99
        session.finish_forked_checkpoints()
        writer = image.forked_writer
        assert writer.invalidated > 0
        assert writer.replayed_bytes > 0
        assert writer.replay_time_ns > 0
        assert writer.committed
        # The image holds the *cut* bytes, not the in-window write.
        session.kill()
        session.restart(image)
        assert np.all(session.backend.device_view(p, 1 << 20) == 17)

    def test_in_window_stream_ops_conflict_via_handle_table(self):
        session = make_session()
        stream = session.backend.stream_create()
        image = session.checkpoint(speculative=True)
        session.backend.launch("k", stream=stream)
        session.finish_forked_checkpoints()
        writer = image.forked_writer
        kinds = {c.kind for c in writer.conflicts}
        assert "stream" in kinds
        assert writer.committed

    def test_in_window_host_write_is_invalidated(self):
        session = make_session()
        upper = session.split.upper_mmap(4 * PAGE_SIZE)
        session.process.vas.write(upper, b"base")
        image = session.checkpoint(speculative=True)
        session.process.vas.write(upper + PAGE_SIZE, b"in-window")
        session.finish_forked_checkpoints()
        writer = image.forked_writer
        assert any(c.kind == "region" for c in writer.conflicts)
        assert writer.committed
        # The re-written page stays dirty for the next incremental cut.
        assert 1 in session.process.vas.find(upper).dirty

    def test_restore_is_digest_equal_to_stop_the_world(self):
        """Same state, one stop-the-world cut vs one speculative cut
        with in-window noise: identical restored bytes."""
        def build():
            s = make_session()
            p = s.backend.malloc(8192)
            s.backend.device_view(p, 8192)[:] = (
                np.arange(8192, dtype=np.uint8) % 251
            )
            return s, p

        s1, p1 = build()
        sync_image = s1.checkpoint()
        s1.kill()
        s1.restart(sync_image)
        want = s1.backend.device_view(p1, 8192).copy()
        s1.kill()

        s2, p2 = build()
        spec_image = s2.checkpoint(speculative=True)
        s2.backend.device_view(p2, 4096)[:] = 0  # in-window noise
        s2.finish_forked_checkpoints()
        s2.kill()
        s2.restart(spec_image)
        got = s2.backend.device_view(p2, 8192)
        assert np.array_equal(got, want)
        s2.kill()


class TestRollbackAndFallback:
    def test_validation_fault_falls_back_to_forked(self):
        fi = FaultInjector()
        session = make_session(fault_injector=fi)
        upper = session.split.upper_mmap(4 * PAGE_SIZE)
        session.process.vas.write(upper, b"dirty")
        spec_image = session.checkpoint(speculative=True)
        writer = session.pending_forks[0]
        fi.arm(FaultSpec(
            "spec-validate", at_count=fi.visits["spec-validate"] + 1
        ))
        session.finish_forked_checkpoints()
        assert writer.aborted
        assert not spec_image.committed
        # The fallback cut committed with the same parameters.
        fallback = session.coordinator.images[-1]
        assert fallback is not spec_image
        assert fallback.committed
        assert not fallback.speculative
        assert session.pending_forks == []

    def test_fallback_preserves_store_parameters(self):
        fi = FaultInjector()
        session = make_session(fault_injector=fi)
        session.split.upper_mmap(4 * PAGE_SIZE)
        store = CheckpointStore()
        session.checkpoint(speculative=True, store=store)
        fi.arm(FaultSpec(
            "spec-validate", at_count=fi.visits["spec-validate"] + 1
        ))
        session.finish_forked_checkpoints()
        # The speculation aborted, but the forked re-issue still went
        # through the store's two-phase commit.
        assert len(store.generations) == 1

    def test_kill_with_inflight_speculation_falls_back_and_commits(self):
        """kill() drains writers while the parent is still alive, so an
        aborted speculation still gets its forked fallback — the job
        stays durably checkpointed across the death (CRUM's model)."""
        fi = FaultInjector()
        session = make_session(fault_injector=fi)
        session.split.upper_mmap(4 * PAGE_SIZE)
        store = CheckpointStore()
        session.checkpoint(speculative=True, store=store)
        fi.arm(FaultSpec(
            "spec-validate", at_count=fi.visits["spec-validate"] + 1
        ))
        session.kill()
        assert len(store.generations) == 1

    def test_dead_parent_cannot_fall_back(self):
        """Fallback needs a live process to re-cut; a dead parent's
        aborted speculation propagates."""
        fi = FaultInjector()
        session = make_session(fault_injector=fi)
        session.split.upper_mmap(BIG)
        session.checkpoint(speculative=True)
        fi.arm(FaultSpec(
            "spec-validate", at_count=fi.visits["spec-validate"] + 1
        ))
        session.process.kill()  # the process dies out from under us
        with pytest.raises(SpeculationAbortedError):
            session.finish_forked_checkpoints()

    def test_abort_is_idempotent_and_preserves_dirty(self):
        session = make_session()
        upper = session.split.upper_mmap(4 * PAGE_SIZE)
        session.process.vas.write(upper, b"dirty")
        p = session.backend.malloc(4096)
        session.backend.device_view(p, 16)[:] = 9
        image = session.checkpoint(speculative=True)
        writer = session.pending_forks[0]
        session.abort_pending_writers()
        writer.abort()  # second abort: no-op
        assert writer.aborted
        assert not image.committed
        assert session.pending_forks == []
        assert 0 in session.process.vas.find(upper).dirty
        buf = session.runtime.buffer(p)
        assert buf.contents.dirty_byte_count > 0
        # mark_committed on the rolled-back image must clear nothing.
        image.mark_committed()
        assert 0 in session.process.vas.find(upper).dirty
        assert buf.contents.dirty_byte_count > 0

    def test_speculative_rejects_forked_combination(self):
        session = make_session()
        with pytest.raises(ValueError):
            session.checkpoint(forked=True, speculative=True)
