"""Regression: restore onto a new node must rebaseline stale liveness state.

Two bugs this file pins down:

- An application-held stream handle crossing a restore carries the dead
  process's timeline: a poison flag from a fault that hit *after* the
  checkpoint cut, or a ``ready_ns`` inflated by a hung kernel. Without
  the restart-time rebaseline, the first post-restore sync either trips
  the watchdog on a fault that no longer exists or absorbs the inflated
  baseline into the restored clock.
- The cluster heartbeat monitor keeps per-rank missed-beat counters
  across a migration; pre-migration misses must not survive the move or
  a freshly restored session starts life a beat away from being
  declared dead.
"""

import numpy as np

from repro.core.session import CracSession
from repro.cuda.api import FatBinary
from repro.cuda.errors import CudaErrorCode, cuda_error
from repro.dmtcp.coordinator import HeartbeatMonitor
from repro.dmtcp.store import CheckpointStore

FB = FatBinary("rebase.fatbin", ("mutate",))
N = 64
NBYTES = 4 * N


def make_session(seed=7):
    session = CracSession(gpu="V100", seed=seed)
    session.backend.register_app_binary(FB)
    ptr = session.backend.malloc(NBYTES)
    session.backend.memcpy(ptr, np.arange(N, dtype=np.float32), NBYTES, "h2d")
    return session, ptr


def bump(session, ptr, stream=None):
    def fn():
        view = session.backend.device_view(ptr, NBYTES, np.float32)
        np.add(view, 1.0, out=view)

    session.backend.launch("mutate", fn, stream=stream, duration_ns=50_000)


class TestStreamRebaseline:
    def _poison_and_restart(self, *, gpu_dst):
        store = CheckpointStore()
        session, ptr = make_session()
        stream = session.backend.stream_create()
        bump(session, ptr, stream=stream)
        session.backend.stream_synchronize(stream)
        session.checkpoint(store=store)
        # Post-cut staleness on the held handle: a fault that hit after
        # the cut and a ready_ns inflated by a hung kernel. Neither
        # describes restored work — the checkpoint drained the stream.
        stream.fault = cuda_error(
            CudaErrorCode.ECC_UNCORRECTABLE, "post-cut fault"
        )
        stream.ready_ns = session.process.clock_ns + 1e12
        session.kill()
        session.gpu = gpu_dst
        session.restart_latest(store, allow_heterogeneous=gpu_dst != "V100")
        return session, ptr, stream

    def test_restart_clears_stale_fault_and_clamps_ready_ns(self):
        session, ptr, stream = self._poison_and_restart(gpu_dst="V100")
        assert stream.fault is None
        assert stream.ready_ns <= session.process.clock_ns
        session.kill()

    def test_first_sync_after_restore_is_not_a_spurious_trip(self):
        session, ptr, stream = self._poison_and_restart(gpu_dst="K600")
        t0 = session.process.clock_ns
        bump(session, ptr, stream=stream)
        session.backend.stream_synchronize(stream)
        # The sync waits out one 50 µs kernel — not the 1000 s phantom
        # baseline the dead process left on the handle.
        assert session.process.clock_ns - t0 < 1e9
        out = np.empty(N, dtype=np.float32)
        session.backend.memcpy(out, ptr, NBYTES, "d2h")
        assert np.array_equal(out, np.arange(N, dtype=np.float32) + 2.0)
        session.kill()

    def test_guarded_sync_after_migration_does_not_trip_the_watchdog(self):
        store = CheckpointStore()
        session, ptr = make_session()
        domain = session.enable_fault_domain(store)
        stream = session.backend.stream_create()
        bump(session, ptr, stream=stream)
        session.backend.stream_synchronize(stream)
        domain.checkpoint()
        stream.fault = cuda_error(
            CudaErrorCode.ECC_UNCORRECTABLE, "post-cut fault"
        )
        stream.ready_ns = session.process.clock_ns + 1e12
        session.kill()
        session.gpu = "K600"
        session.restart_latest(store, allow_heterogeneous=True)
        session.backend.stream_synchronize(stream)
        assert domain.report.watchdog_trips == 0
        assert domain.report.stream_resets == 0
        session.kill()


class TestHeartbeatRebaseline:
    def test_rebaseline_forgets_premigration_misses(self):
        monitor = HeartbeatMonitor(2, max_missed=3)
        monitor.beat(0, arrived=False)
        monitor.beat(0, arrived=False)
        assert monitor.health[0].missed == 2
        monitor.rebaseline()
        assert monitor.health[0].missed == 0
        assert not monitor.health[0].dead
        # One more miss after the move must not be fatal.
        monitor.beat(0, arrived=False)
        assert monitor.dead_ranks() == []

    def test_rebaseline_without_revive_keeps_dead_verdicts(self):
        monitor = HeartbeatMonitor(2, max_missed=2)
        monitor.beat(1, arrived=False)
        monitor.beat(1, arrived=False)
        assert monitor.dead_ranks() == [1]
        monitor.rebaseline()
        assert monitor.dead_ranks() == [1]
        monitor.rebaseline(revive=True)
        assert monitor.dead_ranks() == []
        assert monitor.health[1].missed == 0
