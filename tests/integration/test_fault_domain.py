"""The GPU runtime fault domain: watchdog, ladder rungs, 2PC rank death.

Acceptance scenarios for the escalation ladder:

- a corrupted transfer (CRC mismatch) is healed by the retry rung with
  seeded exponential backoff — the data lands intact;
- a hung kernel / stalled copy engine is caught by the virtual-time
  watchdog at the next sync and healed by the stream-reset rung, with
  the abandoned in-flight window replayed from the stream-op log;
- an uncorrectable ECC error escalates to device reset + restore from
  the checkpoint store, with lost virtual work accounted;
- an exhausted ladder surfaces a typed ``RecoveryAbortedError`` with
  the full attempt trail — never a silent wrong answer;
- a rank dying between prepare and commit of a coordinated checkpoint
  leaves no generation half-committed, and the surviving quorum
  recovers from the prior cut (which store GC must have kept).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import CracSession
from repro.cuda.api import FatBinary
from repro.cuda.errors import CudaErrorCode, cuda_error
from repro.dmtcp.coordinator import HeartbeatMonitor
from repro.dmtcp.store import CheckpointStore
from repro.errors import (
    CoordinatedAbortError,
    CudaError,
    RankDeathError,
    RecoveryAbortedError,
)
from repro.gpu.timing import DEFAULT_WATCHDOG_LIMITS
from repro.harness.fault_injection import FaultInjector, FaultSpec
from repro.mpi import MpiWorld

FB = FatBinary("domain.fatbin", ("mutate",))
N = 64
NBYTES = 4 * N


def make_guarded(injector=None, *, seed=7, store=None):
    """Session + fault domain + one device buffer holding arange(N)."""
    session = CracSession(seed=seed, fault_injector=injector)
    store = store if store is not None else CheckpointStore()
    domain = session.enable_fault_domain(store)
    session.backend.register_app_binary(FB)
    ptr = session.backend.malloc(NBYTES)
    x = np.arange(N, dtype=np.float32)
    session.backend.memcpy(ptr, x, NBYTES, "h2d")
    return session, domain, ptr


def bump(session, ptr):
    """Launch one kernel that increments the buffer in place."""

    def fn():
        view = session.backend.device_view(ptr, NBYTES, np.float32)
        np.add(view, 1.0, out=view)

    session.backend.launch("mutate", fn, duration_ns=50_000)


def readback(session, ptr):
    out = np.empty(N, dtype=np.float32)
    session.backend.memcpy(out, ptr, NBYTES, "d2h")
    return out


class TestRetryRung:
    def test_corrupted_transfer_retried_with_backoff(self):
        inj = FaultInjector([FaultSpec("xfer-corrupt", at_count=1)], seed=3)
        session, domain, ptr = make_guarded(inj)
        out = readback(session, ptr)
        assert np.array_equal(out, np.arange(N, dtype=np.float32))
        rep = domain.report
        assert rep.retries == 1
        assert rep.backoff_ns > 0
        assert rep.stream_resets == 0 and rep.restores == 0
        (attempt,) = rep.attempts
        assert attempt.rung == "retry"
        assert "TRANSFER_CRC_MISMATCH" in attempt.error

    def test_backoff_grows_exponentially_with_jitter(self):
        # Two consecutive corruptions in one failure episode: the second
        # retry doubles the base delay before jitter.
        inj = FaultInjector(
            [FaultSpec("xfer-corrupt", probability=1.0, max_fires=2)], seed=3
        )
        session, domain, ptr = make_guarded(inj)
        out = readback(session, ptr)
        assert np.array_equal(out, np.arange(N, dtype=np.float32))
        backoffs = [
            a.backoff_ns for a in domain.report.attempts if a.rung == "retry"
        ]
        assert len(backoffs) == 2
        # Jitter is in [0.5, 1.5); doubling the base dominates it:
        # 2·j2/j1 > 2·(0.5/1.5) > 0.5 always.
        assert backoffs[1] > backoffs[0] * 0.5
        assert domain.report.backoff_ns == sum(backoffs)

    def test_uvm_fault_storm_retried(self):
        inj = FaultInjector([FaultSpec("uvm-storm", at_count=1)], seed=3)
        session, domain, _ = make_guarded(inj)
        mptr = session.backend.malloc_managed(8192)
        view = session.backend.managed_view(mptr, 8192)
        view[:] = 0x5A
        session.backend.mem_prefetch(mptr, 8192)  # trips the storm
        assert domain.report.retries == 1
        assert bytes(session.backend.managed_view(mptr, 8192)) == b"\x5A" * 8192

    def test_program_error_is_surfaced_unchanged(self):
        session, domain, _ = make_guarded()

        def bad_call():
            raise cuda_error(CudaErrorCode.INVALID_VALUE, "bad argument")

        with pytest.raises(CudaError) as exc:
            domain.run("copy", bad_call)
        assert exc.value.severity == "program"
        assert not isinstance(exc.value, RecoveryAbortedError)
        assert domain.report.attempts == []


class TestWatchdogAndStreamReset:
    def test_kernel_hang_caught_at_sync_and_stream_reset(self):
        inj = FaultInjector([FaultSpec("kernel-hang", at_count=1)], seed=3)
        session, domain, ptr = make_guarded(inj)
        t0 = session.process.clock_ns
        bump(session, ptr)  # poisons the stream; no error yet
        session.backend.device_synchronize()  # watchdog fires here
        rep = domain.report
        assert rep.watchdog_trips == 1
        assert rep.stream_resets == 1
        assert rep.retries == 0 and rep.restores == 0
        # The host paid the watchdog bound, not the inflated 30 s hang.
        waited = session.process.clock_ns - t0
        assert waited >= DEFAULT_WATCHDOG_LIMITS.kernel_timeout_ns
        assert waited < 2 * DEFAULT_WATCHDOG_LIMITS.kernel_timeout_ns
        # Stream is usable again and content was applied exactly once.
        assert all(s.fault is None for s in session.runtime.streams.values())
        out = readback(session, ptr)
        assert np.array_equal(out, np.arange(N, dtype=np.float32) + 1.0)

    def test_copy_stall_caught_and_reset(self):
        # The setup h2d copy is copy-stall visit 1; the d2d is visit 2.
        inj = FaultInjector([FaultSpec("copy-stall", at_count=2)], seed=3)
        session, domain, ptr = make_guarded(inj)
        dst = session.backend.malloc(NBYTES)
        session.backend.memcpy(dst, ptr, NBYTES, "d2d")  # stalls the engine
        session.backend.device_synchronize()
        rep = domain.report
        assert rep.watchdog_trips == 1
        assert rep.stream_resets == 1
        assert (
            "STREAM_STALLED" in rep.attempts[0].error
            or "stalled" in rep.attempts[0].error
        )
        out = readback(session, dst)
        assert np.array_equal(out, np.arange(N, dtype=np.float32))

    def test_stream_scoped_sync_ignores_other_streams(self):
        inj = FaultInjector([FaultSpec("kernel-hang", at_count=1)], seed=3)
        session, domain, ptr = make_guarded(inj)
        hung = session.backend.stream_create()
        clean = session.backend.stream_create()

        session.backend.launch(
            "mutate", None, stream=hung, duration_ns=50_000
        )  # poisons `hung`
        # Draining the clean stream must not trip the hung stream's flag.
        session.backend.stream_synchronize(clean)
        assert domain.report.watchdog_trips == 0
        # Draining the poisoned stream does.
        session.backend.stream_synchronize(hung)
        assert domain.report.watchdog_trips == 1
        assert domain.report.stream_resets == 1


class TestRestoreRung:
    def test_ecc_restores_from_store_and_accounts_lost_work(self):
        inj = FaultInjector(seed=3)
        store = CheckpointStore()
        session, domain, ptr = make_guarded(inj, store=store)
        bump(session, ptr)
        session.backend.device_synchronize()
        gen = domain.checkpoint()
        assert gen is not None
        # Virtual work after the cut — all of it is at stake.
        session.process.advance(5_000_000)
        inj.arm(FaultSpec("ecc", at_count=inj.visits["ecc"] + 1))
        bump(session, ptr)  # ECC page error → kill, restore, re-execute
        session.backend.device_synchronize()
        rep = domain.report
        assert rep.restores == 1
        assert rep.lost_work_ns >= 5e6
        assert session.restarts, "restore rung must go through restart"
        out = readback(session, ptr)
        assert np.array_equal(out, np.arange(N, dtype=np.float32) + 2.0)

    @pytest.mark.parametrize("virtualize", [False, True])
    def test_restore_brings_back_post_cut_pinned_buffers(self, virtualize):
        # Pinned buffers allocated between the cut and the fault, through
        # both cudaHostAlloc and cudaMallocHost, are valid again after the
        # restore and hold their pre-fault bytes.
        inj = FaultInjector(seed=3)
        session = CracSession(
            seed=7, fault_injector=inj, address_virtualization=virtualize
        )
        domain = session.enable_fault_domain(CheckpointStore())
        session.backend.register_app_binary(FB)
        ptr = session.backend.malloc(NBYTES)
        assert domain.checkpoint() is not None
        pinned = {
            session.backend.host_alloc(4096): 7,
            session.backend.malloc_host(4096): 9,
        }
        for addr, fill in pinned.items():
            session.backend.device_view(addr, 4096)[:] = fill
        inj.arm(FaultSpec("ecc", at_count=inj.visits["ecc"] + 1))
        bump(session, ptr)
        session.backend.device_synchronize()
        assert domain.report.restores == 1
        for addr, fill in pinned.items():
            view = session.backend.device_view(addr, 4096)
            assert np.all(view == fill), hex(addr)

    def test_checkpoint_records_each_generation_at_its_cut(self):
        store = CheckpointStore()
        session, domain, ptr = make_guarded(store=store)
        first = domain.checkpoint()
        at_first = session.process.clock_ns
        session.process.advance(5_000_000_000)
        second = domain.checkpoint(
            incremental=True, parent=store.get(first).image
        )
        assert (first, second) == (1, 2)
        assert domain.committed_at[first] == at_first
        assert domain.committed_at[second] == session.process.clock_ns
        assert set(domain.committed_at) == {1, 2}

    @pytest.mark.parametrize("flag", ["forked", "speculative"])
    def test_checkpoint_rejects_background_writes(self, flag):
        # A background writer commits after the call returns, so the
        # generation read right after it would be the previous one.
        session, domain, ptr = make_guarded()
        with pytest.raises(TypeError):
            domain.checkpoint(**{flag: True})
        assert domain.committed_at == {}
        assert session.pending_forks == []

    def test_ladder_exhaustion_is_a_typed_abort_with_trail(self):
        # Every kernel admission fails fatally and there is no committed
        # generation to fall back to: the ladder must abort, not spin.
        inj = FaultInjector(
            [FaultSpec("ecc", probability=1.0, max_fires=None)], seed=3
        )
        session, domain, ptr = make_guarded(inj)
        with pytest.raises(RecoveryAbortedError) as exc:
            bump(session, ptr)
        assert exc.value.report is domain.report
        assert domain.report.aborted
        assert domain.report.attempts[-1].rung == "abort"
        assert isinstance(exc.value.cause, CudaError)
        assert exc.value.cause.fatal


class TestRankDeathDuring2PC:
    def _world(self, n_ranks, at_count, *, keep_generations=3):
        inj = FaultInjector(
            [FaultSpec("heartbeat", at_count=at_count)], seed=5
        )
        world = MpiWorld(n_ranks, seed=5, fault_injector=inj)
        stores = [
            CheckpointStore(keep_generations=keep_generations)
            for _ in range(n_ranks)
        ]
        ptrs = []
        for i, r in enumerate(world.ranks):
            p = r.backend.malloc(4096)
            r.backend.memset(p, 0x10 + i, 4096)
            ptrs.append(p)
        return world, stores, ptrs

    def test_no_generation_half_committed(self):
        # First 2PC is healthy (3 heartbeat visits); the crash lands on
        # visit 5 = rank 1's round-1 beat of the second 2PC.
        world, stores, ptrs = self._world(3, at_count=5)
        gens = world.checkpoint_all_2pc(stores, heartbeat=HeartbeatMonitor(3))
        for i, r in enumerate(world.ranks):
            r.backend.memset(ptrs[i], 0x60 + i, 4096)  # post-cut work
        with pytest.raises(RankDeathError) as exc:
            world.checkpoint_all_2pc(stores, heartbeat=HeartbeatMonitor(3))
        assert exc.value.dead_ranks == [1]
        # The aborted cut left nothing behind: same generations, no
        # partials, on every rank — including the dead one.
        for i, store in enumerate(stores):
            assert store.generations == [gens[i]]
            assert store.discard_partials() == 0
        # Survivor quorum recovers the whole job from the prior cut.
        reports = world.restart_all_latest(stores)
        assert {rep.generation for rep in reports} == set(gens)
        for i, r in enumerate(world.ranks):
            view = r.backend.device_view(ptrs[i], 4096)
            assert bytes(view) == bytes([0x10 + i]) * 4096

    def test_store_gc_keeps_prior_chain_restorable(self):
        # Commit three cuts with keep_generations=2: GC retires gen 1.
        # The rank death aborts the 4th cut; restart must land on gen 3.
        world, stores, ptrs = self._world(3, at_count=10, keep_generations=2)
        gens = []
        for round_no in range(3):
            for i, r in enumerate(world.ranks):
                r.backend.memset(ptrs[i], 0x20 + round_no * 16 + i, 4096)
            gens.append(
                world.checkpoint_all_2pc(stores, heartbeat=HeartbeatMonitor(3))
            )
        assert stores[0].generations == [gens[1][0], gens[2][0]]
        for i, r in enumerate(world.ranks):
            r.backend.memset(ptrs[i], 0x77, 4096)
        with pytest.raises(RankDeathError):
            world.checkpoint_all_2pc(stores, heartbeat=HeartbeatMonitor(3))
        reports = world.restart_all_latest(stores)
        assert {rep.generation for rep in reports} == set(gens[2])
        for i, r in enumerate(world.ranks):
            view = r.backend.device_view(ptrs[i], 4096)
            assert bytes(view) == bytes([0x20 + 2 * 16 + i]) * 4096

    def test_lost_quorum_aborts_the_job(self):
        world, stores, _ = self._world(2, at_count=3)
        world.checkpoint_all_2pc(stores, heartbeat=HeartbeatMonitor(2))
        with pytest.raises(CoordinatedAbortError):
            world.checkpoint_all_2pc(stores, heartbeat=HeartbeatMonitor(2))


# -- property: ladder recovery terminates and never silently corrupts ---------

runtime_fault_plans = st.lists(
    st.tuples(
        st.sampled_from(
            ["ecc", "kernel-hang", "copy-stall", "xfer-corrupt", "uvm-storm"]
        ),
        st.one_of(
            st.integers(min_value=1, max_value=12),  # at_count
            st.floats(min_value=0.05, max_value=0.6),  # probability
        ),
        st.integers(min_value=1, max_value=3),  # max_fires
    ),
    max_size=4,
)


def run_schedule(specs, seed):
    inj = FaultInjector(list(specs), seed=seed)
    session, domain, ptr = make_guarded(inj, seed=seed)
    domain.checkpoint()  # anchor generation for the restore rung
    for i in range(5):
        bump(session, ptr)
        session.backend.device_synchronize()
        if i == 2:
            domain.checkpoint()
    return readback(session, ptr), domain


@settings(max_examples=25, deadline=None)
@given(runtime_fault_plans, st.integers(min_value=0, max_value=2**16))
def test_ladder_terminates_and_never_silently_corrupts(plan, seed):
    """For any seeded runtime fault schedule, every guarded call either
    recovers — final state bit-identical to the fault-free run — or the
    run aborts with a typed error. Never a silent wrong answer, never a
    retry livelock."""
    specs = [
        FaultSpec(
            stage,
            at_count=when if isinstance(when, int) else None,
            probability=None if isinstance(when, int) else when,
            max_fires=max_fires,
        )
        for stage, when, max_fires in plan
    ]
    try:
        out, domain = run_schedule(specs, seed)
    except (RecoveryAbortedError, CudaError):
        return  # typed abort is an allowed outcome
    # Rung budgets are per failure episode, so the trail is bounded by
    # (guarded calls) × (retries + resets + restores + abort).
    assert len(domain.report.attempts) <= 20 * 8
    assert np.array_equal(out, np.arange(N, dtype=np.float32) + 5.0)
