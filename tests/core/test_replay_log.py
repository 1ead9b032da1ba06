"""Tests for log-and-replay (§3.2.3/§3.2.4)."""

import pytest

from repro.core import CracBackend, ReplayLog, SplitProcess
from repro.core.replay_log import LogEntry
from repro.errors import ReplayDivergenceError


def record_workload(backend):
    """A malloc/free mix covering every family."""
    ptrs = {}
    ptrs["d1"] = backend.malloc(1024)
    ptrs["d2"] = backend.malloc(4096)
    ptrs["m1"] = backend.malloc_managed(1 << 16)
    ptrs["h1"] = backend.malloc_host(512)
    ptrs["ha1"] = backend.host_alloc(2048)
    backend.free(ptrs["d1"])
    ptrs["d3"] = backend.malloc(333)
    backend.free_host(ptrs["h1"])
    ptrs["h2"] = backend.malloc_host(512)
    return ptrs


class TestReplay:
    def test_replay_reproduces_all_addresses(self):
        split = SplitProcess(seed=5)
        backend = CracBackend(split.runtime)
        record_workload(backend)
        fresh = SplitProcess(seed=5)
        backend.log.replay(fresh.runtime)
        live_old = backend.log.active_allocations()
        for addr in live_old:
            if live_old[addr].op == "host_alloc":
                continue  # re-registered, not replayed
            assert addr in fresh.runtime.allocations

    def test_replay_counts_calls(self):
        split = SplitProcess(seed=5)
        backend = CracBackend(split.runtime)
        record_workload(backend)
        fresh = SplitProcess(seed=5)
        result = backend.log.replay(fresh.runtime)
        # all 9 ops minus host_alloc (skipped) = 8
        assert result.replayed == 8

    def test_divergence_detected(self):
        log = ReplayLog()
        log.record("malloc", 64, 0xDEAD_0000)  # impossible address
        fresh = SplitProcess(seed=5)
        with pytest.raises(ReplayDivergenceError):
            log.replay(fresh.runtime)

    def test_hostalloc_free_skipped_during_replay(self):
        split = SplitProcess(seed=6)
        backend = CracBackend(split.runtime)
        p = backend.host_alloc(4096)
        backend.free_host(p)  # freed before checkpoint
        fresh = SplitProcess(seed=6)
        backend.log.replay(fresh.runtime)  # must not try to free p

    def test_replay_on_different_seed_lower_layout_still_works(self):
        """Same platform ⇒ same deterministic layout even with another
        seed, because ASLR is off; the seed only affects ASLR draws."""
        split = SplitProcess(seed=1)
        backend = CracBackend(split.runtime)
        record_workload(backend)
        fresh = SplitProcess(seed=99)
        backend.log.replay(fresh.runtime)


class TestActiveAllocations:
    def test_alloc_then_free_not_active(self):
        log = ReplayLog()
        log.record("malloc", 64, 100)
        log.record("free", 0, 100)
        assert log.active_allocations() == {}

    def test_realloc_at_same_address_active(self):
        log = ReplayLog()
        log.record("malloc", 64, 100)
        log.record("free", 0, 100)
        log.record("malloc", 64, 100)
        assert set(log.active_allocations()) == {100}

    def test_count_by_op(self):
        log = ReplayLog()
        log.record("malloc", 64, 1)
        log.record("malloc", 64, 2)
        log.record("free", 0, 1)
        assert [e.op for e in log.entries] == ["malloc", "malloc", "free"]
        assert len(log) == 3

    def test_entries_are_immutable(self):
        e = LogEntry("malloc", 64, 1)
        with pytest.raises(AttributeError):
            e.addr = 2


class TestImageLogIsFrozenAtTheCut:
    def test_restart_replays_only_the_calls_before_the_cut(self):
        """Mallocs issued after a cut are not part of its image: restart
        replays the cut's log alone, and re-issuing the post-cut calls
        lands them at their original addresses."""
        from repro.core import CracSession
        from repro.dmtcp.store import CheckpointStore

        session = CracSession(seed=8)
        backend = session.backend
        first = backend.malloc(4096)
        store = CheckpointStore()
        session.checkpoint(store=store)
        after_cut = [backend.malloc(4096), backend.malloc(4096)]
        session.kill()
        gen0 = store.generations[0]
        report = session.restart(store.get(gen0).image)
        assert report.replayed_calls == 1
        assert set(session.runtime.allocations) == {first}
        assert len(backend.log) == 1
        assert [backend.malloc(4096), backend.malloc(4096)] == after_cut
        assert after_cut[0] == 0x110000001000
