"""Live and naive migration: blackout, integrity, pins, link faults."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterNode,
    Interconnect,
    LiveMigration,
    naive_migrate,
)
from repro.core.session import CracSession
from repro.cuda.api import FatBinary
from repro.dmtcp.image import SavedRegion
from repro.errors import ClusterError, MigrationError, NodeDeathError
from tests.conftest import counted_calls

FB = FatBinary("migrate.fatbin", ("mutate",))
N = 64
NBYTES = 4 * N


def make_session(node, job="job", seed=7):
    """A session homed on ``node`` with one buffer holding arange(N)."""
    session = CracSession(gpu=node.gpu, seed=seed)
    node.adopt(job, session)
    session.backend.register_app_binary(FB)
    ptr = session.backend.malloc(NBYTES)
    session.backend.memcpy(ptr, np.arange(N, dtype=np.float32), NBYTES, "h2d")
    return session, ptr


def bump(session, ptr):
    def fn():
        view = session.backend.device_view(ptr, NBYTES, np.float32)
        np.add(view, 1.0, out=view)

    session.backend.launch("mutate", fn, duration_ns=50_000)
    session.backend.device_synchronize()


def readback(session, ptr):
    out = np.empty(N, dtype=np.float32)
    session.backend.memcpy(out, ptr, NBYTES, "d2h")
    return out


class TestLiveMigration:
    def test_precopy_cutover_preserves_state_across_gpu_models(self):
        src = ClusterNode("a", gpu="V100")
        dst = ClusterNode("b", gpu="K600")
        session, ptr = make_session(src)
        mig = LiveMigration(
            session, src, dst, interconnect=Interconnect(seed=1), job="job"
        )
        mig.begin()
        bump(session, ptr)
        mig.precopy_round()
        bump(session, ptr)
        rep = mig.cutover()
        assert mig.phase == "done"
        assert session.gpu == "K600"
        assert "job" in dst.sessions and "job" not in src.sessions
        assert np.array_equal(
            readback(session, ptr), np.arange(N, dtype=np.float32) + 2.0
        )
        assert rep.mode == "live"
        assert rep.precopy_rounds == 1
        assert rep.full_bytes > 0 and rep.delta_bytes > 0
        assert rep.delta_bytes < rep.full_bytes
        assert rep.blackout_ns > 0
        # Work keeps flowing after the move.
        bump(session, ptr)
        assert np.array_equal(
            readback(session, ptr), np.arange(N, dtype=np.float32) + 3.0
        )

    def test_each_shipped_region_is_checksummed_once_on_export(
        self, monkeypatch
    ):
        # Six cuts (begin, four pre-copy rounds, cutover) ship six
        # generations of ten regions. Each export verifies only its own
        # generation's regions: the ancestors were verified when they
        # shipped (all of the chain per export made 210 calls).
        src, dst = ClusterNode("a"), ClusterNode("b")
        session, ptr = make_session(src)
        mig = LiveMigration(
            session, src, dst, interconnect=Interconnect(seed=1), job="job"
        )
        exported, checked = [], []
        export = src.store.export_generation

        def export_generation(generation):
            # count the checksums of the export alone, not of the
            # cut's staging or the destination's restore
            exported.append(generation)
            with counted_calls(SavedRegion, "checksum") as calls:
                record = export(generation)
            checked.extend(region for (region,) in calls)
            return record

        monkeypatch.setattr(src.store, "export_generation", export_generation)
        mig.begin()
        for _ in range(4):
            bump(session, ptr)
            mig.precopy_round()
        bump(session, ptr)
        mig.cutover()
        assert len(exported) == 6
        assert len(checked) == len({id(r) for r in checked}) == 60

    def test_phase_order_is_enforced(self):
        src, dst = ClusterNode("a"), ClusterNode("b")
        session, _ = make_session(src)
        mig = LiveMigration(
            session, src, dst, interconnect=Interconnect(), job="job"
        )
        with pytest.raises(MigrationError):
            mig.precopy_round()
        with pytest.raises(MigrationError):
            mig.cutover()
        mig.begin()
        with pytest.raises(MigrationError):
            mig.begin()

    def test_cannot_target_a_dead_node(self):
        src, dst = ClusterNode("a"), ClusterNode("b")
        dst.fail()
        session, _ = make_session(src)
        with pytest.raises(NodeDeathError):
            LiveMigration(session, src, dst, interconnect=Interconnect())
        with pytest.raises(NodeDeathError):
            naive_migrate(session, src, dst, interconnect=Interconnect())

    def test_in_flight_generations_are_pinned_against_gc(self):
        # keep-1 retention on the source: without the in-flight pin,
        # checkpoints committed while the base image ships would evict it.
        src = ClusterNode("a", keep_generations=1)
        dst = ClusterNode("b")
        session, ptr = make_session(src)
        mig = LiveMigration(
            session, src, dst, interconnect=Interconnect(seed=2), job="job"
        )
        base_gen = mig.begin()
        for _ in range(3):
            bump(session, ptr)
            session.checkpoint(store=src.store)
        assert base_gen in src.store.generations
        assert base_gen in src.store.pinned()
        mig.precopy_round()
        mig.cutover()
        # The destination's imports are the ack: every pin is released.
        assert src.store.pinned() == []
        session.checkpoint(store=src.store)  # fresh root, then GC
        src.store.gc()
        assert base_gen not in src.store.generations


class TestBlackout:
    def _migrate(self, live):
        src = ClusterNode("a", gpu="V100")
        dst = ClusterNode("b", gpu="K600")
        ic = Interconnect(seed=3)
        session, ptr = make_session(src)
        # A fat upper half makes the full image dwarf the dirty delta —
        # the regime live migration exists for.
        session.split.upper_mmap(8 << 20)
        if live:
            mig = LiveMigration(session, src, dst, interconnect=ic, job="job")
            mig.begin()
            bump(session, ptr)
            mig.precopy_round()
            bump(session, ptr)
            rep = mig.cutover()
        else:
            bump(session, ptr)
            bump(session, ptr)
            rep = naive_migrate(session, src, dst, interconnect=ic, job="job")
        assert np.array_equal(
            readback(session, ptr), np.arange(N, dtype=np.float32) + 2.0
        )
        session.kill()
        return rep

    def test_live_blackout_beats_stop_ship_restore(self):
        live = self._migrate(live=True)
        naive = self._migrate(live=False)
        assert live.blackout_ns < naive.blackout_ns
        # Naive ships everything inside the blackout; live only the
        # final delta.
        assert naive.full_bytes > live.delta_bytes


class TestLinkFaults:
    def test_corrupt_then_drop_is_healed_by_retries(self):
        src, dst = ClusterNode("a"), ClusterNode("b")
        ic = Interconnect(seed=4, fault_plan={0: "corrupt", 1: "drop"})
        session, ptr = make_session(src)
        rep = naive_migrate(session, src, dst, interconnect=ic, job="job")
        assert rep.retries == 2
        assert np.array_equal(
            readback(session, ptr), np.arange(N, dtype=np.float32)
        )
        outcomes = [t.outcome for t in ic.transfers]
        assert outcomes == ["corrupt", "drop", "ok"]

    def test_persistent_faults_exhaust_the_budget(self):
        src, dst = ClusterNode("a"), ClusterNode("b")
        ic = Interconnect(seed=5, fault_plan={i: "drop" for i in range(10)})
        session, _ = make_session(src)
        with pytest.raises(MigrationError):
            naive_migrate(
                session, src, dst, interconnect=ic, job="job", retries=2
            )


class TestNode:
    def test_slots_and_duplicate_jobs_are_enforced(self):
        node = ClusterNode("a", slots=1)
        node.launch("j1")
        with pytest.raises(ClusterError):
            node.launch("j1")
        with pytest.raises(ClusterError):
            node.launch("j2")

    def test_adopt_requires_matching_gpu_model(self):
        node = ClusterNode("a", gpu="K600")
        session = CracSession(gpu="V100", seed=1)
        with pytest.raises(ClusterError):
            node.adopt("job", session)
        session.kill()

    def test_dead_node_refuses_new_work(self):
        node = ClusterNode("a")
        node.fail()
        with pytest.raises(NodeDeathError):
            node.launch("job")
