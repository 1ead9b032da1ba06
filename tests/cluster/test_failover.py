"""Rung 4 of the ladder: heartbeat death detection and node failover."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterNode, Interconnect
from repro.core.session import CracSession
from repro.cuda.api import FatBinary
from repro.dmtcp.store import CheckpointStore
from repro.errors import ClusterError, NodeDeathError
from repro.harness.fault_injection import FaultInjector, FaultSpec

FB = FatBinary("failover.fatbin", ("mutate",))
N = 64
NBYTES = 4 * N


def bump(session, ptr):
    def fn():
        view = session.backend.device_view(ptr, NBYTES, np.float32)
        np.add(view, 1.0, out=view)

    session.backend.launch("mutate", fn, duration_ns=50_000)
    session.backend.device_synchronize()


class TestHeartbeat:
    def test_dead_node_is_declared_after_max_missed_rounds(self):
        cluster = Cluster(
            [ClusterNode("a"), ClusterNode("b")], max_missed=2
        )
        assert cluster.heartbeat_rounds() == []
        cluster.kill_node("b")
        assert cluster.heartbeat_rounds() == ["b"]
        assert cluster.dead_nodes() == ["b"]

    def test_detection_latency_is_charged_to_survivors(self):
        src = ClusterNode("a")
        cluster = Cluster(
            [src, ClusterNode("b")], heartbeat_interval_s=0.5, max_missed=2
        )
        session = src.launch("job")
        t0 = session.process.clock_ns
        cluster.kill_node("b")
        cluster.heartbeat_rounds()
        # Two missed rounds at 0.5 s each before the verdict.
        assert session.process.clock_ns - t0 == 1_000_000_000
        session.kill()

    def test_duplicate_node_names_are_rejected(self):
        with pytest.raises(ClusterError):
            Cluster([ClusterNode("a"), ClusterNode("a")])


class TestFailoverRung:
    def make_cluster(self, *, gpu_dst="K600"):
        src = ClusterNode("src", gpu="V100")
        dst = ClusterNode("dst", gpu=gpu_dst)
        cluster = Cluster([src, dst], interconnect=Interconnect(seed=6))
        return cluster, src, dst

    def test_ladder_reaches_rung_4_and_finishes_on_the_survivor(self):
        cluster, src, dst = self.make_cluster()
        inj = FaultInjector(seed=3)
        session = CracSession(gpu="V100", seed=7, fault_injector=inj)
        src.adopt("job", session)
        # Local restores off the table: a dying node's store is no
        # recovery line, so the only rung left past reset is failover.
        domain = session.enable_fault_domain(src.store, max_restores=0)
        session.backend.register_app_binary(FB)
        ptr = session.backend.malloc(NBYTES)
        session.backend.memcpy(
            ptr, np.arange(N, dtype=np.float32), NBYTES, "h2d"
        )
        bump(session, ptr)
        assert domain.checkpoint() is not None
        cluster.replicate("src", "dst")
        dead = []
        base_handler = cluster.make_failover_handler(
            session, "job", "src", "dst"
        )

        def handler(exc):
            cluster.kill_node("src")
            dead.extend(cluster.heartbeat_rounds())
            return base_handler(exc)

        domain.failover_handler = handler
        session.process.advance(5_000_000)
        inj.arm(FaultSpec("ecc", at_count=inj.visits["ecc"] + 1))
        bump(session, ptr)  # fatal ECC → dying node → rung 4
        rep = domain.report
        assert rep.failovers == 1
        assert rep.rung_counts()["failover"] == 1
        assert rep.lost_work_ns >= 5e6
        assert dead == ["src"]
        assert session.gpu == "K600"
        assert "job" in dst.sessions and "job" not in src.sessions
        assert domain.store is dst.store
        # Deterministic redo: the interrupted kernel re-executed on the
        # survivor, so state matches the fault-free timeline exactly.
        out = np.empty(N, dtype=np.float32)
        session.backend.memcpy(out, ptr, NBYTES, "d2h")
        assert np.array_equal(out, np.arange(N, dtype=np.float32) + 2.0)
        session.kill()

    def test_failover_onto_a_dead_target_is_a_typed_error(self):
        cluster, src, dst = self.make_cluster()
        session = src.launch("job")
        handler = cluster.make_failover_handler(session, "job", "src", "dst")
        dst.fail()
        with pytest.raises(NodeDeathError):
            handler(RuntimeError("node died"))
        session.kill()

    def test_failover_without_a_shipped_generation_is_refused(self):
        cluster, src, dst = self.make_cluster()
        session = src.launch("job")
        session.checkpoint(store=src.store)  # local only — never shipped
        handler = cluster.make_failover_handler(session, "job", "src", "dst")
        with pytest.raises(ClusterError):
            handler(RuntimeError("node died"))
        session.kill()


def test_rung_counts_include_the_failover_rung():
    session = CracSession(seed=1)
    domain = session.enable_fault_domain(CheckpointStore())
    counts = domain.report.rung_counts()
    assert set(counts) == {"retry", "stream-reset", "restore", "failover"}
    assert all(v == 0 for v in counts.values())
    session.kill()


def test_campaign_failover_scenario_is_bit_correct():
    from repro.apps.rodinia import Gaussian
    from repro.harness.fault_tolerance import run_node_failover_scenario

    cell = run_node_failover_scenario(
        Gaussian, scale=0.02, seed=0, gpu_src="V100", gpu_dst="K600"
    )
    assert "skipped" not in cell, cell
    assert cell["bit_correct"] is True
    assert cell["failovers"] == 1
    assert cell["declared_dead"] == ["src"]
    assert cell["finished_on"] == "dst"
    assert cell["rung_counts"]["failover"] == 1
