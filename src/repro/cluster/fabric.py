"""The cluster fabric: node liveness, replication, rung-4 failover.

The :class:`Cluster` ties the pieces together: nodes heartbeat into the
same :class:`~repro.dmtcp.coordinator.HeartbeatMonitor` the coordinated
checkpoint protocol uses (missed-beat counting, ``max_missed`` rounds),
checkpoint generations replicate between node stores over the
interconnect (:func:`~repro.cluster.migration.ship_chain` — pinned in
flight, CRC re-verified on arrival), and
:meth:`Cluster.make_failover_handler` builds the fourth rung of the
fault-domain escalation ladder: when a node dies with local recovery off
the table, the session restores the latest generation *shipped* to a
surviving node, the heartbeat monitor is rebaselined so stale misses
from the dead node's timeline cannot spuriously kill the migrated
session, and the domain's store is re-pointed at its new home.
"""

from __future__ import annotations

from repro.cluster.interconnect import Interconnect
from repro.cluster.migration import ship_chain
from repro.cluster.node import ClusterNode
from repro.core.session import CracSession
from repro.dmtcp.coordinator import HeartbeatMonitor
from repro.errors import ClusterError, NodeDeathError


class Cluster:
    """A set of nodes + interconnect + node-liveness monitoring."""

    def __init__(
        self,
        nodes: list[ClusterNode],
        *,
        interconnect: Interconnect | None = None,
        seed: int = 0,
        heartbeat_interval_s: float = 0.5,
        max_missed: int = 3,
    ) -> None:
        if not nodes:
            raise ClusterError("a cluster needs at least one node")
        names = [n.name for n in nodes]
        if len(set(names)) != len(names):
            raise ClusterError(f"duplicate node names: {names}")
        self.nodes: dict[str, ClusterNode] = {n.name: n for n in nodes}
        self.node_order = names
        self.interconnect = interconnect or Interconnect(seed=seed)
        self.seed = seed
        #: node liveness reuses the coordinated-checkpoint monitor —
        #: index i tracks ``node_order[i]``
        self.monitor = HeartbeatMonitor(
            len(nodes), interval_s=heartbeat_interval_s, max_missed=max_missed
        )

    def node(self, name: str) -> ClusterNode:
        """Fetch a node by name."""
        n = self.nodes.get(name)
        if n is None:
            raise ClusterError(f"no node {name!r} (have {self.node_order})")
        return n

    # -- replication -----------------------------------------------------------

    def replicate(
        self,
        src: str,
        dst: str,
        *,
        generation: int | None = None,
        now_ns: int = 0,
        retries: int = 3,
    ) -> dict:
        """Ship a generation's chain ``src → dst`` (latest by default).

        The off-node copy is what rung-4 failover restores from; a node
        whose generations were never replicated loses them when it dies.
        Returns :func:`~repro.cluster.migration.ship_chain`'s result.
        """
        if not self.node(dst).alive:
            raise NodeDeathError(dst, f"cannot replicate onto dead node {dst!r}")
        return ship_chain(
            self.node(src), self.node(dst), self.interconnect,
            generation=generation, now_ns=now_ns, retries=retries,
        )

    # -- liveness --------------------------------------------------------------

    def kill_node(self, name: str) -> None:
        """The node stops heartbeating (dying-node model, node module doc)."""
        self.node(name).fail()

    def heartbeat_rounds(self) -> list[str]:
        """Poll node liveness until verdicts settle; returns dead names.

        Mirrors the coordinated checkpoint's heartbeat exchange: up to
        ``max_missed`` rounds, each charging the poll interval to every
        surviving node's live sessions (detection latency is real time
        the cluster spends before declaring death), ending early on a
        fully healthy round.
        """
        for _rnd in range(self.monitor.max_missed):
            any_missing = False
            for i, name in enumerate(self.node_order):
                alive = self.nodes[name].alive
                self.monitor.beat(i, arrived=alive)
                any_missing = any_missing or not alive
            for name in self.node_order:
                node = self.nodes[name]
                if not node.alive:
                    continue
                for job in sorted(node.sessions):
                    session = node.sessions[job]
                    if session.process.alive:
                        session.process.advance(self.monitor.interval_ns)
            if not any_missing:
                break
        return [self.node_order[r] for r in self.monitor.dead_ranks()]

    def dead_nodes(self) -> list[str]:
        """Node names the monitor has declared dead so far."""
        return [self.node_order[r] for r in self.monitor.dead_ranks()]

    # -- rung 4: node failover -------------------------------------------------

    def make_failover_handler(
        self, session: CracSession, job: str, src: str, dst: str
    ):
        """Build the ladder's rung-4 handler for ``session``.

        Install on a :class:`~repro.core.fault_domain.FaultDomain` as
        ``domain.failover_handler``. When the ladder reaches rung 4 the
        handler kills what is left of the session on the dying source
        node, restores the latest generation previously *shipped* to the
        surviving destination (``restart_latest`` on the destination
        store, heterogeneous-tolerant), re-homes the session, rebaselines
        the heartbeat monitor (pre-failover misses must not survive the
        move), and re-points the domain's store at the new node so later
        restore rungs use the new home. Returns the outcome dict the
        ladder's lost-work accounting expects (``cut_ns`` is the restored
        cut's snapshot time — monotone virtual time, so
        ``fault − cut`` is exactly the work to redo).
        """

        def handler(exc: Exception) -> dict:
            dst_node = self.node(dst)
            src_node = self.node(src)
            if not dst_node.alive:
                raise NodeDeathError(
                    dst, f"failover target {dst!r} is dead too: {exc!r}"
                )
            if dst_node.store.latest() is None:
                raise ClusterError(
                    f"no generation was ever shipped to {dst!r} — "
                    "nothing to fail over to"
                )
            if session.process.alive:
                session.kill()
            session.gpu = dst_node.gpu
            report = session.restart_latest(
                dst_node.store, allow_heterogeneous=True
            )
            if job in src_node.sessions:
                src_node.release(job)
            if job not in dst_node.sessions:
                dst_node.adopt(job, session)
            self.monitor.rebaseline()
            domain = session.fault_domain
            if domain is not None:
                domain.store = dst_node.store
            cut = dst_node.store.get(report.generation).image.created_at_ns
            return {
                "node": dst_node.name,
                "generation": report.generation,
                "cut_ns": cut,
            }

        return handler

    def describe(self) -> str:
        """One-line human-readable summary."""
        up = sum(1 for n in self.nodes.values() if n.alive)
        return (
            f"<Cluster {len(self.nodes)} nodes ({up} up), "
            f"{len(self.interconnect.transfers)} transfers>"
        )
