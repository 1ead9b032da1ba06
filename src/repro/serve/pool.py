"""The serving pool: GPU nodes, per-session stores, shadow replication.

A :class:`ServeNode` is a failure domain exactly like
:class:`~repro.cluster.node.ClusterNode` (same dying-node model: a dead
node stops heartbeating while its memory stays momentarily readable),
but serving needs *per-session* checkpoint stores — ``restart_latest``
walks a store newest-generation-first, so two sessions sharing one store
would restore each other's cuts. Each node therefore hosts:

- ``hot`` — sids currently occupying one of its GPU slots;
- ``shadows`` — per-session replica stores for sessions whose *primary*
  store lives elsewhere; the failover target when that home dies.

:meth:`SessionPool.ship` replicates a session's primary chain to its
buddy node's shadow store over the shared
:class:`~repro.cluster.interconnect.Interconnect`, reusing the cluster
layer's :func:`~repro.cluster.migration._ship_record` retry loop (CRC
re-verified on arrival, bounded resends) under a
:meth:`~repro.dmtcp.store.CheckpointStore.pin_guard` so an abandoned
shipment can never wedge the primary's keep-N GC. Only generations the
shadow lacks are exported at all (incremental deltas ride on their
shipped parents), and stale shadows on other nodes are dropped after
each ship so the failover target is always the *current* replica.
"""

from __future__ import annotations

from repro.cluster.interconnect import Interconnect
from repro.cluster.migration import _ship_record
from repro.dmtcp.image import CheckpointImage
from repro.dmtcp.store import CheckpointStore
from repro.errors import CheckpointStoreError, ClusterError, NodeDeathError


class ServeNode:
    """One serving node: GPU slots, hot sessions, shadow replicas."""

    def __init__(
        self,
        name: str,
        *,
        gpu: str = "V100",
        slots: int = 4,
        keep_generations: int = 4,
    ) -> None:
        if slots < 1:
            raise ClusterError(f"node {name!r} needs at least one GPU slot")
        self.name = name
        self.gpu = gpu
        self.slots = slots
        self.keep_generations = keep_generations
        self.alive = True
        #: sids currently live on this node's GPU slots
        self.hot: set[str] = set()
        #: per-session replica stores (failover targets for other homes)
        self.shadows: dict[str, CheckpointStore] = {}

    def fail(self) -> None:
        """Stop heartbeating (dying-node model: memory stays readable
        long enough for the ladder's pre-fault snapshot; the node never
        comes back)."""
        self.alive = False

    def describe(self) -> str:
        """One-line human-readable summary."""
        state = "up" if self.alive else "DEAD"
        return (
            f"<ServeNode {self.name} [{state}] {self.gpu} "
            f"{len(self.hot)}/{self.slots} hot, "
            f"{len(self.shadows)} shadows>"
        )


class SessionPool:
    """Nodes + interconnect + shadow-replication bookkeeping."""

    def __init__(
        self,
        n_nodes: int = 2,
        *,
        slots: int = 4,
        gpu: str = "V100",
        seed: int = 0,
        interconnect: Interconnect | None = None,
        keep_generations: int = 4,
        ship_retries: int = 3,
    ) -> None:
        if n_nodes < 2:
            raise ClusterError(
                "a serving pool needs at least two nodes (every session's "
                "shadow must live off its home node)"
            )
        self.nodes = [
            ServeNode(
                f"serve{i}", gpu=gpu, slots=slots,
                keep_generations=keep_generations,
            )
            for i in range(n_nodes)
        ]
        self.interconnect = interconnect or Interconnect(seed=seed)
        self.seed = seed
        self.ship_retries = ship_retries
        #: (sid, dst node name) → {"src": primary store, "images":
        #: {src generation → imported dst image}} — the parent-linking
        #: map incremental deltas need at import. Reset whenever the
        #: session's primary store changes identity (failover), since
        #: generation ids from the old store must not alias the new one.
        self._ship_maps: dict[tuple[str, str], dict] = {}
        self.shipped_bytes = 0
        self.shipped_records = 0

    # -- topology --------------------------------------------------------------

    def node(self, name: str) -> ServeNode:
        """Fetch a node by name."""
        for n in self.nodes:
            if n.name == name:
                return n
        raise ClusterError(
            f"no node {name!r} (have {[n.name for n in self.nodes]})"
        )

    def alive_nodes(self) -> list[ServeNode]:
        """Nodes still heartbeating, in ring order."""
        return [n for n in self.nodes if n.alive]

    def place(self) -> ServeNode:
        """Least-loaded alive node (deterministic name tie-break).

        May return a full node — the scheduler parks an LRU victim to
        make room; admission control, not placement, is the layer that
        says no.
        """
        alive = self.alive_nodes()
        if len(alive) < 2:
            raise ClusterError(
                "fewer than two nodes alive: cannot place a session with "
                "an off-node shadow"
            )
        return min(alive, key=lambda n: (len(n.hot), n.name))

    def buddy(self, node: ServeNode) -> ServeNode:
        """Next alive node after ``node`` in ring order (shadow home)."""
        start = self.nodes.index(node)
        for step in range(1, len(self.nodes)):
            cand = self.nodes[(start + step) % len(self.nodes)]
            if cand.alive:
                return cand
        raise ClusterError(f"node {node.name!r} has no alive buddy")

    def shadow_home(self, sid: str) -> ServeNode | None:
        """The alive node holding ``sid``'s current shadow, if any."""
        for n in self.nodes:
            if n.alive and sid in n.shadows and n.shadows[sid].latest() is not None:
                return n
        return None

    def fail(self, name: str) -> None:
        """Kill a node (the chaos campaign's node-death lever)."""
        self.node(name).fail()

    # -- shadow replication ----------------------------------------------------

    def ship(
        self,
        sid: str,
        src_store: CheckpointStore,
        src_name: str,
        dst: ServeNode,
        *,
        now_ns: float = 0.0,
    ) -> dict:
        """Replicate ``sid``'s latest chain into ``dst``'s shadow store.

        Exports and ships only the chain members the destination has
        not imported yet (base first, so every incremental delta finds
        its parent): a park after the first costs one export, not a
        re-export of the whole chain. Each exported generation is
        verified with its whole chain on the source, before anything
        ships, and re-verified on arrival. The batch stays pinned on
        the source for the duration. After a
        successful ship, ``sid``'s shadows on every *other* node are
        dropped: a parked session has no live memory to reconcile from,
        so its failover target must be the one current replica, never a
        stale one.
        """
        if not dst.alive:
            raise NodeDeathError(
                dst.name, f"cannot ship shadow onto dead node {dst.name!r}"
            )
        latest = src_store.latest()
        if latest is None:
            raise CheckpointStoreError(
                f"session {sid!r} has no committed generation to ship"
            )
        shadow = dst.shadows.get(sid)
        if shadow is None:
            shadow = dst.shadows[sid] = CheckpointStore(
                keep_generations=dst.keep_generations
            )
        key = (sid, dst.name)
        state = self._ship_maps.get(key)
        if state is None or state["src"] is not src_store:
            state = self._ship_maps[key] = {"src": src_store, "images": {}}
        images: dict[int, CheckpointImage] = state["images"]
        records = src_store.export_missing(latest, images)
        t = now_ns
        nbytes = 0
        retries = 0
        with src_store.pin_guard(r["generation"] for r in records):
            for record in records:
                parent_src = record["parent_generation"]
                parent = (
                    images.get(parent_src) if parent_src is not None else None
                )
                gen, t, used = _ship_record(
                    self.interconnect, src_name, shadow, dst.name, record,
                    parent=parent, now_ns=t, retries=self.ship_retries,
                )
                images[record["generation"]] = shadow.get(gen).image
                nbytes += record["size_bytes"]
                retries += used
        for other in self.nodes:
            if other is not dst:
                other.shadows.pop(sid, None)
                self._ship_maps.pop((sid, other.name), None)
        self.shipped_bytes += nbytes
        self.shipped_records += len(records)
        return {
            "records": len(records),
            "bytes": nbytes,
            "retries": retries,
            "end_ns": t,
        }

    def drop_shadow(self, sid: str, node: ServeNode) -> CheckpointStore | None:
        """Detach ``sid``'s shadow store from ``node`` (failover takes
        ownership of it as the session's new primary)."""
        self._ship_maps.pop((sid, node.name), None)
        return node.shadows.pop(sid, None)

    def describe(self) -> str:
        """One-line human-readable summary."""
        up = sum(1 for n in self.nodes if n.alive)
        return (
            f"<SessionPool {len(self.nodes)} nodes ({up} up), "
            f"{self.shipped_records} records shipped "
            f"({self.shipped_bytes / (1 << 20):.1f} MB)>"
        )
