"""A single-node MPI world of CRAC sessions with virtual-time messaging.

Each rank is an independent simulated process running its own CRAC
session (its own upper/lower halves and CUDA library instance, as MPICH
launches them in the paper's MPI experiments). Communication follows a
LogP-style model: a message is available at
``send_completion + latency + bytes/bandwidth``; a receive advances the
receiver's clock to that availability; collectives synchronize all
clocks to the maximum plus the collective's cost.

Coordinated checkpointing mirrors DMTCP's distributed protocol on one
node: quiesce everyone at a barrier, checkpoint every rank, and (on
failure) restart every rank — after which all ranks' device pointers,
streams, and MPI-exchanged data are intact.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.session import CracSession, RestartReport
from repro.dmtcp.coordinator import DmtcpCoordinator, HeartbeatMonitor
from repro.dmtcp.image import CheckpointImage
from repro.dmtcp.store import CheckpointStore, StagedCheckpoint
from repro.errors import (
    CheckpointError,
    CoordinatedAbortError,
    RankDeathError,
    ReproError,
)
from repro.gpu.timing import transfer_ns

#: Intra-node MPI costs (shared-memory transport).
MPI_LATENCY_NS = 900
MPI_BANDWIDTH = 9.0e9  # bytes/s
BARRIER_NS = 2_500


def split_bytes(data: bytes, n: int) -> list[bytes]:
    """Split ``data`` into ``n`` near-equal contiguous chunks.

    The canonical partition function for scattered regions: the first
    ``len(data) % n`` chunks get one extra byte. Chunks concatenate back
    to ``data`` exactly, which is what elastic restore relies on when it
    repartitions an N-rank region onto M ranks.
    """
    if n < 1:
        raise ValueError("need at least one partition")
    q, rem = divmod(len(data), n)
    out: list[bytes] = []
    pos = 0
    for i in range(n):
        size = q + (1 if i < rem else 0)
        out.append(data[pos:pos + size])
        pos += size
    return out


@dataclass
class _Message:
    src: int
    dst: int
    tag: int
    data: np.ndarray
    available_ns: int


@dataclass
class MpiRank:
    """One MPI rank: a CRAC session plus its message queues."""

    rank: int
    session: CracSession
    inbox: list[_Message] = field(default_factory=list)

    @property
    def backend(self):
        return self.session.backend

    @property
    def clock_ns(self) -> int:
        return self.session.process.clock_ns


class MpiWorld:
    """N single-node MPI ranks under coordinated CRAC checkpointing."""

    def __init__(
        self,
        n_ranks: int,
        *,
        gpu: str = "V100",
        seed: int = 0,
        fault_injector=None,
    ) -> None:
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        # One injector shared by every rank: stage-visit counts span the
        # whole job, so ``at_count=k`` can target "the kth region staged
        # anywhere in the job" — which is how a single node loss lands.
        self.ranks = [
            MpiRank(
                rank=i,
                session=CracSession(
                    gpu=gpu, seed=seed, fault_injector=fault_injector
                ),
            )
            for i in range(n_ranks)
        ]
        #: named scattered regions: name -> per-rank (device addr, nbytes)
        self._regions: dict[str, list[tuple[int, int]]] = {}

    @property
    def size(self) -> int:
        return len(self.ranks)

    # -- partitioned data regions ----------------------------------------------

    def scatter_region(self, name: str, data: bytes) -> list[tuple[int, int]]:
        """Partition ``data`` across ranks and stage it in device memory.

        Each rank gets one near-equal contiguous chunk (``split_bytes``)
        in a freshly cudaMalloc'd device buffer, written via an h2d
        copy — so the region rides the normal checkpoint/replay path and
        survives restart. The placement is recorded in the partition
        registry so :meth:`gather_region` and elastic restore can find
        it. Returns the per-rank ``(addr, nbytes)`` placements.
        """
        if name in self._regions:
            raise ValueError(f"region {name!r} already scattered")
        placements: list[tuple[int, int]] = []
        for r, chunk in zip(self.ranks, split_bytes(data, self.size)):
            # A zero-byte chunk (more ranks than bytes) still gets a
            # 1-byte placeholder buffer so every rank owns a valid addr.
            addr = r.backend.malloc(max(1, len(chunk)))
            if chunk:
                r.backend.memcpy(
                    addr, np.frombuffer(chunk, dtype=np.uint8),
                    len(chunk), "h2d",
                )
            placements.append((addr, len(chunk)))
        self._regions[name] = placements
        return placements

    def gather_region(self, name: str) -> bytes:
        """Read a scattered region back (d2h per rank, concatenated)."""
        if name not in self._regions:
            raise ValueError(f"no scattered region {name!r}")
        parts: list[bytes] = []
        for r, (addr, nbytes) in zip(self.ranks, self._regions[name]):
            host = np.zeros(nbytes, dtype=np.uint8)
            if nbytes:
                r.backend.memcpy(host, addr, nbytes, "d2h")
            parts.append(host.tobytes())
        return b"".join(parts)

    def partition_manifest(self) -> dict[str, list[dict]]:
        """Serializable description of every scattered region.

        Maps region name to per-rank entries ``{rank, addr, nbytes,
        offset, crc32}`` where ``offset`` is the chunk's position in the
        global byte string and ``crc32`` the CRC of the bytes the rank
        holds now (read without a device copy, so nothing is charged).
        Elastic restore captures this alongside the checkpoint images:
        it is everything needed to reassemble the global regions from
        restored per-rank address spaces, check each chunk against the
        source world, and repartition them onto a differently-sized
        world.
        """
        manifest: dict[str, list[dict]] = {}
        for name in sorted(self._regions):
            offset = 0
            entries = []
            for rank, (addr, nbytes) in enumerate(self._regions[name]):
                data = b""
                if nbytes:
                    buf = self.ranks[rank].session.runtime.buffer(addr)
                    data = buf.contents.read_bytes(0, nbytes)
                entries.append(
                    {"rank": rank, "addr": addr, "nbytes": nbytes,
                     "offset": offset, "crc32": zlib.crc32(data)}
                )
                offset += nbytes
            manifest[name] = entries
        return manifest

    # -- point-to-point -------------------------------------------------------

    def send(self, src: int, dst: int, data: np.ndarray, tag: int = 0) -> None:
        """Non-blocking send (buffered, like small-message MPI_Send)."""
        sender = self.ranks[src]
        nbytes = data.nbytes
        sender.session.process.advance(MPI_LATENCY_NS)
        available = sender.clock_ns + transfer_ns(nbytes, MPI_BANDWIDTH)
        self.ranks[dst].inbox.append(
            _Message(src, dst, tag, np.array(data, copy=True), available)
        )

    def recv(self, dst: int, src: int, tag: int = 0) -> np.ndarray:
        """Blocking receive: the receiver waits for message availability."""
        receiver = self.ranks[dst]
        for i, msg in enumerate(receiver.inbox):
            if msg.src == src and msg.tag == tag:
                receiver.inbox.pop(i)
                receiver.session.process.advance(MPI_LATENCY_NS)
                receiver.session.process.advance_to(msg.available_ns)
                return msg.data
        raise ReproError(
            f"rank {dst} deadlocked: no message from {src} with tag {tag}"
        )

    # -- collectives -----------------------------------------------------------

    def barrier(self) -> None:
        """Synchronize all ranks' clocks (max + barrier cost)."""
        t = max(r.clock_ns for r in self.ranks) + BARRIER_NS
        for r in self.ranks:
            r.session.process.advance_to(t)

    def allreduce_sum(self, values: list[float]) -> float:
        """SUM allreduce of one contribution per rank."""
        if len(values) != self.size:
            raise ValueError("one contribution per rank required")
        self.barrier()
        total = float(np.sum(values))
        cost = 2 * MPI_LATENCY_NS * max(1, int(np.log2(max(2, self.size))))
        for r in self.ranks:
            r.session.process.advance(cost)
        return total

    def bcast(self, root: int, data: np.ndarray) -> list[np.ndarray]:
        """Broadcast from ``root``; returns each rank's copy."""
        self.barrier()
        nbytes = data.nbytes
        hops = max(1, int(np.log2(max(2, self.size))))
        cost = hops * (MPI_LATENCY_NS + transfer_ns(nbytes, MPI_BANDWIDTH))
        for r in self.ranks:
            r.session.process.advance(cost)
        return [np.array(data, copy=True) for _ in self.ranks]

    def reduce_max(self, values: list[float], root: int = 0) -> float:
        """MAX reduction to ``root``."""
        if len(values) != self.size:
            raise ValueError("one contribution per rank required")
        self.barrier()
        hops = max(1, int(np.log2(max(2, self.size))))
        self.ranks[root].session.process.advance(hops * MPI_LATENCY_NS)
        return float(np.max(values))

    def gather(self, root: int, contributions: list[np.ndarray]) -> list[np.ndarray]:
        """Gather one array per rank to ``root``."""
        if len(contributions) != self.size:
            raise ValueError("one contribution per rank required")
        self.barrier()
        total = sum(c.nbytes for c in contributions)
        self.ranks[root].session.process.advance(
            MPI_LATENCY_NS * self.size + transfer_ns(total, MPI_BANDWIDTH)
        )
        return [np.array(c, copy=True) for c in contributions]

    # -- coordinated checkpoint/restart ----------------------------------------------

    def checkpoint_all(self, *, gzip: bool = False) -> list[CheckpointImage]:
        """DMTCP-coordinated checkpoint: quiesce at a barrier, then dump
        every rank (each rank drains its own GPU work first)."""
        self.barrier()
        images = [r.session.checkpoint(gzip=gzip) for r in self.ranks]
        self.barrier()
        return images

    def checkpoint_all_2pc(
        self,
        stores: list[CheckpointStore],
        *,
        gzip: bool = False,
        heartbeat: HeartbeatMonitor | None = None,
    ) -> list[int]:
        """Coordinated checkpoint with all-or-nothing commit.

        Phase 1: every rank checkpoints and *stages* its image into its
        store. If any rank fails mid-stage (a checkpoint-stage fault),
        every already-staged image is aborted and any partial is
        discarded — the previous consistent cut stays the recovery line
        and :class:`CheckpointError` propagates. Phase 2: the
        coordinator commits all stages; no rank ever holds a generation
        its peers lack. Returns one committed generation id per rank.

        With ``heartbeat``, the coordinator polls every rank's liveness
        *between* prepare and commit. A rank that misses ``max_missed``
        consecutive beats is declared dead: every staged image is
        aborted (no half-committed generation), and the survivors take a
        quorum decision — a strict majority raises
        :class:`RankDeathError` (recover from the prior cut via
        :meth:`restart_all_latest`), anything less raises
        :class:`CoordinatedAbortError` (whole-job abort).
        """
        if len(stores) != self.size:
            raise ValueError("one store per rank required")
        self.barrier()
        staged: list[tuple[CheckpointStore, StagedCheckpoint]] = []
        try:
            for r, store in zip(self.ranks, stores):
                staged.append(
                    (store, r.session.coordinator.stage_checkpoint(
                        store, gzip=gzip))
                )
        except ReproError as exc:
            for store, s in staged:
                store.abort(s)
            for store in stores:
                store.discard_partials()
            self.barrier()
            raise CheckpointError(
                f"coordinated checkpoint aborted in phase 1: {exc}"
            ) from exc
        injector = next(
            (r.session.fault_injector for r in self.ranks
             if r.session.fault_injector is not None),
            None,
        )
        if heartbeat is not None:
            dead = self._heartbeat_rounds(heartbeat, injector)
            if dead:
                for store, s in staged:
                    store.abort(s)
                for store in stores:
                    store.discard_partials()
                if not heartbeat.has_quorum():
                    raise CoordinatedAbortError(
                        f"rank(s) {dead} dead and only "
                        f"{len(heartbeat.alive_ranks())}/{self.size} alive: "
                        "no strict majority, aborting the job"
                    )
                raise RankDeathError(dead)
        generations = DmtcpCoordinator.two_phase_commit(
            staged, fault_injector=injector
        )
        self.barrier()
        return generations

    def _heartbeat_rounds(self, monitor: HeartbeatMonitor, injector) -> list[int]:
        """Run up to ``max_missed`` polling rounds; returns dead ranks.

        The ``heartbeat`` fault stage drives misses per rank per round:
        kind ``"crash"`` kills the rank's process (it misses this and
        every later round, so it ends up declared dead); any other kind
        drops only this round's beat. Surviving ranks pay the poll
        interval each round; a fully healthy round ends the exchange
        early.
        """
        for rnd in range(monitor.max_missed):
            any_missing = False
            for r in self.ranks:
                arrived = r.session.process.alive
                if arrived and injector is not None:
                    kind = injector.trip(
                        "heartbeat", f"rank {r.rank} round {rnd + 1}"
                    )
                    if kind == "crash":
                        r.session.kill()
                        arrived = False
                    elif kind is not None:
                        arrived = False
                monitor.beat(r.rank, arrived=arrived)
                any_missing = any_missing or not arrived
            for r in self.ranks:
                if r.session.process.alive:
                    r.session.process.advance(monitor.interval_ns)
            if not any_missing:
                break
        return monitor.dead_ranks()

    def kill_all(self) -> None:
        """Terminate every rank (whole-job failure)."""
        for r in self.ranks:
            r.session.kill()

    def restart_all(self, images: list[CheckpointImage]) -> None:
        """Restart the whole job; every rank replays its own log."""
        if len(images) != self.size:
            raise ValueError("one image per rank required")
        for r, image in zip(self.ranks, images):
            r.session.restart(image)
        self.barrier()

    def restart_all_latest(
        self,
        stores: list[CheckpointStore],
        *,
        retries: int = 2,
        backoff_s: float = 0.25,
    ) -> list[RestartReport]:
        """Self-healing whole-job restart from per-rank stores.

        Every rank runs its own :meth:`CracSession.restart_latest`
        (backoff + generation fallback); the ranks then synchronize so
        the restored cut is consistent before the job continues. All
        ranks restore the *same* generation id — staged cuts commit
        atomically across ranks, so falling back independently can only
        land on a cut every peer also holds; a mismatch means the
        stores were managed outside :meth:`checkpoint_all_2pc`.
        """
        if len(stores) != self.size:
            raise ValueError("one store per rank required")
        reports = [
            r.session.restart_latest(store, retries=retries, backoff_s=backoff_s)
            for r, store in zip(self.ranks, stores)
        ]
        cut = {rep.generation for rep in reports}
        if len(cut) > 1:
            raise CheckpointError(
                f"ranks restored inconsistent generations {sorted(cut)} — "
                "stores must be populated via checkpoint_all_2pc"
            )
        self.barrier()
        return reports

    # -- utilities ---------------------------------------------------------------------

    def max_clock_s(self) -> float:
        """The job's virtual makespan so far (max over ranks), seconds."""
        return max(r.clock_ns for r in self.ranks) / 1e9
