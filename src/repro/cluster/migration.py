"""Live migration: drain → pre-copy → ship → resume across nodes.

Two migration strategies over the same shipping substrate:

- :func:`naive_migrate` — stop-ship-restore: full checkpoint, then the
  app stays down while the whole image crosses the interconnect and the
  target restores. Blackout = checkpoint + full ship + restore.
- :class:`LiveMigration` — the pre-copy state machine. ``begin()`` takes
  a full checkpoint and ships it *in the background* (the app keeps
  running; only the shipping timeline absorbs the wire time). Each
  ``precopy_round()`` cuts an incremental checkpoint of the spans
  dirtied since the last round and ships the delta, converging the
  target's copy while the app still runs. ``cutover()`` takes the final
  (small) delta cut, ships it with the app stopped, restores on the
  target (``restart_latest`` with ``allow_heterogeneous=True`` — the
  replay-based restore is what makes cross-GPU-model targets legal), and
  re-homes the session. Blackout = final cut + delta ship + restore,
  which is what beats naive whenever the app's dirty rate is below link
  bandwidth.

Shipping is per generation: the source store exports a portable record
(parent-stripped pickle + per-region CRCs + one CRC over both), the
interconnect may corrupt or drop it, and the destination store checks
that CRC on arrival — a corrupt transfer raises
:class:`~repro.errors.CorruptCheckpointError` inside the bounded retry
loop instead of becoming a restorable-looking generation. The
destination keeps each record in wire form until a restore reads it,
and links the chain by its own generation ids. Every
generation in flight is pinned on the source so keep-N GC cannot evict
it before the destination acknowledges the import.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.interconnect import Interconnect
from repro.cluster.node import ClusterNode
from repro.core.session import CracSession, RestartReport
from repro.dmtcp.image import CheckpointImage
from repro.dmtcp.store import CheckpointStore
from repro.errors import CorruptCheckpointError, MigrationError, NodeDeathError


def _ship_record(
    interconnect: Interconnect,
    src_name: str,
    dst_store: CheckpointStore,
    dst_name: str,
    record: dict,
    *,
    parent_generation: int | None,
    now_ns: int,
    retries: int,
) -> tuple[int, float, int]:
    """Ship one exported generation record with bounded retries.

    A ``"drop"`` outcome is discovered at the far end (the transfer
    still occupied the link); a ``"corrupt"`` outcome flips a payload
    byte, which the destination's arrival CRC catches. Both trigger a
    resend. ``parent_generation`` is the destination's id of the record's
    already-imported parent. Returns ``(dst_generation, end_ns,
    retries_used)``; raises
    :class:`MigrationError` when the budget is exhausted.
    """
    t = now_ns
    used = 0
    for _attempt in range(retries + 1):
        rec = interconnect.send(src_name, dst_name, record["size_bytes"], t)
        t = rec.end_ns
        if rec.outcome == "drop":
            used += 1
            continue
        payload = record["payload"]
        if rec.outcome == "corrupt":
            flipped = bytearray(payload)
            flipped[len(flipped) // 2] ^= 0xFF
            payload = bytes(flipped)
        try:
            gen = dst_store.import_generation(
                {**record, "payload": payload},
                parent_generation=parent_generation,
            )
        except CorruptCheckpointError:
            used += 1
            continue
        return gen, t, used
    raise MigrationError(
        f"shipping generation {record['generation']} {src_name} → "
        f"{dst_name} failed {retries + 1} times (persistent link faults)"
    )


def ship_chain(
    src: ClusterNode,
    dst: ClusterNode,
    interconnect: Interconnect,
    *,
    generation: int | None = None,
    now_ns: int = 0,
    retries: int = 3,
) -> dict:
    """Replicate a generation's whole chain ``src → dst``, base first.

    Every chain member is pinned on the source for the duration (keep-N
    GC on a node taking new checkpoints cannot race the shipment) and
    released once the destination has imported everything — or when the
    shipment aborts, since no acknowledgement will ever come. Returns
    ``{"generations", "end_ns", "shipped_bytes", "retries", "records"}``
    with the *destination* generation ids, newest last.
    """
    gen = generation if generation is not None else src.store.latest()
    if gen is None:
        raise MigrationError(f"node {src.name!r} has no generation to ship")
    records = src.store.export_chain(gen)
    with src.store.pin_guard(r["generation"] for r in records):
        local: dict[int, int] = {}
        imported: list[int] = []
        t = now_ns
        total_retries = 0
        shipped = 0
        for record in records:
            g, t, used = _ship_record(
                interconnect, src.name, dst.store, dst.name, record,
                parent_generation=local.get(record["parent_generation"]),
                now_ns=t, retries=retries,
            )
            imported.append(g)
            local[record["generation"]] = g
            total_retries += used
            shipped += record["size_bytes"]
    return {
        "generations": imported,
        "end_ns": t,
        "shipped_bytes": shipped,
        "retries": total_retries,
        "records": len(records),
    }


@dataclass
class MigrationReport:
    """What one migration did and what it cost (virtual time)."""

    mode: str  # "live" | "naive"
    job: str
    src: str
    dst: str
    #: app-visible downtime: final cut → resumed on the target
    blackout_ns: int
    precopy_rounds: int
    #: bytes of the base (full) image shipped
    full_bytes: int
    #: bytes of incremental deltas shipped (pre-copy + final cut)
    delta_bytes: int
    #: link-fault resends absorbed by the retry loop
    retries: int
    #: destination-store generation the resume came from
    generation: int | None
    restart: RestartReport | None = None


class LiveMigration:
    """The drain → pre-copy → ship → resume state machine (module doc).

    Phases: ``idle`` → (``begin``) → ``precopy`` → (``cutover``) →
    ``done``; driving it out of order raises :class:`MigrationError`.
    The caller interleaves ``precopy_round()`` with app work (e.g. from
    a checkpoint callback) so each round ships a fresh dirty delta.
    """

    def __init__(
        self,
        session: CracSession,
        src: ClusterNode,
        dst: ClusterNode,
        *,
        interconnect: Interconnect,
        job: str = "job",
        retries: int = 3,
    ) -> None:
        if not dst.alive:
            raise NodeDeathError(dst.name, f"cannot migrate onto dead node {dst.name!r}")
        self.session = session
        self.src = src
        self.dst = dst
        self.interconnect = interconnect
        self.job = job
        self.retries = retries
        self.phase = "idle"
        #: background shipping timeline (overlaps app execution)
        self._ship_clock = 0
        #: source generation → the destination's generation id
        self._by_src: dict[int, int] = {}
        self._pinned: list[int] = []
        self._last_image: CheckpointImage | None = None
        self._rounds = 0
        self._full_bytes = 0
        self._delta_bytes = 0
        self._retries_used = 0

    def _checkpoint(self, *, incremental: bool) -> int:
        image = self.session.checkpoint(
            store=self.src.store,
            incremental=incremental,
            parent=self._last_image if incremental else None,
        )
        gen = self.src.store.latest()
        self.src.store.pin(gen)  # in flight until the cutover ack
        self._pinned.append(gen)
        self._last_image = image
        return gen

    def _ship(self, src_gen: int) -> tuple[int, float]:
        """Ship one source generation; returns (bytes, wire end_ns)."""
        record = self.src.store.export_generation(src_gen)
        now = max(self._ship_clock, self.session.process.clock_ns)
        dst_gen, end, used = _ship_record(
            self.interconnect, self.src.name, self.dst.store, self.dst.name,
            record, parent_generation=self._by_src.get(record["parent_generation"]),
            now_ns=now, retries=self.retries,
        )
        self._ship_clock = end
        self._by_src[src_gen] = dst_gen
        self._retries_used += used
        return record["size_bytes"], end

    def _release_pins(self) -> None:
        """Release every in-flight pin this migration still holds.

        Runs on success (the destination's imports are the
        acknowledgement) and on every failure path (no acknowledgement
        will ever come) — a migration that dies mid-ship must never
        leave pinned generations behind to wedge the source's keep-N GC.
        """
        while self._pinned:
            self.src.store.unpin(self._pinned.pop())

    def abort(self) -> None:
        """Abandon the migration: release pins, mark the machine failed.

        Idempotent; the failure paths of :meth:`begin`,
        :meth:`precopy_round`, and :meth:`cutover` call this before
        re-raising, and a caller that stops driving a live migration
        early (e.g. the destination node died between rounds) should
        call it too.
        """
        self._release_pins()
        self.phase = "failed"

    def begin(self) -> int:
        """Drain + full checkpoint; ship it in the background.

        The app resumes as soon as the checkpoint is cut — the base
        image crosses the wire on the shipping timeline while execution
        continues. Returns the source generation id. A failed ship
        (persistent link faults) aborts the migration: pins are
        released and the error propagates.
        """
        if self.phase != "idle":
            raise MigrationError(f"begin() in phase {self.phase!r}")
        try:
            gen = self._checkpoint(incremental=False)
            self._full_bytes, _ = self._ship(gen)
        except Exception:
            self.abort()
            raise
        self.phase = "precopy"
        return gen

    def precopy_round(self) -> int:
        """Cut + background-ship one incremental delta; returns its bytes."""
        if self.phase != "precopy":
            raise MigrationError(f"precopy_round() in phase {self.phase!r}")
        try:
            gen = self._checkpoint(incremental=True)
            nbytes, _ = self._ship(gen)
        except Exception:
            self.abort()
            raise
        self._delta_bytes += nbytes
        self._rounds += 1
        return nbytes

    def cutover(self) -> MigrationReport:
        """Final delta cut, synchronous ship, restore on the target.

        The only phase the app is down for: everything before converged
        the target's copy in the background. The session is re-homed to
        the destination node and every in-flight pin is released (the
        destination's imports are the acknowledgement).
        """
        if self.phase != "precopy":
            raise MigrationError(f"cutover() in phase {self.phase!r}")
        t_cut = self.session.process.clock_ns
        try:
            gen = self._checkpoint(incremental=True)
            nbytes, end = self._ship(gen)
            self._delta_bytes += nbytes
            if end > self.session.process.clock_ns:
                # The final delta's wire time is inside the blackout.
                self.session.process.advance_to(end)
            self.session.kill()
            self.session.gpu = self.dst.gpu
            restart = self.session.restart_latest(
                self.dst.store, allow_heterogeneous=True
            )
        except Exception:
            self.abort()
            raise
        blackout = self.session.process.clock_ns - t_cut
        if self.job in self.src.sessions:
            self.src.release(self.job)
        self.dst.adopt(self.job, self.session)
        self._release_pins()
        self.phase = "done"
        return MigrationReport(
            mode="live", job=self.job, src=self.src.name, dst=self.dst.name,
            blackout_ns=blackout, precopy_rounds=self._rounds,
            full_bytes=self._full_bytes, delta_bytes=self._delta_bytes,
            retries=self._retries_used, generation=restart.generation,
            restart=restart,
        )


def naive_migrate(
    session: CracSession,
    src: ClusterNode,
    dst: ClusterNode,
    *,
    interconnect: Interconnect,
    job: str = "job",
    retries: int = 3,
) -> MigrationReport:
    """Stop-ship-restore: the whole image crosses inside the blackout.

    The baseline :class:`LiveMigration` is measured against — same
    checkpoint pipeline, same shipping substrate, but the app is down
    from the checkpoint cut until the target resumes.
    """
    if not dst.alive:
        raise NodeDeathError(dst.name, f"cannot migrate onto dead node {dst.name!r}")
    proc = session.process
    t0 = proc.clock_ns
    session.checkpoint(store=src.store)
    result = ship_chain(
        src, dst, interconnect,
        generation=src.store.latest(), now_ns=proc.clock_ns, retries=retries,
    )
    if result["end_ns"] > proc.clock_ns:
        proc.advance_to(result["end_ns"])  # app is down while shipping
    session.kill()
    session.gpu = dst.gpu
    restart = session.restart_latest(dst.store, allow_heterogeneous=True)
    blackout = session.process.clock_ns - t0
    if job in src.sessions:
        src.release(job)
    dst.adopt(job, session)
    return MigrationReport(
        mode="naive", job=job, src=src.name, dst=dst.name,
        blackout_ns=blackout, precopy_rounds=0,
        full_bytes=result["shipped_bytes"], delta_bytes=0,
        retries=result["retries"], generation=restart.generation,
        restart=restart,
    )
