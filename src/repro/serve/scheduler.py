"""The serving tier itself: open, serve, park, rehydrate, fail over.

One :class:`~repro.core.session.CracSession` per user session, each with
its *own* primary :class:`~repro.dmtcp.store.CheckpointStore` and its
own :class:`~repro.core.fault_domain.FaultDomain` escalation ladder. The
scheduler layers four mechanisms on top:

- **Slots + LRU eviction.** A node hosts at most ``slots`` hot sessions.
  Making room parks the least recently used hot session on that node: an
  incremental checkpoint of its dirtied spans (full every
  ``full_park_every`` parks, and always after a restart — the dirty
  baseline is unknown then), shipped to the buddy node's shadow store,
  then the process is killed. Parked sessions hold zero GPU state.
- **Rehydration.** A request that reaches a parked session restores it
  digest-equal through ``restart_latest`` on its primary store, evicting
  a victim first if its home node is full. The surfaced
  :class:`~repro.errors.SessionEvictedError` severity (*retryable*) is
  exactly this transparently-heals contract.
- **Recovery budgets.** Every runtime call runs under the session's
  ladder (retry → stream reset → restore → failover). The scheduler
  additionally meters *cumulative* rungs per session: a session that
  keeps burning recovery work past ``recovery_budget`` is quarantined —
  parked and refused further requests (typed) — so one pathological
  session cannot starve the pool. Its state stays restorable: closing
  the campaign rehydrates and digest-verifies it like any other.
- **Node-death failover.** :meth:`sweep` detects dead nodes (heartbeat
  rounds, detection latency charged to the stalled sessions) and fails
  their hot sessions over through the ladder's rung-4 entry point
  (:meth:`~repro.core.fault_domain.FaultDomain.failover_now`): the buddy's
  shadow store becomes the new primary, the session restores there and
  re-anchors. Parked sessions on the dead node are re-homed to their
  shadow without a restore — images, not processes, were all they had.

The workload is a deterministic per-session state vector: request ``r``
applies ``v ← v·DECAY + drive(sid, r)`` — order- and
duplication-sensitive, so any replayed, lost, or double-applied request
changes the digest. :func:`reference_digest` replays the same arithmetic
in pure numpy; digest equality against it is the tier's correctness
gate.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.apps.base import digest_arrays
from repro.core.fault_domain import FaultDomain
from repro.core.session import CracSession
from repro.cuda.api import FatBinary
from repro.dmtcp.image import CheckpointImage
from repro.dmtcp.store import CheckpointStore
from repro.errors import (
    ClusterError,
    NodeDeathError,
    RecoveryAbortedError,
    RestartError,
    ServeError,
    SessionEvictedError,
)
from repro.gpu.timing import NS_PER_S
from repro.serve.admission import AdmissionController
from repro.serve.eviction import LruHotSet
from repro.serve.pool import ServeNode, SessionPool
from repro.trace.metrics import MetricsRegistry

#: per-request damping of the state vector (float32, as the kernel runs)
DECAY = np.float32(0.97)


def _derive(seed: int, name: str) -> int:
    # Same named-RNG-stream derivation as harness.fault_injection.
    # derive_seed, inlined so serve does not import harness at module
    # load (the bench harness imports serve).
    return (seed & 0xFFFFFFFF) ^ zlib.crc32(name.encode("utf-8"))


def _drive_vector(sid: str, request: int, n: int) -> np.ndarray:
    """Deterministic per-request input (pure function of sid, request)."""
    base = np.float32(
        (zlib.crc32(f"{sid}:{request}".encode()) % 997) / 997.0
    )
    ramp = np.arange(n, dtype=np.float32) * np.float32(1e-3)
    return ramp + base


def initial_state(seed: int, sid: str, n: int) -> np.ndarray:
    """The session's state vector at open (seeded, float32)."""
    rng = np.random.default_rng(_derive(seed, f"serve-state:{sid}"))
    return rng.random(n, dtype=np.float32)


def reference_digest(
    seed: int, sid: str, n: int, applied: list[int]
) -> int:
    """Pure-numpy replay of ``applied`` requests — the never-evicted,
    never-faulted result every served session must match bit-for-bit."""
    v = initial_state(seed, sid, n)
    for r in applied:
        v *= DECAY
        v += _drive_vector(sid, r, n)
    return digest_arrays(v)


@dataclass
class SessionRecord:
    """Everything the tier tracks about one user session."""

    sid: str
    node: ServeNode
    session: CracSession
    domain: FaultDomain
    store: CheckpointStore  # primary (lives on .node; dies with it)
    addr: int
    nbytes: int
    #: "hot" | "parked" | "quarantined" | "closed" | "lost"
    state: str = "hot"
    requests: int = 0
    #: request indices successfully applied (the reference replay input)
    applied: list[int] = field(default_factory=list)
    #: parent for the next incremental park (None → cut a full base)
    last_image: CheckpointImage | None = None
    #: len(session.restarts) when last_image was cut; a restart since
    #: then invalidates the dirty baseline, forcing a full cut
    restart_epoch: int = 0
    parks_since_full: int = 0
    parks: int = 0
    rehydrates: int = 0
    failovers: int = 0
    #: cumulative ladder rungs consumed (per-session recovery budget)
    recoveries: int = 0
    _rungs_seen: dict = field(default_factory=dict)


class ServeScheduler:
    """The multi-tenant serving tier (module docstring)."""

    def __init__(
        self,
        pool: SessionPool,
        *,
        admission: AdmissionController | None = None,
        seed: int = 0,
        state_elems: int = 128,
        service_ns: float = 200_000.0,
        keep_generations: int = 4,
        full_park_every: int = 4,
        recovery_budget: int = 64,
        fault_plan: list | None = None,
        heartbeat_interval_s: float = 0.5,
        max_missed: int = 3,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.pool = pool
        self.admission = admission
        self.seed = seed
        self.state_elems = state_elems
        self.service_ns = service_ns
        self.keep_generations = keep_generations
        self.full_park_every = max(1, full_park_every)
        self.recovery_budget = recovery_budget
        self.fault_plan = list(fault_plan or [])
        self.heartbeat_interval_s = heartbeat_interval_s
        self.max_missed = max_missed
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.records: dict[str, SessionRecord] = {}
        self.hot = LruHotSet()
        #: virtual-ns resume latencies (rehydrations + failover restores)
        self.resume_ns: list[float] = []
        self._dead_handled: set[str] = set()
        # Named RNG stream, reserved for future stochastic policies;
        # deterministic per (seed, tier) like every other stream here.
        self._rng = random.Random(_derive(seed, "serve-scheduler"))

    # -- admission -------------------------------------------------------------

    def offer(self, sid: str) -> float:
        """Offer one request to admission control.

        Returns the queue-wait estimate (virtual ns) to charge the
        session; re-raises the typed shedding errors after counting.
        """
        if self.admission is None:
            return 0.0
        try:
            return self.admission.offer(sid)
        except SessionEvictedError:  # pragma: no cover - not raised here
            raise
        except ServeError as exc:
            kind = (
                "shed_deadline"
                if exc.__class__.__name__ == "ServeDeadlineExceededError"
                else "shed_rejected"
            )
            self.metrics.counter(f"serve.requests.{kind}").inc()
            raise

    # -- session lifecycle -----------------------------------------------------

    def open_session(self, sid: str) -> SessionRecord:
        """Admit a new session: place, init state, anchor, replicate."""
        if sid in self.records:
            raise ServeError(f"session {sid!r} already open")
        node = self.pool.place()
        self._ensure_slot(node)
        injector = None
        if self.fault_plan:
            # Deferred import: serve must not import harness at module
            # load (harness.serve_bench imports serve).
            from repro.harness.fault_injection import FaultInjector

            injector = FaultInjector(
                list(self.fault_plan), seed=_derive(self.seed, f"inj:{sid}")
            )
        session = CracSession(
            gpu=node.gpu,
            seed=_derive(self.seed, f"sess:{sid}"),
            fault_injector=injector,
        )
        store = CheckpointStore(keep_generations=self.keep_generations)
        domain = session.enable_fault_domain(
            store,
            retries=2, max_restores=2, backoff_s=0.01, max_backoff_s=0.5,
        )
        record = SessionRecord(
            sid=sid, node=node, session=session, domain=domain,
            store=store, addr=0, nbytes=self.state_elems * 4,
        )
        domain.failover_handler = self._make_failover_handler(record)
        backend = session.backend
        backend.register_app_binary(FatBinary("serve.fatbin", ("serve_step",)))
        record.addr = backend.malloc(record.nbytes)
        view = backend.device_view(record.addr, record.nbytes, np.float32)
        view[:] = initial_state(self.seed, sid, self.state_elems)
        self.records[sid] = record
        node.hot.add(sid)
        self.hot.touch(sid)
        # Anchor: a full generation + off-node shadow make the ladder's
        # restore and failover rungs live from the very first request.
        self._anchor(record)
        self.metrics.counter("serve.sessions.opened").inc()
        self.metrics.gauge("serve.hot").set(len(self.hot))
        return record

    def handle_request(self, sid: str, *, wait_ns: float = 0.0) -> dict:
        """Serve one request (rehydrating first if the session is cold).

        ``wait_ns`` is the admission queue wait to charge to the
        session's clock. Returns ``{"sid", "request", "latency_ns"}``.
        """
        record = self.records.get(sid)
        try:
            if record is None:
                raise ServeError(f"no session {sid!r}")
            if record.state in ("closed", "lost"):
                raise ServeError(f"session {sid!r} is {record.state}")
            if record.state == "quarantined":
                self.metrics.counter("serve.requests.shed_quarantined").inc()
                raise SessionEvictedError(
                    sid,
                    f"session {sid!r} is quarantined (recovery budget "
                    f"{self.recovery_budget} exhausted)",
                )
            if record.state == "parked":
                self.metrics.counter("serve.requests.cold").inc()
                self._rehydrate(record)
            session = record.session
            if wait_ns > 0.0:
                session.process.advance(wait_ns)
            backend = session.backend
            request = record.requests
            drive = _drive_vector(sid, request, self.state_elems)
            addr, nbytes = record.addr, record.nbytes

            def serve_step() -> None:
                v = backend.device_view(addr, nbytes, np.float32)
                v *= DECAY
                v += drive

            t0 = session.process.clock_ns
            try:
                backend.launch(
                    "serve_step", serve_step,
                    flop=2.0 * self.state_elems,
                    duration_ns=self.service_ns,
                )
                backend.device_synchronize()
            except RecoveryAbortedError:
                # The ladder gave up mid-op: effects past the last cut
                # are unprovable, so the session cannot be certified
                # digest-equal any more.
                self._mark_lost(record, why="recovery aborted mid-request")
                raise
            record.requests += 1
            record.applied.append(request)
            self.hot.touch(sid)
            latency = session.process.clock_ns - t0 + wait_ns
            self.metrics.counter("serve.requests.served").inc()
            self.metrics.histogram("serve.request_ns").record(latency)
            self._collect_recovery(record)
            return {"sid": sid, "request": request, "latency_ns": latency}
        finally:
            if self.admission is not None:
                self.admission.release(sid)

    def close_session(self, sid: str) -> dict:
        """Finish a session: rehydrate if cold, digest-verify, retire."""
        record = self.records.get(sid)
        if record is None:
            raise ServeError(f"no session {sid!r}")
        if record.state == "closed":
            raise ServeError(f"session {sid!r} already closed")
        if record.state == "lost":
            return {"sid": sid, "ok": False, "lost": True, "digest": None}
        if record.state in ("parked", "quarantined"):
            self._rehydrate(record)
        backend = record.session.backend
        view = backend.device_view(record.addr, record.nbytes, np.float32)
        digest = digest_arrays(view)
        ref = reference_digest(
            self.seed, sid, self.state_elems, record.applied
        )
        ok = digest == ref
        record.session.kill()
        record.node.hot.discard(sid)
        self.hot.discard(sid)
        record.state = "closed"
        self.metrics.counter("serve.sessions.closed").inc()
        if not ok:
            self.metrics.counter("serve.sessions.digest_mismatch").inc()
        self.metrics.gauge("serve.hot").set(len(self.hot))
        return {
            "sid": sid, "ok": ok, "lost": False, "digest": digest,
            "reference": ref, "requests": record.requests,
            "parks": record.parks, "rehydrates": record.rehydrates,
            "failovers": record.failovers, "recoveries": record.recoveries,
        }

    # -- eviction / rehydration ------------------------------------------------

    def _ensure_slot(self, node: ServeNode) -> None:
        """Park LRU victims on ``node`` until a GPU slot is free."""
        while len(node.hot) >= node.slots:
            victim = self.hot.lru(lambda s: s in node.hot)
            if victim is None:
                raise ServeError(
                    f"node {node.name!r} is full and holds no evictable "
                    "session"
                )
            if not self._park(self.records[victim]):
                raise ServeError(
                    f"could not park {victim!r} to free a slot on "
                    f"{node.name!r}"
                )

    def _checkpoint(self, record: SessionRecord) -> int | None:
        """Cut a park/anchor generation (incremental when safe)."""
        incremental = (
            record.last_image is not None
            and record.restart_epoch == len(record.session.restarts)
            and record.parks_since_full < self.full_park_every
        )
        gen = record.domain.checkpoint(
            incremental=incremental,
            parent=record.last_image if incremental else None,
        )
        if gen is None and incremental:
            # An injected pipeline crash aborted the cut (nothing
            # half-committed); one full retry before giving up.
            incremental = False
            gen = record.domain.checkpoint()
        if gen is None:
            return None
        record.last_image = record.store.get(gen).image
        record.restart_epoch = len(record.session.restarts)
        record.parks_since_full = (
            0 if not incremental else record.parks_since_full + 1
        )
        return gen

    def _anchor(self, record: SessionRecord) -> None:
        """Full-ish cut + shadow ship so restore/failover rungs are live."""
        gen = self._checkpoint(record)
        if gen is None:
            self.metrics.counter("serve.parks.failed").inc()
            return
        self.pool.ship(
            record.sid, record.store, record.node.name,
            self.pool.buddy(record.node),
            now_ns=record.session.process.clock_ns,
        )

    def _park(self, record: SessionRecord) -> bool:
        """Evict one hot session to its checkpoint store (+ shadow)."""
        if record.state != "hot":
            raise ServeError(f"cannot park {record.sid!r} ({record.state})")
        gen = self._checkpoint(record)
        if gen is None:
            self.metrics.counter("serve.parks.failed").inc()
            return False
        self.pool.ship(
            record.sid, record.store, record.node.name,
            self.pool.buddy(record.node),
            now_ns=record.session.process.clock_ns,
        )
        record.session.kill()
        record.node.hot.discard(record.sid)
        self.hot.discard(record.sid)
        record.state = "parked"
        record.parks += 1
        self.metrics.counter("serve.evicted").inc()
        self.metrics.gauge("serve.hot").set(len(self.hot))
        return True

    def _rehydrate(self, record: SessionRecord) -> None:
        """Restore a parked/quarantined session onto its home node."""
        if not record.node.alive:
            # The home died while this session was parked and no sweep
            # re-homed it yet (or re-homing failed): do it now.
            self._rehome_parked(record)
            if record.state == "lost":
                raise SessionEvictedError(
                    record.sid,
                    f"session {record.sid!r} was parked on a dead node "
                    "with no shadow to re-home from",
                )
        self._ensure_slot(record.node)
        session = record.session
        t0 = session.process.clock_ns
        report = session.restart_latest(record.store, allow_heterogeneous=True)
        record.domain.attach()
        record.restart_epoch = len(session.restarts)
        record.last_image = record.store.get(report.generation).image
        resume = session.process.clock_ns - t0
        record.state = "hot"
        record.node.hot.add(record.sid)
        self.hot.touch(record.sid)
        record.rehydrates += 1
        self.resume_ns.append(resume)
        self.metrics.counter("serve.rehydrated").inc()
        self.metrics.histogram("serve.resume_ns").record(resume)
        self.metrics.gauge("serve.hot").set(len(self.hot))

    # -- recovery accounting / quarantine --------------------------------------

    def _collect_recovery(self, record: SessionRecord) -> None:
        """Fold new ladder rungs into metrics + the session's budget."""
        counts = record.domain.report.rung_counts()
        new = 0
        for rung, n in counts.items():
            delta = n - record._rungs_seen.get(rung, 0)
            if delta > 0:
                self.metrics.counter(f"serve.recovery.{rung}").inc(delta)
                new += delta
        record._rungs_seen = dict(counts)
        record.recoveries += new
        if (
            record.recoveries > self.recovery_budget
            and record.state == "hot"
        ):
            self._quarantine(record)

    def _quarantine(self, record: SessionRecord) -> None:
        """Bench a pathological session (restorable, but refused work)."""
        if not self._park(record):
            self._mark_lost(record, why="quarantine park failed")
            return
        record.state = "quarantined"
        self.metrics.counter("serve.quarantined").inc()

    def _mark_lost(self, record: SessionRecord, *, why: str) -> None:
        if record.session.process.alive:
            record.session.kill()
        record.node.hot.discard(record.sid)
        self.hot.discard(record.sid)
        record.state = "lost"
        self.metrics.counter("serve.sessions.lost").inc()
        self.metrics.gauge("serve.hot").set(len(self.hot))

    # -- node death ------------------------------------------------------------

    def sweep(self) -> list[str]:
        """Detect dead nodes; fail over / re-home their sessions.

        Detection mirrors the cluster fabric's heartbeat exchange:
        ``max_missed`` rounds of ``heartbeat_interval_s`` pass before a
        silent node is declared dead, and that latency is charged to the
        stalled sessions — it is real time their users spent waiting,
        and it lands in the failover resume-latency percentiles.
        """
        newly_dead = [
            n for n in self.pool.nodes
            if not n.alive and n.name not in self._dead_handled
        ]
        if not newly_dead:
            return []
        detect_ns = self.max_missed * self.heartbeat_interval_s * NS_PER_S
        for node in newly_dead:
            self._dead_handled.add(node.name)
            for sid in sorted(node.hot):
                record = self.records[sid]
                session = record.session
                session.process.advance(detect_ns)
                t0 = session.process.clock_ns
                try:
                    record.domain.failover_now(NodeDeathError(node.name))
                except (RecoveryAbortedError, ClusterError, RestartError):
                    self._mark_lost(record, why="failover failed")
                    continue
                resume = (session.process.clock_ns - t0) + detect_ns
                record.failovers += 1
                self.resume_ns.append(resume)
                self.metrics.counter("serve.failed_over").inc()
                self.metrics.histogram("serve.resume_ns").record(resume)
                self._collect_recovery(record)
                # The shadow was consumed as the new primary; re-anchor
                # so the next failure has an off-node generation again.
                record.last_image = None
                self._anchor(record)
            node.hot.clear()
            for record in self.records.values():
                if record.node is node and record.state in (
                    "parked", "quarantined"
                ):
                    self._rehome_parked(record)
        self.metrics.gauge("serve.hot").set(len(self.hot))
        return [n.name for n in newly_dead]

    def _rehome_parked(self, record: SessionRecord) -> None:
        """Point a parked session at its shadow after its home died.

        No restore happens here — a parked session *is* its images; the
        shadow store simply becomes the primary on the surviving node.
        The next park cuts a full base (the new home never saw the old
        incremental lineage commit locally).
        """
        home = self.pool.shadow_home(record.sid)
        if home is None:
            self._mark_lost(record, why="no shadow to re-home from")
            return
        shadow = self.pool.drop_shadow(record.sid, home)
        record.store = shadow
        record.domain.store = shadow
        record.node = home
        record.last_image = None
        self.metrics.counter("serve.rehomed_parked").inc()

    def _make_failover_handler(self, record: SessionRecord):
        """Rung-4 handler: shadow store becomes primary on the buddy."""

        def handler(exc: Exception) -> dict:
            home = self.pool.shadow_home(record.sid)
            if home is None:
                raise ClusterError(
                    f"session {record.sid!r} has no shipped shadow — "
                    f"nothing to fail over to ({exc!r})"
                )
            self._ensure_slot(home)
            session = record.session
            if session.process.alive:
                session.kill()
            shadow = self.pool.drop_shadow(record.sid, home)
            session.gpu = home.gpu
            report = session.restart_latest(shadow, allow_heterogeneous=True)
            record.node.hot.discard(record.sid)
            record.store = shadow
            record.domain.store = shadow
            record.node = home
            record.restart_epoch = len(session.restarts)
            record.last_image = shadow.get(report.generation).image
            home.hot.add(record.sid)
            self.hot.touch(record.sid)
            cut = shadow.get(report.generation).image.created_at_ns
            return {
                "node": home.name,
                "generation": report.generation,
                "cut_ns": cut,
            }

        return handler

    # -- introspection ---------------------------------------------------------

    def states(self) -> dict[str, int]:
        """Session count per lifecycle state."""
        out: dict[str, int] = {}
        for record in self.records.values():
            out[record.state] = out.get(record.state, 0) + 1
        return out

    def describe(self) -> str:
        """One-line human-readable summary."""
        states = ", ".join(
            f"{k}={v}" for k, v in sorted(self.states().items())
        )
        return (
            f"<ServeScheduler {len(self.records)} sessions ({states}), "
            f"{len(self.hot)} hot>"
        )
