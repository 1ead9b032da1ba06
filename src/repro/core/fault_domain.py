"""The runtime fault domain: an escalation ladder guarding runtime calls.

A :class:`FaultDomain` (attached with
:meth:`~repro.core.session.CracSession.enable_fault_domain`) guards
every kernel/copy/sync call the dispatch backend issues. Before the
host blocks on a sync, its virtual-time watchdog bounds kernel/copy
latency. A failed call climbs the ladder's rungs, cheapest first:

1. **retry** — re-issue the failed call after seeded exponential
   backoff with jitter (retryable errors: transfer CRC mismatch, UVM
   fault storm);
2. **stream reset + replay** — reset the poisoned stream(s) and
   re-enqueue their unsynchronized window from the device's
   :class:`~repro.core.replay_log.StreamOpLog` (sticky errors: hung
   kernel, stalled copy engine);
3. **device reset + restore** — kill the process, restore from the
   newest usable checkpoint generation (:meth:`CracSession.\
restart_latest <repro.core.session.CracSession.restart_latest>`), charge
   the re-executed work back to the clock, and re-apply the pre-fault
   buffer contents (deterministic redo);
4. **node failover** (when a cluster fabric installs a
   ``failover_handler``) — the node itself is dying: restore the latest
   generation *shipped* to a surviving node (``repro.cluster``), with
   the same deterministic-redo accounting;
5. **typed abort** — :class:`~repro.errors.RecoveryAbortedError`
   carrying the full :class:`RecoveryReport` attempt trail.

Every rung is bounded per failure episode, so ladder recovery always
terminates — the property the hypothesis suite checks.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.replay_log import ReplayLog, StreamOpLog
from repro.cuda.errors import CudaErrorCode, cuda_error
from repro.dmtcp.image import CheckpointImage
from repro.dmtcp.store import CheckpointStore
from repro.errors import CudaError, InjectedFault, RecoveryAbortedError
from repro.gpu.streams import Stream
from repro.gpu.timing import DEFAULT_WATCHDOG_LIMITS, NS_PER_S
from repro.gpu.uvm import ManagedBuffer

if TYPE_CHECKING:  # the session imports this module at runtime
    from repro.core.session import CracSession

#: Per-episode budget of the stream-reset rung.
MAX_STREAM_RESETS = 2
#: Per-episode budget of the node-failover rung.
MAX_FAILOVERS = 1


@dataclass
class RecoveryAttempt:
    """One rung taken by the escalation ladder (mirrors RestartAttempt)."""

    rung: str  # "retry" | "stream-reset" | "restore" | "failover" | "abort"
    attempt: int  # 1-based index of this rung within its failure episode
    backoff_ns: int  # virtual-time backoff paid before this attempt
    error: str  # repr of the error that drove the attempt
    succeeded: bool = False


@dataclass
class RecoveryReport:
    """Cumulative attempt trail of one :class:`FaultDomain` (mirrors
    :class:`~repro.core.session.RestartReport` for the recovery ladder)."""

    attempts: list[RecoveryAttempt] = field(default_factory=list)
    retries: int = 0
    stream_resets: int = 0
    restores: int = 0
    #: rung-4 node failovers (cross-node restore of a shipped generation)
    failovers: int = 0
    watchdog_trips: int = 0
    #: virtual work re-executed after restores (fault point − restored cut)
    lost_work_ns: int = 0
    #: total virtual-time backoff paid across retry rungs
    backoff_ns: int = 0
    aborted: bool = False

    def rung_counts(self) -> dict[str, int]:
        """Per-rung recovery counts (campaign reporting)."""
        return {
            "retry": self.retries,
            "stream-reset": self.stream_resets,
            "restore": self.restores,
            "failover": self.failovers,
        }


class FaultDomain:
    """The escalation ladder guarding runtime calls (module docstring).

    Attached to a session via
    :meth:`~repro.core.session.CracSession.enable_fault_domain`; the
    dispatch backend routes kernel/copy/sync calls through :meth:`run`.
    Rung budgets are per *failure episode* (one guarded call's
    recovery), so every episode terminates after at most ``retries +``
    :data:`MAX_STREAM_RESETS` ``+ max_restores +`` :data:`MAX_FAILOVERS`
    ``+ 1`` attempts.
    """

    def __init__(
        self,
        session: CracSession,
        store: CheckpointStore | None = None,
        *,
        retries: int = 3,
        max_restores: int = 2,
        backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
    ) -> None:
        self.session = session
        self.store = store
        self.retries = retries
        self.max_restores = max_restores
        #: rung 4 (node failover), installed by a cluster fabric: called
        #: with the driving error, performs the cross-node restore (kill,
        #: restore the latest *shipped* generation on a surviving node,
        #: re-point ``store``), and returns a dict with at least
        #: ``cut_ns`` (virtual time of the restored cut) for lost-work
        #: accounting. ``None`` = no cluster, the ladder has three rungs.
        self.failover_handler = None
        self.backoff_base_ns = round(backoff_s * NS_PER_S)
        self.max_backoff_ns = round(max_backoff_s * NS_PER_S)
        self.report = RecoveryReport()
        #: virtual clock at which each committed generation was cut
        #: (restore-rung lost-work accounting)
        self.committed_at: dict[int, int] = {}
        # Named RNG stream: backoff jitter draws must not perturb the
        # injector's or the checkpoint scheduler's randomness (the same
        # derivation as harness.fault_injection.derive_seed, inlined
        # because core must not import harness).
        self._rng = random.Random(
            (session.seed & 0xFFFFFFFF) ^ zlib.crc32(b"fault-domain-backoff")
        )
        self._in_recovery = False
        self.attach()

    def attach(self) -> None:
        """(Re-)wire the ladder into the session's current runtime."""
        self.session.backend.recovery = self
        for dev in self.session.runtime.devices:
            dev.fault_injector = self.session.fault_injector
            dev.op_log = StreamOpLog()

    # -- checkpointing ---------------------------------------------------------

    def checkpoint(
        self,
        *,
        incremental: bool = False,
        parent: CheckpointImage | None = None,
    ) -> int | None:
        """Commit an inline checkpoint to the store; record its cut time.

        Only inline cuts: the generation and its cut time are read right
        after the call returns, which is before a forked or speculative
        writer would have committed. An injected pipeline crash aborts
        the attempt (partials are discarded, nothing half-commits) and
        returns ``None`` — the prior generation stays the recovery line.
        """
        if self.store is None:
            raise ValueError("FaultDomain.checkpoint needs a store")
        try:
            self.session.checkpoint(
                store=self.store, incremental=incremental, parent=parent
            )
        except InjectedFault:
            self.store.discard_partials()
            return None
        gen = self.store.latest()
        self.committed_at[gen] = self.session.process.clock_ns
        return gen

    # -- the ladder ------------------------------------------------------------

    def run(self, kind: str, thunk, *, sync_scope=None):
        """Run one guarded runtime call; recover per the ladder."""
        if self._in_recovery:
            return thunk()
        n_retry = n_reset = n_restore = n_failover = 0
        while True:
            try:
                if kind == "sync":
                    self._watchdog(sync_scope)
                result = thunk()
            except CudaError as exc:
                sev = exc.severity
                if sev is None or sev == "program":
                    raise  # deterministic misuse: no rung can heal it
                if exc.code in (
                    CudaErrorCode.LAUNCH_TIMEOUT, CudaErrorCode.STREAM_STALLED
                ):
                    self.report.watchdog_trips += 1
                if sev == "retryable" and n_retry < self.retries:
                    n_retry += 1
                    self._retry(n_retry, exc)
                    continue
                if (
                    sev in ("retryable", "sticky")
                    and n_reset < MAX_STREAM_RESETS
                ):
                    n_reset += 1
                    self._stream_reset(n_reset, exc)
                    continue
                if (
                    n_restore < self.max_restores
                    and self.store is not None
                    and self.store.generations
                ):
                    n_restore += 1
                    self._redo("restore", n_restore, exc)
                    continue
                if (
                    self.failover_handler is not None
                    and n_failover < MAX_FAILOVERS
                ):
                    # Rung 4: local recovery is off the table (no store,
                    # no usable generation, or the restore budget of a
                    # dying node is spent) but a surviving node holds a
                    # shipped generation — fail the session over.
                    n_failover += 1
                    self._redo("failover", n_failover, exc)
                    continue
                self.report.aborted = True
                self.report.attempts.append(RecoveryAttempt(
                    "abort", 1, 0, repr(exc)
                ))
                raise RecoveryAbortedError(
                    f"escalation ladder exhausted ({n_retry} retries, "
                    f"{n_reset} stream resets, {n_restore} restores, "
                    f"{n_failover} failovers): {exc}",
                    report=self.report, cause=exc,
                ) from exc
            else:
                if kind == "sync":
                    self._note_synced(sync_scope)
                return result

    def _watchdog(self, sync_scope) -> None:
        """Scan for poisoned streams before the host blocks on a sync.

        Runtime faults that *hang* rather than fail (kernel-hang,
        copy-stall) don't raise at enqueue — the op completes absurdly
        far in the future and the stream carries a poison flag. Like a
        real driver watchdog, detection happens when the host would
        block: the scan uses pure queries, charges the timeout it spent
        waiting (bounds in :data:`~repro.gpu.timing.\
DEFAULT_WATCHDOG_LIMITS`), and raises a *sticky*
        :class:`~repro.errors.CudaError` instead of letting virtual time
        silently absorb the stall. ``sync_scope`` is the Stream being
        drained or ``"device"``; a stream-scoped sync only trips on its
        own stream's poison.
        """
        limits = DEFAULT_WATCHDOG_LIMITS
        for dev in self.session.runtime.devices:
            for stream in dev.flagged_streams():
                if (
                    isinstance(sync_scope, Stream)
                    and stream.sid != sync_scope.sid
                ):
                    continue
                if stream.fault == "kernel-hang":
                    wait = limits.kernel_timeout_ns
                    code = CudaErrorCode.LAUNCH_TIMEOUT
                    what = "kernel hang"
                else:
                    wait = limits.copy_timeout_ns
                    code = CudaErrorCode.STREAM_STALLED
                    what = "stalled copy engine"
                # The host blocked until the bound expired, then the
                # watchdog declared the op stuck.
                self.session.process.advance(wait + limits.detection_wait_ns)
                raise cuda_error(
                    code,
                    f"watchdog: {what} on stream {stream.sid} "
                    f"(waited {wait / NS_PER_S:.1f}s virtual)",
                    stream_sid=stream.sid,
                )

    # -- rung 1: retry with backoff -------------------------------------------

    def _retry(self, attempt: int, exc: CudaError) -> None:
        t0 = self.session.process.clock_ns
        backoff = round(  # jitter in [0.5, 1.5)
            min(self.backoff_base_ns * 2 ** (attempt - 1), self.max_backoff_ns)
            * (0.5 + self._rng.random())
        )
        self.session.process.advance(backoff)
        self.report.retries += 1
        self.report.backoff_ns += backoff
        self.report.attempts.append(
            RecoveryAttempt("retry", attempt, backoff, repr(exc))
        )
        self._trace_rung("retry", t0, attempt, exc)

    # -- rung 2: stream reset + replay ----------------------------------------

    def _trace_rung(self, rung: str, t0: int, attempt: int, exc: CudaError) -> None:
        tracer = self.session.tracer
        if tracer is not None:
            tracer.recovery_span(
                rung, t0, self.session.process.clock_ns,
                attempt=attempt, error=repr(exc),
            )

    def _stream_reset(self, attempt: int, exc: CudaError) -> None:
        session = self.session
        t0 = session.process.clock_ns
        runtime = session.runtime
        for dev in runtime.devices:
            flagged = dev.flagged_streams()
            if not flagged and exc.stream_sid is not None:
                s = runtime.streams.get(exc.stream_sid)
                if s is not None:
                    flagged = [s]
            now = session.process.clock_ns
            dev.reset_copy_engines(now)
            for stream in flagged:
                dev.reset_stream(stream, now)
                session.process.advance(session.costs.stream_reset_ns)
                if dev.op_log is not None:
                    # Timing-only replay of the abandoned in-flight
                    # window; guarded against re-entry so replayed ops
                    # are invisible to injection and logging.
                    self._in_recovery = True
                    try:
                        dev.op_log.replay_unsynced(
                            dev, runtime.streams, stream_sid=stream.sid
                        )
                    finally:
                        self._in_recovery = False
        self.report.stream_resets += 1
        self.report.attempts.append(
            RecoveryAttempt("stream-reset", attempt, 0, repr(exc))
        )
        self._trace_rung("stream-reset", t0, attempt, exc)

    # -- rungs 3 and 4: restore, node failover ---------------------------------

    def _snapshot_buffers(self) -> list[tuple[int, bytes, object]]:
        """Pre-fault contents of every active allocation that built its
        contents (redo source). The others hold a fresh allocation's
        bytes, which the restored cut and the replayed log suffix give
        them again: they stay rows, and no object is made for them."""
        saved: list[tuple[int, bytes, object]] = []
        if not self.session.process.alive:
            return saved  # node already gone: nothing left to snapshot
        for buf in self.session.runtime.built_allocations():
            residency = (
                buf.residency.copy() if isinstance(buf, ManagedBuffer)
                else None
            )
            saved.append(
                (buf.addr, buf.contents.read_bytes(0, buf.size), residency)
            )
        return saved

    def _reapply_buffers(self, saved: list[tuple[int, bytes, object]]) -> None:
        """Write the pre-fault snapshot back over the restored buffers."""
        for addr, data, residency in saved:
            buf = self.session.runtime.buffer(addr)
            if buf is None:
                continue  # freed by a replayed post-cut free
            buf.contents.write_bytes(0, data)
            if residency is not None and isinstance(buf, ManagedBuffer):
                buf.residency[:] = residency

    def _replay_log_suffix(self, generation, pre_log: ReplayLog) -> None:
        """Re-execute allocation calls made after the restored cut.

        Restart rebuilds the buffer table from the image's replay log,
        which stops at the checkpoint cut. The app's redo resumes from
        the *fault* point still holding pointers it allocated between
        the cut and the fault — deterministic re-execution would have
        re-issued those calls, so the redo must too, or they are unknown
        pointers on the fresh lower half. Every image's log is frozen at
        its cut (e.g. an anchor shipped before the app's setup holds
        none of it), and restart set the trampoline log to that copy, so
        the suffix is the records ``pre_log`` holds past it; it is
        replayed by the plugin's replay step (its still-active
        ``cudaHostAlloc`` buffers come back the way restart brings back
        the cut's) and appended to the log.
        """
        if generation is None:
            return
        session = self.session
        backend = session.backend
        suffix = pre_log.since(backend.log)
        if not suffix.records:
            return
        # The lost-work advance already charges the suffix's wall time.
        _, translation = session.plugin.replay(suffix, session.runtime)
        if backend.virtualize_addresses:
            backend.patch_translation(translation)
        backend.log.extend(suffix)

    def _redo(self, rung: str, attempt: int, exc: CudaError) -> None:
        """Rungs 3 and 4: bring the process back, then redo lost work.

        ``"restore"`` kills the process and restores the newest usable
        generation of ``store``. ``"failover"`` leaves the cluster
        mechanics to the installed handler — choosing the target node,
        restoring the latest *shipped* generation there
        (``restart_latest`` on the destination store), and re-pointing
        this domain's ``store`` at the new home.

        Redo is by *re-application*: app re-execution from the restored
        cut is deterministic, so its effect equals the pre-fault buffer
        contents snapshotted here (when the dying node is still
        reachable) — the clock is charged for the lost interval, the
        post-cut allocation calls are replayed and the bytes are applied
        directly.
        """
        session = self.session
        t_fault = session.process.clock_ns
        saved = self._snapshot_buffers()
        pre_log = session.backend.log.copy()
        self._in_recovery = True
        try:
            # An in-flight background write (forked or speculative) must
            # not commit a cut that post-dates the recovery line we are
            # rolling back to: release it (dirty bits stay intact).
            session.abort_pending_writers()
            if rung == "restore":
                session.kill()
                generation = session.restart_latest(self.store).generation
                cut_ns = self.committed_at.get(generation, t_fault)
            else:
                outcome = self.failover_handler(exc) or {}
                generation = outcome.get("generation")
                cut_ns = outcome.get("cut_ns", t_fault)
            lost = max(0, t_fault - cut_ns)
            session.process.advance(lost)  # deterministic re-execution
            self._replay_log_suffix(generation, pre_log)
            self._reapply_buffers(saved)
        finally:
            self._in_recovery = False
            self.attach()
        if rung == "restore":
            self.report.restores += 1
        else:
            self.report.failovers += 1
        self.report.lost_work_ns += lost
        self.report.attempts.append(
            RecoveryAttempt(rung, attempt, 0, repr(exc), succeeded=True)
        )
        self._trace_rung(rung, t_fault, attempt, exc)

    def failover_now(self, exc: Exception) -> None:
        """Take the failover rung outside a guarded call.

        The serve tier detects node death through its own heartbeat
        sweep, not through a failed runtime call — there may be no
        in-flight op to fail when the node is declared dead. This entry
        point runs the same rung-4 mechanics (pre-fault snapshot,
        handler-driven cross-node restore, deterministic redo) under
        the same per-episode budget, so a tier-initiated failover is
        indistinguishable from a ladder-initiated one in the report.
        """
        if self.failover_handler is None:
            raise ValueError("failover_now needs an installed failover_handler")
        if not isinstance(exc, CudaError):
            exc = cuda_error(
                CudaErrorCode.HEARTBEAT_LOST,
                f"node declared dead by the serving tier: {exc!r}",
            )
        self._redo("failover", 1, exc)

    # -- op-log retirement -----------------------------------------------------

    def _note_synced(self, sync_scope) -> None:
        sid = sync_scope.sid if isinstance(sync_scope, Stream) else None
        for dev in self.session.runtime.devices:
            if dev.op_log is not None:
                dev.op_log.mark_synced(sid)
