"""DMTCP coordinator: checkpoint triggering policy + two-phase commit.

The real coordinator is a network daemon that tells every rank when to
checkpoint; here it takes the checkpoints a session asks for, and can
also be armed to fire one *after the Nth upper→lower CUDA call* from now
(:meth:`DmtcpCoordinator.schedule_checkpoint_at_call`): the CRAC
trampoline notifies it per call while it is armed.
The harness does not arm it. ``harness/runner.py`` and ``bench/`` place
the paper's "random time during an entire run" cuts (§4.4.1) by the
app's progress instead (``AppContext.maybe_checkpoint``); call-indexed
arming is what tests use to cut at a chosen call, such as one inside a
``malloc_run`` or ``free_run``.

For multi-rank jobs the coordinator also owns the *commit* decision of
the distributed checkpoint protocol: every rank stages its image into
its checkpoint store (phase 1), and only if **all** ranks staged
successfully does the coordinator commit them all (phase 2) — otherwise
every staged image is aborted and the previous consistent cut remains
the job's recovery line (:meth:`DmtcpCoordinator.two_phase_commit`,
driven by ``MpiWorld.checkpoint_all_2pc``).

PR 3 adds the :class:`HeartbeatMonitor`: between prepare and commit the
coordinator polls every rank's heartbeat; a rank that misses
``max_missed`` consecutive beats is declared dead, the 2PC is aborted
(no generation half-commits), and the survivors take a quorum decision —
a strict majority continues from the prior cut, anything less aborts the
whole job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.dmtcp.checkpointer import DmtcpCheckpointer
from repro.dmtcp.forked import commit
from repro.dmtcp.image import CheckpointImage
from repro.dmtcp.store import CheckpointStore, StagedCheckpoint
from repro.errors import CheckpointError
from repro.gpu.timing import NS_PER_S

if TYPE_CHECKING:  # avoid a dmtcp → harness import cycle at runtime
    from repro.harness.fault_injection import FaultInjector


class DmtcpCoordinator:
    """Holds the checkpointer and a trigger predicate."""

    def __init__(self, checkpointer: DmtcpCheckpointer) -> None:
        self.checkpointer = checkpointer
        #: call index (counted from arming) at which the armed checkpoint
        #: fires; None while no checkpoint is armed, when
        #: :meth:`notify_call` is a no-op
        self.trigger_at_call: int | None = None
        self._calls_seen = 0
        self.images: list[CheckpointImage] = []

    def schedule_checkpoint_at_call(self, n: int) -> None:
        """Arm a checkpoint after the nth CUDA call from now."""
        self.trigger_at_call = n
        self._calls_seen = 0

    def notify_call(self) -> CheckpointImage | None:
        """Called by the CRAC backend once per upper→lower call; fires the
        checkpoint when the armed call index is reached."""
        if self.trigger_at_call is None:
            return None
        self._calls_seen += 1
        if self._calls_seen < self.trigger_at_call:
            return None
        self.trigger_at_call = None
        return self.checkpoint()

    def calls_before_trigger(self) -> int:
        """How many calls :meth:`notify_call` counts without firing the
        armed checkpoint (the call after them fires it)."""
        return max(0, self.trigger_at_call - self._calls_seen - 1)

    def notify_calls(self, n: int) -> None:
        """Count ``n`` calls made in bulk while a checkpoint is armed, as
        ``n`` :meth:`notify_call` calls would; ``n`` must not exceed
        :meth:`calls_before_trigger`."""
        self._calls_seen += n

    def checkpoint(
        self,
        *,
        gzip: bool = False,
        incremental: bool = False,
        parent: CheckpointImage | None = None,
        store: CheckpointStore | None = None,
        forked: bool = False,
        speculative: bool = False,
    ) -> CheckpointImage:
        """Take a checkpoint now.

        With ``store`` the image goes through the store's two-phase
        commit (stage → commit); a crash mid-write leaves a discardable
        partial in the store and propagates. With ``forked`` (or
        ``speculative``) the image write (and the store commit, if any)
        happens later, when the attached ``image.forked_writer``
        finishes — the session drives that.
        """
        image = self.checkpointer.checkpoint(
            gzip=gzip, incremental=incremental, parent=parent,
            forked=forked, speculative=speculative,
            defer_commit=store is not None,
        )
        if image.forked_writer is not None:
            image.forked_writer.store = store
        elif store is not None:
            commit(
                image, store, self.checkpointer.tracer,
                self.checkpointer.process.clock_ns,
            )
        self.images.append(image)
        return image

    def stage_checkpoint(
        self,
        store: CheckpointStore,
        *,
        gzip: bool = False,
        incremental: bool = False,
        parent: CheckpointImage | None = None,
    ) -> StagedCheckpoint:
        """Phase 1 of a coordinated checkpoint: capture + stage, no commit.

        The commit point (and with it the dirty-tracking reset) stays
        with phase 2: an aborted 2PC leaves every rank's dirty state
        intact for the next attempt.
        """
        image = self.checkpointer.checkpoint(
            gzip=gzip, incremental=incremental, parent=parent,
            defer_commit=True,
        )
        return store.stage(image)

    @staticmethod
    def two_phase_commit(
        staged: Sequence[tuple[CheckpointStore, StagedCheckpoint]],
        *,
        fault_injector: "FaultInjector | None" = None,
    ) -> list[int]:
        """Phase 2: commit every rank's staged image, or abort them all.

        All-or-nothing: if any staged image is a partial — or the
        ``commit`` fault stage fires, modelling a coordinator crash
        between the phases — every staged image is aborted so no rank
        ever holds a generation its peers lack (a mixed cut would be
        unrestorable as a consistent distributed state).
        """
        try:
            if fault_injector is not None:
                fault_injector.check("commit", f"{len(staged)} ranks staged")
            if any(not s.complete for _, s in staged):
                raise CheckpointError(
                    "coordinated checkpoint aborted: a rank staged a partial"
                )
        except Exception:
            for store, s in staged:
                store.abort(s)
            raise
        return [store.commit(s) for store, s in staged]


# -- heartbeats (runtime fault domain) ----------------------------------------


@dataclass
class RankHealth:
    """The coordinator's view of one rank's liveness."""

    rank: int
    missed: int = 0
    dead: bool = False
    #: beats the coordinator actually received (diagnostics)
    beats: int = 0


class HeartbeatMonitor:
    """Coordinator-side rank liveness during a coordinated checkpoint.

    Between prepare and commit the coordinator runs ``max_missed``
    heartbeat rounds: each round every rank is polled (``beat``), the
    poll interval is charged to the surviving ranks' clocks by the
    caller, and a rank that misses every round is declared dead. The
    ``heartbeat`` fault stage drives misses: kind ``"crash"`` means the
    rank's process died (it misses this and every later round); any
    other kind drops just this round's beat (a transient network miss a
    healthy rank recovers from).
    """

    def __init__(self, n_ranks: int, *, interval_s: float = 0.5,
                 max_missed: int = 3) -> None:
        if max_missed < 1:
            raise ValueError("max_missed must be >= 1")
        self.interval_s = interval_s
        #: the poll interval charged per round, in whole ns
        self.interval_ns = round(interval_s * NS_PER_S)
        self.max_missed = max_missed
        self.health = [RankHealth(r) for r in range(n_ranks)]

    def beat(self, rank: int, *, arrived: bool) -> None:
        """Record one polling round's outcome for ``rank``."""
        h = self.health[rank]
        if h.dead:
            return
        if arrived:
            h.beats += 1
            h.missed = 0
        else:
            h.missed += 1
            if h.missed >= self.max_missed:
                h.dead = True

    def rebaseline(self, *, revive: bool = False) -> None:
        """Forget pre-migration misses after a restore onto a new node.

        A rank that was mid-migration (or mid-restore) legitimately
        missed beats on the *old* node's timeline; carrying those counts
        across means the first post-migration poll round can tip a
        healthy rank over ``max_missed`` and declare it dead spuriously.
        Clears the miss counter of every live rank; with ``revive`` a
        dead verdict is also withdrawn (the rank demonstrably came back —
        e.g. it was failed over and restored elsewhere).
        """
        for h in self.health:
            if revive:
                h.dead = False
            if not h.dead:
                h.missed = 0

    def dead_ranks(self) -> list[int]:
        """Ranks declared dead so far."""
        return [h.rank for h in self.health if h.dead]

    def alive_ranks(self) -> list[int]:
        """Ranks still considered live."""
        return [h.rank for h in self.health if not h.dead]

    def has_quorum(self) -> bool:
        """Strict majority of ranks alive — the continue/abort decision.

        Without a strict majority the survivors could be the minority
        half of a partition; continuing risks two recovery lines
        (split-brain), so the job must abort.
        """
        return len(self.alive_ranks()) * 2 > len(self.health)
