"""Background image writers and the cut's single commit point.

Forked (CRUM: a forked child flushes the snapshot while the parent keeps
computing) and speculative (PhoenixOS: a validated cut that never stops
the application) checkpoints are rows of the placement table in
:mod:`repro.dmtcp.checkpointer`. Whatever a row moves off the critical
path runs on a *background virtual timeline* ``[start_ns, end_ns]``
owned by a :class:`BackgroundWriter`: the window, the residual wait,
commit and abort. Its subclasses differ only in what the application
pays at :meth:`~BackgroundWriter.finish` — copy-on-write of pages it
dirtied inside the window (:class:`ForkedCheckpoint`), or validation
plus conflict replay (:class:`repro.spec.SpeculativeCheckpoint`).

Either way the *commit point* — and with it the ``image-write`` fault
stage and the dirty-state clearing of :meth:`CheckpointImage
.mark_committed` — moves to the end of the window. A crash before then
leaves the previous generation as the recovery line and every dirty bit
intact, exactly like an aborted 2PC checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar

from repro.dmtcp.image import CheckpointImage
from repro.gpu.timing import HostCosts, transfer_ns
from repro.linux.process import SimProcess

if TYPE_CHECKING:  # avoid a dmtcp → harness import cycle at runtime
    from repro.dmtcp.store import CheckpointStore
    from repro.harness.fault_injection import FaultInjector
    from repro.spec.handles import HandleTable


def commit(
    image: CheckpointImage,
    store: "CheckpointStore | None",
    tracer,
    at_ns: int,
) -> int | None:
    """The cut's one commit point: make ``image`` durable at ``at_ns``.

    With a ``store`` the image goes through its two-phase commit (a
    crash mid-write leaves a discardable partial and propagates) and
    the new generation is returned; without one the image commits in
    place. Either way dirty tracking is cleared here and nowhere else.
    """
    generation = None
    if store is not None:
        generation = store.put(image)
    else:
        image.mark_committed()
    if tracer is not None:
        tracer.instant("ckpt", "commit", at_ns, pid=image.pid)
    return generation


@dataclass
class BackgroundWriter:
    """The part of a cut that runs after the application resumed."""

    #: write mode this writer implements (a row of the placement table)
    mode: ClassVar[str]
    #: trace names: the background write span, the app-visible charge
    #: at finish, and the abort instant
    write_span: ClassVar[str]
    settle_span: ClassVar[str]
    abort_instant: ClassVar[str]

    image: CheckpointImage
    #: application clock when the background window opened
    start_ns: int
    #: background-timeline instant the image is durable and may commit
    end_ns: int
    costs: HostCosts
    store: "CheckpointStore | None" = None
    fault_injector: "FaultInjector | None" = None
    #: live handle-version table; a cut that never quiesced validates
    #: the application's in-window mutations against it
    handle_table: "HandleTable | None" = None
    #: residual time the application blocked waiting out the window
    #: (non-zero only if it needed durability before ``end_ns``)
    residual_wait_ns: int = 0
    generation: int | None = None
    aborted: bool = False
    #: repro.trace.Tracer receiving the writer's spans; None = untraced
    tracer: object | None = None
    _finished: bool = field(default=False, repr=False)

    @property
    def committed(self) -> bool:
        return self.image.committed

    def in_flight(self, now_ns: int) -> bool:
        """True while the background window is still open at ``now_ns``."""
        return not self._finished and now_ns < self.end_ns

    def overlap(self, now_ns: int) -> float:
        """Fraction of the application's time since the window opened
        that the window covered (exposure of its post-cut writes)."""
        window = max(now_ns - self.start_ns, 1.0)
        return min(1.0, (self.end_ns - self.start_ns) / window)

    def _settle(self, live: SimProcess | None) -> tuple[int, dict]:
        """What the application pays at finish: ``(ns, span args)``.
        ``live`` is ``None`` when the application already died."""
        raise NotImplementedError

    def finish(
        self, process: SimProcess | None = None, *, block: bool = True
    ) -> None:
        """Settle the application's charge and move the commit point here.

        ``process`` is the application process to charge to (``None``
        when the parent already died — the background write outlives it
        and still commits). With ``block=False`` the caller does not
        wait out the remaining window; the commit is still recorded,
        since restore always happens after ``end_ns``.
        """
        if self._finished:
            return
        live = process if process is not None and process.alive else None
        cost_ns, args = self._settle(live)
        if live is not None:
            t0 = live.clock_ns
            live.advance(cost_ns)
            if self.tracer is not None and cost_ns:
                self.tracer.ckpt_span(self.settle_span, t0, live.clock_ns, **args)
            if block and live.clock_ns < self.end_ns:
                self.residual_wait_ns = self.end_ns - live.clock_ns
                live.advance_to(self.end_ns)
        try:
            if self.store is None and self.fault_injector is not None:
                # With a store, staging fires this stage per region.
                self.fault_injector.check(
                    "image-write", f"{self.mode} write pid {self.image.pid}"
                )
            self.generation = commit(
                self.image, self.store, self.tracer, self.end_ns
            )
        except Exception:
            self.aborted = True
            self._finished = True
            raise
        self._finished = True
        if self.tracer is not None:
            self.tracer.ckpt_span(
                self.write_span, self.start_ns, self.end_ns,
                bytes=self.image.size_bytes,
            )

    def abort(self) -> None:
        """Release a writer that will never commit; idempotent, and a
        no-op after :meth:`finish` completed.

        The image's capture tuples — references into the live process's
        dirty state — are dropped without reaching ``mark_committed``, so
        every dirty page/span stays intact for the next cut. The
        fault-domain ladder calls this before killing a process with an
        in-flight write (and a rolled-back speculation calls it itself).
        """
        if self._finished:
            return
        self.aborted = True
        self._finished = True
        self.image.drop_captures()
        if self.tracer is not None:
            self.tracer.instant(
                "ckpt", self.abort_instant, self.start_ns, pid=self.image.pid
            )


@dataclass
class ForkedCheckpoint(BackgroundWriter):
    """A forked child flushing the image while the parent computes."""

    mode: ClassVar[str] = "forked"
    write_span: ClassVar[str] = "forked-write"
    settle_span: ClassVar[str] = "cow"
    abort_instant: ClassVar[str] = "forked-abort"

    #: bytes the application dirtied inside the write window and thus
    #: had to be COW-duplicated (filled in by :meth:`finish`)
    cow_bytes: int = 0
    cow_time_ns: int = 0

    @property
    def fork_ns(self) -> int:
        return self.start_ns

    @property
    def write_end_ns(self) -> int:
        return self.end_ns

    def _settle(self, live: SimProcess | None) -> tuple[int, dict]:
        if live is None:
            return 0, {}
        # Post-fork dirtying that landed while the child still held
        # unflushed pages must be duplicated.
        self.cow_bytes = int(
            self.image.new_dirty_bytes() * self.overlap(live.clock_ns)
        )
        self.cow_time_ns = transfer_ns(self.cow_bytes, self.costs.cow_copy_bw)
        return self.cow_time_ns, {"bytes": self.cow_bytes}
