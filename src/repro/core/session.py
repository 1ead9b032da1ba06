"""CracSession: end-to-end launch / checkpoint / kill / restart.

The session owns the split process, the trampoline backend, the DMTCP
checkpointer with the CRAC plugin, and the coordinator. Its
:meth:`CracSession.restart` implements the paper's restart path:

1. a fresh process is created and a **new lower-half helper** is loaded
   (same deterministic layout: ASLR disabled, same platform);
2. DMTCP restores the upper-half memory from the image at the original
   addresses;
3. the trampoline is re-pointed at the fresh entry-point table;
4.–8. the CRAC plugin reads back what it wrote at the cut
   (:meth:`~repro.core.plugin.CracPlugin.restore`): it replays the
   allocation log, re-registers ``cudaHostAlloc`` buffers and fat
   binaries, refills device/managed memory over PCIe and adopts the
   application's stream/event handles.

Because steps 4–8 restore every pointer and handle the application
holds, the (simulated) application object simply continues running —
exactly the transparency argument of the paper.

:meth:`CracSession.restart_latest` wraps restart in the self-healing
loop over a store's generations; the runtime fault domain that calls it
from its restore rung lives in :mod:`repro.core.fault_domain`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.fault_domain import FaultDomain
from repro.core.halves import SplitProcess
from repro.core.plugin import CracPlugin
from repro.core.trampoline import CracBackend
from repro.dmtcp.checkpointer import DmtcpCheckpointer
from repro.dmtcp.coordinator import DmtcpCoordinator
from repro.dmtcp.forked import BackgroundWriter
from repro.dmtcp.image import CheckpointImage
from repro.dmtcp.store import CheckpointStore
from repro.errors import (
    CheckpointStoreError,
    CorruptCheckpointError,
    InjectedFault,
    RestartError,
    SpeculationAbortedError,
)
from repro.gpu.device import GpuDevice
from repro.gpu.timing import DEFAULT_HOST_COSTS, NS_PER_S, HostCosts
from repro.spec import HandleTable

if TYPE_CHECKING:  # core must not import harness at runtime
    from repro.harness.fault_injection import FaultInjector


@dataclass
class RestartAttempt:
    """One try of the self-healing restart loop (success or failure)."""

    generation: int
    attempt: int  # 1-based try index within this generation
    backoff_ns: float  # virtual-time backoff paid before this try
    error: str | None  # repr of the failure, None on success
    succeeded: bool = False


@dataclass
class RestartReport:
    """What the restart did, and what it cost (virtual time)."""

    restart_time_ns: float
    replayed_calls: int
    refilled_bytes: int
    reregistered_fatbins: int
    adopted_streams: int
    adopted_events: int
    #: ``restart_time_ns`` split by restart step (virtual ns, summing
    #: exactly to it in this order): new lower half plus upper-half
    #: memory restore; malloc-log replay and ``cudaHostAlloc``
    #: re-registration; fat-binary re-registration; buffer refill;
    #: stream/event adoption (the remainder after the other four).
    bootstrap_ns: float = 0.0
    replay_ns: float = 0.0
    fatbin_ns: float = 0.0
    refill_ns: float = 0.0
    adopt_ns: float = 0.0
    #: Store generation the successful restore came from (``None`` for a
    #: direct ``restart(image)`` that bypassed the store).
    generation: int | None = None
    #: Full attempt trail of :meth:`CracSession.restart_latest`,
    #: including the failed tries that preceded this success.
    attempts: list[RestartAttempt] = field(default_factory=list)

    @property
    def backoff_ns(self) -> float:
        """Total virtual-time backoff paid across failed attempts."""
        return sum(a.backoff_ns for a in self.attempts)


class CracSession:
    """A CUDA application running under CRAC."""

    def __init__(
        self,
        *,
        gpu: str = "V100",
        fsgsbase: bool = False,
        seed: int = 0,
        n_gpus: int = 1,
        costs: HostCosts = DEFAULT_HOST_COSTS,
        full_arena_checkpoint: bool = False,
        address_virtualization: bool = False,
        fault_injector: "FaultInjector | None" = None,
    ) -> None:
        self.gpu = gpu
        self.seed = seed
        self.fsgsbase = fsgsbase
        self.n_gpus = n_gpus
        self.costs = costs
        self.fault_injector = fault_injector
        self.split = SplitProcess(
            gpu=gpu, fsgsbase=fsgsbase, seed=seed, n_gpus=n_gpus,
        )
        self.backend = CracBackend(
            self.split.runtime, costs,
            virtualize_addresses=address_virtualization,
        )
        # DMTCP + CRAC launch-time overhead (helper load, entry table,
        # coordinator handshake) — significant for short-running apps.
        self.process.advance(costs.crac_startup_ns)
        self.plugin = CracPlugin(self, full_arena=full_arena_checkpoint)
        #: per-resource version table backing speculative checkpoints;
        #: devices and the trampoline bump it on every mutating op
        self.handle_table = HandleTable()
        self.backend.handle_table = self.handle_table
        self.restarts: list[RestartReport] = []
        #: forked/speculative writers whose background window has not
        #: been finished yet (at most one in practice — a new checkpoint
        #: first drains the previous one)
        self.pending_forks: list[BackgroundWriter] = []
        #: escalation ladder guarding runtime calls (enable_fault_domain)
        self.fault_domain: FaultDomain | None = None
        #: hazard analyzer following the runtime across restarts
        #: (enable_sanitizer); None = no instrumentation
        self.sanitizer = None
        #: span/metrics tracer following the runtime across restarts
        #: (enable_trace); None = no instrumentation
        self.tracer = None
        self._wire_process()

    def _wire_process(self) -> None:
        """Give the current process its checkpointer and coordinator, and
        wire the version table and the fault injector into its devices.

        Runtime fault stages (ecc, kernel-hang, ...) are tripped by the
        devices themselves; without a fault domain the resulting
        classified CudaError propagates raw to the application."""
        split = self.split
        self.checkpointer = DmtcpCheckpointer(
            split.process, [self.plugin], self.costs,
            fault_injector=self.fault_injector,
        )
        self.checkpointer.handle_table = self.handle_table
        self.coordinator = DmtcpCoordinator(self.checkpointer, seed=self.seed)
        self.backend.coordinator = self.coordinator
        for dev in split.runtime.devices:
            dev.fault_injector = self.fault_injector
            dev.handle_table = self.handle_table

    def enable_fault_domain(
        self,
        store: CheckpointStore | None = None,
        *,
        retries: int = 3,
        max_restores: int = 2,
        backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
    ) -> FaultDomain:
        """Attach the escalation ladder (:mod:`repro.core.fault_domain`)
        to this session.

        ``store`` feeds the restore rung; without one the ladder tops out
        at stream resets — unless a cluster installs a
        ``failover_handler`` on the returned domain, which adds the
        fourth (node-failover) rung. Returns the attached
        :class:`~repro.core.fault_domain.FaultDomain`.
        """
        self.fault_domain = FaultDomain(
            self, store, retries=retries, max_restores=max_restores,
            backoff_s=backoff_s, max_backoff_s=max_backoff_s,
        )
        return self.fault_domain

    def enable_sanitizer(self, sanitizer=None):
        """Attach a :class:`repro.sanitizer.Sanitizer` (created if not
        given) to the live runtime; it re-attaches across restarts."""
        if sanitizer is None:
            from repro.sanitizer import Sanitizer

            sanitizer = Sanitizer()
        self.sanitizer = sanitizer
        sanitizer.attach(self.split.runtime)
        return sanitizer

    def enable_trace(self, tracer=None):
        """Attach a :class:`repro.trace.Tracer` (created if not given) to
        the dispatch backend; it re-attaches across restarts with a new
        splice segment, keeping the logical timeline monotone."""
        if tracer is None:
            from repro.trace import Tracer

            tracer = Tracer()
        self.tracer = tracer
        tracer.attach(self.backend)
        self.checkpointer.tracer = tracer
        return tracer

    # -- conveniences ------------------------------------------------------------

    def __enter__(self) -> "CracSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.process.alive:
            self.kill()

    @property
    def process(self):
        return self.split.process

    @property
    def runtime(self):
        return self.split.runtime

    @property
    def device(self) -> GpuDevice:
        return self.split.device

    # -- checkpoint ----------------------------------------------------------------

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
        """Take a checkpoint now (drain → stage → dump upper half).

        ``incremental=True`` saves only host pages *and GPU buffer
        spans* dirtied since ``parent``. With ``store`` the image goes
        through the store's two-phase commit and becomes a restorable
        generation. ``forked=True`` moves the image write (and the
        commit point) onto a background timeline: the app resumes right
        after quiesce + snapshot, pays copy-on-write for bytes it
        touches inside the write window, and the write completes at
        :meth:`finish_forked_checkpoints` (called automatically before
        the next checkpoint and at kill). ``speculative=True`` skips
        the quiesce too — kernels keep launching through the capture
        window and the cut is *validated* at finish time against the
        handle-version table; a rolled-back speculation falls back to
        the forked path automatically (same cut parameters)."""
        # Only one background write at a time: drain the previous one
        # first (usually long done — residual wait is then zero).
        self.finish_forked_checkpoints()
        image = self.coordinator.checkpoint(
            gzip=gzip, incremental=incremental, parent=parent, store=store,
            forked=forked, speculative=speculative,
        )
        if image.forked_writer is not None:
            self.pending_forks.append(image.forked_writer)
        return image

    def finish_forked_checkpoints(self, *, block: bool = True) -> None:
        """Complete every pending forked/speculative image write (COW or
        validation charge + commit). A failure aborts that write — its
        image never commits, dirty bits stay intact — and propagates,
        except a rolled-back *speculation*, which falls back cleanly to
        a forked checkpoint of the same cut parameters."""
        while self.pending_forks:
            writer = self.pending_forks.pop(0)
            try:
                writer.finish(
                    self.process if self.process.alive else None, block=block
                )
            except SpeculationAbortedError:
                if not self.process.alive:
                    raise
                # The aborted cut left every dirty bit intact, so the
                # forked re-issue of the same cut captures the same (now
                # slightly newer) state the stop-the-world path would
                # have. Its writer drains in this same loop.
                image = writer.image
                self.checkpoint(
                    gzip=image.gzip, incremental=image.incremental,
                    parent=image.parent, store=writer.store, forked=True,
                )

    def abort_pending_writers(self) -> None:
        """Tear down in-flight background writers without committing.

        The fault-domain ladder calls this before killing the process:
        recovery rolls back to an already-committed generation, so an
        in-flight write must release its snapshot epochs (dirty bits
        stay intact) rather than commit a cut that post-dates the
        recovery line. Idempotent per writer."""
        while self.pending_forks:
            self.pending_forks.pop(0).abort()

    def kill(self) -> None:
        """Terminate the original process (device state is lost).

        A forked image write survives the parent's death (the child
        process owns it — CRUM's model); its COW cost is charged to the
        parent before death but nobody waits out the write window."""
        if self.pending_forks:
            self.finish_forked_checkpoints(block=False)
        self.process.kill()
        self.runtime.destroy()

    # -- restart ----------------------------------------------------------------------

    def restart(
        self,
        image: CheckpointImage,
        *,
        allow_heterogeneous: bool = False,
    ) -> RestartReport:
        """Restart from ``image`` in a brand-new process (see module doc).

        ``allow_heterogeneous`` opts into restoring an image captured on
        a *different GPU model* (the migration/failover path): because
        restore is replay-based — the malloc log is re-executed and
        buffer contents are refilled over PCIe, rather than any device
        context being resurrected — the target only needs enough device
        memory for the active allocations. GPU count must still match
        (stream handles are bound to device indices), and the target's
        capacity is checked before anything is torn down.
        """
        self.plugin.check_platform(
            image, allow_heterogeneous=allow_heterogeneous
        )
        old_clock = self.process.clock_ns
        fresh = SplitProcess(
            gpu=self.gpu,
            fsgsbase=self.fsgsbase,
            seed=self.seed,
            n_gpus=self.n_gpus,
            load_upper=False,
        )
        proc = fresh.process
        proc.advance(self.costs.restart_bootstrap_ns)

        # 2. Restore upper-half memory at original addresses; the
        #    restored ranges are re-registered as upper-owned.
        restore_cost = self.checkpointer.restore_memory(image, proc)
        proc.advance(restore_cost)
        if self.fault_injector is not None:
            # Mid-restore crash: upper half is mapped but the lower half
            # is not rebuilt yet — the restarted process is unusable and
            # the orchestrator must retry (or fall back a generation).
            self.fault_injector.check("restore", f"pid {image.pid}")
        for saved in image.regions:
            fresh.loader._track("upper", saved.start, saved.size)

        # 3. Re-point the trampoline at the fresh lower half.
        self.backend.swap_runtime(fresh.runtime)
        t_replay = proc.clock_ns

        # 4.–8. The plugin restores what it staged at the cut.
        replayed, refill_bytes, fatbins, plugin_steps = self.plugin.restore(
            image, fresh.runtime
        )

        restart_time = proc.clock_ns
        steps = {"bootstrap_ns": t_replay, **plugin_steps}
        # The remainder, so the five steps sum exactly to restart_time.
        steps["adopt_ns"] = restart_time - sum(steps.values())
        # The session continues in the new process; keep virtual time
        # monotone across the kill/restart boundary.
        proc.advance_to(old_clock + restart_time)

        self.split = fresh
        self._wire_process()
        if self.fault_domain is not None:
            self.fault_domain.attach()
        if self.sanitizer is not None:
            # Vector clocks and buffer histories survive the restart; the
            # fresh runtime just becomes the new event source.
            self.sanitizer.attach(fresh.runtime)
        if self.tracer is not None:
            # Recorded spans survive; the fresh runtime becomes the new
            # event source and subsequent spans land in a new segment.
            self.tracer.begin_segment("restart", self.process.clock_ns)
            self.tracer.attach(self.backend)
            self.checkpointer.tracer = self.tracer
            self.tracer.recovery_span(
                "restart", old_clock, self.process.clock_ns,
                replayed_calls=replayed, refilled_bytes=refill_bytes,
                **steps,
            )

        report = RestartReport(
            restart_time_ns=restart_time,
            replayed_calls=replayed,
            refilled_bytes=refill_bytes,
            reregistered_fatbins=fatbins,
            adopted_streams=len(self.backend.live_streams),
            adopted_events=len(self.backend.live_events),
            **steps,
        )
        self.restarts.append(report)
        return report

    # -- self-healing restart ----------------------------------------------------

    def restart_latest(
        self,
        store: CheckpointStore,
        *,
        retries: int = 2,
        backoff_s: float = 0.25,
        max_backoff_s: float = 8.0,
        allow_heterogeneous: bool = False,
    ) -> RestartReport:
        """Restore from the newest usable generation in ``store``.

        The orchestration loop: discard any torn partials, then walk
        the store's generations newest-first. Each generation gets one
        try plus ``retries`` retries with exponential backoff (virtual
        time) for *transient* failures; a :class:`CorruptCheckpointError`
        is deterministic, so the loop immediately falls back one
        generation instead of burning retries on rotten bytes. Every
        attempt — failed and successful — is recorded in the returned
        report's ``attempts`` trail. ``allow_heterogeneous`` passes
        through to :meth:`restart` (cross-GPU-model migration restore).
        """
        store.discard_partials()
        attempts: list[RestartAttempt] = []
        penalty_ns = 0.0
        last_exc: Exception | None = None
        for gen in store.iter_restore_candidates():
            for try_idx in range(1, retries + 2):
                backoff_ns = 0.0
                if try_idx > 1:
                    backoff_ns = (
                        min(backoff_s * 2.0 ** (try_idx - 2), max_backoff_s)
                        * NS_PER_S
                    )
                    penalty_ns += backoff_ns
                try:
                    image = store.load(gen)
                    report = self.restart(
                        image, allow_heterogeneous=allow_heterogeneous
                    )
                except CorruptCheckpointError as exc:
                    attempts.append(
                        RestartAttempt(gen, try_idx, backoff_ns, repr(exc))
                    )
                    last_exc = exc
                    break  # checksum failures never heal: next generation
                except (RestartError, CheckpointStoreError, InjectedFault) as exc:
                    attempts.append(
                        RestartAttempt(gen, try_idx, backoff_ns, repr(exc))
                    )
                    last_exc = exc
                    continue
                attempts.append(
                    RestartAttempt(gen, try_idx, backoff_ns, None, succeeded=True)
                )
                report.generation = gen
                report.attempts = attempts
                # The failed attempts' backoff is real wall time the job
                # spent down; charge it to the restarted process.
                if penalty_ns:
                    self.process.advance(penalty_ns)
                return report
        raise RestartError(
            f"self-healing restart exhausted every generation "
            f"({len(attempts)} attempts across {store.generations or 'none'})"
        ) from last_exc
