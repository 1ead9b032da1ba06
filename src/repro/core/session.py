"""CracSession: end-to-end launch / checkpoint / kill / restart.

The session owns the split process, the trampoline backend, the DMTCP
checkpointer with the CRAC plugin, and the coordinator. Its
:meth:`restart` implements the paper's restart path:

1. a fresh process is created and a **new lower-half helper** is loaded
   (same deterministic layout: ASLR disabled, same platform);
2. DMTCP restores the upper-half memory from the image at the original
   addresses;
3. the trampoline is re-pointed at the fresh entry-point table;
4. the full cudaMalloc-family log is replayed so every active allocation
   reappears at its original address (divergence aborts the restart);
5. active ``cudaHostAlloc`` buffers are re-registered (their bytes came
   back with the upper half);
6. fat binaries are re-registered and handles patched (§3.2.5);
7. device/managed memory is refilled from the staged blobs over PCIe;
8. application-held stream/event handles are adopted by the fresh
   library ("CRAC needs to recreate streams", §4.4.2).

Because steps 4–8 restore every pointer and handle the application
holds, the (simulated) application object simply continues running —
exactly the transparency argument of the paper.

This module also hosts the **runtime fault domain** (PR 3): a
virtual-time :class:`Watchdog` that bounds kernel/copy/sync latency, and
a :class:`FaultDomain` escalation ladder guarding every runtime call the
dispatch backend issues. The ladder's rungs, cheapest first:

1. **retry** — re-issue the failed call after seeded exponential
   backoff with jitter (retryable errors: transfer CRC mismatch, UVM
   fault storm);
2. **stream reset + replay** — reset the poisoned stream(s) and
   re-enqueue their unsynchronized window from the device's
   :class:`~repro.core.replay_log.StreamOpLog` (sticky errors: hung
   kernel, stalled copy engine);
3. **device reset + restore** — kill the process, restore from the
   newest usable checkpoint generation (:meth:`CracSession.\
restart_latest`), charge the re-executed work back to the clock, and
   re-apply the pre-fault buffer contents (deterministic redo);
4. **node failover** (PR 6, when a cluster fabric installs a
   ``failover_handler``) — the node itself is dying: restore the
   latest generation *shipped* to a surviving node
   (``repro.cluster``), with the same deterministic-redo accounting;
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

from repro.core.halves import SplitProcess
from repro.core.plugin import CracPlugin
from repro.core.replay_log import ReplayLog, StreamOpLog
from repro.core.trampoline import CracBackend
from repro.cuda.errors import CudaErrorCode, cuda_error
from repro.dmtcp.checkpointer import DmtcpCheckpointer
from repro.dmtcp.coordinator import DmtcpCoordinator
from repro.dmtcp.forked import BackgroundWriter
from repro.dmtcp.image import CheckpointImage
from repro.dmtcp.store import CheckpointStore
from repro.errors import (
    CheckpointStoreError,
    CorruptCheckpointError,
    CudaError,
    InjectedFault,
    RecoveryAbortedError,
    RestartError,
    SpeculationAbortedError,
)
from repro.gpu.device import GpuDevice
from repro.gpu.streams import Stream
from repro.gpu.timing import (
    DEFAULT_HOST_COSTS,
    DEFAULT_WATCHDOG_LIMITS,
    NS_PER_S,
    HostCosts,
    WatchdogLimits,
)
from repro.gpu.uvm import UVM_PAGE, ManagedBuffer
from repro.linux.loader import ProgramImage
from repro.spec import HandleTable

if TYPE_CHECKING:  # core must not import harness at runtime
    from repro.harness.fault_injection import FaultInjector


def _legacy_pcie_bytes(entry: dict) -> int:
    """PCIe bytes at refill of a ``crac/buffers`` entry written before
    entries carried ``pcie_bytes``: a device buffer's size, a managed
    buffer's device-resident pages."""
    if entry["kind"] == "device":
        return entry["size"]
    if entry["kind"] == "managed":
        return int((entry["residency"] == 1).sum()) * UVM_PAGE
    return 0


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
        app_image: ProgramImage | None = None,
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
        self.app_image = app_image
        self.fault_injector = fault_injector
        self.split = SplitProcess(
            gpu=gpu, app_image=app_image, fsgsbase=fsgsbase, seed=seed,
            n_gpus=n_gpus,
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
        self.checkpointer = DmtcpCheckpointer(
            self.process, [self.plugin], costs, fault_injector=fault_injector
        )
        self.checkpointer.handle_table = self.handle_table
        self.backend.handle_table = self.handle_table
        self.coordinator = DmtcpCoordinator(self.checkpointer, seed=seed)
        self.backend.coordinator = self.coordinator
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
        #: nvprof stand-in on the session's backend (enable_profiler);
        #: the backend and its call counter persist across restarts
        self.profiler = None
        # Runtime fault stages (ecc, kernel-hang, ...) are tripped by the
        # devices themselves; without a fault domain the resulting
        # classified CudaError propagates raw to the application.
        for dev in self.split.runtime.devices:
            dev.fault_injector = fault_injector
            dev.handle_table = self.handle_table

    def enable_fault_domain(
        self,
        store: CheckpointStore | None = None,
        *,
        retries: int = 3,
        max_stream_resets: int = 2,
        max_restores: int = 2,
        max_failovers: int = 1,
        backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
        limits: WatchdogLimits = DEFAULT_WATCHDOG_LIMITS,
    ) -> "FaultDomain":
        """Attach the escalation ladder (module docstring) to this session.

        ``store`` feeds the restore rung; without one the ladder tops out
        at stream resets — unless a cluster installs a
        ``failover_handler`` on the returned domain, which adds the
        fourth (node-failover) rung. Returns the attached
        :class:`FaultDomain`.
        """
        self.fault_domain = FaultDomain(
            self, store, retries=retries,
            max_stream_resets=max_stream_resets, max_restores=max_restores,
            max_failovers=max_failovers,
            backoff_s=backoff_s, max_backoff_s=max_backoff_s, limits=limits,
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

    def enable_profiler(self, profiler=None):
        """Attach an :class:`~repro.cuda.profiler.Nvprof` (created if not
        given). Restarts keep the backend, so its window runs on across
        the cut; the device timeline is the tracer's (``enable_trace``)."""
        if profiler is None:
            from repro.cuda.profiler import Nvprof

            profiler = Nvprof()
        self.profiler = profiler
        profiler.attach(self.backend)
        return profiler

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
        log = image.blob("crac/replay-log")
        # One walk of the (possibly long) log serves both the capacity
        # check below and step 5's cudaHostAlloc re-registration.
        active = log.active_allocations()
        platform = image.blobs.get("crac/platform")
        if platform is not None and not self.backend.virtualize_addresses:
            want = platform.payload
            from repro.gpu.timing import GPU_SPECS

            have_spec = GPU_SPECS[self.gpu]
            mismatch = (
                want["gpu"] != have_spec.name
                or want["n_gpus"] != self.n_gpus
            )
            heterogeneous_ok = (
                allow_heterogeneous and want["n_gpus"] == self.n_gpus
            )
            if mismatch and not heterogeneous_ok:
                raise RestartError(
                    "restart platform mismatch: image was taken on "
                    f"{want['n_gpus']}× {want['gpu']}, restarting on "
                    f"{self.n_gpus}× {have_spec.name} — CRAC's replay "
                    "determinism requires the same CUDA/GPU platform "
                    "(§3.2.4)"
                )
            if mismatch:
                # Heterogeneous restore: replay recreates every active
                # allocation on the target, so its device memory must
                # hold them all — checked up front, before the old
                # process state is discarded.
                need = sum(
                    e.nbytes
                    for e in active.values()
                    if e.op != "host_alloc"
                )
                if need > have_spec.memory_bytes:
                    raise RestartError(
                        f"heterogeneous restore does not fit: image holds "
                        f"{need} bytes of device/managed allocations, "
                        f"{have_spec.name} has {have_spec.memory_bytes}"
                    )
        old_clock = self.process.clock_ns
        fresh = SplitProcess(
            gpu=self.gpu,
            app_image=self.app_image,
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

        # 4. Replay the allocation log. In the baseline design address
        #    determinism is verified; under address virtualization (the
        #    §3.2.4 future-work mode) divergence is tolerated and the
        #    virtual-pointer table is patched instead.
        if self.fault_injector is not None:
            # kind="divergence" raises ReplayDivergenceError here, the
            # §3.2.4 failure mode (ASLR left on / different platform).
            self.fault_injector.check("replay", f"{len(log.entries)} calls")
        if self.backend.virtualize_addresses:
            translation = log.replay(fresh.runtime, strict=False)
            replayed = len(log.entries)
        else:
            replayed = log.replay(fresh.runtime)
            translation = {}
        proc.advance(replayed * self.costs.replay_call_ns)

        # 5. Re-register active cudaHostAlloc buffers (bytes already in
        #    the restored upper half).
        buffers = image.blob("crac/buffers")
        for addr, entry in active.items():
            if entry.op == "host_alloc":
                fresh.runtime.cudaHostRegister(addr, entry.nbytes)
                # The registered pages are already mapped (restored with
                # the upper half); the fresh hostalloc arena must never
                # hand them out again.
                fresh.runtime._hostalloc_alloc.reserve(addr, entry.nbytes)
                proc.advance(self.costs.replay_call_ns)

        # Sanity: every staged buffer must exist again (possibly moved).
        missing = [
            a
            for a in buffers
            if translation.get(a, a) not in fresh.runtime.buffers
        ]
        if missing:
            raise RestartError(
                f"replay did not recreate buffers at {[hex(a) for a in missing]}"
            )

        # 6. Fat binaries: re-register and patch handles.
        t_fatbin = proc.clock_ns
        patches = self.backend.reregister_fatbins()
        t_refill = proc.clock_ns

        # 7. Refill contents of active allocations; device/managed bytes
        #    cross PCIe again. GPU deltas chain like host dirty pages: an
        #    address's *run* is its newest entry plus each older entry
        #    its delta stacks on. A full entry — or a uid change, meaning
        #    the arena reused the address for a *different* allocation —
        #    ends the run, so stale bytes never leak across a free. The
        #    walk goes newest image first and charges every run entry's
        #    PCIe bytes; only entries holding bytes (``snapshot`` not
        #    None) are kept for the overlay. A pristine entry holds
        #    exactly what the replayed malloc created, so an address
        #    whose run holds no bytes is never looked up, and its
        #    replayed buffer builds no contents.
        chain_buffers = [
            img.blobs["crac/buffers"].payload
            for img in image.chain()
            if "crac/buffers" in img.blobs
        ]
        older = chain_buffers[-2::-1]  # the image's ancestors, newest first
        refill_bytes = 0
        #: address -> the byte-holding entries of its run, newest first
        runs: dict[int, list[dict]] = {}
        for addr, entry in buffers.items():
            refill_bytes += (
                entry["pcie_bytes"] if "pcie_bytes" in entry
                else _legacy_pcie_bytes(entry)
            )
            kept = [entry] if entry["snapshot"] is not None else []
            if entry.get("delta"):
                uid = entry.get("uid")
                for payload in older:
                    prev = payload.get(addr)
                    if prev is None:
                        continue
                    if prev.get("uid") != uid:
                        # A delta of a fresh allocation: its pre-history
                        # is the replay-created zero-filled buffer.
                        break
                    refill_bytes += (
                        prev["pcie_bytes"] if "pcie_bytes" in prev
                        else _legacy_pcie_bytes(prev)
                    )
                    if prev["snapshot"] is not None:
                        kept.append(prev)
                    if not prev.get("delta"):
                        break
            if kept:
                runs[addr] = kept
        # Managed entries always hold bytes, so every managed buffer gets
        # its residency back here.
        for addr, entries in runs.items():
            buf = fresh.runtime.buffers[translation.get(addr, addr)]
            contents = buf.contents
            for entry in reversed(entries):
                if entry.get("delta"):
                    contents.apply_delta(entry["snapshot"])
                else:
                    contents.restore(entry["snapshot"])
            final_entry = buffers[addr]
            if final_entry["kind"] == "managed":
                assert isinstance(buf, ManagedBuffer)
                buf.residency[:] = final_entry["residency"]
            # The refilled contents *are* the committed cut's state.
            contents.clear_dirty()
        proc.advance(refill_bytes / fresh.device.spec.pcie_bw * NS_PER_S)

        # Restore the application's cudaSetDevice state (replay may have
        # left a different device current).
        want_device = image.blobs.get("crac/current-device")
        if want_device is not None and fresh.runtime.current_device != want_device.payload:
            fresh.runtime.cudaSetDevice(want_device.payload)

        # Patch the application's virtual pointers onto the (possibly
        # moved) real allocations.
        if translation:
            self.backend.patch_translation(translation)

        t_adopt = proc.clock_ns
        # 8. Recreate streams/events: adopt the app-held handles. The
        #    handles may carry state from the *dead* process's timeline —
        #    a poison flag from a post-checkpoint fault, a ready_ns
        #    inflated by a hung kernel. The checkpoint quiesced every
        #    stream before capture, so none of it describes restored
        #    work: rebaseline each handle to the fresh clock or the first
        #    post-restore sync fires a spurious watchdog trip (the
        #    migration-onto-a-new-node bug).
        for stream in self.backend.live_streams.values():
            fresh.runtime.devices[stream.device_index].rebaseline_stream(
                stream, proc.clock_ns
            )
            fresh.runtime.adopt_stream(stream)
            proc.advance(self.costs.replay_call_ns)
        for event in self.backend.live_events.values():
            fresh.runtime.adopt_event(event)

        restart_time = proc.clock_ns
        steps = {
            "bootstrap_ns": t_replay,
            "replay_ns": t_fatbin - t_replay,
            "fatbin_ns": t_refill - t_fatbin,
            "refill_ns": t_adopt - t_refill,
        }
        # The remainder, so the five steps sum exactly to restart_time.
        steps["adopt_ns"] = restart_time - sum(steps.values())
        # The session continues in the new process; keep virtual time
        # monotone across the kill/restart boundary.
        proc.advance_to(old_clock + restart_time)

        self.split = fresh
        self.checkpointer = DmtcpCheckpointer(
            proc, [self.plugin], self.costs, fault_injector=self.fault_injector
        )
        self.checkpointer.handle_table = self.handle_table
        self.coordinator = DmtcpCoordinator(self.checkpointer, seed=self.seed)
        self.backend.coordinator = self.coordinator
        # Re-wire the runtime fault domain and the speculative version
        # table into the fresh devices.
        for dev in fresh.runtime.devices:
            dev.fault_injector = self.fault_injector
            dev.handle_table = self.handle_table
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
            reregistered_fatbins=len(patches),
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


# -- runtime fault domain (module docstring) ----------------------------------


@dataclass
class RecoveryAttempt:
    """One rung taken by the escalation ladder (mirrors RestartAttempt)."""

    rung: str  # "retry" | "stream-reset" | "restore" | "failover" | "abort"
    attempt: int  # 1-based index of this rung within its failure episode
    backoff_ns: float  # virtual-time backoff paid before this attempt
    error: str  # repr of the error that drove the attempt
    succeeded: bool = False


@dataclass
class RecoveryReport:
    """Cumulative attempt trail of one :class:`FaultDomain` (mirrors
    :class:`RestartReport` for the recovery ladder)."""

    attempts: list[RecoveryAttempt] = field(default_factory=list)
    retries: int = 0
    stream_resets: int = 0
    restores: int = 0
    #: rung-4 node failovers (cross-node restore of a shipped generation)
    failovers: int = 0
    watchdog_trips: int = 0
    #: virtual work re-executed after restores (fault point − restored cut)
    lost_work_ns: float = 0.0
    #: total virtual-time backoff paid across retry rungs
    backoff_ns: float = 0.0
    aborted: bool = False

    def rung_counts(self) -> dict[str, int]:
        """Per-rung recovery counts (campaign reporting)."""
        return {
            "retry": self.retries,
            "stream-reset": self.stream_resets,
            "restore": self.restores,
            "failover": self.failovers,
        }


class Watchdog:
    """Virtual-time latency watchdog (bounds in :class:`WatchdogLimits`).

    Runtime faults that *hang* rather than fail (kernel-hang,
    copy-stall) don't raise at enqueue — the op completes absurdly far
    in the future and the stream carries a poison flag. Like a real
    driver watchdog, detection happens when the host would block: before
    a synchronization the watchdog scans for poisoned streams via pure
    queries, charges the timeout it spent waiting, and raises a *sticky*
    :class:`~repro.errors.CudaError` instead of letting virtual time
    silently absorb the stall.
    """

    def __init__(self, session: CracSession,
                 limits: WatchdogLimits = DEFAULT_WATCHDOG_LIMITS) -> None:
        self.session = session
        self.limits = limits
        self.trips = 0

    def precheck(self, sync_scope) -> None:
        """Scan for poisoned streams before blocking on a sync.

        ``sync_scope`` is the Stream being drained or ``"device"``; a
        stream-scoped sync only trips on its own stream's poison.
        """
        for dev in self.session.runtime.devices:
            for stream in dev.flagged_streams():
                if (
                    isinstance(sync_scope, Stream)
                    and stream.sid != sync_scope.sid
                ):
                    continue
                self.trips += 1
                if stream.fault == "kernel-hang":
                    wait = self.limits.kernel_timeout_ns
                    code = CudaErrorCode.LAUNCH_TIMEOUT
                    what = "kernel hang"
                else:
                    wait = self.limits.copy_timeout_ns
                    code = CudaErrorCode.STREAM_STALLED
                    what = "stalled copy engine"
                # The host blocked until the bound expired, then the
                # watchdog declared the op stuck.
                self.session.process.advance(
                    wait + self.limits.detection_wait_ns
                )
                raise cuda_error(
                    code,
                    f"watchdog: {what} on stream {stream.sid} "
                    f"(waited {wait / NS_PER_S:.1f}s virtual)",
                    stream_sid=stream.sid,
                )


class FaultDomain:
    """The escalation ladder guarding runtime calls (module docstring).

    Attached to a session via :meth:`CracSession.enable_fault_domain`;
    the dispatch backend routes kernel/copy/sync calls through
    :meth:`run`. Rung budgets are per *failure episode* (one guarded
    call's recovery), so every episode terminates after at most
    ``retries + max_stream_resets + max_restores + 1`` attempts.
    """

    def __init__(
        self,
        session: CracSession,
        store: CheckpointStore | None = None,
        *,
        retries: int = 3,
        max_stream_resets: int = 2,
        max_restores: int = 2,
        max_failovers: int = 1,
        backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
        limits: WatchdogLimits = DEFAULT_WATCHDOG_LIMITS,
    ) -> None:
        self.session = session
        self.store = store
        self.retries = retries
        self.max_stream_resets = max_stream_resets
        self.max_restores = max_restores
        self.max_failovers = max_failovers
        #: rung 4 (node failover), installed by a cluster fabric: called
        #: with the driving error, performs the cross-node restore (kill,
        #: restore the latest *shipped* generation on a surviving node,
        #: re-point ``store``), and returns a dict with at least
        #: ``cut_ns`` (virtual time of the restored cut) for lost-work
        #: accounting. ``None`` = no cluster, the ladder has three rungs.
        self.failover_handler = None
        self.backoff_base_ns = backoff_s * NS_PER_S
        self.max_backoff_ns = max_backoff_s * NS_PER_S
        self.watchdog = Watchdog(session, limits)
        self.report = RecoveryReport()
        #: virtual clock at which each committed generation was cut
        #: (restore-rung lost-work accounting)
        self.committed_at: dict[int, float] = {}
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
                    self.watchdog.precheck(sync_scope)
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
                    and n_reset < self.max_stream_resets
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
                    self._restore(n_restore, exc)
                    continue
                if (
                    self.failover_handler is not None
                    and n_failover < self.max_failovers
                ):
                    # Rung 4: local recovery is off the table (no store,
                    # no usable generation, or the restore budget of a
                    # dying node is spent) but a surviving node holds a
                    # shipped generation — fail the session over.
                    n_failover += 1
                    self._failover(n_failover, exc)
                    continue
                self.report.aborted = True
                self.report.attempts.append(RecoveryAttempt(
                    "abort", 1, 0.0, repr(exc)
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

    # -- rung 1: retry with backoff -------------------------------------------

    def _retry(self, attempt: int, exc: CudaError) -> None:
        t0 = self.session.process.clock_ns
        backoff = min(
            self.backoff_base_ns * 2.0 ** (attempt - 1), self.max_backoff_ns
        )
        backoff *= 0.5 + self._rng.random()  # jitter in [0.5, 1.5)
        self.session.process.advance(backoff)
        self.report.retries += 1
        self.report.backoff_ns += backoff
        self.report.attempts.append(
            RecoveryAttempt("retry", attempt, backoff, repr(exc))
        )
        self._trace_rung("retry", t0, attempt, exc)

    # -- rung 2: stream reset + replay ----------------------------------------

    def _trace_rung(self, rung: str, t0: float, attempt: int, exc: CudaError) -> None:
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
            RecoveryAttempt("stream-reset", attempt, 0.0, repr(exc))
        )
        self._trace_rung("stream-reset", t0, attempt, exc)

    # -- rung 3: device reset + restore ---------------------------------------

    def _snapshot_buffers(self) -> list[tuple[int, bytes, object]]:
        """Pre-fault contents of every active allocation (redo source)."""
        saved: list[tuple[int, bytes, object]] = []
        if not self.session.process.alive:
            return saved  # node already gone: nothing left to snapshot
        for buf in self.session.runtime.active_allocations():
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
            buf = self.session.runtime.buffers.get(addr)
            if buf is None:
                continue  # freed by a replayed post-cut free
            buf.contents.write_bytes(0, data)
            if residency is not None and isinstance(buf, ManagedBuffer):
                buf.residency[:] = residency

    def _replay_log_suffix(self, generation, pre_entries) -> int:
        """Re-execute allocation calls made after the restored cut.

        Restart rebuilds the buffer table from the image's replay log,
        which stops at the checkpoint cut. The app's redo resumes from
        the *fault* point still holding pointers it allocated between
        the cut and the fault — deterministic re-execution would have
        re-issued those calls, so the redo must too, or they are unknown
        pointers on the fresh lower half. A locally committed image
        aliases the live trampoline log (same object, so its replay
        already covered the full history and the suffix is empty); a
        *shipped* generation was pickled at export and its log is frozen
        at the cut — e.g. an anchor shipped before the app's setup.
        """
        if generation is None or self.store is None:
            return 0
        cut_log = self.store.get(generation).image.blob("crac/replay-log")
        suffix = pre_entries[len(cut_log.entries):]
        if not suffix:
            return 0
        backend = self.session.backend
        log = ReplayLog(entries=list(suffix))
        if backend.virtualize_addresses:
            translation = log.replay(self.session.runtime, strict=False)
            backend.patch_translation(translation)
        else:
            log.replay(self.session.runtime)
        # The trampoline log survives the restart and already holds the
        # suffix; the lost-work advance already charges its wall time.
        return len(suffix)

    def _restore(self, attempt: int, exc: CudaError) -> None:
        """Kill, restore the newest usable generation, redo lost work.

        Redo is by *re-application*: app re-execution from the restored
        cut is deterministic, so its effect equals the pre-fault buffer
        contents snapshotted here — the clock is charged for the lost
        interval and the bytes are applied directly.
        """
        session = self.session
        t_fault = session.process.clock_ns
        saved = self._snapshot_buffers()
        pre_entries = list(session.backend.log.entries)
        self._in_recovery = True
        try:
            # An in-flight background write (forked or speculative) must
            # not commit a cut that post-dates the recovery line we are
            # rolling back to: release it (dirty bits stay intact).
            session.abort_pending_writers()
            session.kill()
            report = session.restart_latest(self.store)
            committed = self.committed_at.get(report.generation, t_fault)
            lost = max(0.0, t_fault - committed)
            session.process.advance(lost)  # deterministic re-execution
            self._replay_log_suffix(report.generation, pre_entries)
            self._reapply_buffers(saved)
        finally:
            self._in_recovery = False
            self.attach()
        self.report.restores += 1
        self.report.lost_work_ns += lost
        self.report.attempts.append(
            RecoveryAttempt("restore", attempt, 0.0, repr(exc), succeeded=True)
        )
        self._trace_rung("restore", t_fault, attempt, exc)

    # -- rung 4: node failover -------------------------------------------------

    def _failover(self, attempt: int, exc: CudaError) -> None:
        """Fail the session over to a surviving node (handler-driven).

        The installed handler owns the cluster mechanics — choosing the
        target node, restoring the latest *shipped* generation there
        (``restart_latest`` on the destination store), and re-pointing
        this domain's ``store`` at the new home. This rung mirrors
        :meth:`_restore`'s deterministic-redo accounting: pre-fault
        buffer contents (when the dying node is still reachable) are
        re-applied after the cross-node restore, and the work between
        the restored cut and the fault point is charged to the clock.
        """
        session = self.session
        t_fault = session.process.clock_ns
        saved = self._snapshot_buffers()
        pre_entries = list(session.backend.log.entries)
        self._in_recovery = True
        try:
            # Same writer release as rung 3: the dying node's in-flight
            # background write must never commit past the shipped cut.
            session.abort_pending_writers()
            outcome = self.failover_handler(exc) or {}
            cut_ns = float(outcome.get("cut_ns", t_fault))
            lost = max(0.0, t_fault - cut_ns)
            session.process.advance(lost)  # deterministic re-execution
            self._replay_log_suffix(outcome.get("generation"), pre_entries)
            self._reapply_buffers(saved)
        finally:
            self._in_recovery = False
            self.attach()
        self.report.failovers += 1
        self.report.lost_work_ns += lost
        self.report.attempts.append(
            RecoveryAttempt("failover", attempt, 0.0, repr(exc), succeeded=True)
        )
        self._trace_rung("failover", t_fault, attempt, exc)

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
        self._failover(1, exc)

    # -- op-log retirement -----------------------------------------------------

    def _note_synced(self, sync_scope) -> None:
        sid = sync_scope.sid if isinstance(sync_scope, Stream) else None
        for dev in self.session.runtime.devices:
            if dev.op_log is not None:
                dev.op_log.mark_synced(sid)
