"""CRAC's DMTCP plugin: drain, stage, veto; read back at restart (paper §3.2).

At precheckpoint time the plugin:

1. drains the task queue — ``cudaDeviceSynchronize`` (the CheCUDA step
   that CRAC retains, §2.2);
2. stages the contents of every **active** allocation (device, managed,
   pinned) into image blobs, charging the device→host drain over PCIe.
   Only active mallocs are saved — *not* the full allocation arenas —
   which is CRAC's checkpoint-size optimization (§3.2.3). A buffer that
   never built its contents (a managed one: nor its residency) holds
   exactly what replay recreates, so it gets no entry: the runtime's
   never-built tables go into the image as one bulk record
   (``crac/never-built``: addresses, uids, sizes per kind), taken with
   C-level copies, and a cut's Python work follows the buffers that hold
   state. The record is accounted like entries with no dirty bytes:
   sizes in a full image (over PCIe for device buffers only), nothing in
   a delta;
3. saves a copy of the replay log as it stands at the cut, the current
   device and the platform fingerprint, as blobs. Stream and event
   handles and fat binaries are not captured: restart adopts them from
   the live backend registries (``CracBackend.live_streams``/
   ``live_events``) and re-registers ``fatbin_registry``;
4. vetoes every lower-half range from the memory dump: the CUDA
   library's own memory (with its unrestorable UVA/UVM state) is *not*
   checkpointed (§3.1).

At restart the session calls the plugin directly (there is no restart
hook): :meth:`CracPlugin.check_platform` before anything is torn down,
then :meth:`CracPlugin.restore` for restart steps 4–8 (log replay,
``cudaHostAlloc`` and fat-binary re-registration, buffer refill along
the delta chain, stream/event adoption). Both read back the blobs
written above, so this module is the only one that knows the ``crac/*``
format.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.replay_log import ReplayLog
from repro.core.trampoline import CracBackend
from repro.cuda.api import RowWatch
from repro.dmtcp.checkpointer import BACKGROUND, SKIP
from repro.dmtcp.image import CheckpointImage
from repro.dmtcp.plugins import DmtcpPlugin
from repro.errors import RestartError
from repro.gpu.rows import RowTable
from repro.gpu.timing import GPU_SPECS, transfer_ns
from repro.gpu.uvm import UVM_PAGE, ManagedBuffer


def _resident_dirty_bytes(buf: ManagedBuffer) -> int:
    """Dirty bytes of a managed buffer that live on device-resident pages
    (only those cross PCIe at drain/refill time)."""
    total = 0
    for lo, hi in buf.contents.dirty_spans():
        for pg in range(lo // UVM_PAGE, (hi - 1) // UVM_PAGE + 1):
            if pg < buf.num_pages and buf.residency[pg] == 1:
                total += min(hi, (pg + 1) * UVM_PAGE) - max(lo, pg * UVM_PAGE)
    return total


def _pcie_bytes(entry: dict) -> int:
    """PCIe bytes at refill of a ``crac/buffers`` entry. An entry written
    before entries carried ``pcie_bytes`` moves a device buffer's size, a
    managed buffer's device-resident pages."""
    if "pcie_bytes" in entry:
        return entry["pcie_bytes"]
    if entry["kind"] == "device":
        return entry["size"]
    if entry["kind"] == "managed":
        return int((entry["residency"] == 1).sum()) * UVM_PAGE
    return 0


@dataclass(slots=True)
class NeverBuilt:
    """The ``crac/never-built`` record of a cut: the live allocations
    that never built their contents, taken as row copies of the
    runtime's tables (:class:`~repro.gpu.rows.RowTable`: a run of equal
    allocations made at once is one row, whatever its length).

    ``uids`` maps the address of each to its uid (device, then pinned,
    then managed allocations, each in allocation order); ``pinned`` and
    ``managed`` are the pinned and managed part of it (the rest are
    device allocations), and ``sizes`` maps every live allocation's
    address to its size (a copy of ``CudaRuntime.allocations``).

    ``sizes`` holds the built allocations' sizes too, on purpose: one
    copy of the table's rows is cheaper than building the never-built
    part of it, and it is bounded by the live allocations, whose built
    part ``crac/buffers`` already holds an entry dict for. Byte sums go
    row by row: size times count for a run.
    """

    uids: RowTable
    pinned: RowTable
    managed: RowTable
    sizes: RowTable

    @classmethod
    def of(cls, runtime) -> "NeverBuilt":
        """The record of ``runtime``'s never-built allocations now."""
        uids = runtime.unbuilt_device.copy()
        pinned = runtime.unbuilt_pinned.copy()
        managed = runtime.unbuilt_managed.copy()
        # A table's rows are empty exactly when the table is.
        for kind in (pinned, managed):
            if kind.rows:
                uids.update(kind)
        return cls(
            uids, pinned, managed,
            runtime.allocations.copy() if uids.rows else RowTable(),
        )

    def total_bytes(self) -> int:
        """The total size of the recorded allocations."""
        return self.sizes.total(self.uids)

    def device_bytes(self, addrs: RowTable | set | None = None) -> int:
        """The total size of the device allocations among ``addrs``, all
        of them recorded here (by default, of every recorded one)."""
        sizes = self.sizes
        if addrs is None:
            total = sizes.total(self.uids)
            for kind in (self.pinned, self.managed):
                if kind.rows:
                    total -= sizes.total(kind)
            return total
        for kind in (self.pinned, self.managed):
            if kind.rows:
                addrs = (addrs.without(kind) if type(addrs) is RowTable
                         else addrs - kind.keys())
        return sizes.total(addrs)


_NO_NEVER_BUILT = NeverBuilt(RowTable(), RowTable(), RowTable(), RowTable())


class _ChainLink(NamedTuple):
    """What restart's refill reads from one image of a delta chain."""

    incremental: bool
    #: ``crac/buffers``: address -> explicit entry
    entries: dict[int, dict]
    #: ``crac/never-built`` (empty if the image has none)
    never_built: NeverBuilt

    @classmethod
    def of(cls, image: CheckpointImage) -> "_ChainLink":
        blob = image.blobs.get("crac/buffers")
        record = image.blobs.get("crac/never-built")
        never_built = _NO_NEVER_BUILT if record is None else record.payload
        return cls(
            image.incremental, {} if blob is None else blob.payload,
            never_built,
        )


def _walk_run(addr: int, uid: int | None, older: list[_ChainLink],
              kept: list[dict]) -> int:
    """PCIe bytes of the older part of a delta entry's run at ``addr``
    (``older`` newest first); appends the run's explicit entries to
    ``kept``. In an image that recorded the address as never built, the
    run's entry holds no bytes and moves the buffer's size in a full
    image (device only), nothing in a delta."""
    total = 0
    for link in older:
        prev = link.entries.get(addr)
        if prev is None:
            prev_uid = link.never_built.uids.get(addr)
            if prev_uid is None:
                continue
            if prev_uid != uid:
                # A delta of a fresh allocation: its pre-history is the
                # replay-created zero-filled buffer.
                break
            if link.incremental:
                continue
            return total + link.never_built.device_bytes({addr})
        if prev.get("uid") != uid:
            break
        total += _pcie_bytes(prev)
        kept.append(prev)
        if not prev.get("delta"):
            break
    return total


def _never_built_pcie_bytes(
    uids: RowTable, older: list[_ChainLink]
) -> tuple[int, list[int]]:
    """:func:`_walk_run` for all never-built buffers of a delta image at
    once, row by row; ``uids`` maps their addresses to their uids.

    A run passes a delta that recorded the same buffer as never built
    (no bytes) or that lacks the address, and ends at an address held
    under another uid. Returns the PCIe bytes of the runs — the device
    sizes of the buffers the full ancestor also recorded as never built
    with the same uid — and the addresses whose run reaches an explicit
    entry with the same uid (rare: a restart renumbers uids, so an
    address and uid can meet a written buffer's again), which the caller
    walks one by one. A link that recorded exactly the walking buffers
    (the common case: nothing was allocated, freed or first written
    between the two cuts) costs one comparison of rows, and a run of
    allocations made at once is one row in every pass.
    """
    walking = uids
    escaped: list[int] = []
    for link in older:
        if not walking:
            break
        entries = link.entries
        written = sorted(walking.common_keys(entries))
        escaped.extend(a for a in written if entries[a].get("uid") == walking[a])
        recorded = link.never_built.uids
        if recorded == walking:
            # The link recorded the same buffers as never built: every
            # run passes it (a delta) or ends in it (a full image).
            if link.incremental:
                continue
            return link.never_built.device_bytes(), escaped
        if not link.incremental:
            # The runs that reach the full image end in it where it
            # recorded the same buffer.
            return link.never_built.device_bytes(
                walking.matching(recorded)
            ), escaped
        # The runs that go on: the link recorded the address under the
        # same uid, or (a delta) holds nothing at it.
        walking = walking.agreeing(recorded)
        for addr in written:
            if addr not in recorded:
                del walking[addr]
    return 0, escaped


class CracPlugin(DmtcpPlugin):
    """The CUDA checkpoint plugin (one per CRAC session).

    ``full_arena`` enables the *naive* alternative the paper rejects in
    §3.2.3: saving the entire CUDA malloc arenas instead of only the
    active allocations. Used by the ablation benchmark to show the
    checkpoint-size blowup CRAC's bookkeeping avoids.
    """

    name = "crac"

    def __init__(self, session, *, full_arena: bool = False) -> None:
        # Bound to the session (not a specific process) because restart
        # replaces the process/runtime under the same session. The
        # session owns the plugin, so a weak proxy keeps the pair out of
        # a reference cycle: a finished session is freed at once.
        self.session = weakref.proxy(session)
        self.full_arena = full_arena

    # -- checkpoint -----------------------------------------------------------

    def on_precheckpoint(self, image: CheckpointImage) -> None:
        backend: CracBackend = self.session.backend
        runtime = backend.runtime
        process = runtime.process

        # Synccheck observes the cut *before* the drain below hides any
        # still-in-flight work, and watches the image for early commits.
        san = getattr(self.session, "sanitizer", None)
        if san is not None:
            san.on_checkpoint_cut(runtime)
            san.watch_image(image)

        tracer = getattr(self.session, "tracer", None)

        # 1. Drain the queue of pending CUDA kernels (on every GPU) —
        #    unless the cut's placement skips it: a speculative cut lets
        #    kernels keep launching through the capture window and the
        #    version table catches whatever they touch (validated at
        #    commit time).
        cut = image.cut
        if cut.placed("drain") != SKIP:
            t_drain = process.clock_ns
            for dev in runtime.devices:
                runtime.process.advance_to(dev.synchronize_all())
            runtime.cudaDeviceSynchronize()
            # The device is drained: every recorded managed write has
            # ended, so the CRUM-conflict log can be compacted (it
            # otherwise grows without bound across a long run).
            for mbuf in sorted(
                runtime.uvm.buffers.values(), key=lambda b: b.addr
            ):
                runtime.uvm.compact_writes(mbuf, before_ns=process.clock_ns)
            if tracer is not None:
                tracer.ckpt_span("drain", t_drain, process.clock_ns)

        # 2. Stage active allocations; drain device-side bytes over PCIe.
        self._capture_buffers(image, runtime, tracer)

        # 3. Replay log + device state. The image keeps the log as it
        #    stands at the cut; the live log goes on growing.
        image.add_blob("crac/replay-log", backend.log.copy())
        image.add_blob("crac/current-device", runtime.current_device)
        # Platform fingerprint: replay determinism "relies on using the
        # same CUDA/GPU platform on restart" (§3.2.4).
        image.add_blob(
            "crac/platform",
            {
                "gpu": runtime.devices[0].spec.name,
                "n_gpus": len(runtime.devices),
                "compute_capability": runtime.devices[0].spec.compute_capability,
            },
        )

    def _capture_buffers(self, image: CheckpointImage, runtime, tracer) -> None:
        """Step 2: stage the active allocations into ``crac/buffers`` and
        ``crac/never-built`` and charge their drain over PCIe.

        For an incremental image only the *dirtied* spans are staged (a
        GPU delta that chains exactly like host dirty pages); ``uid``
        guards the chain against arena address reuse. Each entry records
        what it costs in the image (``image_bytes``) and over PCIe at
        drain/refill time (``pcie_bytes``).
        """
        process = runtime.process
        cut = image.cut
        delta = image.incremental
        t_stage = process.clock_ns
        # Buffers that never built contents hold a fresh allocation's
        # bytes, which replay recreates: nothing is copied, and one bulk
        # record of C-level copies (no per-buffer work) keeps what
        # restart's chain walk needs. They cost what a copied entry with
        # no dirty bytes costs: their sizes in a full image (device bytes
        # over PCIe; a never-built managed buffer is host-resident),
        # nothing in a delta.
        never_built = NeverBuilt.of(runtime)
        uids = never_built.uids
        if delta:
            drain_bytes = image_bytes_total = 0
        else:
            drain_bytes = never_built.device_bytes()
            image_bytes_total = never_built.total_bytes()
        if uids and cut.placed("write") == BACKGROUND:
            # The image commits after the app resumes: a first write
            # before then is post-cut dirtiness (copy-on-write, or a
            # speculative conflict), which ``built_since_cut`` finds at
            # finish among the recorded allocations made objects since.
            image.unbuilt_capture = RowWatch(runtime, uids)
        buffers: dict[int, dict] = {}
        captures = []
        for buf in runtime.built_allocations():
            kind = buf.kind
            is_managed = kind == "managed"
            contents = buf.contents
            dirty_spans = tuple(contents.dirty_spans())
            entry = {
                "kind": kind,
                "size": buf.size,
                "uid": buf.uid,
                "delta": delta,
                "snapshot": (
                    contents.dirty_snapshot() if delta else contents.snapshot()
                ),
                "image_bytes": contents.dirty_byte_count if delta else buf.size,
            }
            if is_managed:
                # A numpy copy, unlike the snapshot's bytes spans: the
                # images pickled on a hot path (a serving session's
                # parks) hold device buffers only.
                entry["residency"] = buf.residency.copy()
                # Only device-resident pages cross PCIe at drain time.
                entry["pcie_bytes"] = (
                    _resident_dirty_bytes(buf)
                    if delta
                    else int((buf.residency == 1).sum()) * UVM_PAGE
                )
            elif kind == "device":
                entry["pcie_bytes"] = entry["image_bytes"]
            else:  # host-pinned: bytes never cross PCIe
                entry["pcie_bytes"] = 0
            drain_bytes += entry["pcie_bytes"]
            image_bytes_total += entry["image_bytes"]
            buffers[buf.addr] = entry
            # Whichever spans this image captured get cleared from the
            # live buffer only when the image durably commits — and only
            # where no later write superseded them (epoch-bounded).
            captures.append((contents, dirty_spans, contents.write_seq))
        if captures:
            image.contents_captures = captures
        cut.charge("stage", transfer_ns(drain_bytes, runtime.device.spec.pcie_bw))
        if tracer is not None:
            tracer.ckpt_span(
                "stage", t_stage, process.clock_ns,
                buffers=len(buffers) + len(uids), pcie_bytes=drain_bytes,
            )
        if self.full_arena:
            # Naive mode (§3.2.3): the whole arenas go into the image.
            accounted = (
                sum(a.arena_bytes for a in runtime._device_allocs)
                + runtime._pinned_alloc.arena_bytes
                + runtime._hostalloc_alloc.arena_bytes
                + runtime._managed_alloc.arena_bytes
            )
            # Integer sums are order-independent.
            accounted = max(
                accounted,
                sum(e["size"] for e in buffers.values())  # lint: allow
                + never_built.total_bytes()
            )
        else:
            accounted = image_bytes_total
        # The image accounts every live allocation here: the explicit
        # entries and the never-built record together. An image with no
        # never-built buffer carries no record (restart reads its absence
        # as empty), so the many small images of a serving tier keep no
        # empty dicts.
        image.add_blob("crac/buffers", buffers, accounted_bytes=accounted)
        if uids:
            image.add_blob("crac/never-built", never_built)

    # -- restart ------------------------------------------------------------------

    def check_platform(
        self, image: CheckpointImage, *, allow_heterogeneous: bool
    ) -> None:
        """Refuse an image taken on another platform (§3.2.4) before
        anything is torn down. ``allow_heterogeneous`` accepts another
        GPU model with the same GPU count if its device memory holds
        every active allocation; address virtualization skips the check."""
        platform = image.blobs.get("crac/platform")
        session = self.session
        if platform is None or session.backend.virtualize_addresses:
            return
        want = platform.payload
        have_spec = GPU_SPECS[session.gpu]
        mismatch = (
            want["gpu"] != have_spec.name or want["n_gpus"] != session.n_gpus
        )
        heterogeneous_ok = (
            allow_heterogeneous and want["n_gpus"] == session.n_gpus
        )
        if mismatch and not heterogeneous_ok:
            raise RestartError(
                "restart platform mismatch: image was taken on "
                f"{want['n_gpus']}× {want['gpu']}, restarting on "
                f"{session.n_gpus}× {have_spec.name} — CRAC's replay "
                "determinism requires the same CUDA/GPU platform "
                "(§3.2.4)"
            )
        if mismatch:
            # Heterogeneous restore: replay recreates every active
            # allocation on the target, so its device memory must hold
            # them all.
            log = image.blob("crac/replay-log")
            need = sum(
                e.nbytes
                for e in log.active_allocations().values()
                if e.op != "host_alloc"
            )
            if need > have_spec.memory_bytes:
                raise RestartError(
                    f"heterogeneous restore does not fit: image holds "
                    f"{need} bytes of device/managed allocations, "
                    f"{have_spec.name} has {have_spec.memory_bytes}"
                )

    def replay(
        self, log: ReplayLog, runtime, call_ns: int = 0
    ) -> tuple[int, dict[int, int]]:
        """Steps 4–5: replay ``log`` into ``runtime`` and bring back the
        still-active ``cudaHostAlloc`` buffers replay picked out of it
        (``cudaHostRegister`` each at its logged address, and reserve its
        range in the hostalloc arena so the arena never hands it out
        again). ``call_ns`` is charged per replayed call and per
        buffer. Returns the number of replayed calls and the replay's
        translation (old → new address).

        In the baseline design address determinism is verified; under
        address virtualization (the §3.2.4 future-work mode) divergence
        is tolerated and the caller patches the virtual pointers."""
        replayed, translation, host_allocs = log.replay(
            runtime, strict=not self.session.backend.virtualize_addresses
        )
        process = runtime.process
        process.advance(replayed * call_ns)
        for entry in host_allocs:
            runtime.cudaHostRegister(entry.addr, entry.nbytes)
            runtime._hostalloc_alloc.reserve(entry.addr, entry.nbytes)
            process.advance(call_ns)
        return replayed, translation

    def restore(
        self, image: CheckpointImage, runtime
    ) -> tuple[int, int, int, dict[str, int]]:
        """Restart steps 4–8 (module docstring) into the fresh
        ``runtime``. Returns the replayed calls, the refilled bytes, the
        re-registered fat binaries and the virtual ns of steps 4–5, 6
        and 7 (``replay_ns``, ``fatbin_ns``, ``refill_ns``); step 8 ends
        the restart."""
        session = self.session
        backend: CracBackend = session.backend
        process = runtime.process
        costs = session.costs
        t_replay = process.clock_ns

        # 4–5. Replay the allocation log, re-register cudaHostAlloc.
        log = image.blob("crac/replay-log")
        if session.fault_injector is not None:
            # kind="divergence" raises ReplayDivergenceError here, the
            # §3.2.4 failure mode (ASLR left on / different platform).
            session.fault_injector.check("replay", f"{len(log)} calls")
        replayed, translation = self.replay(log, runtime, costs.replay_call_ns)
        # Sanity: every staged buffer must exist again (possibly moved).
        # Strict replay moves nothing: whole key sets are compared (the
        # never-built ones row by row), and the per-address check runs
        # only to name what is missing.
        allocations = runtime.allocations
        restored = allocations.keys()
        buffers = image.blob("crac/buffers")
        never_built = _ChainLink.of(image).never_built.uids
        if (not translation
                and len(allocations.common_keys(buffers)) == len(buffers)
                and never_built.keys() <= restored):
            missing = []
        else:
            missing = [
                a for a in buffers if translation.get(a, a) not in restored
            ]
            missing += sorted(
                set(map(translation.get, never_built, never_built)) - restored
            )
        if missing:
            raise RestartError(
                f"replay did not recreate buffers at {[hex(a) for a in missing]}"
            )

        # 6. Fat binaries: re-register and patch handles.
        t_fatbin = process.clock_ns
        patches = backend.reregister_fatbins()
        t_refill = process.clock_ns

        # 7. Refill contents of active allocations; device/managed bytes
        #    cross PCIe again.
        refill_bytes = self._refill(image, runtime, translation)
        process.advance(transfer_ns(refill_bytes, runtime.devices[0].spec.pcie_bw))
        # Restore the application's cudaSetDevice state (replay may have
        # left a different device current).
        want_device = image.blobs.get("crac/current-device")
        if want_device is not None and runtime.current_device != want_device.payload:
            runtime.cudaSetDevice(want_device.payload)
        # Patch the application's virtual pointers onto the (possibly
        # moved) real allocations.
        if translation:
            backend.patch_translation(translation)

        t_adopt = process.clock_ns
        # 8. Recreate streams/events: adopt the app-held handles. The
        #    handles may carry state from the *dead* process's timeline —
        #    a poison flag from a post-checkpoint fault, a ready_ns
        #    inflated by a hung kernel. The checkpoint quiesced every
        #    stream before capture, so none of it describes restored
        #    work: rebaseline each handle to the fresh clock or the first
        #    post-restore sync fires a spurious watchdog trip (the
        #    migration-onto-a-new-node bug). Handles adopt in id order,
        #    which is their creation order (ids come from one counter).
        for _, stream in sorted(backend.live_streams.items()):
            runtime.devices[stream.device_index].rebaseline_stream(
                stream, process.clock_ns
            )
            runtime.adopt_stream(stream)
            process.advance(costs.replay_call_ns)
        for _, event in sorted(backend.live_events.items()):
            runtime.adopt_event(event)
        # The log goes on from the restored cut, not from the dead
        # process's last call.
        backend.log = log.copy()
        steps = {
            "replay_ns": t_fatbin - t_replay,
            "fatbin_ns": t_refill - t_fatbin,
            "refill_ns": t_adopt - t_refill,
        }
        return replayed, refill_bytes, len(patches), steps

    @staticmethod
    def _refill(
        image: CheckpointImage, runtime, translation: dict[int, int]
    ) -> int:
        """Restart step 7: refill the restored buffers from ``image``'s
        delta chain; returns the bytes the refill moves over PCIe.

        GPU deltas chain like host dirty pages: an address's *run* is its
        newest entry plus each older entry its delta stacks on. A full
        entry — or a uid change, meaning the arena reused the address for
        a *different* allocation — ends the run, so stale bytes never
        leak across a free. Every run entry's PCIe bytes are charged and
        its bytes overlaid. A never-built buffer holds exactly what the
        replayed malloc created, so it builds no contents here, and its
        run's bytes are charged in bulk (:func:`_never_built_pcie_bytes`).
        """
        chain = [_ChainLink.of(img) for img in image.chain()]
        newest = chain[-1]
        older = chain[-2::-1]  # the image's ancestors, newest first
        refill_bytes = 0
        #: address -> the explicit entries of its run, newest first
        runs: dict[int, list[dict]] = {}
        for addr, entry in newest.entries.items():
            refill_bytes += _pcie_bytes(entry)
            kept = runs[addr] = [entry]
            if entry.get("delta"):
                refill_bytes += _walk_run(addr, entry.get("uid"), older, kept)
        if newest.incremental:
            uids = newest.never_built.uids
            nb_bytes, escaped = _never_built_pcie_bytes(uids, older)
            refill_bytes += nb_bytes
            for addr in escaped:
                kept = []
                refill_bytes += _walk_run(addr, uids[addr], older, kept)
                if kept:
                    runs[addr] = kept
        else:
            refill_bytes += newest.never_built.device_bytes()
        # A managed buffer with an explicit entry gets its residency back
        # here; a never-built one is host-resident, as replay made it.
        for addr, entries in runs.items():
            buf = runtime.buffer(translation.get(addr, addr))
            contents = buf.contents
            for entry in reversed(entries):
                if entry.get("delta"):
                    contents.apply_delta(entry["snapshot"])
                else:
                    contents.restore(entry["snapshot"])
            final_entry = newest.entries.get(addr)
            if final_entry is not None and final_entry["kind"] == "managed":
                assert isinstance(buf, ManagedBuffer)
                buf.residency[:] = final_entry["residency"]
            # The refilled contents *are* the committed cut's state.
            contents.clear_dirty()
        return refill_bytes

    # -- veto ---------------------------------------------------------------------

    def skip_ranges(self) -> list[tuple[int, int]]:
        """The whole lower half: helper, CUDA libraries, and every arena
        the library mmap'ed — none of it is saved (§3.1)."""
        return self.session.split.lower_ranges()
