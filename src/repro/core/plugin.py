"""CRAC's DMTCP plugin: drain, stage, veto (paper §3.2.3).

At precheckpoint time the plugin:

1. drains the task queue — ``cudaDeviceSynchronize`` (the CheCUDA step
   that CRAC retains, §2.2);
2. stages the contents of every **active** allocation (device, managed,
   pinned) into image blobs, charging the device→host drain over PCIe.
   Only active mallocs are saved — *not* the full allocation arenas —
   which is CRAC's checkpoint-size optimization (§3.2.3). A buffer that
   never built its contents holds exactly what replay recreates, so it
   gets no entry: the runtime's never-built tables go into the image as
   one bulk record (``crac/never-built``: addresses, uids, sizes), taken
   with C-level copies, and a cut's Python work follows the buffers
   that hold state. The record is accounted like entries with no dirty
   bytes: sizes in a full image, nothing in a delta;
3. saves a copy of the replay log as it stands at the cut, the current
   device and the platform fingerprint, as blobs. Stream and event
   handles and fat binaries are not captured: restart adopts them from
   the live backend registries (``CracBackend.live_streams``/
   ``live_events``) and re-registers ``fatbin_registry``;
4. vetoes every lower-half range from the memory dump: the CUDA
   library's own memory (with its unrestorable UVA/UVM state) is *not*
   checkpointed (§3.1).
"""

from __future__ import annotations

from operator import attrgetter

from repro.core.replay_log import ReplayLog
from repro.core.trampoline import CracBackend
from repro.dmtcp.checkpointer import BACKGROUND, SKIP
from repro.dmtcp.image import CheckpointImage
from repro.dmtcp.plugins import DmtcpPlugin
from repro.gpu.timing import NS_PER_S
from repro.gpu.uvm import UVM_PAGE, ManagedBuffer

_SIZE = attrgetter("size")


def _resident_dirty_bytes(buf: ManagedBuffer) -> int:
    """Dirty bytes of a managed buffer that live on device-resident pages
    (only those cross PCIe at drain/refill time)."""
    total = 0
    for lo, hi in buf.contents.dirty_spans():
        for pg in range(lo // UVM_PAGE, (hi - 1) // UVM_PAGE + 1):
            if pg < buf.num_pages and buf.residency[pg] == 1:
                total += min(hi, (pg + 1) * UVM_PAGE) - max(lo, pg * UVM_PAGE)
    return total


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
        # replaces the process/runtime under the same session.
        self.session = session
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
        image.add_blob("crac/replay-log", ReplayLog(list(backend.log.entries)))
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
        # over PCIe), nothing in a delta.
        live = runtime.buffers
        unbuilt_device = runtime.unbuilt_device
        unbuilt_pinned = runtime.unbuilt_pinned
        uids = dict(unbuilt_device)  # dict() copies the table wholesale
        uids.update(unbuilt_pinned)
        never_built = {
            "uids": uids,
            "device": dict(zip(
                unbuilt_device, map(_SIZE, map(live.__getitem__, unbuilt_device))
            )),
            "host-pinned": dict(zip(
                unbuilt_pinned, map(_SIZE, map(live.__getitem__, unbuilt_pinned))
            )),
        }
        if delta:
            drain_bytes = image_bytes_total = 0
        else:
            drain_bytes = sum(never_built["device"].values())
            image_bytes_total = drain_bytes + sum(
                never_built["host-pinned"].values()
            )
        if cut.placed("write") == BACKGROUND:
            # The image commits after the app resumes: a first write
            # before then is post-cut dirtiness (copy-on-write, or a
            # speculative conflict), which ``built_since_cut`` finds at
            # finish by comparing these copies with the live tables.
            image.unbuilt_capture = [
                (dict(table), list(map(live.__getitem__, table)), table)
                for table in (unbuilt_device, unbuilt_pinned)
            ]
        buffers: dict[int, dict] = {}
        captures = image.contents_captures
        built = live.keys() - unbuilt_device.keys() - unbuilt_pinned.keys()
        for addr in sorted(built):
            buf = live[addr]
            is_managed = isinstance(buf, ManagedBuffer)
            contents = buf.contents
            kind = "managed" if is_managed else buf.kind
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
            buffers[addr] = entry
            # Whichever spans this image captured get cleared from the
            # live buffer only when the image durably commits — and only
            # where no later write superseded them (epoch-bounded).
            captures.append((contents, dirty_spans, contents.write_seq))
        cut.charge("stage", drain_bytes / runtime.device.spec.pcie_bw * NS_PER_S)
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
                + sum(never_built["device"].values())
                + sum(never_built["host-pinned"].values()),
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

    # -- veto ---------------------------------------------------------------------

    def skip_ranges(self) -> list[tuple[int, int]]:
        """The whole lower half: helper, CUDA libraries, and every arena
        the library mmap'ed — none of it is saved (§3.1)."""
        return self.session.split.lower_ranges()
