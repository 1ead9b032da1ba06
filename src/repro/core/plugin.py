"""CRAC's DMTCP plugin: drain, stage, veto (paper §3.2.3).

At precheckpoint time the plugin:

1. drains the task queue — ``cudaDeviceSynchronize`` (the CheCUDA step
   that CRAC retains, §2.2);
2. stages the contents of every **active** allocation (device, managed,
   pinned) into image blobs, charging the device→host drain over PCIe.
   Only active mallocs are saved — *not* the full allocation arenas —
   which is CRAC's checkpoint-size optimization (§3.2.3);
3. saves the replay log and stream/event metadata as blobs;
4. vetoes every lower-half range from the memory dump: the CUDA
   library's own memory (with its unrestorable UVA/UVM state) is *not*
   checkpointed (§3.1).
"""

from __future__ import annotations

from repro.core.trampoline import CracBackend
from repro.dmtcp.checkpointer import SKIP
from repro.dmtcp.image import CheckpointImage
from repro.dmtcp.plugins import DmtcpPlugin
from repro.gpu.timing import NS_PER_S
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
        #    For an incremental image only the *dirtied* spans are staged
        #    (a GPU delta that chains exactly like host dirty pages);
        #    ``uid`` guards the chain against arena address reuse. Each
        #    entry records what it costs in the image (``image_bytes``)
        #    and over PCIe at drain/refill time (``pcie_bytes``).
        delta = image.incremental
        t_stage = process.clock_ns
        buffers: dict[int, dict] = {}
        drain_bytes = 0
        for buf in runtime.active_allocations():
            contents = buf.contents
            is_managed = isinstance(buf, ManagedBuffer)
            kind = "managed" if is_managed else buf.kind
            if not is_managed and contents.pristine:
                # Never written (or clean and back to a fresh buffer's
                # contents): replay recreates it, so nothing is copied.
                # It is accounted exactly like a copied entry. Managed
                # buffers always copy: they carry residency.
                dirty_spans: tuple[tuple[int, int], ...] = ()
                snapshot = None
            else:
                dirty_spans = tuple(contents.dirty_spans())
                snapshot = (
                    contents.dirty_snapshot() if delta else contents.snapshot()
                )
            entry = {
                "kind": kind,
                "size": buf.size,
                "uid": buf.uid,
                "delta": delta,
                "snapshot": snapshot,
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
            buffers[buf.addr] = entry
            # Whichever spans this image captured get cleared from the
            # live buffer only when the image durably commits — and only
            # where no later write superseded them (epoch-bounded).
            image.record_contents_capture(
                contents, dirty_spans, contents.write_seq
            )
        cut.charge("stage", drain_bytes / runtime.device.spec.pcie_bw * NS_PER_S)
        if tracer is not None:
            tracer.ckpt_span(
                "stage", t_stage, process.clock_ns,
                buffers=len(buffers), pcie_bytes=drain_bytes,
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
            accounted = max(accounted, sum(e["size"] for e in buffers.values()))  # lint: allow
        else:
            accounted = sum(e["image_bytes"] for e in buffers.values())  # lint: allow
        image.add_blob("crac/buffers", buffers, accounted_bytes=accounted)

        # 3. Replay log + live handle metadata.
        image.add_blob("crac/replay-log", self.session.backend.log)
        image.add_blob(
            "crac/streams",
            sorted(backend.live_streams.keys()),
        )
        image.add_blob(
            "crac/events",
            {
                eid: (e.recorded, e.timestamp_ns)
                for eid, e in sorted(backend.live_events.items())
            },
        )
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
        image.add_blob(
            "crac/fatbins",
            {
                virtual: entry["fatbin"].name
                for virtual, entry in sorted(backend.fatbin_registry.items())
            },
        )

    # -- veto ---------------------------------------------------------------------

    def skip_ranges(self) -> list[tuple[int, int]]:
        """The whole lower half: helper, CUDA libraries, and every arena
        the library mmap'ed — none of it is saved (§3.1)."""
        return self.session.split.lower_ranges()
