"""The DMTCP checkpoint/restore engine.

Checkpoint: quiesce → run plugin precheckpoint hooks → walk the address
space → save every region *not* covered by a plugin skip range → account
write time (optionally through the gzip cost model; the paper disables
gzip), each stage charged where the write mode's row of
:data:`PLACEMENT` puts it. Restore: map every saved region back at its
original address (``MAP_FIXED``) in the target process and reload its
pages.

Note the §3.2.2 subtlety: DMTCP's view of memory is the *merged*
``/proc/PID/maps``; deciding which bytes inside a merged entry belong to
the upper half is impossible from the maps file alone. The checkpointer
therefore intersects merged entries with plugin skip ranges — which CRAC
computes from its own loader registry — and saves the remainder.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.dmtcp.forked import ForkedCheckpoint, commit
from repro.dmtcp.image import CheckpointImage, SavedRegion
from repro.dmtcp.plugins import DmtcpPlugin
from repro.gpu.timing import DEFAULT_HOST_COSTS, HostCosts, transfer_ns
from repro.linux.address_space import PAGE_SIZE, MemoryRegion
from repro.linux.process import SimProcess

if TYPE_CHECKING:  # avoid a dmtcp → harness import cycle at runtime
    from repro.harness.fault_injection import FaultInjector


def _subtract_ranges(
    span: tuple[int, int], skips: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Remove skip ranges (``(start, size)``, in any order) from
    ``span``; returns the surviving (start, end) parts in address order.
    A part ends where a skip starts inside it, so an empty skip splits
    the part it falls in."""
    cur, end = span
    parts: list[tuple[int, int]] = []
    for s_start, s_size in sorted(skips):
        if s_start >= end:
            break
        if s_start > cur:
            parts.append((cur, s_start))
        cur = max(cur, s_start + s_size)
    if cur < end:
        parts.append((cur, end))
    return parts


def _split_pages(
    pages: dict[int, bytes], start: int, parts: list[tuple[int, int]]
) -> list[dict[int, bytes]]:
    """Split a region's snapshot (page index from ``start`` → bytes)
    among ``parts``, each re-keyed from its part's first page, in one
    pass that keeps the snapshot's order. A page in no part is dropped.
    The snapshot itself is the one part's pages when that part is the
    whole region and holds every page."""
    if len(parts) == 1 and parts[0][0] == start:
        n_pages = -(-(parts[0][1] - start) // PAGE_SIZE)
        if not pages or (min(pages) >= 0 and max(pages) < n_pages):
            return [pages]
    # page index bounds of each part, and the shift of its keys
    firsts = [-(-(lo - start) // PAGE_SIZE) for lo, _ in parts]
    stops = [-(-(hi - start) // PAGE_SIZE) for _, hi in parts]
    shifts = [(lo - start) // PAGE_SIZE for lo, _ in parts]
    out: list[dict[int, bytes]] = [{} for _ in parts]
    for pg, data in pages.items():
        i = bisect_right(firsts, pg) - 1
        if i >= 0 and pg < stops[i]:
            out[i][pg - shifts[i]] = data
    return out


_start_of = attrgetter("start")

#: Where a stage's cost lands: the application clock, the background
#: writer's timeline, or nowhere (the stage does not run).
APP, BACKGROUND, SKIP = "app", "background", "skip"
STAGES = ("quiesce", "drain", "stage", "save-regions", "write")

#: The cut pipeline's placement table, keyed by write mode (derived once
#: from the ``forked``/``speculative`` flags). Every mode runs the same
#: stages; forked (CRUM) and speculative (PhoenixOS) cuts only move them
#: off the application's critical path, onto the window of the writer
#: that commits the image. A cut whose quiesce is in the background never
#: stops the application: it pays ``spec_cut_ns`` plus a per-handle
#: version snapshot instead, and nothing drains the device.
PLACEMENT: dict[str, dict[str, str]] = {
    mode: dict(zip(STAGES, row))
    for mode, row in {
        "inline": (APP, APP, APP, APP, APP),
        "forked": (APP, APP, APP, APP, BACKGROUND),
        "speculative": (BACKGROUND, SKIP, BACKGROUND, BACKGROUND, BACKGROUND),
    }.items()
}


@dataclass
class Cut:
    """One checkpoint in progress: charges each stage where
    :data:`PLACEMENT` puts it for the cut's write mode. Plugins reach it
    as ``image.cut`` while their precheckpoint hook runs."""

    mode: str
    process: SimProcess
    #: cost placed on the background timeline so far, ns
    background_ns: int = 0

    def placed(self, stage: str) -> str:
        """Where ``stage`` runs in this cut (APP / BACKGROUND / SKIP)."""
        return PLACEMENT[self.mode][stage]

    def charge(self, stage: str, ns: int) -> None:
        """Put ``ns`` of ``stage``'s cost on the app clock or the
        background timeline."""
        if self.placed(stage) == APP:
            self.process.advance(ns)
        else:
            self.background_ns += ns


class DmtcpCheckpointer:
    """Checkpoints and restores one :class:`SimProcess`."""

    def __init__(
        self,
        process: SimProcess,
        plugins: list[DmtcpPlugin] | None = None,
        costs: HostCosts = DEFAULT_HOST_COSTS,
        fault_injector: "FaultInjector | None" = None,
    ) -> None:
        self.process = process
        self.plugins = list(plugins or [])
        self.costs = costs
        self.fault_injector = fault_injector
        #: repro.trace.Tracer receiving pipeline stage spans; None = untraced
        self.tracer = None
        #: repro.spec.HandleTable snapshotted by speculative cuts; None
        #: disables speculative=True (no versions to validate against)
        self.handle_table = None

    # -- checkpoint ------------------------------------------------------------

    def checkpoint(
        self,
        *,
        gzip: bool = False,
        incremental: bool = False,
        parent: CheckpointImage | None = None,
        forked: bool = False,
        speculative: bool = False,
        defer_commit: bool = False,
    ) -> CheckpointImage:
        """Take a checkpoint; advances the process clock by the cost.

        With ``incremental=True`` (requires a ``parent`` image) only the
        pages dirtied since the previous checkpoint are saved; restore
        walks the parent chain base-first. Plugins see ``image.incremental``
        and may delta-encode their blobs the same way (CRAC stages only
        dirtied GPU spans).

        Dirty tracking is cleared only when the image durably *commits*
        (:func:`repro.dmtcp.forked.commit`): a fault at any later stage —
        region-save, image-write, 2PC commit — leaves every dirty bit
        intact so the next incremental cut still captures them. With
        ``defer_commit=True`` the caller (a checkpoint store) owns the
        commit point; otherwise the image commits at the end of this call.

        ``forked=True`` and ``speculative=True`` pick a row of
        :data:`PLACEMENT`: the stages placed in the background run on
        the timeline of the :class:`~repro.dmtcp.forked.BackgroundWriter`
        attached as ``image.forked_writer``, and commit (with the
        ``image-write`` fault stage) moves to its ``finish()``. A
        speculative cut also requires a wired ``handle_table``: the
        writer validates the application's in-window mutations against
        the versions snapshotted at the cut.
        """
        if incremental and parent is None:
            raise ValueError("incremental checkpoint requires a parent image")
        if speculative and forked:
            raise ValueError(
                "speculative and forked checkpoints are exclusive modes"
            )
        proc = self.process
        mode = "speculative" if speculative else "forked" if forked else "inline"
        cut = Cut(mode, proc)
        t_start = proc.clock_ns
        versions = None
        if cut.placed("quiesce") == BACKGROUND:
            if self.handle_table is None:
                raise ValueError(
                    f"{mode} checkpoint requires a wired handle table"
                )
            # No stop-the-world: the app stalls only for the snapshot of
            # the handle-version table its writer validates against.
            proc.advance(
                self.costs.spec_cut_ns
                + len(self.handle_table) * self.costs.spec_handle_ns
            )
            versions = self.handle_table.cut()
        cut.charge("quiesce", self.costs.ckpt_quiesce_ns)
        if self.tracer is not None:
            self.tracer.ckpt_span(
                "quiesce" if cut.placed("quiesce") == APP else "spec-cut",
                t_start, proc.clock_ns,
            )

        image = CheckpointImage(
            pid=proc.pid,
            created_at_ns=proc.clock_ns,
            gzip=gzip,
            incremental=incremental,
            parent=parent if incremental else None,
            speculative=speculative,
            cut=cut,
        )
        if versions is not None:
            image.add_blob("crac/spec-versions", versions)
        for plugin in self.plugins:
            if self.fault_injector is not None:
                self.fault_injector.check("precheckpoint", plugin.name)
            plugin.on_precheckpoint(image)

        # Plugin veto ranges are not guaranteed page-aligned, but both
        # the dirty-page bookkeeping and restore's MAP_FIXED mmap work in
        # whole pages: expand every skip outward to page boundaries (skip
        # granularity is the page, like DMTCP's). Sorted once per cut,
        # so each region finds the skips that may touch it by bisect:
        # those that start before its end, from the first whose reach
        # (the furthest end so far) passes its start.
        skips: list[tuple[int, int]] = []
        for plugin in self.plugins:
            for s_start, s_size in plugin.skip_ranges():
                lo = s_start - (s_start % PAGE_SIZE)
                hi = s_start + s_size
                hi = (hi + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
                skips.append((lo, hi - lo))
        skips.sort()
        skip_starts = [s_start for s_start, _ in skips]
        reach = list(accumulate((lo + size for lo, size in skips), max))

        t_regions = proc.clock_ns
        for region in proc.vas.regions():
            if self.fault_injector is not None:
                self.fault_injector.check("region-save", region.tag)
            cut.charge("save-regions", self.costs.ckpt_region_ns)
            r_start, r_end = region.start, region.end
            parts = _subtract_ranges((r_start, r_end), skips[
                bisect_right(reach, r_start):bisect_left(skip_starts, r_end)
            ])
            if parts:  # a region the skips cover entirely copies no page
                snapshot = (
                    region.dirty_pages_snapshot()
                    if incremental
                    else region.pages_snapshot()
                )
                for (lo, hi), pages in zip(
                    parts, _split_pages(snapshot, r_start, parts)
                ):
                    image.add_region(
                        SavedRegion(
                            start=lo,
                            size=hi - lo,
                            perms=region.perms,
                            tag=region.tag,
                            pages=pages,
                            incremental=incremental,
                            fresh=incremental and region.fresh,
                        )
                    )
            image.record_region_capture(
                region, frozenset(region.dirty), region.write_seq
            )

        if self.tracer is not None:
            self.tracer.ckpt_span(
                "save-regions", t_regions, proc.clock_ns,
                regions=len(image.regions),
            )

        written = image.size_bytes
        write_ns = transfer_ns(written, self.costs.ckpt_write_bw)
        if gzip:
            write_ns += transfer_ns(written, self.costs.gzip_bw)
        t_write = proc.clock_ns
        if cut.placed("write") == APP:
            proc.advance(write_ns)
            if self.tracer is not None:
                self.tracer.ckpt_span(
                    "write", t_write, proc.clock_ns, bytes=written, gzip=gzip
                )
        else:
            # The app resumes now; everything placed in the background
            # runs on the writer's timeline, and the writer owns commit.
            from repro.spec import SpeculativeCheckpoint  # dmtcp ↔ spec cycle

            writers = {"forked": ForkedCheckpoint, "speculative": SpeculativeCheckpoint}
            image.forked_writer = writers[cut.mode](
                image=image,
                start_ns=t_write,
                end_ns=t_write + cut.background_ns + write_ns,
                costs=self.costs,
                fault_injector=self.fault_injector,
                handle_table=self.handle_table,
                tracer=self.tracer,
            )

        for plugin in self.plugins:
            plugin.on_resume(image)
        image.cut = None
        image.checkpoint_time_ns = proc.clock_ns - t_start
        if image.forked_writer is None and not defer_commit:
            commit(image, None, self.tracer, proc.clock_ns)
        return image

    # -- restore -----------------------------------------------------------------

    def restore_memory(self, image: CheckpointImage, target: SimProcess) -> int:
        """Map the image's regions into ``target`` at original addresses.

        One pass over the chain, base first: the newest link's regions
        are the layout (what was mapped, with which permissions, at the
        last cut), and every link's pages fill it by absolute page
        number, a later link overwriting an earlier one. A page outside
        the layout (its range was unmapped since) is dropped, and so is
        an older link's page inside a link's fresh region (its range was
        mapped again since, and reads as the new mapping's). The layout
        is then mapped in one pass, each region with its pages.

        Returns the virtual-time cost (the caller — CRAC's restart
        orchestrator — owns the clock of the restarted process): per
        region of every link, and per byte each link reads.
        """
        costs = self.costs
        cost = 0
        filled: dict[int, bytes] = {}
        for img in image.chain():
            cost += len(img.regions) * costs.ckpt_region_ns
            region_bytes = 0
            for saved in img.regions:
                pages = saved.pages
                if img.incremental:
                    region_bytes += sum(map(len, pages.values()))
                else:
                    region_bytes += saved.size
                first = saved.start // PAGE_SIZE
                if saved.fresh:
                    for number in range(first, first + saved.size // PAGE_SIZE):
                        filled.pop(number, None)
                if pages:
                    filled.update(zip(map(first.__add__, pages), pages.values()))
            size_bytes = region_bytes + img.blob_bytes
            cost += transfer_ns(size_bytes, costs.ckpt_read_bw)
            if img.gzip:
                cost += transfer_ns(size_bytes, costs.gzip_bw)

        numbers = sorted(filled)
        layout = []
        for saved in sorted(image.regions, key=_start_of):
            region = MemoryRegion(saved.start, saved.size, saved.perms, saved.tag)
            first = saved.start // PAGE_SIZE
            lo = bisect_left(numbers, first)
            hi = bisect_left(numbers, first + saved.size // PAGE_SIZE, lo)
            mine = numbers[lo:hi]
            region.load_pages(
                dict(zip(map(first.__rsub__, mine), map(filled.__getitem__, mine)))
            )
            layout.append(region)
        target.vas.map_regions(layout)
        return cost
