"""Tests for the DMTCP substrate: images, plugins, save/restore."""

import pytest

from repro.dmtcp import (
    CheckpointImage,
    DmtcpCheckpointer,
    DmtcpCoordinator,
    DmtcpPlugin,
)
from repro.dmtcp.checkpointer import _subtract_ranges
from repro.linux import PAGE_SIZE, SimProcess


@pytest.fixture
def proc():
    p = SimProcess(aslr=False, seed=5)
    return p


class TestSubtractRanges:
    def test_no_skips(self):
        assert _subtract_ranges((0, 100), []) == [(0, 100)]

    def test_full_cover(self):
        assert _subtract_ranges((10, 20), [(0, 100)]) == []

    def test_middle_hole(self):
        assert _subtract_ranges((0, 100), [(40, 20)]) == [(0, 40), (60, 100)]

    def test_multiple_skips(self):
        out = _subtract_ranges((0, 100), [(10, 10), (50, 10)])
        assert out == [(0, 10), (20, 50), (60, 100)]

    def test_skip_outside_span(self):
        assert _subtract_ranges((0, 100), [(200, 50)]) == [(0, 100)]


class TestCheckpoint:
    def test_saves_all_regions_without_plugins(self, proc):
        a = proc.vas.mmap(2 * PAGE_SIZE, tag="upper:data")
        proc.vas.write(a, b"hello")
        image = DmtcpCheckpointer(proc).checkpoint()
        assert image.region_bytes == 2 * PAGE_SIZE
        assert image.regions[0].pages[0][:5] == b"hello"

    def test_skip_ranges_exclude_memory(self, proc):
        keep = proc.vas.mmap(PAGE_SIZE, tag="upper:keep")
        skip = proc.vas.mmap(PAGE_SIZE, tag="lower:skip")

        class Veto(DmtcpPlugin):
            def skip_ranges(self):
                return [(skip, PAGE_SIZE)]

        image = DmtcpCheckpointer(proc, [Veto()]).checkpoint()
        starts = [r.start for r in image.regions]
        assert keep in starts
        assert skip not in starts

    def test_partial_skip_splits_region(self, proc):
        base = proc.vas.mmap(4 * PAGE_SIZE, tag="upper:mixed")
        proc.vas.write(base + 3 * PAGE_SIZE, b"tail")

        class Veto(DmtcpPlugin):
            def skip_ranges(self):
                return [(base + PAGE_SIZE, PAGE_SIZE)]

        image = DmtcpCheckpointer(proc, [Veto()]).checkpoint()
        sizes = sorted(r.size for r in image.regions)
        assert sizes == [PAGE_SIZE, 2 * PAGE_SIZE]
        # The page content shifted to keys relative to the new start.
        tail_region = next(r for r in image.regions if r.size == 2 * PAGE_SIZE)
        assert tail_region.pages[1][:4] == b"tail"

    def test_checkpoint_advances_clock_proportional_to_size(self, proc):
        proc.vas.mmap(PAGE_SIZE, tag="small")
        t0 = proc.clock_ns
        DmtcpCheckpointer(proc).checkpoint()
        t_small = proc.clock_ns - t0
        proc.vas.mmap(1 << 30, tag="big")  # 1 GB virtual
        t0 = proc.clock_ns
        DmtcpCheckpointer(proc).checkpoint()
        t_big = proc.clock_ns - t0
        assert t_big > t_small + 0.3e9  # ≥ 1GB / 2.6GB/s ≈ 0.38 s extra

    def test_gzip_costs_more_time(self, proc):
        proc.vas.mmap(256 << 20, tag="data")
        c = DmtcpCheckpointer(proc)
        t0 = proc.clock_ns
        c.checkpoint(gzip=False)
        plain = proc.clock_ns - t0
        t0 = proc.clock_ns
        c.checkpoint(gzip=True)
        zipped = proc.clock_ns - t0
        assert zipped > plain * 2

    def test_plugin_hooks_fire_in_order(self, proc):
        events = []

        class P(DmtcpPlugin):
            def on_precheckpoint(self, image):
                events.append("pre")

            def on_resume(self, image):
                events.append("resume")

        DmtcpCheckpointer(proc, [P()]).checkpoint()
        assert events == ["pre", "resume"]

    def test_blobs_count_toward_image_size(self, proc):
        class P(DmtcpPlugin):
            def on_precheckpoint(self, image):
                image.add_blob("gpu-buffers", {"x": 1}, accounted_bytes=1 << 20)

        image = DmtcpCheckpointer(proc, [P()]).checkpoint()
        assert image.blob_bytes == 1 << 20
        assert image.size_bytes >= 1 << 20

    def test_duplicate_blob_rejected(self):
        image = CheckpointImage(pid=1, created_at_ns=0)
        image.add_blob("a", 1)
        with pytest.raises(ValueError):
            image.add_blob("a", 2)


class TestRestore:
    def test_restore_recreates_regions_and_content(self, proc):
        a = proc.vas.mmap(2 * PAGE_SIZE, tag="upper:data", perms="rw-")
        proc.vas.write(a + 100, b"persisted")
        image = DmtcpCheckpointer(proc).checkpoint()

        fresh = SimProcess(aslr=False, seed=99)
        DmtcpCheckpointer(proc).restore_memory(image, fresh)
        assert fresh.vas.read(a + 100, 9) == b"persisted"
        assert fresh.vas.find(a).perms == "rw-"

    def test_restore_cost_scales_with_size(self, proc):
        proc.vas.mmap(1 << 30, tag="big")
        image = DmtcpCheckpointer(proc).checkpoint()
        fresh = SimProcess(aslr=False)
        cost = DmtcpCheckpointer(proc).restore_memory(image, fresh)
        assert cost > 0.3e9  # ≥ 1GB / 2.9GB/s


class TestCoordinator:
    def test_notify_call_triggers_at_scheduled_index(self, proc):
        proc.vas.mmap(PAGE_SIZE, tag="d")
        coord = DmtcpCoordinator(DmtcpCheckpointer(proc))
        coord.schedule_checkpoint_at_call(3)
        assert coord.notify_call() is None
        assert coord.notify_call() is None
        image = coord.notify_call()
        assert image is not None
        assert coord.notify_call() is None  # disarmed

    def test_images_recorded(self, proc):
        coord = DmtcpCoordinator(DmtcpCheckpointer(proc))
        coord.checkpoint()
        coord.checkpoint()
        assert len(coord.images) == 2
