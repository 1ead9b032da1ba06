"""Tests for the virtual-time GPU engine: streams, concurrency, copies."""

import pytest

from repro.errors import CudaError
from repro.gpu import GPU_SPECS, Event, GpuDevice, Stream


@pytest.fixture
def dev():
    return GpuDevice(GPU_SPECS["V100"])


def make_streams(dev, n):
    streams = [Stream() for _ in range(n)]
    for s in streams:
        dev.register_stream(s)
    return streams


class TestStreamOrdering:
    def test_ops_on_one_stream_serialize(self, dev):
        (s,) = make_streams(dev, 1)
        e1 = dev.enqueue_kernel(s, 1000, at_ns=0)
        e2 = dev.enqueue_kernel(s, 1000, at_ns=0)
        assert e2 == e1 + 1000

    def test_ops_on_two_streams_overlap(self, dev):
        a, b = make_streams(dev, 2)
        ea = dev.enqueue_kernel(a, 1000, at_ns=0)
        eb = dev.enqueue_kernel(b, 1000, at_ns=0)
        assert ea == eb == 1000  # concurrent

    def test_submission_time_lower_bounds_start(self, dev):
        (s,) = make_streams(dev, 1)
        end = dev.enqueue_kernel(s, 1000, at_ns=5000)
        assert end == 6000

    def test_stream_ready_reflects_completion(self, dev):
        (s,) = make_streams(dev, 1)
        dev.enqueue_kernel(s, 777, at_ns=0)
        assert dev.stream_ready(s) == 777


class TestConcurrencyLimit:
    def test_concurrent_kernel_limit_enforced(self):
        spec = GPU_SPECS["V100"]
        dev = GpuDevice(spec)
        n = spec.max_concurrent_kernels
        streams = make_streams(dev, n + 1)
        ends = [dev.enqueue_kernel(s, 1000, at_ns=0) for s in streams]
        # First `n` run concurrently; the (n+1)-th waits for a slot.
        assert all(e == 1000 for e in ends[:n])
        assert ends[n] == 2000

    def test_slots_free_as_kernels_finish(self, dev):
        limit = dev.spec.max_concurrent_kernels
        streams = make_streams(dev, limit + 1)
        for s in streams[:limit]:
            dev.enqueue_kernel(s, 1000, at_ns=0)
        # Submitted after the others finished: no queueing.
        end = dev.enqueue_kernel(streams[limit], 500, at_ns=2000)
        assert end == 2500

    def test_128_concurrent_kernels_on_v100(self, dev):
        """The paper's max-stream experiment: 128 concurrent kernels."""
        streams = make_streams(dev, 128)
        ends = [dev.enqueue_kernel(s, 10_000, at_ns=0) for s in streams]
        assert all(e == 10_000 for e in ends)


class TestDefaultStream:
    def test_default_stream_waits_for_all(self, dev):
        default = Stream(sid=0)
        dev.register_stream(default)
        (other,) = make_streams(dev, 1)
        dev.enqueue_kernel(other, 5000, at_ns=0)
        end = dev.enqueue_kernel(default, 100, at_ns=0)
        assert end == 5100

    def test_other_streams_wait_for_default(self, dev):
        default = Stream(sid=0)
        dev.register_stream(default)
        dev.enqueue_kernel(default, 5000, at_ns=0)
        (other,) = make_streams(dev, 1)
        end = dev.enqueue_kernel(other, 100, at_ns=0)
        assert end == 5100


class TestCopyEngines:
    def test_copies_on_same_engine_serialize_across_streams(self, dev):
        a, b = make_streams(dev, 2)
        e1 = dev.enqueue_copy(a, 12_000_000, "h2d", at_ns=0)  # ~1 ms
        e2 = dev.enqueue_copy(b, 12_000_000, "h2d", at_ns=0)
        assert e2 > e1
        assert e2 >= 2 * (e1 - 0) - 1  # back-to-back on one engine

    def test_h2d_and_d2h_engines_are_independent(self, dev):
        a, b = make_streams(dev, 2)
        e1 = dev.enqueue_copy(a, 12_000_000, "h2d", at_ns=0)
        e2 = dev.enqueue_copy(b, 12_000_000, "d2h", at_ns=0)
        assert abs(e1 - e2) < 1.0  # fully overlapped

    def test_copy_overlaps_kernel(self, dev):
        a, b = make_streams(dev, 2)
        ek = dev.enqueue_kernel(a, 1_000_000, at_ns=0)
        ec = dev.enqueue_copy(b, 12_000, "h2d", at_ns=0)
        assert ec < ek  # copy did not wait for the kernel

    def test_unknown_copy_kind_rejected(self, dev):
        (s,) = make_streams(dev, 1)
        with pytest.raises(CudaError):
            dev.enqueue_copy(s, 10, "x2y", at_ns=0)

    def test_copy_bytes_accounted(self, dev):
        (s,) = make_streams(dev, 1)
        dev.enqueue_copy(s, 1000, "h2d", at_ns=0)
        dev.enqueue_copy(s, 500, "d2h", at_ns=0)
        assert dev.copied_bytes["h2d"] == 1000
        assert dev.copied_bytes["d2h"] == 500


class TestEvents:
    def test_event_records_stream_completion_time(self, dev):
        (s,) = make_streams(dev, 1)
        dev.enqueue_kernel(s, 1234, at_ns=0)
        ev = Event()
        dev.record_event(ev, s, at_ns=0)
        assert ev.recorded
        assert ev.timestamp_ns == 1234

    def test_stream_wait_event_orders_across_streams(self, dev):
        a, b = make_streams(dev, 2)
        dev.enqueue_kernel(a, 9000, at_ns=0)
        ev = Event()
        dev.record_event(ev, a, at_ns=0)
        dev.stream_wait_event(b, ev)
        end = dev.enqueue_kernel(b, 100, at_ns=0)
        assert end == 9100

    def test_elapsed_ms(self, dev):
        (s,) = make_streams(dev, 1)
        e1, e2 = Event(), Event()
        dev.record_event(e1, s, at_ns=0)
        dev.enqueue_kernel(s, 5_000_000, at_ns=0)
        dev.record_event(e2, s, at_ns=0)
        assert e2.elapsed_ms_since(e1) == 5.0

    def test_elapsed_on_unrecorded_event_raises(self):
        e1, e2 = Event(), Event()
        with pytest.raises(CudaError):
            e2.elapsed_ms_since(e1)


class TestSynchronize:
    def test_synchronize_all_covers_every_stream(self, dev):
        a, b = make_streams(dev, 2)
        dev.enqueue_kernel(a, 100, at_ns=0)
        dev.enqueue_kernel(b, 999, at_ns=0)
        assert dev.synchronize_all() == 999

    def test_kernel_accounting(self, dev):
        (s,) = make_streams(dev, 1)
        dev.enqueue_kernel(s, 100, at_ns=0)
        dev.enqueue_kernel(s, 200, at_ns=0)
        assert dev.total_kernels == 2
        assert dev.total_kernel_ns == 300
