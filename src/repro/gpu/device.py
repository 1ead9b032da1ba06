"""The virtual-time GPU execution engine.

Models the three hardware resources whose contention shapes the paper's
stream experiments (Figure 4):

- **compute**: up to ``spec.max_concurrent_kernels`` kernels execute
  simultaneously (128 on the V100's compute capability 7.0 — the limit
  simpleStreams is configured up to in §4.4.2);
- **copy engines**: one H2D and one D2H DMA engine; copies on different
  streams serialize per engine but overlap with kernels, which is what
  makes the streamed simpleStreams version ≈n× cheaper on memcpy;
- **legacy default stream**: stream 0 synchronizes with all others.

All methods take and return virtual-time nanoseconds; the host's clock is
owned by :class:`repro.linux.process.SimProcess`, not by the device.

Runtime fault domain (PR 3): when a :class:`FaultInjector` is attached
(``fault_injector`` attribute), enqueue paths consult the runtime fault
stages. An ``ecc`` fault raises a fatal :class:`~repro.errors.CudaError`
*before* any scheduling state changes, so a retried enqueue is clean. A
``kernel-hang``/``copy-stall`` fault completes the enqueue but inflates
the op past the watchdog bound and poisons the stream (``stream.fault``)
— detection happens later, at the next synchronization, exactly like a
real driver watchdog. Every enqueue is also recorded into ``op_log`` (a
:class:`repro.core.replay_log.StreamOpLog`) so the fault domain's
stream-reset rung can re-issue the in-flight window.
"""

from __future__ import annotations

import heapq

from repro.errors import CudaError
from repro.gpu.streams import Event, Stream
from repro.gpu.timing import COPY_STALL_NS, KERNEL_HANG_NS, GpuSpec


class GpuDevice:
    """One simulated GPU."""

    def __init__(self, spec: GpuSpec) -> None:
        self.spec = spec
        self._streams: set[Stream] = set()
        #: end-times of kernels admitted to the compute resource
        self._running: list[float] = []
        self._copy_engine_ready = {"h2d": 0.0, "d2h": 0.0, "d2d": 0.0}
        #: completion time of the last default-stream operation
        self._default_barrier_ns = 0.0
        # -- accounting (read by the harness and the trace checks) --
        self.total_kernel_ns = 0.0
        self.total_kernels = 0
        self.copied_bytes = {"h2d": 0, "d2h": 0, "d2d": 0}
        #: repro.trace.Tracer receiving per-op spans; None = untraced
        self.tracer = None
        # -- runtime fault domain (module docstring) --
        #: FaultInjector consulted at enqueue time; None = no faults
        self.fault_injector = None
        #: StreamOpLog of in-flight ops for the stream-reset rung; None
        #: until the fault domain attaches one
        self.op_log = None
        #: count of injected ECC page errors (campaign accounting)
        self.ecc_errors = 0
        #: repro.spec.HandleTable whose stream/event versions advance on
        #: every mutating op — the speculative checkpoint's conflict
        #: source; None until a session wires one
        self.handle_table = None

    @staticmethod
    def _fatal(code_name: str, msg: str) -> CudaError:
        # Deferred import: repro.gpu must not pull in repro.cuda at
        # module load time (cuda/api.py imports this module).
        from repro.cuda.errors import CudaErrorCode

        return CudaError(
            f"{code_name}: {msg}", code=CudaErrorCode[code_name],
            severity="fatal",
        )

    # -- stream management ----------------------------------------------------

    def register_stream(self, stream: Stream) -> None:
        """Attach a stream to this device's timeline."""
        stream.ready_ns = max(stream.ready_ns, self._default_barrier_ns)
        self._streams.add(stream)

    def unregister_stream(self, stream: Stream) -> None:
        """Detach a (destroyed) stream from the timeline."""
        self._streams.discard(stream)

    # -- scheduling -------------------------------------------------------------

    def _start_time(self, stream: Stream, at_ns: float) -> float:
        """Earliest time an op on ``stream`` submitted at ``at_ns`` may start."""
        earliest = max(stream.ready_ns, at_ns)
        if stream.sid == 0:
            # Legacy default stream waits for everything in flight.
            for s in self._streams:
                earliest = max(earliest, s.ready_ns)
        earliest = max(earliest, self._default_barrier_ns)
        return earliest

    def _finish(self, stream: Stream, end_ns: float) -> None:
        stream.ready_ns = end_ns
        if stream.sid == 0:
            self._default_barrier_ns = end_ns

    def enqueue_kernel(
        self, stream: Stream, duration_ns: float, at_ns: float, label: str = "kernel"
    ) -> float:
        """Schedule a kernel; returns its completion time.

        Admission respects the concurrent-kernel limit: when the device is
        saturated the kernel waits for the earliest-finishing one.
        """
        intended_ns = duration_ns
        injector = self.fault_injector
        if injector is not None:
            # ECC fires before any scheduling state changes: a
            # post-restore re-issue of this launch starts from a clean
            # timeline.
            if injector.trip("ecc", label) is not None:
                self.ecc_errors += 1
                raise self._fatal(
                    "ECC_UNCORRECTABLE",
                    f"uncorrectable ECC page error during {label!r}",
                )
            if injector.trip("kernel-hang", label) is not None:
                duration_ns += KERNEL_HANG_NS
                stream.fault = "kernel-hang"
        earliest = self._start_time(stream, at_ns)
        start = self._admit_kernel(earliest)
        end = start + duration_ns
        heapq.heappush(self._running, end)
        self._finish(stream, end)
        stream.kernel_count += 1
        self.total_kernel_ns += duration_ns
        self.total_kernels += 1
        if self.handle_table is not None:
            self.handle_table.bump("stream", stream.sid)
        if self.op_log is not None:
            # Log the *intended* duration: the stream-reset rung replays
            # the op as it should have run, not the hung version.
            self.op_log.record(
                stream.sid, "kernel", label, intended_ns
            )
        if self.tracer is not None:
            self.tracer.on_device_op("kernel", label, stream.sid, start, end)
        return end

    def _admit_kernel(self, earliest: float) -> float:
        heap = self._running
        while heap and heap[0] <= earliest:
            heapq.heappop(heap)
        if len(heap) >= self.spec.max_concurrent_kernels:
            # Wait for a slot: the earliest-finishing running kernel.
            slot_free = heapq.heappop(heap)
            earliest = max(earliest, slot_free)
            while heap and heap[0] <= earliest:
                heapq.heappop(heap)
        return earliest

    def enqueue_copy(
        self, stream: Stream, nbytes: int, kind: str, at_ns: float
    ) -> float:
        """Schedule a DMA copy; returns its completion time."""
        if kind not in self._copy_engine_ready:
            from repro.gpu.timing import _program_error

            raise _program_error(
                "INVALID_VALUE", f"unknown copy kind {kind!r}"
            )
        stall = (
            self.fault_injector is not None
            and self.fault_injector.trip("copy-stall", f"memcpy-{kind}")
            is not None
        )
        earliest = max(
            self._start_time(stream, at_ns), self._copy_engine_ready[kind]
        )
        end = earliest + self.spec.copy_cost_ns(nbytes, kind)
        if stall:
            # The engine wedges mid-transfer: it (and the stream) stay
            # busy past the watchdog bound until a stream reset clears it.
            end += COPY_STALL_NS
            stream.fault = "copy-stall"
        self._copy_engine_ready[kind] = end
        self._finish(stream, end)
        self.copied_bytes[kind] += nbytes
        if self.handle_table is not None:
            self.handle_table.bump("stream", stream.sid)
        if self.op_log is not None:
            self.op_log.record(
                stream.sid, "copy", f"memcpy-{kind}",
                self.spec.copy_cost_ns(nbytes, kind),
                copy_kind=kind, nbytes=nbytes,
            )
        if self.tracer is not None:
            self.tracer.on_device_op(
                "copy", f"memcpy-{kind}", stream.sid, earliest, end,
                engine=kind, nbytes=nbytes,
            )
        return end

    def requeue(self, stream: Stream, record) -> float:
        """Re-enqueue a logged op during stream-reset replay.

        Timing-only re-issue of a :class:`StreamOpRecord`: bypasses
        fault injection (replay must not re-fault) and op logging
        (replay must not observe itself). Content was already applied at
        the original enqueue, so only device occupancy is re-charged.
        """
        at_ns = stream.ready_ns
        if record.kind == "kernel":
            earliest = self._start_time(stream, at_ns)
            start = self._admit_kernel(earliest)
            end = start + record.duration_ns
            heapq.heappush(self._running, end)
            self._finish(stream, end)
            self.total_kernel_ns += record.duration_ns
            if self.tracer is not None:
                self.tracer.on_device_op(
                    "kernel", f"replay:{record.label}", stream.sid, start, end
                )
            return end
        engine = record.copy_kind or "d2d"
        earliest = max(
            self._start_time(stream, at_ns), self._copy_engine_ready[engine]
        )
        end = earliest + record.duration_ns
        self._copy_engine_ready[engine] = end
        self._finish(stream, end)
        if self.tracer is not None:
            self.tracer.on_device_op(
                "copy", f"replay:{record.label}", stream.sid, earliest, end,
                engine=engine,
            )
        return end

    # -- fault-domain resets ----------------------------------------------------

    def flagged_streams(self) -> list[Stream]:
        """Streams currently poisoned by a hang/stall fault."""
        return sorted(
            (s for s in self._streams if s.fault is not None),
            key=lambda s: s.sid,
        )

    def reset_stream(self, stream: Stream, now_ns: float) -> None:
        """Fault-domain stream reset: clear the poison and the backlog.

        The hung/stalled work is abandoned (its inflated completion time
        is discarded) and the stream becomes schedulable at ``now_ns``.
        The caller replays the abandoned window via ``requeue``.
        """
        stream.fault = None
        stream.ready_ns = now_ns
        if stream.sid == 0:
            self._default_barrier_ns = now_ns
        if self.tracer is not None:
            # Abandoned work never completed: the tracer clamps the
            # in-flight span and drops queued-but-unstarted ones.
            self.tracer.clamp_stream(stream.sid, now_ns)

    def rebaseline_stream(self, stream: Stream, now_ns: float) -> None:
        """Restart/migration rebaseline of an adopted stream handle.

        An application-held handle crossing a restore carries the *dead*
        process's timeline state: a poison flag from a fault that hit
        after the checkpoint cut, or a ``ready_ns`` inflated by a hung
        kernel. The checkpoint drained every stream before capture, so
        none of that state describes restored work — drop the poison and
        clamp the baseline down to the restored clock (``adopt`` paths
        only ever raise it), or the first post-restore sync trips the
        watchdog on a fault that no longer exists.
        """
        stream.fault = None
        if stream.ready_ns > now_ns:
            stream.ready_ns = now_ns

    def reset_copy_engines(self, now_ns: float) -> None:
        """Clamp wedged copy engines back to ``now_ns``."""
        for kind, ready in self._copy_engine_ready.items():
            if ready > now_ns:
                self._copy_engine_ready[kind] = now_ns

    # -- synchronization ------------------------------------------------------------

    def stream_ready(self, stream: Stream) -> float:
        """Time at which all work enqueued so far on ``stream`` completes."""
        return stream.ready_ns

    def synchronize_all(self) -> float:
        """cudaDeviceSynchronize: completion time of all enqueued work."""
        t = self._default_barrier_ns
        for s in self._streams:
            t = max(t, s.ready_ns)
        return t

    def record_event(self, event: Event, stream: Stream, at_ns: float) -> None:
        """cudaEventRecord: event completes when prior stream work does."""
        event.timestamp_ns = max(stream.ready_ns, at_ns)
        event.recorded = True
        if self.handle_table is not None:
            self.handle_table.bump("event", event.eid)

    def stream_wait_event(self, stream: Stream, event: Event) -> None:
        """cudaStreamWaitEvent: future stream work waits for the event."""
        if event.recorded:
            stream.ready_ns = max(stream.ready_ns, event.timestamp_ns)
