"""Structured span/counter tracing over the whole virtual-time stack.

The tracer is the observability counterpart of the sanitizer: opt-in
(``attach``/``detach`` — a ``None`` tracer attribute costs nothing),
restart-surviving (the session re-attaches it to the fresh runtime and
opens a new *splice segment*, so the logical timeline stays monotone
across a checkpoint-restart cut), and self-accounting (every API-level
hook charges the calibrated ``TRACE_HOOK_NS``, so the tracer's own
overhead is a measured quantity instead of an invisible perturbation).

Span taxonomy (``cat`` / track):

- ``api``      / ``api``           — upper→lower CUDA call spans, with
  trampoline-overhead attribution in ``args`` (``trampoline_ns`` = the
  dispatch cost beyond a bare library call: fs switches, entry-table
  indirection, coordinator notify);
- ``kernel``   / ``stream-<sid>``  — device kernel execution spans, one
  track per stream;
- ``copy``     / ``copy-<engine>`` — DMA spans, one track per engine
  (h2d / d2h / d2d);
- ``uvm``      / ``uvm``           — page fault/migration instants;
- ``ckpt``     / ``ckpt``          — checkpoint-pipeline stage spans
  (quiesce → drain → stage → save-regions → write → commit, including
  forked COW windows on the background timeline);
- ``recovery`` / ``recovery``      — fault-domain ladder rungs
  (retry / stream-reset / restore) and restart spans.

A kernel launch opens a flow id pairing the ``cudaLaunchKernel`` API
span (phase ``"s"``) with the device execution span it produced (phase
``"f"``) — Perfetto draws the launch→execution arrow from the pair.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.gpu.timing import TRACE_HOOK_NS
from repro.trace.metrics import MetricsRegistry

#: categories of device-side spans (the GPU timeline; clamped on
#: stream reset)
DEVICE_CATS = ("kernel", "copy")


@dataclass(frozen=True)
class Span:
    """One completed interval on a named track."""

    name: str
    cat: str  # "api" | "kernel" | "copy" | "ckpt" | "recovery"
    track: str
    start_ns: float
    end_ns: float
    #: splice segment (0 = before the first restart cut)
    segment: int = 0
    stream_sid: int | None = None
    flow_id: int | None = None
    flow_phase: str | None = None  # "s" (launch) | "f" (execution)
    args: tuple[tuple[str, object], ...] = ()

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class Instant:
    """One point event on a named track."""

    name: str
    track: str
    ts_ns: float
    segment: int = 0
    args: tuple[tuple[str, object], ...] = ()


@dataclass
class KernelStats:
    """Aggregate statistics of one kernel across a trace window."""

    name: str
    count: int
    total_ns: float

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0


@dataclass
class TimelineReport:
    """GPU-timeline summary (``nvprof --print-gpu-trace`` aggregate).

    ``span_ns`` is *splice-aware*: each non-empty splice segment
    (restarts start new segments) contributes ``max(end) - min(start)``
    of its device spans and the segments are summed, so restart downtime
    between segments never inflates the span and an empty or
    single-event segment stays well-defined.
    """

    span_ns: float
    kernel_busy_ns: float
    copy_busy_ns: float
    kernels: dict[str, KernelStats] = field(default_factory=dict)
    events: int = 0
    #: non-empty trace segments aggregated (0 = nothing recorded)
    segments: int = 0

    @property
    def kernel_utilization(self) -> float:
        """Fraction of the span with at least this much kernel time
        (total kernel-ns over span; >1 with concurrent kernels)."""
        return self.kernel_busy_ns / self.span_ns if self.span_ns else 0.0


class Tracer:
    """Collects spans/instants/metrics from every instrumented layer.

    The tracer is the only recorder of device work, and it owns its
    event storage — device resets and restarts replace the runtime
    objects underneath it, but never lose recorded events;
    :meth:`timeline` is the GPU timeline over them.
    """

    def __init__(self, *, hook_ns: float = TRACE_HOOK_NS) -> None:
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.metrics = MetricsRegistry()
        #: current splice segment; bumped by :meth:`begin_segment`
        self.segment = 0
        #: total virtual time this tracer charged for its own hooks
        self.overhead_ns = 0.0
        self.hook_ns = hook_ns
        self._next_flow = 1
        self._pending_flow: int | None = None
        self._process = None
        #: the dispatch backend attached last, or None
        self.backend = None

    # -- attachment (sanitizer-style: idempotent, restart-safe) ---------------

    def attach(self, backend) -> None:
        """(Re-)wire the tracer into a dispatch backend and its devices.

        Idempotent: re-attaching after a restart keeps every recorded
        span and just swaps the event sources underneath.
        """
        backend.tracer = self
        self.backend = backend
        self._process = backend.process
        for dev in backend.runtime.devices:
            dev.tracer = self

    def detach(self, backend) -> None:
        """Unhook from ``backend``; recorded events are kept."""
        if getattr(backend, "tracer", None) is self:
            backend.tracer = None
        for dev in backend.runtime.devices:
            if getattr(dev, "tracer", None) is self:
                dev.tracer = None
        self.backend = None
        self._process = None

    def begin_segment(self, reason: str, at_ns: float) -> int:
        """Open a new splice segment (restart cut / device reset)."""
        self.segment += 1
        # A launch flow never crosses the cut: its device half is gone.
        self._pending_flow = None
        self.instants.append(
            Instant(f"segment:{reason}", "recovery", at_ns, self.segment)
        )
        self.metrics.counter("trace.segments").inc()
        return self.segment

    def _charge(self) -> None:
        self.overhead_ns += self.hook_ns
        proc = self._process
        if proc is not None and proc.alive:
            proc.advance(self.hook_ns)

    # -- hooks: API layer ------------------------------------------------------

    def on_api_call(
        self,
        name: str,
        start_ns: float,
        end_ns: float,
        *,
        trampoline_ns: float = 0.0,
        mode: str = "native",
    ) -> None:
        """One upper→lower dispatch completed (called by the backend)."""
        # Any armed-but-unconsumed flow is stale (its launch errored
        # before reaching the device); drop it so ids stay paired.
        self._pending_flow = None
        flow_id = phase = None
        if name == "cudaLaunchKernel":
            flow_id = self._next_flow
            self._next_flow += 1
            self._pending_flow = flow_id
            phase = "s"
        self.spans.append(Span(
            name, "api", "api", start_ns, end_ns, self.segment,
            flow_id=flow_id, flow_phase=phase,
            args=(("mode", mode), ("trampoline_ns", trampoline_ns)),
        ))
        m = self.metrics
        m.counter("api.calls").inc()
        m.counter(f"api.{name}").inc()
        if trampoline_ns:
            m.counter("api.trampoline_ns").inc(trampoline_ns)
        m.histogram("api.dispatch_ns").record(end_ns - start_ns)
        self._charge()

    # -- hooks: device layer ---------------------------------------------------

    def on_device_op(
        self,
        kind: str,
        label: str,
        stream_sid: int,
        start_ns: float,
        end_ns: float,
        *,
        engine: str | None = None,
        nbytes: int | None = None,
    ) -> None:
        """One device op was scheduled (called by :class:`GpuDevice`)."""
        flow_id = phase = None
        if kind == "kernel" and self._pending_flow is not None:
            flow_id = self._pending_flow
            phase = "f"
            self._pending_flow = None
        track = f"copy-{engine}" if kind == "copy" else f"stream-{stream_sid}"
        args = (("nbytes", nbytes),) if nbytes is not None else ()
        self.spans.append(Span(
            label, kind, track, start_ns, end_ns, self.segment,
            stream_sid=stream_sid, flow_id=flow_id, flow_phase=phase,
            args=args,
        ))
        m = self.metrics
        if kind == "kernel":
            m.counter("device.kernels").inc()
            m.histogram("device.kernel_ns").record(end_ns - start_ns)
        else:
            m.counter("device.copies").inc()
            if nbytes:
                m.counter(f"device.copied_bytes.{engine}").inc(nbytes)

    def clamp_stream(self, stream_sid: int, now_ns: float) -> None:
        """Rung-2 stream reset: the hung in-flight op is abandoned.

        Spans on the reset stream that had not finished by ``now_ns``
        are clamped to the reset instant and relabelled ``aborted:``;
        spans that had not even *started* (queued behind the fault) are
        dropped — the fault domain replays them, producing fresh
        ``replay:`` spans.
        """
        out: list[Span] = []
        for s in self.spans:
            if (
                s.cat not in DEVICE_CATS
                or s.stream_sid != stream_sid
                or s.segment != self.segment
                or s.end_ns <= now_ns
            ):
                out.append(s)
            elif s.start_ns < now_ns:
                out.append(Span(
                    f"aborted:{s.name}", s.cat, s.track, s.start_ns, now_ns,
                    s.segment, stream_sid=s.stream_sid, flow_id=s.flow_id,
                    flow_phase=s.flow_phase, args=s.args,
                ))
        self.spans = out
        self.metrics.counter("recovery.clamped_streams").inc()

    # -- hooks: UVM ------------------------------------------------------------

    def on_uvm_migration(
        self, addr: int, *, pages: int, nbytes: int, cost_ns: float, to: str
    ) -> None:
        """A page migration was serviced (called by the UVM manager)."""
        ts = self._process.clock_ns if self._process is not None else 0.0
        self.instants.append(Instant(
            f"uvm-migrate:{to}", "uvm", ts, self.segment,
            args=(
                ("addr", addr), ("pages", pages), ("nbytes", nbytes),
                ("cost_ns", cost_ns),
            ),
        ))
        self.metrics.counter("uvm.faults").inc(pages)
        self.metrics.counter("uvm.migrated_bytes").inc(nbytes)

    # -- hooks: checkpoint pipeline / recovery ladder --------------------------

    def ckpt_span(self, name: str, start_ns: float, end_ns: float, **args) -> None:
        """One checkpoint-pipeline stage (drain/stage/write/commit/...)."""
        self.spans.append(Span(
            name, "ckpt", "ckpt", start_ns, end_ns, self.segment,
            args=tuple(sorted(args.items())),
        ))
        self.metrics.counter(f"ckpt.{name}").inc()
        self.metrics.counter(f"ckpt.{name}_ns").inc(end_ns - start_ns)

    def recovery_span(self, rung: str, start_ns: float, end_ns: float, **args) -> None:
        """One recovery-ladder rung (retry/stream-reset/restore/restart)."""
        self.spans.append(Span(
            rung, "recovery", "recovery", start_ns, end_ns, self.segment,
            args=tuple(sorted(args.items())),
        ))
        self.metrics.counter(f"recovery.{rung}").inc()

    def instant(self, track: str, name: str, ts_ns: float, **args) -> None:
        """Record a point event on an arbitrary track."""
        self.instants.append(Instant(
            name, track, ts_ns, self.segment, args=tuple(sorted(args.items())),
        ))

    # -- aggregation -----------------------------------------------------------

    def timeline(self) -> TimelineReport:
        """The GPU timeline: kernel/copy spans of every device, each
        splice segment contributing its own span (:class:`TimelineReport`)."""
        segments: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.cat in DEVICE_CATS:
                segments.setdefault(s.segment, []).append(s)
        span = 0.0
        busy = dict.fromkeys(DEVICE_CATS, 0.0)
        kernels: dict[str, KernelStats] = {}
        for window in segments.values():
            span += max(s.end_ns for s in window) - min(
                s.start_ns for s in window
            )
            for s in window:
                busy[s.cat] += s.duration_ns
                if s.cat != "kernel":
                    continue
                ks = kernels.get(s.name)
                if ks is None:
                    kernels[s.name] = KernelStats(s.name, 1, s.duration_ns)
                else:
                    ks.count += 1
                    ks.total_ns += s.duration_ns
        return TimelineReport(
            span_ns=span,
            kernel_busy_ns=busy["kernel"],
            copy_busy_ns=busy["copy"],
            kernels=kernels,
            events=sum(len(w) for w in segments.values()),
            segments=len(segments),
        )

    def api_call_counter(self) -> Counter:
        """Per-name count of traced API call spans (eq. 2 cross-check)."""
        return Counter(s.name for s in self.spans if s.cat == "api")
