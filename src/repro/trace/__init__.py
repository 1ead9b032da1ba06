"""Unified tracing/metrics layer for the virtual-time stack.

Attach a :class:`Tracer` to any dispatch backend (or let
``CracSession.enable_trace`` do it) and every layer — API dispatch,
device streams, UVM, the checkpoint pipeline, the fault-domain recovery
ladder — reports structured spans and counters into it.
:meth:`Tracer.timeline` is the GPU timeline over those spans. Export with
:func:`to_chrome_trace` / :func:`write_chrome_trace` for Perfetto.
"""

from repro.trace.core import (
    DEVICE_CATS,
    Instant,
    KernelStats,
    Span,
    TimelineReport,
    Tracer,
)
from repro.trace.export import assign_tracks, to_chrome_trace, write_chrome_trace
from repro.trace.metrics import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
)

__all__ = [
    "DEVICE_CATS",
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "Instant",
    "KernelStats",
    "MetricsRegistry",
    "Span",
    "TimelineReport",
    "Tracer",
    "assign_tracks",
    "to_chrome_trace",
    "write_chrome_trace",
]
