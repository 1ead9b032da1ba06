"""Per-layer attribution in both clocks for a traced round.

Host clock: :class:`HostSpans` wraps the entry points listed in
:data:`bench.sut.LAYERS` from outside the program and records nested
spans. A layer's self time is the duration of its spans minus the time
covered by nested wrapped calls, so the self times of all layers plus the
benchmark's own (the root span) add up to the round's wall time. ``calls``
counts entries into a layer from a different layer; a layer calling
itself is not a new entry.

Virtual clock: :func:`virtual_sums` folds the spans one
:class:`repro.trace.Tracer` recorded for a session into per-category
totals. API, kernel and copy spans exclude the tracer's own hook charge
by construction; the total it charged is reported separately as
``virt.trace_overhead_ms``.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from contextlib import contextmanager

#: the layer name of time no wrapped entry point accounts for
ROOT_LAYER = "bench"
#: checkpoint-pipeline stage spans the program records (``virt.ckpt.*``)
CKPT_STAGES = (
    "quiesce", "spec-cut", "drain", "stage", "save-regions", "write", "cow",
    "forked-write", "spec-validate", "spec-write",
)
#: every key :func:`virtual_sums` reports, present even when zero
VIRTUAL_KEYS = (
    "virt.api_ms", "virt.trampoline_ms", "virt.kernel_ms", "virt.copy_ms",
    "virt.uvm_events", "virt.ckpt.commits", "virt.restart_ms",
    "virt.recovery_ms", "virt.trace_overhead_ms",
) + tuple(f"virt.ckpt.{stage}_ms" for stage in CKPT_STAGES)


class HostSpans:
    """Nested host-clock spans keyed by layer (module docstring)."""

    def __init__(self) -> None:
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        #: open spans: [layer, ns covered by nested spans]
        self._stack: list[list] = []

    def _wrap(self, layer: str, fn):
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or stack[-1][0] != layer:
                calls[layer] += 1
            frame = [layer, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self_ns[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def root(self, fn, *args, **kwargs):
        """Run ``fn`` as the benchmark's own span (one measured round)."""
        return self._wrap(ROOT_LAYER, fn)(*args, **kwargs)

    @contextmanager
    def installed(self, layers: dict[str, tuple[tuple[object, str], ...]]):
        """Wrap every entry point of ``layers`` for the enclosed block,
        then restore each attribute exactly as it was."""
        saved: list[tuple[object, str, object, bool]] = []
        try:
            for layer, entries in layers.items():
                for owner, name in entries:
                    own = name in vars(owner)
                    original = inspect.getattr_static(owner, name)
                    saved.append((owner, name, original, own))
                    setattr(owner, name, self._wrap(layer, getattr(owner, name)))
            yield self
        finally:
            for owner, name, original, own in reversed(saved):
                if own:
                    setattr(owner, name, original)
                else:
                    delattr(owner, name)


def virtual_sums(tracer) -> Counter:
    """Per-category virtual-time totals (ns) and counts of one tracer."""
    out: Counter = Counter(dict.fromkeys(VIRTUAL_KEYS, 0))
    for span in tracer.spans:
        dur = span.end_ns - span.start_ns
        if span.cat == "api":
            out["virt.api_ms"] += dur
            out["virt.trampoline_ms"] += dict(span.args)["trampoline_ns"]
        elif span.cat in ("kernel", "copy"):
            out[f"virt.{span.cat}_ms"] += dur
        elif span.cat == "ckpt":
            out[f"virt.ckpt.{span.name}_ms"] += dur
        elif span.cat == "recovery":
            key = "virt.restart_ms" if span.name == "restart" else "virt.recovery_ms"
            out[key] += dur
    for inst in tracer.instants:
        if inst.track == "uvm":
            out["virt.uvm_events"] += 1
        elif inst.track == "ckpt" and inst.name == "commit":
            out["virt.ckpt.commits"] += 1
    out["virt.trace_overhead_ms"] += tracer.overhead_ns
    return out
