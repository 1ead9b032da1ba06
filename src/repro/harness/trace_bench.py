"""The checks behind ``repro trace APP``: overhead, digest, cross-checks.

Runs one workload twice — untraced baseline, then with a
:class:`repro.trace.Tracer` attached — and checks:

- **digest equality**: instrumentation must not perturb results;
- **overhead bound**: traced virtual runtime ≤ ``MAX_OVERHEAD_RATIO`` ×
  untraced (the tracer charges ``TRACE_HOOK_NS`` per API call, so its
  cost is a *measured* quantity, and this bounds it);
- **device-accounting cross-check**: the tracer's kernel/copy spans in
  the current splice segment must match the live devices' own counters
  (kernel count, kernel ns, copied bytes per engine) — a device op that
  escapes the tracer shows up as a mismatch. The run is fault-free, so
  no span is clamped (``aborted:``) or re-issued (``replay:``);
- **eq. 2 cross-check**: the paper's Total-CUDA-calls formula (§4.3),
  recomputed over the traced API call spans, must equal the span count
  exactly (every traced launch comes with its push/pop pair).
"""

from __future__ import annotations

from repro.harness.metrics import total_calls_formula
from repro.harness.runner import Machine, run_app
from repro.harness.suites import check
from repro.trace import Tracer

#: Traced runtime must stay within this factor of untraced.
MAX_OVERHEAD_RATIO = 1.25

#: relative tolerance of the kernel-ns cross-check (pure float sums
#: over the same events in a different order)
_REL_TOL = 1e-6


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(abs(a), abs(b), 1.0)


def device_accounting_check(tracer: Tracer, devices) -> dict:
    """The tracer's current-segment device spans against the counters
    ``devices`` (the live generation) keep for themselves."""
    kernels = 0
    kernel_ns = 0.0
    copied = dict.fromkeys(devices[0].copied_bytes, 0)
    for s in tracer.spans:
        if s.segment != tracer.segment:
            continue
        if s.cat == "kernel":
            kernels += 1
            kernel_ns += s.duration_ns
        elif s.cat == "copy":
            copied[s.track.removeprefix("copy-")] += dict(s.args).get("nbytes", 0)
    dev_kernels = sum(d.total_kernels for d in devices)
    dev_kernel_ns = sum(d.total_kernel_ns for d in devices)
    dev_copied = {k: sum(d.copied_bytes[k] for d in devices) for k in copied}
    return check(
        "span totals equal the devices' own counters",
        kernels == dev_kernels
        and _close(kernel_ns, dev_kernel_ns)
        and copied == dev_copied,
        f"kernels {kernels} vs {dev_kernels}, kernel {kernel_ns:.0f} vs "
        f"{dev_kernel_ns:.0f} ns, bytes "
        + ", ".join(f"{k} {copied[k]} vs {dev_copied[k]}" for k in copied),
    )


def run_trace_bench(
    app_cls,
    *,
    scale: float = 0.05,
    gpu: str = "V100",
    seed: int = 0,
    mode: str = "crac",
    checkpoint_at: float | None = None,
) -> tuple[dict, Tracer]:
    """Trace one app and check it; returns (result, tracer) so the
    caller can export the trace."""
    machine = Machine(gpu=gpu, seed=seed)
    kwargs = dict(
        mode=mode, checkpoint_at=checkpoint_at, noise=False,
    )
    base = run_app(app_cls(scale=scale, seed=seed), machine, **kwargs)
    tracer = Tracer()
    traced = run_app(
        app_cls(scale=scale, seed=seed), machine, tracer=tracer, **kwargs,
    )

    overhead_ratio = (
        traced.runtime_exact_s / base.runtime_exact_s
        if base.runtime_exact_s > 0
        else 1.0
    )
    timeline = tracer.timeline()

    # eq. 2 over the traced call spans: fast-forwarded iterations add to
    # the backend's counter without dispatching, so only the span-derived
    # counter satisfies the formula exactly.
    span_calls = tracer.api_call_counter()
    eq2_total = total_calls_formula(span_calls)
    eq2_spans = int(sum(span_calls.values()))
    result = {
        "metrics": {
            "untraced_s": base.runtime_exact_s,
            "traced_s": traced.runtime_exact_s,
            "overhead_ratio": overhead_ratio,
            "trace_overhead_ns": tracer.overhead_ns,
            "spans": len(tracer.spans),
            "instants": len(tracer.instants),
            "segments": tracer.segment + 1,
            "kernel_busy_ns": timeline.kernel_busy_ns,
            "copy_busy_ns": timeline.copy_busy_ns,
            "eq2_total": eq2_total,
            "total_calls": traced.cuda_calls,
            "cps": traced.cps,
        },
        "checks": [
            check(f"overhead ≤{MAX_OVERHEAD_RATIO}×",
                  overhead_ratio <= MAX_OVERHEAD_RATIO,
                  f"{overhead_ratio:.4f}× ({tracer.overhead_ns / 1e6:.3f} ms "
                  f"charged over {len(tracer.spans)} spans)"),
            check("traced digest equals untraced",
                  traced.digest == base.digest,
                  f"{traced.digest:#010x} vs {base.digest:#010x}"),
            device_accounting_check(tracer, tracer.backend.runtime.devices),
            check("eq. 2 equals the traced call spans",
                  eq2_total == eq2_spans,
                  f"{eq2_total:,} formula vs {eq2_spans:,} spans"),
        ],
    }
    return result, tracer
