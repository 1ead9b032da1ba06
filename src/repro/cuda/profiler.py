"""nvprof stand-in: CUDA call counting and calls-per-second (CPS).

The paper (§4.3) counts only *upper→lower* calls — calls the application
makes into the CUDA runtime — because those are the calls a checkpointing
architecture adds overhead to. One kernel launch generates three such
calls (``cudaPushCallConfiguration``, ``cudaPopCallConfiguration``,
``cudaLaunchKernel``), so::

    Total CUDA calls = 3 × count(cudaLaunchKernel) + count(rest of API)   (eq. 2)

The dispatch backends count push/pop explicitly, so the paper's formula
reduces to summing the counter; :meth:`Nvprof.total_calls_formula`
recomputes it the paper's way as a cross-check.

Restart semantics: a profiling window can span a checkpoint-restart cut.
``CracSession.restart`` keeps the same dispatch backend, so its call
counter — and with it the window — runs on across the cut. A counter
that goes backwards is an error: ``report`` raises instead of silently
dropping the negative deltas. The GPU timeline is not recorded here; it
is :meth:`repro.trace.Tracer.timeline`, a view over the tracer's spans.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.cuda.errors import CudaErrorCode, cuda_check
from repro.cuda.interface import CudaDispatchBase
from repro.gpu.timing import NS_PER_S


@dataclass
class ProfileReport:
    """Summary of one profiled run."""

    calls: Counter
    total_calls: int
    exec_time_s: float
    cps: float
    kernel_launches: int


class Nvprof:
    """Observes a dispatch backend and reports call counts and CPS."""

    def __init__(self, backend: CudaDispatchBase | None = None) -> None:
        self.backend = backend
        self._start_calls: Counter = Counter()
        self._start_ns = 0.0

    def attach(self, backend: CudaDispatchBase) -> None:
        """(Re-)bind to a backend without opening a window."""
        self.backend = backend

    def start(self) -> None:
        """Begin a fresh profiling window."""
        self._start_calls = Counter(self.backend.call_counter)
        self._start_ns = self.backend.process.clock_ns

    def report(self) -> ProfileReport:
        """Summarize the window without closing it."""
        delta = Counter(self.backend.call_counter)
        delta.subtract(self._start_calls)
        negative = sorted(k for k, v in delta.items() if v < 0)
        cuda_check(
            not negative,
            CudaErrorCode.INVALID_VALUE,
            "call counter went backwards for "
            + ", ".join(negative)
            + " — the backend's counter was reset mid-window; call "
            "start() after the reset to open a fresh window",
        )
        calls = +delta
        exec_ns = self.backend.process.clock_ns - self._start_ns
        total = sum(calls.values())
        exec_s = exec_ns / NS_PER_S
        return ProfileReport(
            calls=calls,
            total_calls=total,
            exec_time_s=exec_s,
            cps=total / exec_s if exec_s > 0 else 0.0,
            kernel_launches=calls.get("cudaLaunchKernel", 0),
        )

    def total_calls_formula(self, calls: Counter) -> int:
        """The paper's eq. 2, recomputed from launch counts: 3×launches +
        all other entry points (excluding the push/pop pair, which the
        3× factor accounts for)."""
        launches = calls.get("cudaLaunchKernel", 0)
        rest = sum(
            v
            for k, v in calls.items()
            if k
            not in (
                "cudaLaunchKernel",
                "cudaPushCallConfiguration",
                "cudaPopCallConfiguration",
            )
        )
        return 3 * launches + rest
