"""Application framework: context, base class, fast-forward loop.

Calibration contract
--------------------
Each app declares paper-level targets (native runtime, total CUDA calls,
checkpoint-image size) and is parameterized by ``scale`` ∈ (0, 1]:

- ``scale=1.0`` reproduces the paper's configuration (call counts,
  virtual runtime, footprint);
- small scales (tests) shrink iteration counts and durations together,
  preserving the call *mix* and all correctness properties.

Kernels carry both a **real numpy computation** (executed eagerly on
small arrays, so outputs are bit-comparable across native/CRAC/proxy and
across checkpoint-restart) and a **virtual duration** derived from the
runtime target (so Figure-level timing has the paper's shape).

Fast-forwarding
---------------
Apps with hundreds of thousands of iterations use :class:`TimedLoop`: a
few iterations run for real *under the active backend* (so the measured
per-iteration virtual time includes that backend's dispatch costs), then
the remaining iterations advance the clock and call counters in bulk.
Content-wise the fast-forwarded iterations are steady-state repeats;
checkpoint correctness tests always run fully-real small scales.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cuda.api import FatBinary
from repro.cuda.interface import CudaDispatchBase


@dataclass
class AppContext:
    """Everything an application may touch while running."""

    backend: CudaDispatchBase
    #: allocate upper-half host memory (application heap growth)
    upper_mmap: Callable[[int], int]
    #: optional hook fired at iteration boundaries with progress ∈ [0,1];
    #: the harness uses it to trigger mid-run checkpoints.
    checkpoint_cb: Callable[[float], None] | None = None
    #: device slowdown factor relative to the V100 the targets were
    #: calibrated on (the K600 runs of Figure 6 use > 1).
    time_scale: float = 1.0

    @property
    def process(self):
        return self.backend.process

    def maybe_checkpoint(self, progress: float) -> None:
        """Fire the harness checkpoint hook, if installed."""
        if self.checkpoint_cb is not None:
            self.checkpoint_cb(progress)


@dataclass
class AppResult:
    """Outcome of one application run."""

    name: str
    #: order-insensitive digest of the computed output (bit-comparable
    #: across backends and across checkpoint/restart)
    digest: int
    #: wall (virtual) nanoseconds spent inside run()
    elapsed_ns: int
    #: total upper→lower CUDA calls issued by this run
    cuda_calls: int
    extras: dict = field(default_factory=dict)


def digest_arrays(*arrays: np.ndarray) -> int:
    """Deterministic digest of numpy contents (crc32 over raw bytes)."""
    crc = 0
    for a in arrays:
        crc = zlib.crc32(np.ascontiguousarray(a).tobytes(), crc)
    return crc


class CudaApp:
    """Base class for all workloads.

    Subclasses set the class attributes below and implement
    :meth:`run_app`. ``run`` wraps it with timing and call accounting.
    """

    name: str = "app"
    cli_args: str = ""  # the Table 2 command line
    uses_uvm: bool = False
    uses_streams: bool = False
    stream_range: str = "—"  # the "# streams" column of Table 1

    #: Paper-level targets at scale=1.0 (virtual seconds / counts / MB).
    target_runtime_s: float = 1.0
    target_calls: int = 1000
    target_ckpt_mb: float = 16.0

    def __init__(self, scale: float = 1.0, seed: int = 0) -> None:
        if not (0 < scale <= 1.0):
            raise ValueError("scale must be in (0, 1]")
        self.scale = scale
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    # -- hooks for subclasses ---------------------------------------------------

    def fatbin(self) -> FatBinary:
        """The app's device code; registered before run_app."""
        return FatBinary(f"{self.name}.fatbin", tuple(self.kernel_names()))

    def kernel_names(self) -> tuple[str, ...]:
        """Names of the app's device functions (its fat-binary contents)."""
        return ("kernel",)

    def run_app(self, ctx: AppContext) -> int:
        """Execute the workload; returns the output digest."""
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------------------

    def iterations(self, paper_iters: int, floor: int = 1) -> int:
        """Scale an iteration count."""
        return max(floor, int(round(paper_iters * self.scale)))

    def ballast_bytes(self) -> int:
        """Upper-half ballast so the checkpoint image hits the target.

        The default upper half (program + heap + stack + libs) is about
        16 MB; anything beyond that is modelled as application data. The
        bytes are virtual — no real RAM is consumed.
        """
        base = 16 << 20
        want = int(self.target_ckpt_mb * self.scale * (1 << 20))
        return max(0, want - base)

    def kernel_budget_ns(self, n_kernels: int, fraction: float = 0.92) -> float:
        """Per-kernel virtual duration so that ``n_kernels`` of them fill
        ``fraction`` of the runtime target (the rest is dispatch/copies);
        a launch rounds it (or a multiple of it) to whole ns."""
        total = self.target_runtime_s * self.scale * 1e9 * fraction
        return max(2_000.0, total / max(1, n_kernels))

    # -- entry point -----------------------------------------------------------------

    def run(self, ctx: AppContext) -> AppResult:
        """Run the workload end to end; returns timing + digest."""
        backend = ctx.backend
        t0 = backend.process.clock_ns
        calls0 = backend.total_calls
        handle = backend.register_app_binary(self.fatbin())
        ballast = self.ballast_bytes()
        if ballast:
            ctx.upper_mmap(ballast)
        digest = self.run_app(ctx)
        backend.unregister_fatbin(handle)
        return AppResult(
            name=self.name,
            digest=digest,
            elapsed_ns=backend.process.clock_ns - t0,
            cuda_calls=backend.total_calls - calls0,
        )


class TimedLoop:
    """Fast-forwarding iteration driver (see module docstring).

    Example::

        loop = TimedLoop(ctx, total=100_000, measure=4)
        for i in loop:
            ...real CUDA work for iteration i...
        # loop exits after `measure` iterations and fast-forwards the rest
    """

    def __init__(
        self,
        ctx: AppContext,
        total: int,
        measure: int = 4,
        *,
        sync_each: bool = True,
        ff_hook=None,
    ) -> None:
        self.ctx = ctx
        self.total = total
        self.measure = min(measure, total)
        self.sync_each = sync_each
        #: called with the number of fast-forwarded iterations *before*
        #: the end-of-loop checkpoint callback — for state effects (e.g.
        #: malloc/free churn) that must exist when a checkpoint fires.
        self.ff_hook = ff_hook
        self.executed = 0

    def __iter__(self):
        # ``backend.process`` is read at each use: a mid-run restart
        # (from a checkpoint callback) swaps the process underneath.
        backend = self.ctx.backend
        per_iter_ns: list[int] = []
        per_iter_calls: list[Counter] = []
        for i in range(self.measure):
            t0 = backend.process.clock_ns
            c0 = Counter(backend.call_counter)
            yield i
            if self.sync_each:
                backend.device_synchronize()
            per_iter_ns.append(backend.process.clock_ns - t0)
            delta = Counter(backend.call_counter)
            delta.subtract(c0)
            per_iter_calls.append(+delta)
            self.executed += 1
            self.ctx.maybe_checkpoint((i + 1) / self.total)
        remaining = self.total - self.executed
        if remaining > 0:
            # Steady state: warm-up effects live in iteration 0, so the
            # mean of the *later* measured iterations extrapolates best.
            tail_ns = per_iter_ns[1:] or per_iter_ns
            mean_ns = round(sum(tail_ns) / len(tail_ns))
            tail_calls = per_iter_calls[1:] or per_iter_calls
            mean_calls = Counter()
            if tail_calls:
                for c in tail_calls:
                    mean_calls.update(c)
                mean_calls = Counter(
                    {
                        k: max(1, round(v / len(tail_calls)))
                        for k, v in mean_calls.items()
                    }
                )
            # Fast-forward in chunks so mid-run checkpoint triggers fire
            # at their requested progress with genuinely mid-run clocks.
            chunks = min(10, remaining)
            done = self.executed
            for ci in range(chunks):
                n = remaining // chunks + (1 if ci < remaining % chunks else 0)
                if n == 0:
                    continue
                backend.process.advance(mean_ns * n)
                if mean_calls:
                    backend.note_external_calls(mean_calls, n)
                if self.ff_hook is not None:
                    self.ff_hook(n)
                done += n
                self.ctx.maybe_checkpoint(done / self.total)
