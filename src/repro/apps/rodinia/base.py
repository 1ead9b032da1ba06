"""Shared structure of the Rodinia miniatures.

Every Rodinia app is an iteration loop around a handful of kernel
launches; the base class drives it through :class:`TimedLoop` (real
measured iterations + fast-forward) and owns the calibration targets:

- ``PAPER_ITERS`` iterations at scale=1.0, each issuing the app's
  characteristic call mix, so the total call count matches Figure 2;
- per-kernel virtual durations sized so the native virtual runtime
  matches Figure 2;
- a device "footprint" allocation plus upper-half ballast so the
  checkpoint image matches Figure 3.
"""

from __future__ import annotations

from repro.apps.base import AppContext, CudaApp, TimedLoop


class RodiniaApp(CudaApp):
    """Base class for the 14 Rodinia miniatures."""

    #: iterations of the outer loop at scale=1.0
    PAPER_ITERS: int = 100
    #: kernel launches per iteration (for the per-kernel time budget)
    LAUNCHES_PER_ITER: int = 1
    #: real (measured) iterations before fast-forwarding
    MEASURE: int = 4
    #: virtual device-resident data at scale=1.0, MB (Figure 3 footprint)
    DEVICE_MB: float = 4.0
    #: cudaMalloc/cudaFree pairs per iteration that must also appear for
    #: the *fast-forwarded* iterations (their time/count is extrapolated,
    #: but CRAC's replay log needs the real entries — §4.4.1's
    #: Streamcluster/Heartwall restart behaviour depends on them).
    CHURN_PER_ITER: int = 0
    #: size of each churn allocation, bytes
    CHURN_BYTES: int = 4096

    def ballast_bytes(self) -> int:
        """Upper-half ballast = target image − base upper − device data."""
        base = 16 << 20
        device = int(self.DEVICE_MB * self.scale * (1 << 20))
        want = int(self.target_ckpt_mb * self.scale * (1 << 20))
        return max(0, want - base - device)

    # -- workload hooks ----------------------------------------------------------

    def setup(self, ctx: AppContext) -> None:
        """Allocate and initialize device state."""
        raise NotImplementedError

    def iteration(self, ctx: AppContext, i: int) -> None:
        """One outer-loop iteration (the app's characteristic call mix)."""
        raise NotImplementedError

    def finalize(self, ctx: AppContext) -> int:
        """Copy results back and digest them."""
        raise NotImplementedError

    # -- driver ---------------------------------------------------------------------

    def run_app(self, ctx: AppContext) -> int:
        backend = ctx.backend
        self.setup(ctx)
        # Device footprint ballast (virtual bytes; drained at checkpoint).
        device_ballast = int(self.DEVICE_MB * self.scale * (1 << 20))
        self._ballast_ptr = backend.malloc(max(256, device_ballast))
        iters = self.iterations(self.PAPER_ITERS)
        self._kernel_ns = round(
            self.kernel_budget_ns(iters * self.LAUNCHES_PER_ITER) * ctx.time_scale
        )
        def churn(remaining: int) -> None:
            # Reproduce the alloc/free churn of the fast-forwarded
            # iterations: malloc_free_run makes the pairs' state and log
            # records only, as their count and cost were extrapolated,
            # and the pairs that land where the one before them did are
            # one log record.
            backend.malloc_free_run(
                self.CHURN_BYTES, remaining * self.CHURN_PER_ITER
            )

        loop = TimedLoop(
            ctx, iters, measure=self.MEASURE,
            ff_hook=churn if self.CHURN_PER_ITER else None,
        )
        for i in loop:
            self.iteration(ctx, i)
        backend.device_synchronize()
        digest = self.finalize(ctx)
        backend.free(self._ballast_ptr)
        return digest

    # -- convenience ------------------------------------------------------------------

    def launch(self, ctx: AppContext, kernel: str, fn=None, **kw) -> None:
        """Launch with the calibrated per-kernel duration."""
        kw.setdefault("duration_ns", self._kernel_ns)
        ctx.backend.launch(kernel, fn, **kw)
