"""HPGMG-FV: high-performance geometric multigrid, finite-volume variant.

Paper configuration: ``hpgmg-fv 7 8`` on one MPI rank — already "real-
world scale" because it issues ~2 million CUDA calls per minute (35K
calls/second, the highest sustained call rate in the evaluation; §4.4.3).
Uses UVM for its level data (Table 1). Its restart is the slowest in
Figure 5c (~1.75 s): a very long cudaMalloc log to replay.

The miniature runs real V-cycles (Jacobi-smoothed geometric multigrid on
a 2D Poisson problem) with the benchmark's per-level kernel structure;
V-cycle count and per-kernel durations are calibrated to the 6M-call /
~170 s profile.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppContext, CudaApp, TimedLoop, digest_arrays
from repro.cuda.api import ManagedUse


class Hpgmg(CudaApp):
    """HPGMG-FV geometric multigrid: real V-cycles, UVM level data.

    Setup allocates thousands of small per-box arrays (the long malloc
    log of the module docstring). They are one run of equal calls,
    ``malloc_run(256, n)``, and are freed with one ``free_run`` of the
    ``range`` it returned: the backend counts, charges and logs every
    call as a per-call loop would, but crosses the boundary once for the
    run. The boxes are never touched, so they stay one row of each of
    the runtime's tables, one record of the replay log and one of every
    cut's never-built record, through cuts, restart and the free: only
    virtual time sees the run's length.
    """

    name = "HPGMG-FV"
    cli_args = "7 8"
    uses_uvm = True
    uses_streams = False
    target_runtime_s = 171.0
    target_calls = 6_000_000
    target_ckpt_mb = 112.0

    PAPER_VCYCLES = 46_000
    N_LEVELS = 5
    FINE_SIDE = 32  # miniature fine grid

    #: launches per V-cycle: 8 kernels per non-coarsest level (smooths,
    #: residuals, restrict, interpolate), 8 coarse smooths, 2 norm/dot.
    LAUNCHES_PER_CYCLE = 8 * (N_LEVELS - 1) + 8 + 2

    #: per-box setup allocations at scale=1.0. HPGMG allocates thousands
    #: of small per-box arrays; replaying this log is what makes its
    #: restart the slowest in Figure 5c (~1.75 s).
    PAPER_BOX_ALLOCS = 15_000

    def kernel_names(self):
        """Device functions in this app\'s fat binary."""
        return ("smooth_kernel", "residual_kernel", "restriction_kernel",
                "interpolation_kernel", "norm_kernel", "dot_kernel")

    def ballast_bytes(self) -> int:
        return max(0, int((self.target_ckpt_mb - 16 - 60) * (1 << 20) * self.scale))

    def run_app(self, ctx: AppContext) -> int:
        b = ctx.backend
        sides = [max(4, self.FINE_SIDE >> l) for l in range(self.N_LEVELS)]
        # Level data lives in managed memory (UVM), as in the CUDA port.
        self.p_u = [b.malloc_managed(8 * s * s) for s in sides]
        self.p_f = [b.malloc_managed(8 * s * s) for s in sides]
        self.p_r = [b.malloc_managed(8 * s * s) for s in sides]
        p_ballast = b.malloc(int(60 * (1 << 20) * self.scale) or 4096)
        # Per-box metadata arrays: a long cudaMalloc log (see class doc),
        # made as one run of equal calls.
        box_allocs = b.malloc_run(256, self.iterations(self.PAPER_BOX_ALLOCS))

        # RHS: a point source on the fine grid.
        s0 = sides[0]
        f = np.zeros((s0, s0))
        f[s0 // 2, s0 // 2] = 1.0
        fv = b.managed_view(self.p_f[0], 8 * s0 * s0, np.float64)
        fv[:] = f.reshape(-1)

        cycles = self.iterations(self.PAPER_VCYCLES)
        kernel_ns = round(self.kernel_budget_ns(cycles * self.LAUNCHES_PER_CYCLE))

        def grid(ptr, s):
            return b.device_view(ptr, 8 * s * s, np.float64).reshape(s, s)

        def smooth(level, real):
            def fn():
                u, f_ = grid(self.p_u[level], sides[level]), grid(self.p_f[level], sides[level])
                u[1:-1, 1:-1] = 0.25 * (
                    u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]
                    + f_[1:-1, 1:-1]
                )
            s = sides[level]
            b.launch(
                "smooth_kernel",
                fn if real else None,
                duration_ns=kernel_ns,
                managed=[ManagedUse(self.p_u[level], 0, 8 * s * s, "rw"),
                         ManagedUse(self.p_f[level], 0, 8 * s * s, "r")],
                flop=8.0 * s * s,
            )

        def residual(level, real):
            def fn():
                u = grid(self.p_u[level], sides[level])
                f_ = grid(self.p_f[level], sides[level])
                r = grid(self.p_r[level], sides[level])
                r[:] = 0.0
                r[1:-1, 1:-1] = f_[1:-1, 1:-1] - (
                    4 * u[1:-1, 1:-1]
                    - u[:-2, 1:-1] - u[2:, 1:-1] - u[1:-1, :-2] - u[1:-1, 2:]
                )
            s = sides[level]
            b.launch("residual_kernel", fn if real else None,
                     duration_ns=kernel_ns,
                     managed=[ManagedUse(self.p_r[level], 0, 8 * s * s, "w")])

        def restrict_(level, real):
            def fn():
                r = grid(self.p_r[level], sides[level])
                fc = grid(self.p_f[level + 1], sides[level + 1])
                m = min(sides[level] // 2, sides[level + 1])
                fc[:m, :m] = r[: 2 * m : 2, : 2 * m : 2]
            b.launch("restriction_kernel", fn if real else None,
                     duration_ns=kernel_ns)

        def interpolate(level, real):
            def fn():
                uc = grid(self.p_u[level + 1], sides[level + 1])
                uf = grid(self.p_u[level], sides[level])
                m = min(sides[level] // 2, sides[level + 1])
                uf[: 2 * m : 2, : 2 * m : 2] += uc[:m, :m]
            b.launch("interpolation_kernel", fn if real else None,
                     duration_ns=kernel_ns)

        loop = TimedLoop(ctx, cycles, measure=3)
        for cyc in loop:
            real = True  # content is computed in measured cycles only
            for level in range(self.N_LEVELS - 1):
                smooth(level, real)
                smooth(level, real)
                residual(level, real)
                residual(level, False)
                restrict_(level, real)
                smooth(level, False)
                smooth(level, False)
                interpolate(level, real)
            # coarsest level + norms
            for _ in range(8):
                smooth(self.N_LEVELS - 1, real)
            b.launch("norm_kernel", None, duration_ns=kernel_ns)
            b.launch("dot_kernel", None, duration_ns=kernel_ns)
            norm = np.zeros(1)
            b.memcpy(norm, self.p_r[0], 8, "d2h")
            b.device_synchronize()

        out = b.managed_view(self.p_u[0], 8 * s0 * s0, np.float64)
        digest = digest_arrays(out.copy())
        for plist in (self.p_u, self.p_f, self.p_r):
            for p in plist:
                b.free(p)
        b.free_run(box_allocs)
        b.free(p_ballast)
        return digest
