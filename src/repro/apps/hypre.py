"""HYPRE: scalable linear solvers (the ``ij`` driver, §4.4.3).

Paper configuration::

    ij -solver 1 -rlx 18 -ns 2 -CF 0 -hmis -interptype 6 -Pmx 4
       -keepT 1 -tol 1.e-8 -agg_nl 1 -n 250 250 250 250

HYPRE's profile is the opposite of HPGMG's: only ~600 CUDA calls per
second, but *large UVM regions* (up to 1 GB per rank) on which host and
device work **simultaneously** via CUDA streams — the access pattern
CRUM's shadow pages cannot support — and long-running kernels. Largest
checkpoint image of the evaluation (2.3 GB, Figure 5c).

The miniature runs a real diagonally-preconditioned conjugate-gradient
solve of a 2D Poisson system (in managed memory), while the paper-scale
UVM regions are carried as virtual managed ballast.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppContext, CudaApp, TimedLoop, digest_arrays
from repro.cuda.api import ManagedUse


class Hypre(CudaApp):
    """HYPRE ij-driver miniature: PCG with large UVM regions."""

    name = "HYPRE"
    cli_args = (
        "ij -solver 1 -rlx 18 -ns 2 -CF 0 -hmis -interptype 6 -Pmx 4 "
        "-keepT 1 -tol 1.e-8 -agg_nl 1 -n 250 250 250 250"
    )
    uses_uvm = True
    uses_streams = True
    stream_range = "1–10"
    target_runtime_s = 42.0
    target_calls = 25_000
    target_ckpt_mb = 2_300.0

    PAPER_ITERS = 1_400  # PCG iterations
    LAUNCHES_PER_ITER = 5  # SpMV, precond, 2 axpy, dot
    N_STREAMS = 10
    SIDE = 32  # miniature Poisson grid (n = SIDE²)

    def kernel_names(self):
        """Device functions in this app\'s fat binary."""
        return ("csr_spmv", "diag_precond", "axpy", "dot", "setup_kernel")

    def ballast_bytes(self) -> int:
        return max(0, int(80 * (1 << 20) * self.scale))

    def run_app(self, ctx: AppContext) -> int:
        b = ctx.backend
        s = self.SIDE
        n = s * s

        # -- setup phase: build the IJ matrix; large UVM regions appear.
        # Two ~1 GB managed regions per rank at paper scale.
        uvm_gb = int(1.1 * (1 << 30) * self.scale)
        p_big1 = b.malloc_managed(max(1 << 16, uvm_gb))
        p_big2 = b.malloc_managed(max(1 << 16, uvm_gb))
        self.p_x = b.malloc_managed(8 * n)
        self.p_r = b.malloc_managed(8 * n)
        self.p_p = b.malloc_managed(8 * n)
        self.p_ap = b.malloc_managed(8 * n)
        streams = [b.stream_create() for _ in range(self.N_STREAMS)]
        for _ in range(self.iterations(200)):
            b.launch("setup_kernel", None, duration_ns=2_000_000)

        # 2D Poisson operator applied matrix-free (the real solve).
        rhs = np.zeros((s, s))
        rhs[s // 2, s // 2] = 1.0
        rv = b.managed_view(self.p_r, 8 * n, np.float64)
        rv[:] = rhs.reshape(-1)
        pv = b.managed_view(self.p_p, 8 * n, np.float64)
        pv[:] = rv

        def apply_A(vec):
            g = vec.reshape(s, s)
            out = 4 * g.copy()
            out[1:, :] -= g[:-1, :]
            out[:-1, :] -= g[1:, :]
            out[:, 1:] -= g[:, :-1]
            out[:, :-1] -= g[:, 1:]
            return out.reshape(-1)

        iters = self.iterations(self.PAPER_ITERS)
        budget_ns = self.kernel_budget_ns(
            iters * self.LAUNCHES_PER_ITER + self.iterations(200)
        )
        kernel_ns = round(budget_ns)
        spmv_ns, dot_ns = round(budget_ns * 2), round(budget_ns / 2)
        state = {"rs_old": float(rv @ rv)}

        loop = TimedLoop(ctx, iters, measure=4)
        for it in loop:
            stream = streams[it % self.N_STREAMS]

            def spmv():
                p_ = b.device_view(self.p_p, 8 * n, np.float64)
                ap = b.device_view(self.p_ap, 8 * n, np.float64)
                ap[:] = apply_A(p_)

            def update():
                x = b.device_view(self.p_x, 8 * n, np.float64)
                r = b.device_view(self.p_r, 8 * n, np.float64)
                p_ = b.device_view(self.p_p, 8 * n, np.float64)
                ap = b.device_view(self.p_ap, 8 * n, np.float64)
                pap = float(p_ @ ap)
                if abs(pap) < 1e-30:
                    return
                alpha = state["rs_old"] / pap
                x += alpha * p_
                r -= alpha * ap
                rs_new = float(r @ r)
                p_[:] = r + (rs_new / max(state["rs_old"], 1e-30)) * p_
                state["rs_old"] = rs_new

            # Long-running kernels; host touches the big UVM regions
            # while the device works (the pattern CRUM cannot support —
            # CRAC's UVM support makes it safe).
            b.launch(
                "csr_spmv", spmv, duration_ns=spmv_ns, stream=stream,
                managed=[ManagedUse(self.p_p, 0, 8 * n, "r"),
                         ManagedUse(self.p_ap, 0, 8 * n, "w")],
            )
            b.launch("diag_precond", None, duration_ns=kernel_ns, stream=stream)
            b.launch("axpy", update, duration_ns=kernel_ns, stream=stream,
                     managed=[ManagedUse(self.p_x, 0, 8 * n, "rw")])
            b.launch("axpy", None, duration_ns=kernel_ns, stream=stream)
            b.launch("dot", None, duration_ns=dot_ns, stream=stream)
            # Host-side touch of the big UVM region, concurrent with the
            # in-flight kernels on other data.
            big = b.managed_view(p_big1, 4096)
            big[it % 4096] = it & 0xFF
            b.stream_synchronize(stream)

        b.device_synchronize()
        x = b.managed_view(self.p_x, 8 * n, np.float64)
        digest = digest_arrays(x.copy())
        for st in streams:
            b.stream_destroy(st)
        for p in (p_big1, p_big2, self.p_x, self.p_r, self.p_p, self.p_ap):
            b.free(p)
        return digest
