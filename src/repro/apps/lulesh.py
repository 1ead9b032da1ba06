"""LULESH 2.0 (GPU): Livermore unstructured Lagrangian shock hydro.

Paper configuration: structured grid, ``-s 150`` (150³ elements, ~2 GB).
LULESH is the paper's stream-using real-world app (Table 1: 2–32
streams; ~210K CUDA calls in ~80 s, 65K kernel launches).

The miniature solves the Sedov blast problem's control flow on a small
structured grid: per timestep it runs the benchmark's characteristic
kernel sequence (nodal force, acceleration, velocity/position update,
element kinematics, artificial viscosity, EOS, timestep reduce) spread
across a pool of streams, with real numpy state updates on a small grid.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppContext, CudaApp, TimedLoop, digest_arrays


class Lulesh(CudaApp):
    """LULESH 2.0 shock-hydro miniature over a stream pool."""

    name = "LULESH"
    cli_args = "-s 150"
    uses_streams = True
    stream_range = "2–32"
    target_runtime_s = 80.0
    target_calls = 210_000
    target_ckpt_mb = 117.0

    PAPER_STEPS = 2_060
    LAUNCHES_PER_STEP = 32
    N_STREAMS = 8
    SIDE = 12  # miniature grid (12³ elements)

    def kernel_names(self):
        """Device functions in this app\'s fat binary."""
        return (
            "CalcForceForNodes", "CalcAccelerationForNodes",
            "CalcVelocityForNodes", "CalcPositionForNodes",
            "CalcKinematicsForElems", "CalcMonotonicQGradientsForElems",
            "ApplyMaterialPropertiesForElems", "EvalEOSForElems",
            "CalcTimeConstraintsForElems",
        )

    def ballast_bytes(self) -> int:
        return max(0, int((self.target_ckpt_mb - 16 - 80) * (1 << 20) * self.scale))

    def run_app(self, ctx: AppContext) -> int:
        b = ctx.backend
        s = self.SIDE
        nelem = s**3
        nnode = (s + 1) ** 3

        # Field arrays (energy, pressure, volume per element; position,
        # velocity per node) + device footprint ballast.
        self.p_e = b.malloc(8 * nelem)
        self.p_p = b.malloc(8 * nelem)
        self.p_v = b.malloc(8 * nelem)
        self.p_x = b.malloc(8 * nnode)
        self.p_xd = b.malloc(8 * nnode)
        p_ballast = b.malloc(int(80 * (1 << 20) * self.scale) or 4096)

        e = np.zeros(nelem)
        e[0] = 3.948746e7  # Sedov point blast energy deposit
        b.memcpy(self.p_e, e, e.nbytes, "h2d")
        b.memcpy(self.p_v, np.ones(nelem), 8 * nelem, "h2d")
        b.memcpy(self.p_x, np.linspace(0, 1, nnode), 8 * nnode, "h2d")
        b.memset(self.p_p, 0, 8 * nelem)
        b.memset(self.p_xd, 0, 8 * nnode)

        streams = [b.stream_create() for _ in range(self.N_STREAMS)]
        steps = self.iterations(self.PAPER_STEPS)
        # Kernels overlap across the stream pool (N_STREAMS-way), so the
        # per-kernel budget is sized against the per-stream serial chain.
        kernel_ns = round(
            self.kernel_budget_ns(steps * self.LAUNCHES_PER_STEP)
            * self.N_STREAMS
            * ctx.time_scale
        )
        dt = 1e-7

        kernels = self.kernel_names()
        loop = TimedLoop(ctx, steps, measure=4)
        for step in loop:
            def eos():
                ee = b.device_view(self.p_e, 8 * nelem, np.float64)
                pp = b.device_view(self.p_p, 8 * nelem, np.float64)
                vv = b.device_view(self.p_v, 8 * nelem, np.float64)
                pp[:] = (2.0 / 3.0) * ee * np.maximum(vv, 1e-9)

            def advance():
                xx = b.device_view(self.p_x, 8 * nnode, np.float64)
                xd = b.device_view(self.p_xd, 8 * nnode, np.float64)
                pp = b.device_view(self.p_p, 8 * nelem, np.float64)
                grad = np.gradient(np.pad(pp, (0, nnode - nelem), mode="edge"))
                xd -= dt * grad
                xx += dt * xd

            def diffuse_energy():
                ee = b.device_view(self.p_e, 8 * nelem, np.float64)
                ee[1:-1] += 0.01 * (ee[:-2] + ee[2:] - 2 * ee[1:-1])

            # The 32-launch step: the real physics lives in three of the
            # kernels; the rest are the benchmark's other phases with the
            # same time budget (they dominate the call count, not state).
            for li in range(self.LAUNCHES_PER_STEP):
                kname = kernels[li % len(kernels)]
                fn = {0: eos, 1: advance, 2: diffuse_energy}.get(li)
                b.launch(
                    kname,
                    fn,
                    duration_ns=kernel_ns,
                    stream=streams[li % self.N_STREAMS],
                )
            # Timestep reduction: device→host dt round trip.
            dt_probe = np.zeros(1)
            b.memcpy(dt_probe, self.p_e, 8, "d2h")
            b.memcpy(self.p_v, self.p_e, 8 * nelem, "d2d")
            b.device_synchronize()

        out_e = np.zeros(nelem)
        out_x = np.zeros(nnode)
        b.memcpy(out_e, self.p_e, out_e.nbytes, "d2h")
        b.memcpy(out_x, self.p_x, out_x.nbytes, "d2h")
        for st in streams:
            b.stream_destroy(st)
        for p in (self.p_e, self.p_p, self.p_v, self.p_x, self.p_xd, p_ballast):
            b.free(p)
        return digest_arrays(out_e, out_x)
