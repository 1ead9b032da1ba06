"""NVIDIA's simpleStreams sample (§4.4.2, Figure 4).

Overlaps kernel execution with device→host memcpy: each repetition runs
(a) a non-streamed pair — one whole-array kernel then one synchronous
copy — and (b) a streamed pair — the array split across ``nstreams``
streams, each launching its chunk kernel and an async chunk copy, so
copies hide under the kernels of other streams.

Paper configuration: 128 streams (the V100 CC 7.0 concurrent-kernel
maximum), ``nreps=1000``, ``niterations`` ∈ {5, 10, 100, 500} (the inner
loop of the kernel; more iterations ⇒ longer kernel). The benchmark
reports the time to execute one kernel with and without streams
(Figure 4b) and the total runtime (Figure 4a).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppContext, CudaApp, TimedLoop, digest_arrays

#: Virtual duration of the whole-array kernel per inner iteration, ns.
#: (16M ints, ~48 µs per iteration ⇒ 24 ms at niterations=500, matching
#: Figure 4b's ~25 ms non-streamed point.)
KERNEL_NS_PER_ITERATION = 48_000.0
#: The sample's array: 16M ints = 64 MB.
ARRAY_BYTES = 64 << 20


class SimpleStreams(CudaApp):
    """NVIDIA simpleStreams: kernel/memcpy overlap across streams."""

    name = "simpleStreams"
    cli_args = "--nstreams 128 --nreps 1000"
    uses_streams = True
    stream_range = "4–128"
    target_runtime_s = 35.0
    target_calls = 516_000
    target_ckpt_mb = 142.0

    def __init__(
        self,
        scale: float = 1.0,
        seed: int = 0,
        *,
        nstreams: int = 128,
        nreps: int = 1000,
        niterations: int = 500,
    ) -> None:
        super().__init__(scale, seed)
        self.nstreams = nstreams
        self.nreps = nreps
        self.niterations = niterations

    def kernel_names(self):
        """Device functions in this app\'s fat binary."""
        return ("init_array",)

    def ballast_bytes(self) -> int:
        # 64 MB device array + 64 MB pinned host copy dominate the image.
        return max(0, int((self.target_ckpt_mb - 16 - 128) * (1 << 20) * self.scale))

    def run_app(self, ctx: AppContext) -> int:
        b = ctx.backend
        scaled_bytes = max(4096, int(ARRAY_BYTES * self.scale))
        whole_kernel_ns = KERNEL_NS_PER_ITERATION * self.niterations * self.scale

        p_dev = b.malloc(scaled_bytes)
        p_host = b.host_alloc(scaled_bytes)  # pinned destination
        streams = [b.stream_create() for _ in range(self.nstreams)]
        # Real content on a small prefix so results stay verifiable.
        probe_n = 1024
        value = np.int32(0)

        e_start = b.event_create()
        e_stop = b.event_create()
        kernel_ms = {"non_streamed": 0.0, "streamed": 0.0}
        reps = self.iterations(self.nreps)
        chunk = scaled_bytes // self.nstreams

        loop = TimedLoop(ctx, reps, measure=3)
        for rep in loop:
            value = np.int32(rep + 1)

            # --- non-streamed: kernel on the default stream, sync copy.
            def init_whole(v=value):
                arr = b.device_view(p_dev, 4 * probe_n, np.int32)
                arr[:] = v

            b.event_record(e_start)
            b.launch("init_array", init_whole, duration_ns=round(whole_kernel_ns))
            b.event_record(e_stop)
            b.memcpy(p_host, p_dev, scaled_bytes, "d2h", dst_offset=0)
            b.event_synchronize(e_stop)
            kernel_ms["non_streamed"] = b.event_elapsed_ms(e_start, e_stop)

            # --- streamed: chunk kernels + async chunk copies per stream.
            t_first = None
            for si, s in enumerate(streams):
                def init_chunk(v=value, si=si):
                    if si == 0:
                        arr = b.device_view(p_dev, 4 * probe_n, np.int32)
                        arr[:] = v + 1

                end = b.launch(
                    "init_array",
                    init_chunk,
                    duration_ns=round(whole_kernel_ns / self.nstreams),
                    stream=s,
                )
                if t_first is None:
                    t_first = end
                b.memcpy(
                    p_host,
                    p_dev,
                    chunk,
                    "d2h",
                    stream=s,
                    async_=True,
                    dst_offset=si * chunk,
                    src_offset=si * chunk,
                )
            b.device_synchronize()
            kernel_ms["streamed"] = whole_kernel_ns / self.nstreams / 1e6

        self._kernel_ms = kernel_ms
        out = np.zeros(probe_n, dtype=np.int32)
        b.memcpy(out, p_dev, out.nbytes, "d2h")
        for s in streams:
            b.stream_destroy(s)
        b.event_destroy(e_start)
        b.event_destroy(e_stop)
        b.free(p_dev)
        b.free_host(p_host)
        return digest_arrays(out)

    def run(self, ctx: AppContext):
        result = super().run(ctx)
        result.extras["kernel_ms"] = self._kernel_ms
        result.extras["niterations"] = self.niterations
        result.extras["nstreams"] = self.nstreams
        return result
