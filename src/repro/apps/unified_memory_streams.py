"""NVIDIA's UnifiedMemoryStreams sample (§4.4.2).

A task consumer: tasks with randomized sizes live entirely in Unified
Memory; small tasks execute on the host (touching managed pages from the
CPU), large tasks on the device across many streams. The paper's
configuration: 128 streams, 1280 tasks, RNG seed 12701 (fixed so the
task-size draw — and hence host/device split — is reproducible).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppContext, CudaApp, TimedLoop, digest_arrays
from repro.cuda.api import ManagedUse

#: The paper sets the seed to 12701 "to get consistent task allocations".
PAPER_SEED = 12701

#: Per-task managed data at scale=1.0 (1280 × ~320 KB average ≈ 400 MB
#: managed, matching UMS's 421 MB checkpoint image).
TASK_BYTES = 512 * 1024


class UnifiedMemoryStreams(CudaApp):
    """NVIDIA UnifiedMemoryStreams: threaded task consumer in UVM."""

    name = "UnifiedMemoryStreams"
    cli_args = "--streams 128 --tasks 1280"
    uses_uvm = True
    uses_streams = True
    stream_range = "4–128"
    target_runtime_s = 12.0
    target_calls = 26_000
    target_ckpt_mb = 421.0

    def __init__(
        self,
        scale: float = 1.0,
        seed: int = PAPER_SEED,
        *,
        nstreams: int = 128,
        ntasks: int = 1280,
    ) -> None:
        super().__init__(scale, seed)
        self.nstreams = nstreams
        self.ntasks = ntasks

    def kernel_names(self):
        """Device functions in this app\'s fat binary."""
        return ("task_kernel",)

    def ballast_bytes(self) -> int:
        return 0  # the managed task pool is the footprint

    #: the sample is "a simple task consumer using threads and streams";
    #: host worker threads pull tasks and drive their own streams.
    N_THREADS = 8

    def run_app(self, ctx: AppContext) -> int:
        b = ctx.backend
        ntasks = self.iterations(self.ntasks, floor=4)
        task_bytes = max(4096, int(TASK_BYTES * self.scale))
        # One managed region per task (all data in Unified Memory).
        sizes = self.rng.integers(task_bytes // 4, task_bytes, ntasks)
        ptrs = [b.malloc_managed(int(s)) for s in sizes]
        workers = [ctx.process.spawn_thread() for _ in range(self.N_THREADS)]
        streams = [b.stream_create() for _ in range(self.nstreams)]
        threshold = int(task_bytes * 0.45)  # small → host, large → device
        checks = np.zeros(ntasks, dtype=np.float64)
        probe_n = 256  # real floats computed per task

        # Per-kernel budget: device tasks carry ~10 sub-kernels each.
        n_device = int((sizes >= threshold).sum())
        kernel_ns = round(self.kernel_budget_ns(max(1, n_device * 10)))

        def consume(t: int) -> None:
            """One task, executed by whichever worker thread pulled it."""
            ptr, size = ptrs[t], int(sizes[t])
            if size < threshold:
                # Host-side task: CPU touches the managed pages directly.
                data = b.managed_view(ptr, 4 * probe_n, np.float32)
                data[:] = np.float32(t)
                data *= np.float32(1.5)
                checks[t] = float(data.sum())
                return
            s = streams[t % self.nstreams]

            def work():
                data = b.device_view(ptr, 4 * probe_n, np.float32)
                data[:] = np.float32(t)
                data *= np.float32(2.0)

            # The sample's task body: a chain of kernels per task.
            for k in range(10):
                b.launch(
                    "task_kernel",
                    work if k == 0 else None,
                    stream=s,
                    duration_ns=kernel_ns,
                    managed=[ManagedUse(ptr, 0, size, "rw")],
                )
            b.stream_synchronize(s)
            view = b.managed_view(ptr, 4 * probe_n, np.float32)
            checks[t] = float(view.sum())

        loop = TimedLoop(ctx, ntasks, measure=6)
        for t in loop:
            with b.use_thread(workers[t % self.N_THREADS]):
                consume(t)

        b.device_synchronize()
        digest = digest_arrays(checks[: loop.executed])
        for s in streams:
            b.stream_destroy(s)
        for p in ptrs:
            b.free(p)
        return digest
