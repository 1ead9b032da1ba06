"""CheCUDA baseline: pre-CUDA-4.0 destroy-and-restore checkpointing (§2.2).

CheCUDA's recipe: (a) drain the queue (``cudaDeviceSynchronize``);
(b) copy persistent GPU state to host memory; (c) destroy all CUDA
resources; (d) checkpoint on the host side with BLCR; restart by
reversing the steps, recreating resources from a creation log.

This worked when every CUDA resource lived solely on the GPU. CUDA 4.0's
UVA made the address space *shared* between host and device: the UVA
mapping cannot be destroyed and recreated through any public API, and
restoring the saved CUDA-library memory leaves it inconsistent with the
fresh driver context — the next CUDA call fails. Both behaviours are
reproduced here (see ``CudaRuntime.restore_library_memory``).
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.cuda.api import CudaRuntime
from repro.gpu.timing import DEFAULT_HOST_COSTS, HostCosts, transfer_ns


@dataclass
class CheCudaImage:
    """What CheCUDA saves: library memory + drained resource contents."""

    library_memory: dict
    buffers: dict[int, dict]  # addr -> {"kind", "size", "snapshot"}
    creation_log: list[tuple[str, int, int]]  # (kind, nbytes, addr)


class CheCudaCheckpointer:
    """Destroy-and-restore checkpointing for one CUDA runtime.

    The caller records resource creations via :meth:`note_alloc` (in a
    real system this is BLCR-side interposition).
    """

    def __init__(
        self, runtime: CudaRuntime, costs: HostCosts = DEFAULT_HOST_COSTS
    ) -> None:
        self.runtime = runtime
        self.costs = costs
        self.creation_log: list[tuple[str, int, int]] = []

    def note_alloc(self, kind: str, nbytes: int, addr: int) -> None:
        """Record a resource creation for later replay."""
        self.creation_log.append((kind, nbytes, addr))

    def checkpoint(self) -> CheCudaImage:
        """Steps (a)–(c): drain, copy state to host, destroy resources."""
        rt = self.runtime
        rt.cudaDeviceSynchronize()
        buffers: dict[int, dict] = {}
        drain = 0
        for buf in rt.active_allocations():
            kind = buf.kind
            buffers[buf.addr] = {
                "kind": kind,
                "size": buf.size,
                "snapshot": buf.contents.snapshot(),
            }
            if kind != "host-pinned":
                drain += buf.size
        rt.process.advance(transfer_ns(drain, rt.device.spec.pcie_bw))
        image = CheCudaImage(
            library_memory=rt.library_memory_snapshot(),
            buffers=buffers,
            creation_log=list(self.creation_log),
        )
        rt.destroy()  # step (c): all CUDA resources destroyed
        return image

    def restart(self, image: CheCudaImage, fresh_runtime: CudaRuntime) -> None:
        """Reverse the steps into a fresh runtime (fresh driver context).

        Restores the saved library memory, then replays resource
        creation. With pre-UVA state this fully works; once the saved
        library held UVA/UVM state, the *next* CUDA call after restart
        fails with LIBRARY_STATE_INCONSISTENT — the §2.2 failure.
        """
        fresh_runtime.restore_library_memory(image.library_memory)
        for kind, nbytes, addr in image.creation_log:
            # Replay resource creation (raises once the restored library
            # state is inconsistent with the fresh driver context).
            if kind == "device":
                got = fresh_runtime.cudaMalloc(nbytes)
            elif kind == "host-pinned":
                got = fresh_runtime.cudaMallocHost(nbytes)
            elif kind == "managed":
                got = fresh_runtime.cudaMallocManaged(nbytes)
            else:
                raise ValueError(kind)
            entry = image.buffers.get(addr)
            buf = fresh_runtime.buffer(got)
            if entry is not None and buf is not None:
                buf.contents.restore(entry["snapshot"])
        self.runtime = fresh_runtime
