"""Split-process construction (paper §3.1, Figure 1).

The lower-half *helper* program — a tiny CUDA application linked against
the real CUDA libraries and its own libc — is loaded first, into the
reserved lower window, by the kernel-loader imitation that interposes on
all of its ``mmap`` calls. At launch the helper copies the entry points
of the CUDA library calls into an *entry-point table*; the upper-half
application's dummy libcuda jumps through that table (the trampoline).

The upper-half application is then loaded normally (under DMTCP), with
its own libc — two independent GNU link maps in one process.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

from repro.cuda.api import CudaRuntime
from repro.gpu.device import GpuDevice
from repro.gpu.timing import GPU_SPECS, GpuSpec
from repro.linux.loader import LoadedProgram, ProgramImage, ProgramLoader, Segment
from repro.linux.process import ADDR_NO_RANDOMIZE, SimProcess

#: The CUDA entry points the helper exports through the table. (The real
#: helper exports the full runtime API; listing them makes the "copy the
#: entry addresses into an array" step of Figure 1 concrete.)
ENTRY_POINTS = (
    "cudaMalloc",
    "cudaFree",
    "cudaMallocHost",
    "cudaHostAlloc",
    "cudaHostRegister",
    "cudaFreeHost",
    "cudaMallocManaged",
    "cudaMemcpy",
    "cudaMemcpyAsync",
    "cudaMemset",
    "cudaMemsetAsync",
    "cudaLaunchKernel",
    "cudaPushCallConfiguration",
    "cudaPopCallConfiguration",
    "cudaStreamCreate",
    "cudaStreamDestroy",
    "cudaStreamSynchronize",
    "cudaStreamWaitEvent",
    "cudaDeviceSynchronize",
    "cudaEventCreate",
    "cudaEventDestroy",
    "cudaEventRecord",
    "cudaEventSynchronize",
    "cudaEventElapsedTime",
    "cudaGetDeviceProperties",
    "cudaSetDevice",
    "cudaGetDevice",
    "cudaGetDeviceCount",
    "cudaMemcpyPeer",
    "cudaMemGetInfo",
    "cudaPointerGetAttributes",
    "cudaStreamQuery",
    "cudaEventQuery",
    "cudaMemPrefetchAsync",
    "__cudaRegisterFatBinary",
    "__cudaRegisterFunction",
    "__cudaUnregisterFatBinary",
)


#: Per-allocation-family VA sub-windows inside the lower half — the UVA
#: address carving real CUDA performs at context creation. Keeping each
#: arena family in its own range makes each family's replay addresses
#: independent of how families interleaved in the original run.
ARENA_WINDOWS: dict[str, tuple[int, int]] = {
    "cuda-device-arena": (0x0000_1100_0000_0000, 0x0000_1400_0000_0000),
    "cuda-pinned-arena": (0x0000_1400_0000_0000, 0x0000_1700_0000_0000),
    "cuda-hostalloc-arena": (0x0000_1700_0000_0000, 0x0000_1A00_0000_0000),
    "cuda-managed-arena": (0x0000_1A00_0000_0000, 0x0000_2000_0000_0000),
}


@cache
def helper_image() -> ProgramImage:
    """The lower-half helper: tiny app + CUDA libraries + its own libc
    (frozen, so built once and shared by every process)."""
    return ProgramImage(
        name="crac-helper",
        segments=(
            Segment("crac-helper.text", 24 * 1024, "r-x"),
            Segment("crac-helper.data", 24 * 1024, "rw-"),
        ),
        libraries=(
            ProgramImage.simple("libcuda.so", 4096, 1024),
            ProgramImage.simple("libcudart.so", 1024, 256),
            ProgramImage.simple("libcublas.so", 8192, 512),
            ProgramImage.simple("libc-lower.so", 2048, 512),
            ProgramImage.simple("ld-lower.so", 256, 64),
        ),
    )


@cache
def default_app_image(name: str = "app") -> ProgramImage:
    """A typical upper-half CUDA application image (frozen, built once
    per name)."""
    return ProgramImage(
        name=name,
        segments=(
            Segment(f"{name}.text", 512 * 1024, "r-x"),
            Segment(f"{name}.data", 512 * 1024, "rw-"),
            Segment("[heap]", 4 << 20, "rw-"),
            Segment("[stack]", 8 << 20, "rw-"),
        ),
        libraries=(
            ProgramImage.simple("libcuda-dummy.so", 256, 64),
            ProgramImage.simple("libc.so", 2048, 512),
            ProgramImage.simple("ld.so", 256, 64),
        ),
    )


def _lower_mem_source(loader: ProgramLoader) -> Callable[[int, str], int]:
    """The runtime's memory source: interposed lower-half mmaps, each
    arena family inside its own :data:`ARENA_WINDOWS` sub-window.

    It closes over the loader, never the :class:`SplitProcess`, so the
    runtime holds no back-reference to its process object: a killed or
    replaced process is freed by reference counting alone.
    """

    def lower_mmap(size: int, tag: str) -> int:
        window = ARENA_WINDOWS.get(tag)
        if window is None:
            # Per-device arena tags ("cuda-device-arena-dev2") share the
            # family window.
            for prefix, win in ARENA_WINDOWS.items():
                if tag.startswith(prefix):
                    window = win
                    break
        return loader.mmap_for_half("lower", size, tag_leaf=tag, window=window)

    return lower_mmap


@dataclass
class EntryPointTable:
    """The array of lower-half libcuda entry addresses (Figure 1).

    Lives at a fixed location in the lower-half helper's data segment;
    the upper-half trampoline reads it to find where to jump.
    """

    table_addr: int
    entries: dict[str, int] = field(default_factory=dict)

    def resolve(self, api_name: str) -> int:
        """Address of one CUDA entry point in the lower half."""
        return self.entries[api_name]


class SplitProcess:
    """One process holding both halves plus the CUDA runtime instance."""

    def __init__(
        self,
        *,
        gpu: str | GpuSpec = "V100",
        fsgsbase: bool = False,
        seed: int = 0,
        device: GpuDevice | None = None,
        n_gpus: int = 1,
        load_upper: bool = True,
    ) -> None:
        spec = GPU_SPECS[gpu] if isinstance(gpu, str) else gpu
        self.process = SimProcess(aslr=True, fsgsbase=fsgsbase, seed=seed)
        # CRAC disables address-space randomization so that replayed
        # allocations land at their original addresses (§3.2.4).
        self.process.personality(ADDR_NO_RANDOMIZE)
        self.loader = ProgramLoader(self.process)

        # 1. The helper loads first (it must own the low window before
        #    the application can accidentally take it).
        self.lower: LoadedProgram = self.loader.load(helper_image(), "lower")

        # 2. The helper copies the CUDA entry points into the table.
        table_addr = self.lower.regions[-1][0]  # helper.data
        libcuda_base = self.lower.regions[0][0]
        self.entry_table = EntryPointTable(
            table_addr=table_addr,
            entries={
                name: libcuda_base + 0x100 * (i + 1)
                for i, name in enumerate(ENTRY_POINTS)
            },
        )
        self.process.vas.write(
            table_addr,
            struct.pack(
                f"<{len(ENTRY_POINTS)}Q", *self.entry_table.entries.values()
            ),
        )

        # 3. The CUDA library initializes inside the lower half: all of
        #    its future memory comes from interposed lower-half mmaps.
        #    Each allocation family gets its own VA sub-window (CUDA's
        #    UVA address carving), which is what makes replaying one
        #    family independent of the others' interleaving.
        if device is not None:
            self.devices = [device]
        else:
            self.devices = [GpuDevice(spec) for _ in range(n_gpus)]
        self.device = self.devices[0]
        self.runtime = CudaRuntime(
            self.process,
            self.devices,
            mem_source=_lower_mem_source(self.loader),
        )

        # 4. The application loads into the upper half (under DMTCP). At
        #    restart the upper half comes from the checkpoint image
        #    instead (load_upper=False); the restorer re-registers the
        #    restored ranges with the loader.
        self.upper: LoadedProgram | None = None
        if load_upper:
            self.upper = self.loader.load(default_app_image(), "upper")

    # -- queries ---------------------------------------------------------------

    def lower_ranges(self) -> list[tuple[int, int]]:
        """All lower-half (start, size) ranges — the checkpoint veto set."""
        return self.loader.ranges("lower")

    def upper_mmap(self, size: int, tag: str = "app-data") -> int:
        """An upper-half runtime allocation (application heap growth)."""
        return self.loader.mmap_for_half("upper", size, tag_leaf=tag)
