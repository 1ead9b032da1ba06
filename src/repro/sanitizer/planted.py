"""Planted-hazard scenarios: the sanitizer's own ground truth.

Each scenario builds a fresh simulated machine, attaches a
:class:`~repro.sanitizer.core.Sanitizer`, performs a short CUDA call
sequence with one *deliberate* bug (or, for negative controls, a
correctly synchronized equivalent), and declares which
``(checker, kind)`` hazards must be found. The tier-1 tests demand 100%
detection on positives and zero findings on negatives — together with
the clean-app sweep this pins both sides of the detector's ROC point.

Scenarios are pure functions of their inputs (seeded machine, fixed
sizes), so a detection regression is always a code change, never noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import CudaError
from repro.sanitizer.core import Sanitizer

#: virtual duration long enough to still be in flight after the
#: checkpointer's quiesce window (ckpt_quiesce_ns = 90 ms)
LONG_KERNEL_NS = 20_000_000_000


def _machine(seed: int = 11):
    """A raw machine (process + GPU + runtime) with a sanitizer attached.

    Mirrors the test suite's ``build_machine`` but lives in the package
    so the CLI gate can run without the test tree.
    """
    from repro.cuda.api import CudaRuntime, FatBinary
    from repro.gpu.device import GpuDevice
    from repro.gpu.timing import GPU_SPECS
    from repro.linux.loader import ProgramImage, ProgramLoader
    from repro.linux.process import ADDR_NO_RANDOMIZE, SimProcess

    proc = SimProcess(seed=seed)
    proc.personality(ADDR_NO_RANDOMIZE)
    loader = ProgramLoader(proc)
    loader.load(
        ProgramImage(
            name="helper",
            segments=ProgramImage.simple("helper", 16, 16).segments,
            libraries=(ProgramImage.simple("libcuda.so", 2048, 512),),
        ),
        "lower",
    )
    runtime = CudaRuntime(
        proc,
        GpuDevice(GPU_SPECS["V100"]),
        mem_source=lambda size, tag: loader.mmap_for_half(
            "lower", size, tag_leaf=tag
        ),
    )
    handle = runtime.cudaRegisterFatBinary(
        FatBinary(name="planted.fatbin", kernels=("k", "k2"))
    )
    runtime.cudaRegisterFunction(handle, "k")
    runtime.cudaRegisterFunction(handle, "k2")
    san = Sanitizer()
    san.attach(runtime)
    return runtime, san


@dataclass(frozen=True)
class PlantedScenario:
    """One seeded scenario and the hazards it must (not) produce."""

    name: str
    #: ``(checker, kind)`` pairs that must each appear at least once
    expect: tuple[tuple[str, str], ...]
    #: drives the scenario; returns the sanitizer to inspect
    run: Callable[[], Sanitizer]
    #: negative control: ``expect`` is empty and *no* hazard may appear
    negative: bool = False


# -- racecheck -----------------------------------------------------------


def _race_ww_copies() -> Sanitizer:
    """Two streams async-memcpy into the same device range, no edge."""
    rt, san = _machine()
    s1, s2 = rt.cudaStreamCreate(), rt.cudaStreamCreate()
    dst = rt.cudaMalloc(4096)
    data = np.zeros(4096, dtype=np.uint8)
    rt.cudaMemcpy(dst, data, 4096, kind="h2d", stream=s1, async_=True)
    rt.cudaMemcpy(dst, data, 4096, kind="h2d", stream=s2, async_=True)
    rt.cudaDeviceSynchronize()
    return san


def _race_rw_copy_pair() -> Sanitizer:
    """One stream writes a range another is still reading."""
    rt, san = _machine()
    s1, s2 = rt.cudaStreamCreate(), rt.cudaStreamCreate()
    buf = rt.cudaMalloc(4096)
    data = np.zeros(4096, dtype=np.uint8)
    rt.cudaMemcpy(buf, data, 4096, kind="h2d")  # sync: initializes
    out = np.zeros(4096, dtype=np.uint8)
    rt.cudaMemcpy(out, buf, 4096, kind="d2h", stream=s1, async_=True)
    rt.cudaMemcpy(buf, data, 4096, kind="h2d", stream=s2, async_=True)
    rt.cudaDeviceSynchronize()
    return san


def _race_uvm_same_page() -> Sanitizer:
    """Two kernels write disjoint *bytes* of one UVM page — the CRUM
    shadow-page failure (§1 contribution 2): racy at page granularity."""
    from repro.cuda.api import ManagedUse

    rt, san = _machine()
    s1, s2 = rt.cudaStreamCreate(), rt.cudaStreamCreate()
    m = rt.cudaMallocManaged(65536)
    rt.cudaLaunchKernel(
        "k", stream=s1, duration_ns=1_000_000,
        managed=[ManagedUse(m, 0, 128, mode="w")],
    )
    rt.cudaLaunchKernel(
        "k2", stream=s2, duration_ns=1_000_000,
        managed=[ManagedUse(m, 4096, 128, mode="w")],
    )
    rt.cudaDeviceSynchronize()
    return san


def _race_negative_event_edge() -> Sanitizer:
    """Same access pattern as the W/W race, ordered by an event edge."""
    rt, san = _machine()
    s1, s2 = rt.cudaStreamCreate(), rt.cudaStreamCreate()
    dst = rt.cudaMalloc(4096)
    data = np.zeros(4096, dtype=np.uint8)
    rt.cudaMemcpy(dst, data, 4096, kind="h2d", stream=s1, async_=True)
    e = rt.cudaEventCreate()
    rt.cudaEventRecord(e, s1)
    rt.cudaStreamWaitEvent(s2, e)
    rt.cudaMemcpy(dst, data, 4096, kind="h2d", stream=s2, async_=True)
    rt.cudaDeviceSynchronize()
    return san


def _race_negative_default_stream() -> Sanitizer:
    """Cross-stream reuse serialized by a legacy default-stream barrier."""
    rt, san = _machine()
    s1, s2 = rt.cudaStreamCreate(), rt.cudaStreamCreate()
    dst = rt.cudaMalloc(4096)
    data = np.zeros(4096, dtype=np.uint8)
    rt.cudaMemcpy(dst, data, 4096, kind="h2d", stream=s1, async_=True)
    # A default-stream op joins every stream and republishes the barrier.
    rt.cudaMemcpy(dst, data, 4096, kind="h2d")
    rt.cudaMemcpy(dst, data, 4096, kind="h2d", stream=s2, async_=True)
    rt.cudaDeviceSynchronize()
    return san


# -- synccheck -----------------------------------------------------------


def _sync_cut_inflight_kernel() -> Sanitizer:
    """Checkpoint cut while a long kernel is still executing."""
    rt, san = _machine()
    s = rt.cudaStreamCreate()
    rt.cudaLaunchKernel("k", stream=s, duration_ns=LONG_KERNEL_NS)
    san.on_checkpoint_cut(rt)
    rt.cudaDeviceSynchronize()
    return san


def _sync_cut_inflight_copy() -> Sanitizer:
    """Checkpoint cut while a multi-GB async copy is on the wire."""
    rt, san = _machine()
    s = rt.cudaStreamCreate()
    nbytes = 3 << 30  # ~0.25 s at PCIe rate: far beyond the 90 ms quiesce
    dst = rt.cudaMalloc(nbytes)
    rt.cudaMemcpy(dst, rt.process.vas.mmap(nbytes, tag="planted-src"),
                  nbytes, kind="h2d", stream=s, async_=True)
    san.on_checkpoint_cut(rt)
    rt.cudaDeviceSynchronize()
    return san


def _sync_early_commit() -> Sanitizer:
    """mark_committed on a watched image with device work in flight."""
    from repro.dmtcp.image import CheckpointImage

    rt, san = _machine()
    s = rt.cudaStreamCreate()
    image = CheckpointImage(pid=1, created_at_ns=rt.process.clock_ns)
    san.watch_image(image)
    rt.cudaLaunchKernel("k", stream=s, duration_ns=LONG_KERNEL_NS)
    image.mark_committed()
    rt.cudaDeviceSynchronize()
    return san


def _sync_negative_drained_cut() -> Sanitizer:
    """Cut after a device synchronize: nothing in flight, no hazard."""
    rt, san = _machine()
    s = rt.cudaStreamCreate()
    rt.cudaLaunchKernel("k", stream=s, duration_ns=LONG_KERNEL_NS)
    rt.cudaDeviceSynchronize()
    san.on_checkpoint_cut(rt)
    return san


# -- memcheck ------------------------------------------------------------


def _mem_use_after_free() -> Sanitizer:
    """memcpy into a pointer freed one call earlier."""
    rt, san = _machine()
    p = rt.cudaMalloc(1024)
    rt.cudaFree(p)
    try:
        rt.cudaMemcpy(p, np.zeros(1024, dtype=np.uint8), 1024, kind="h2d")
    except CudaError:
        pass  # the runtime still rejects the call; the hazard is logged
    return san


def _mem_oob_memset() -> Sanitizer:
    """memset past the end of the allocation (runtime silently clamps)."""
    rt, san = _machine()
    p = rt.cudaMalloc(1024)
    rt.cudaMemset(p, 0, 1024 + 512)
    rt.cudaFree(p)
    return san


def _mem_double_free() -> Sanitizer:
    """cudaFree of an already-freed pointer."""
    rt, san = _machine()
    p = rt.cudaMalloc(1024)
    rt.cudaFree(p)
    try:
        rt.cudaFree(p)
    except CudaError:
        pass
    return san


def _mem_leak_at_teardown() -> Sanitizer:
    """Allocation never freed before the app finishes."""
    rt, san = _machine()
    rt.cudaMalloc(2048)
    san.finish(rt)
    return san


def _mem_negative_clean_lifecycle() -> Sanitizer:
    """Alloc → write → read → free: nothing to report (also the
    initcheck negative: every read is of written bytes)."""
    rt, san = _machine()
    p = rt.cudaMalloc(1024)
    rt.cudaMemset(p, 0, 1024)
    out = np.zeros(1024, dtype=np.uint8)
    rt.cudaMemcpy(out, p, 1024, kind="d2h")
    rt.cudaFree(p)
    san.finish(rt)
    return san


# -- initcheck -----------------------------------------------------------


def _init_d2h_unwritten() -> Sanitizer:
    """Read back a buffer no one ever wrote."""
    rt, san = _machine()
    p = rt.cudaMalloc(1024)
    out = np.zeros(1024, dtype=np.uint8)
    rt.cudaMemcpy(out, p, 1024, kind="d2h")
    rt.cudaFree(p)
    return san


def _init_d2d_unwritten_src() -> Sanitizer:
    """Device-to-device copy whose source was never initialized."""
    rt, san = _machine()
    a = rt.cudaMalloc(1024)
    b = rt.cudaMalloc(1024)
    rt.cudaMemcpy(b, a, 1024, kind="d2d")
    rt.cudaFree(a)
    rt.cudaFree(b)
    return san


def _init_partial_write_hole() -> Sanitizer:
    """Write the first 64 bytes, read back all 256: 192-byte hole."""
    rt, san = _machine()
    p = rt.cudaMalloc(256)
    rt.cudaMemcpy(p, np.zeros(64, dtype=np.uint8), 64, kind="h2d")
    out = np.zeros(256, dtype=np.uint8)
    rt.cudaMemcpy(out, p, 256, kind="d2h")
    rt.cudaFree(p)
    return san


SCENARIOS: tuple[PlantedScenario, ...] = (
    PlantedScenario(
        "race-ww-copies", (("racecheck", "write-write"),), _race_ww_copies
    ),
    PlantedScenario(
        "race-rw-copy-pair", (("racecheck", "read-write"),),
        _race_rw_copy_pair,
    ),
    PlantedScenario(
        "race-uvm-same-page", (("racecheck", "write-write"),),
        _race_uvm_same_page,
    ),
    PlantedScenario(
        "race-negative-event-edge", (), _race_negative_event_edge,
        negative=True,
    ),
    PlantedScenario(
        "race-negative-default-stream", (), _race_negative_default_stream,
        negative=True,
    ),
    PlantedScenario(
        "sync-cut-inflight-kernel", (("synccheck", "unsynced-cut"),),
        _sync_cut_inflight_kernel,
    ),
    PlantedScenario(
        "sync-cut-inflight-copy", (("synccheck", "unsynced-cut"),),
        _sync_cut_inflight_copy,
    ),
    PlantedScenario(
        "sync-early-commit", (("synccheck", "early-commit"),),
        _sync_early_commit,
    ),
    PlantedScenario(
        "sync-negative-drained-cut", (), _sync_negative_drained_cut,
        negative=True,
    ),
    PlantedScenario(
        "mem-use-after-free", (("memcheck", "use-after-free"),),
        _mem_use_after_free,
    ),
    PlantedScenario(
        "mem-oob-memset", (("memcheck", "out-of-bounds"),), _mem_oob_memset
    ),
    PlantedScenario(
        "mem-double-free", (("memcheck", "double-free"),), _mem_double_free
    ),
    PlantedScenario(
        "mem-leak-at-teardown", (("memcheck", "leak"),),
        _mem_leak_at_teardown,
    ),
    PlantedScenario(
        "mem-negative-clean-lifecycle", (), _mem_negative_clean_lifecycle,
        negative=True,
    ),
    PlantedScenario(
        "init-d2h-unwritten", (("initcheck", "uninitialized-read"),),
        _init_d2h_unwritten,
    ),
    PlantedScenario(
        "init-d2d-unwritten-src", (("initcheck", "uninitialized-read"),),
        _init_d2d_unwritten_src,
    ),
    PlantedScenario(
        "init-partial-write-hole", (("initcheck", "uninitialized-read"),),
        _init_partial_write_hole,
    ),
)


def run_scenario(sc: PlantedScenario) -> dict:
    """Run one scenario; returns its result row."""
    san = sc.run()
    found = {(h.checker, h.kind) for h in san.hazards}
    if sc.negative:
        detected = not san.hazards
        missing: list = []
    else:
        missing = [pair for pair in sc.expect if pair not in found]
        detected = not missing
    return {
        "name": sc.name,
        "negative": sc.negative,
        "detected": detected,
        "expected": [list(p) for p in sc.expect],
        "found": sorted([list(p) for p in found]),
        "missing": [list(p) for p in missing],
        "hazards": len(san.hazards),
    }
