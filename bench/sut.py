"""The system under test: every ``repro`` entry point the benchmark uses.

This is the only benchmark module that imports ``repro``. The other
modules reach the simulator through the names below, so this file is
the complete list of the surface that must keep working for the
benchmark to run: the calls in the first block, and the methods in
:data:`LAYERS` that a traced run wraps to attribute host time per layer.

The benchmark imports nothing from ``repro.cli`` and, from
``repro.harness``, only :class:`FaultSpec` (``bench/tests`` enforces
both), so the harnesses and the CLI can be rewritten freely.
"""

from __future__ import annotations

import inspect

from repro.apps import (
    CublasMicro,
    Hpgmg,
    Hypre,
    Lulesh,
    SimpleStreams,
    UnifiedMemoryStreams,
)
from repro.apps.base import AppContext, CudaApp
from repro.apps.rodinia import RODINIA_SUITE
from repro.cluster import migration as cluster_migration
from repro.cluster.interconnect import Interconnect
from repro.core.halves import SplitProcess
from repro.core.session import CracSession
from repro.core.trampoline import CracBackend
from repro.cuda.api import CudaRuntime, FatBinary
from repro.cuda.interface import CudaDispatchBase, NativeBackend
from repro.dmtcp.checkpointer import DmtcpCheckpointer
from repro.dmtcp.coordinator import DmtcpCoordinator
from repro.dmtcp.forked import ForkedCheckpoint
from repro.dmtcp.store import CheckpointStore
from repro.errors import AdmissionRejectedError, ServeDeadlineExceededError
from repro.gpu.device import GpuDevice
from repro.gpu.memory import ArenaAllocator
from repro.gpu.uvm import UvmManager
from repro.harness.fault_injection import FaultSpec
from repro.linux.address_space import VirtualAddressSpace
from repro.serve import AdmissionController, LruHotSet, ServeScheduler, SessionPool
from repro.spec import SpeculativeCheckpoint
from repro.trace import Tracer, write_chrome_trace

#: The 20 applications of the paper's evaluation, in its figure order.
APPS: tuple[type[CudaApp], ...] = tuple(RODINIA_SUITE) + (
    SimpleStreams,
    UnifiedMemoryStreams,
    Lulesh,
    Hpgmg,
    Hypre,
    CublasMicro,
)


def _public(cls: type, *, upto: type | None = None) -> tuple[str, ...]:
    """Public methods defined on ``cls``, plus those it inherits from the
    classes of its MRO up to and including ``upto``."""
    mro = cls.__mro__
    owners = mro[: mro.index(upto) + 1] if upto is not None else (cls,)
    return tuple(sorted({
        name
        for owner in owners
        for name, value in vars(owner).items()
        if not name.startswith("_") and inspect.isfunction(value)
    }))


#: Host-clock layers of a traced run: layer name → the (owner, attribute)
#: pairs whose calls count as entering that layer. An owner is a class
#: (the method is wrapped on it, and so on every instance and subclass
#: that does not override it) or a module (a module-level function).
LAYERS: dict[str, tuple[tuple[object, str], ...]] = {
    "core.trampoline": tuple(
        (CracBackend, n) for n in _public(CracBackend, upto=CudaDispatchBase)
    ),
    "cuda": tuple((CudaRuntime, n) for n in _public(CudaRuntime)),
    "gpu": tuple((GpuDevice, n) for n in _public(GpuDevice))
    + tuple((ArenaAllocator, n) for n in ("alloc", "free", "reserve"))
    + tuple((UvmManager, n) for n in _public(UvmManager)),
    "linux": tuple(
        (VirtualAddressSpace, n)
        for n in ("mmap", "munmap", "mprotect", "read", "write")
    ),
    "dmtcp.ckpt": (
        (DmtcpCoordinator, "checkpoint"),
        (DmtcpCheckpointer, "checkpoint"),
        (ForkedCheckpoint, "finish"),
    ),
    "dmtcp.restore": ((DmtcpCheckpointer, "restore_memory"),),
    "dmtcp.store": tuple((CheckpointStore, n) for n in _public(CheckpointStore)),
    "spec": ((SpeculativeCheckpoint, "finish"),),
    "core.session.restart": (
        (CracSession, "restart"),
        (CracSession, "restart_latest"),
    ),
    "cluster": ((Interconnect, "send"), (cluster_migration, "ship_chain")),
    "serve": tuple((ServeScheduler, n) for n in _public(ServeScheduler))
    + tuple((SessionPool, n) for n in _public(SessionPool))
    + tuple((AdmissionController, n) for n in _public(AdmissionController))
    + tuple((LruHotSet, n) for n in _public(LruHotSet)),
    "apps": tuple(
        (cls, "run") for cls in (CudaApp,) + APPS if "run" in vars(cls)
    ),
}

__all__ = [
    "APPS",
    "AdmissionController",
    "AdmissionRejectedError",
    "AppContext",
    "CheckpointStore",
    "CracSession",
    "FatBinary",
    "FaultSpec",
    "ForkedCheckpoint",
    "LAYERS",
    "NativeBackend",
    "ServeDeadlineExceededError",
    "ServeScheduler",
    "SessionPool",
    "SplitProcess",
    "Tracer",
    "write_chrome_trace",
]
