"""The CUDA runtime library stand-in ("libcuda" of Figure 1).

:class:`~repro.cuda.api.CudaRuntime` is the closed-source CUDA library of
the paper: it owns the deterministic allocation arenas, the stream/event
registries, the fat-binary registration table, UVM state, and *opaque
internal state entangled with the driver* — the thing that made
destroy-and-restore checkpointing impossible after CUDA 4.0 (§2.2).

Apps never call the runtime directly; they go through a *dispatch
backend* (:mod:`repro.cuda.interface`) which models where the runtime
lives relative to the application:

- native: same library, ordinary call (baseline timing);
- CRAC: upper→lower trampoline (:mod:`repro.core.trampoline`);
- proxy: cross-process marshalling (:mod:`repro.proxy`).
"""

from repro.cuda.api import CudaRuntime, FatBinary
from repro.cuda.cublas import CuBlas
from repro.cuda.errors import CudaErrorCode
from repro.cuda.interface import CudaDispatchBase, NativeBackend

__all__ = [
    "CudaRuntime",
    "FatBinary",
    "CudaErrorCode",
    "CudaDispatchBase",
    "NativeBackend",
    "CuBlas",
]
