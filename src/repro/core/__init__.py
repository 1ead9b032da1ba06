"""CRAC — the paper's contribution.

The pieces map one-to-one onto the paper's §3:

- :mod:`~repro.core.halves`     — split-process construction (Figure 1):
  helper + CUDA library loaded into the lower half of one address space,
  the application into the upper half, with an exported entry-point table.
- :mod:`~repro.core.trampoline` — :class:`CracBackend`: the upper→lower
  call path (two fs-register switches + table indirection per call) and
  interposition on the cudaMalloc family / fat-binary registration.
- :mod:`~repro.core.replay_log` — the ordered allocation log and the
  replay engine with address-determinism verification (§3.2.3/§3.2.4).
- :mod:`~repro.core.plugin`     — :class:`CracPlugin`: the DMTCP plugin
  that drains the GPU, stages active allocations, and vetoes the lower
  half from the memory dump; at restart it reads its ``crac/*`` blobs
  back (log replay, buffer refill, handle adoption).
- :mod:`~repro.core.session`    — :class:`CracSession`: end-to-end
  orchestration of launch / checkpoint / kill / restart.
- :mod:`~repro.core.fault_domain` — ``FaultDomain``: the runtime
  escalation ladder (retry, stream reset, restore, node failover)
  guarding runtime calls.
"""

from repro.core.halves import SplitProcess
from repro.core.plugin import CracPlugin
from repro.core.replay_log import LogEntry, ReplayLog
from repro.core.session import CracSession
from repro.core.trampoline import CracBackend

__all__ = [
    "SplitProcess",
    "CracBackend",
    "ReplayLog",
    "LogEntry",
    "CracPlugin",
    "CracSession",
]
