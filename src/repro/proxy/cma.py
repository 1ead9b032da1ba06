"""Cross-Memory-Attach (CMA) IPC channel cost model.

CMA (``process_vm_readv`` / ``process_vm_writev``) is the fastest
single-copy IPC Linux offers, and is what the paper's §4.4.4 benchmark
uses to give proxy-based designs their best case. The effective
bandwidth degrades with transfer size as the copies fall out of cache —
the paper's Table 3 implies ≈11 GB/s at 1 MB, ≈8 GB/s at 10 MB and
≈4 GB/s at 100 MB — so the model interpolates a bandwidth curve in
log-size space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.gpu.timing import transfer_ns

#: (transfer size in bytes, effective bandwidth in bytes/s) anchors,
#: calibrated against Table 3 (see module docstring).
BANDWIDTH_CURVE: tuple[tuple[float, float], ...] = (
    (64 * 1024, 13.0e9),
    (1 << 20, 11.0e9),
    (10 << 20, 8.0e9),
    (100 << 20, 4.0e9),
)


def cma_bandwidth(nbytes: int) -> float:
    """Effective CMA bandwidth for one transfer of ``nbytes``."""
    if nbytes <= BANDWIDTH_CURVE[0][0]:
        return BANDWIDTH_CURVE[0][1]
    if nbytes >= BANDWIDTH_CURVE[-1][0]:
        return BANDWIDTH_CURVE[-1][1]
    for (s0, b0), (s1, b1) in zip(BANDWIDTH_CURVE, BANDWIDTH_CURVE[1:]):
        if s0 <= nbytes <= s1:
            t = (math.log(nbytes) - math.log(s0)) / (math.log(s1) - math.log(s0))
            return b0 + t * (b1 - b0)
    raise AssertionError("unreachable")


@dataclass
class CmaChannel:
    """One app⇄proxy CMA channel with accounting."""

    #: Fixed request/response round-trip cost (syscall pair + proxy
    #: dispatch loop), ns per RPC.
    rpc_ns: int = 6_000
    #: Per-transfer fixed cost (iovec setup + syscall), ns.
    transfer_setup_ns: int = 1_200
    total_rpcs: int = field(default=0, init=False)
    total_bytes: int = field(default=0, init=False)

    def rpc_cost_ns(self, payload_bytes: int = 0) -> int:
        """Cost of one RPC carrying ``payload_bytes`` of marshalled args."""
        self.total_rpcs += 1
        return self.rpc_ns + self.transfer_cost_ns(payload_bytes)

    def transfer_cost_ns(self, nbytes: int) -> int:
        """Cost of moving ``nbytes`` through CMA (one direction)."""
        if nbytes <= 0:
            return 0
        self.total_bytes += nbytes
        return self.transfer_setup_ns + transfer_ns(nbytes, cma_bandwidth(nbytes))
