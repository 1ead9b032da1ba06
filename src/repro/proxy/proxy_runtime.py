"""The naive proxy dispatcher: every CUDA call is an RPC (§2.3, §4.4.4).

Architecture of CRCUDA/CRUM: the application process holds no CUDA
state; a separate *proxy process* links the real CUDA library. Every
CUDA call marshals its arguments, crosses the process boundary, and —
for calls that reference data buffers the proxy does not already hold —
copies those buffers through CMA (inputs before the call, outputs after).

This is the cost structure the paper's Table 3 quantifies: 142%–17,812%
overhead on cuBLAS loops, versus CRAC's ~1%, because CRAC's single
address space passes pointers directly.

Checkpointing under this architecture is easy (the app process contains
no CUDA library — just checkpoint it and restart a fresh proxy), which
is precisely why CRCUDA/CRUM accepted the runtime cost. The simulation
keeps both processes' work on one virtual clock, since the RPCs are
synchronous.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.cuda.api import CudaRuntime, ManagedUse
from repro.cuda.interface import CudaDispatchBase
from repro.gpu.timing import DEFAULT_HOST_COSTS, HostCosts
from repro.proxy.cma import CmaChannel


class NaiveProxyBackend(CudaDispatchBase):
    """Proxy dispatch with per-call CMA buffer shipping."""

    mode = "proxy-cma"

    def __init__(
        self,
        runtime: CudaRuntime,
        host_costs: HostCosts = DEFAULT_HOST_COSTS,
        channel: CmaChannel | None = None,
    ) -> None:
        super().__init__(runtime, host_costs)
        self.channel = channel if channel is not None else CmaChannel()

    def _buffer_size(self, addr: int) -> int:
        return self.runtime.allocations.get(addr, 0)

    def _charge_call(
        self,
        name: str,
        *,
        payload_bytes: int = 0,
        ship_in: Sequence[int] = (),
        ship_out: Sequence[int] = (),
    ) -> None:
        cost = self.costs.native_dispatch_ns  # the proxy still calls CUDA
        cost += self.channel.rpc_cost_ns(payload_bytes)
        for addr in ship_in:
            cost += self.channel.transfer_cost_ns(self._buffer_size(addr))
        for addr in ship_out:
            cost += self.channel.transfer_cost_ns(self._buffer_size(addr))
        self.process.advance(cost)

    def _launch_ship_buffers(self, managed: Iterable[ManagedUse]) -> Sequence[int]:
        # The naive proxy has no UVM pages on the app side; any managed
        # buffer a kernel touches must cross the boundary wholesale.
        return tuple(use.addr for use in managed)
