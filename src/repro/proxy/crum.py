"""CRUM baseline: proxy + shadow-page UVM (Garg et al., CLUSTER'18).

CRUM improves on the naive proxy by keeping *shadow pages* of managed
memory in the application process and synchronizing them with the proxy
around kernel launches (mprotect + userfaultfd traps). Its costs and
limitations, per the paper:

- **runtime overhead 6–12%** on real-world apps (§1): a per-call
  marshalling cost (smaller than buffer shipping, but ≈2–3 µs on every
  one of HPGMG's 35,000 calls/second) plus shadow-page synchronization
  around every kernel launch that touches managed memory;
- **read-modify-write restriction** (§2.3/§III-B of CRUM): supported
  applications must follow *CUDA-call → read UVM → modify → write UVM →
  next CUDA-call*. Host access to managed memory while a kernel is still
  in flight desynchronizes the shadow copy — detected and rejected here;
- **two concurrent streams writing the same managed page** breaks the
  shadow strategy outright (§1, contribution 2) — detected and rejected.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import UnsupportedFeatureError
from repro.core.replay_log import ReplayLog
from repro.cuda.api import CudaRuntime, ManagedUse
from repro.cuda.interface import CudaDispatchBase
from repro.gpu.streams import Stream
from repro.gpu.timing import DEFAULT_HOST_COSTS, HostCosts, transfer_ns
from repro.gpu.uvm import UVM_PAGE, ManagedBuffer
from repro.proxy.cma import CmaChannel


class CrumBackend(CudaDispatchBase):
    """CRUM's proxy dispatch with shadow-page UVM synchronization."""

    mode = "crum"

    #: Marshalling cost per call beyond the CMA RPC itself (argument
    #: packing/unpacking in both processes), ns.
    marshal_ns = 1_400
    #: Cost per shadow page synchronized (mprotect + userfaultfd trap +
    #: bookkeeping), ns. "This interacted particularly badly with NVIDIA
    #: UVM" (§5, Case II).
    shadow_page_ns = 9_000

    def __init__(
        self,
        runtime: CudaRuntime,
        host_costs: HostCosts = DEFAULT_HOST_COSTS,
        channel: CmaChannel | None = None,
    ) -> None:
        super().__init__(runtime, host_costs)
        self.channel = channel if channel is not None else CmaChannel()
        self.shadow_pages_synced = 0
        #: resource-creation log for restart-time replay into a fresh
        #: proxy (CRUM's log-and-replay, inherited from CheCUDA's design)
        self.resource_log = ReplayLog()

    # -- resource logging (for CrumCheckpointer): the family's hooks ----------

    def _log(self, op, nbytes, addr, device):
        self.resource_log.record(op, nbytes, addr)
        return addr

    def _log_run(self, op, nbytes, addrs, device):
        super()._log_run(op, nbytes, addrs, device)  # one RPC per call
        record = self.resource_log.record
        for addr in addrs:
            record(op, nbytes, addr)
        return addrs

    def _log_churn(self, nbytes, addrs, device):
        record = self.resource_log.record
        for addr in addrs:
            record("malloc", nbytes, addr)
            record("free", 0, addr)
        return addrs

    # -- dispatch cost ----------------------------------------------------------

    def _charge_call(
        self,
        name: str,
        *,
        payload_bytes: int = 0,
        ship_in: Sequence[int] = (),
        ship_out: Sequence[int] = (),
    ) -> None:
        # CRUM ships only the marshalled arguments per call — device
        # buffers stay resident in the proxy (unlike the naive design) —
        # so ship_in/ship_out do not transfer wholesale.
        cost = (
            self.costs.native_dispatch_ns
            + self.marshal_ns
            + self.channel.rpc_cost_ns(min(payload_bytes, 4096))
        )
        self.process.advance(cost)

    # -- shadow-page UVM --------------------------------------------------------------

    def launch(self, name, fn=None, *, managed: Iterable[ManagedUse] = (), **kw):
        """Kernel launch with shadow-page synchronization around it."""
        managed = list(managed)
        self._check_stream_conflicts(managed, kw.get("stream"))
        sync_cost = self._shadow_sync_cost(managed)
        self.process.advance(sync_cost)  # pre-launch: shadow → proxy
        end = super().launch(name, fn, managed=managed, **kw)
        self.process.advance(sync_cost)  # post-launch: proxy → shadow
        return end

    def _shadow_sync_cost(self, managed: list[ManagedUse]) -> int:
        pages = 0
        nbytes = 0
        for use in managed:
            pages += (use.nbytes + UVM_PAGE - 1) // UVM_PAGE
            nbytes += use.nbytes
        if pages == 0:
            return 0
        self.shadow_pages_synced += pages
        return pages * self.shadow_page_ns + transfer_ns(nbytes, 11.0e9)

    def managed_view(self, addr: int, nbytes: int, dtype=np.uint8, offset: int = 0):
        """Host access to managed memory through the shadow copy.

        Fails if any kernel that writes this buffer is still in flight:
        the read-modify-write-per-launch pattern CRUM requires (§2.3).
        """
        buf = self.runtime.buffer(addr)
        if isinstance(buf, ManagedBuffer):
            now = self.process.clock_ns
            for rec in buf.device_writes:
                if rec.end_ns > now:
                    raise UnsupportedFeatureError(
                        "CRUM shadow pages desynchronized: host accessed "
                        "managed memory while a kernel write was in flight "
                        "(application violates CRUM's read-modify-write-"
                        "per-CUDA-call pattern)"
                    )
        return super().managed_view(addr, nbytes, dtype, offset)

    def _check_stream_conflicts(
        self, managed: list[ManagedUse], stream: Stream | None
    ) -> None:
        """Reject the pattern CRUM cannot synchronize: this launch writes
        a managed page that a kernel on a *different* stream is still
        writing (§1: "CRUM's strategy fails when two concurrent CUDA
        streams write to the same memory page")."""
        sid = stream.sid if stream is not None else 0
        now = self.process.clock_ns
        for use in managed:
            if "w" not in use.mode:
                continue
            buf = self.runtime.buffer(use.addr)
            if not isinstance(buf, ManagedBuffer):
                continue
            lo, hi = buf.page_range(use.offset, use.nbytes)
            for rec in buf.device_writes:
                if (
                    rec.stream_sid != sid
                    and rec.end_ns > now
                    and rec.page_lo <= hi
                    and lo <= rec.page_hi
                ):
                    raise UnsupportedFeatureError(
                        "CRUM shadow pages cannot synchronize two concurrent "
                        f"streams writing managed page range [{lo}, {hi}] "
                        f"(conflicting stream {rec.stream_sid})"
                    )


class CrumCheckpointer:
    """CRUM's checkpoint/restart path (proxy-based; Garg et al. §IV).

    The application process holds no CUDA library, so DMTCP checkpoints
    it without any of CRAC's split-process machinery — that simplicity is
    what CRUM buys with its runtime overhead. The costs move elsewhere:

    - at checkpoint time, every active device/managed byte must be
      *drained through the proxy boundary* (GPU → proxy → CMA → app)
      before it can be saved;
    - at restart, a fresh proxy process is spawned (driver init), the
      resource log is replayed into it, and every byte crosses CMA again
      on the way back to the GPU.

    CRAC's single-address-space drain touches PCIe once; CRUM pays PCIe
    *plus* CMA in both directions. ``benchmarks/test_ablation_logging.py``
    quantifies the difference.
    """

    #: time to fork+exec and initialize a fresh proxy with the CUDA
    #: driver (driver init dominates), ns
    PROXY_SPAWN_NS = 1_200_000_000

    def __init__(self, backend: CrumBackend) -> None:
        self.backend = backend

    def checkpoint(self) -> dict:
        """Drain device state through the proxy and snapshot it."""
        backend = self.backend
        rt = backend.runtime
        proc = rt.process
        t0 = proc.clock_ns
        rt.cudaDeviceSynchronize()
        buffers: dict[int, dict] = {}
        cma_bytes = 0
        for buf in rt.active_allocations():
            buffers[buf.addr] = {
                "kind": buf.kind,
                "size": buf.size,
                "snapshot": buf.contents.snapshot(),
            }
            if buf.kind != "host-pinned":
                # GPU → proxy over PCIe, then proxy → app over CMA.
                proc.advance(transfer_ns(buf.size, rt.device.spec.pcie_bw))
                proc.advance(backend.channel.transfer_cost_ns(buf.size))
                cma_bytes += buf.size
        image = {
            "buffers": buffers,
            "log": self.backend.resource_log,
            "cma_bytes": cma_bytes,
            "checkpoint_ns": proc.clock_ns - t0,
        }
        return image

    def restart(self, image: dict, fresh_runtime: CudaRuntime) -> int:
        """Spawn a fresh proxy, replay resources, refill through CMA.

        Returns the restart cost in ns (charged to the fresh runtime's
        process clock).
        """
        proc = fresh_runtime.process
        t0 = proc.clock_ns
        proc.advance(self.PROXY_SPAWN_NS)
        log: ReplayLog = image["log"]
        log.replay(fresh_runtime)
        for addr, entry in image["buffers"].items():
            buf = fresh_runtime.buffer(addr)
            if buf is None:
                continue
            buf.contents.restore(entry["snapshot"])
            if entry["kind"] != "host-pinned":
                # app → proxy over CMA, then proxy → GPU over PCIe.
                proc.advance(
                    self.backend.channel.transfer_cost_ns(entry["size"])
                )
                proc.advance(
                    transfer_ns(entry["size"], fresh_runtime.device.spec.pcie_bw)
                )
        self.backend.runtime = fresh_runtime
        self.backend.process = proc
        return proc.clock_ns - t0
