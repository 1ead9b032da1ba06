"""Dispatch backends: the app-facing CUDA API surface.

Applications never hold a :class:`~repro.cuda.api.CudaRuntime` directly;
they call a *dispatch backend* modelling where the CUDA library lives:

- :class:`NativeBackend` — ordinary dynamic-linker call into the library
  (the paper's "native" baseline);
- :class:`repro.core.trampoline.CracBackend` — CRAC's upper→lower
  trampoline with fs-register switches and cudaMalloc-family logging;
- :class:`repro.proxy.proxy_runtime.NaiveProxyBackend` /
  :class:`repro.proxy.crum.CrumBackend` — cross-process marshalling.

Each backend charges its own per-call dispatch cost and counts
upper→lower calls. A kernel launch counts as **three** calls
(``cudaPushCallConfiguration`` + ``cudaPopCallConfiguration`` +
``cudaLaunchKernel``) exactly as in the paper's Total-CUDA-calls formula
(§4.3, eq. 2), so :attr:`~CudaDispatchBase.total_calls` just sums the
counter (:func:`repro.harness.metrics.total_calls_formula` recomputes it
the paper's way).

The cudaMalloc family is written once, in the base class: each entry
point dispatches, calls the library and then one hook, which returns the
address the app sees (:meth:`~CudaDispatchBase._log` after one call,
``_log_run`` after a run, ``_log_churn`` after churn pairs). The hooks
are the only place the backends differ. A run of allocation calls has
its own entry points: :meth:`~CudaDispatchBase.malloc_run` makes ``n``
equal ``cudaMalloc`` calls and :meth:`~CudaDispatchBase.free_run` frees
a sequence in order (a ``range`` as ``malloc_run`` returns it stays
one). The runtime makes a run in bulk; they count, charge and fail
exactly as the per-call loop does.
:meth:`~CudaDispatchBase.malloc_free_run` is state only: it makes the
``cudaMalloc`` + ``cudaFree`` pairs of a fast-forwarded loop (allocation
churn, whose count and cost :class:`repro.apps.base.TimedLoop` already
extrapolated), and counts and charges nothing. An entry point taking a
pointer translates it through ``_v2r`` only while that map is not empty
(CRAC's address virtualization).
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.cuda.api import CudaRuntime, FatBinary, ManagedUse
from repro.gpu.streams import Event, Stream
from repro.gpu.timing import DEFAULT_HOST_COSTS, HostCosts

#: Size of the marshalled argument block of one kernel launch (grid/block
#: dims + parameter buffer) — what a proxy must ship per launch.
LAUNCH_ARG_BYTES = 256
#: the entry point a run's calls are counted under, and its payload
_RUN_CALLS = {"malloc": ("cudaMalloc", 16), "free": ("cudaFree", 8)}


class CudaDispatchBase:
    """Shared implementation of the app-facing API.

    Subclasses implement :meth:`_charge_call` (per-call dispatch cost),
    log the cudaMalloc family through :meth:`_log`, :meth:`_log_run` and
    :meth:`_log_churn`, and may hook individual methods (CRAC tracks
    handles; proxies ship buffers). CRAC's trampoline overrides
    :meth:`_dispatch` and :meth:`_dispatch_batch` whole instead, so a
    crossing is one frame.
    """

    mode = "abstract"

    def __init__(
        self, runtime: CudaRuntime, host_costs: HostCosts = DEFAULT_HOST_COSTS
    ) -> None:
        self.runtime = runtime
        self.process = runtime.process
        self.costs = host_costs
        self.call_counter: Counter[str] = Counter()
        #: repro.trace.Tracer receiving API call spans; None = untraced
        self.tracer = None
        #: the host thread currently issuing CUDA calls (None = main).
        #: Multi-threaded CUDA apps — "each thread employs a separate
        #: CUDA stream" (paper §6) — set this via use_thread(); CRAC's
        #: trampoline switches that thread's fs register.
        self.current_thread = None
        #: fault-domain ladder (:class:`repro.core.fault_domain.FaultDomain`)
        #: guarding runtime calls, or None (faults propagate raw).
        self.recovery = None
        #: DMTCP coordinator a checkpoint armed at a call index fires
        #: through (CRAC's session wires one), or None
        self.coordinator = None
        #: app pointer -> the library's address; empty unless CRAC
        #: virtualizes addresses (§3.2.4), so every entry point taking a
        #: pointer translates only ``if self._v2r``
        self._v2r: dict[int, int] = {}

    def _invoke(self, kind: str, thunk, *, sync_scope=None):
        """Run one runtime call through the fault-domain ladder.

        ``kind`` is ``"kernel"``/``"copy"``/``"sync"``; ``sync_scope``
        names what a sync drains (a Stream or ``"device"``) so the
        watchdog can pre-check for hung work before blocking on it.
        With no fault domain attached this is a plain call; the hot
        entry points (launch, memcpy, memset) then skip it and build no
        thunk. A thunk reads ``self.runtime`` when it runs, so a call
        re-issued after the restore rung reaches the fresh library.
        """
        if self.recovery is None:
            return thunk()
        return self.recovery.run(kind, thunk, sync_scope=sync_scope)

    # -- cost hook -------------------------------------------------------------

    def _charge_call(
        self,
        name: str,
        *,
        payload_bytes: int = 0,
        ship_in: Sequence[int] = (),
        ship_out: Sequence[int] = (),
    ) -> None:
        """Charge the dispatch cost of one upper→lower call.

        ``ship_in``/``ship_out`` name device buffers whose *contents* a
        proxy-based dispatcher must move across the process boundary
        (inputs before the call, outputs after). Single-address-space
        dispatchers pass pointers directly and ignore them (§3.1).
        """
        raise NotImplementedError

    def _dispatch(
        self,
        name: str,
        *,
        payload_bytes: int = 0,
        ship_in: Sequence[int] = (),
        ship_out: Sequence[int] = (),
    ) -> None:
        self.call_counter[name] += 1
        t0 = self.process.clock_ns
        self._charge_call(
            name, payload_bytes=payload_bytes, ship_in=ship_in, ship_out=ship_out
        )
        tracer = self.tracer
        if tracer is not None:
            t1 = self.process.clock_ns
            tracer.on_api_call(
                name, t0, t1, trampoline_ns=self._trampoline_ns(t1 - t0), mode=self.mode
            )

    def _dispatch_batch(
        self, calls: Sequence[tuple[str, int, Sequence[int], Sequence[int]]]
    ) -> None:
        """Dispatch several upper→lower calls issued back-to-back.

        ``calls`` is a sequence of ``(name, payload_bytes, ship_in,
        ship_out)`` tuples. Counting and cost are identical to calling
        :meth:`_dispatch` once per entry — batching only lets a backend
        charge the aggregate cost without re-entering its per-call
        bookkeeping (Python overhead, not virtual time). Here the batch
        is counted, then charged by :meth:`_charge_batch`; CRAC's
        trampoline overrides this method to do both in its own frame.
        The traced path falls back to per-call dispatch so every call
        keeps its own span.
        """
        if self.tracer is not None:
            for name, payload, ship_in, ship_out in calls:
                self._dispatch(
                    name, payload_bytes=payload,
                    ship_in=ship_in, ship_out=ship_out,
                )
            return
        counter = self.call_counter
        for name, _, _, _ in calls:
            counter[name] += 1
        self._charge_batch(calls)

    def _charge_batch(
        self, calls: Sequence[tuple[str, int, Sequence[int], Sequence[int]]]
    ) -> None:
        """Charge a batch of calls (untraced :meth:`_dispatch_batch`);
        default loops :meth:`_charge_call` so backends with per-call
        side effects (proxies shipping buffer contents) stay exact
        without opting in. The native backend charges the aggregate;
        CRAC's trampoline never calls this (its batch is one frame)."""
        for name, payload, ship_in, ship_out in calls:
            self._charge_call(
                name, payload_bytes=payload, ship_in=ship_in, ship_out=ship_out
            )

    def _trampoline_ns(self, dispatch_ns: int) -> int:
        """Dispatch cost beyond a bare library call, for trace attribution
        (overridden by CRAC's trampoline backend)."""
        return 0

    @contextmanager
    def use_thread(self, thread):
        """Issue the enclosed CUDA calls from ``thread`` (a SimThread)."""
        prev = self.current_thread
        self.current_thread = thread
        try:
            yield
        finally:
            self.current_thread = prev

    @property
    def total_calls(self) -> int:
        """Total upper→lower CUDA calls (launches already count ×3)."""
        return sum(self.call_counter.values())

    def note_external_calls(self, calls: Counter, repeats: int = 1) -> None:
        """Account calls whose cost was already measured (fast-forwarded
        steady-state iterations; see apps.base.TimedLoop)."""
        for name, n in calls.items():
            self.call_counter[name] += n * repeats

    # -- memory ----------------------------------------------------------------

    def _log(self, op: str, nbytes: int, addr: int, device: int) -> int:
        """Hook after one cudaMalloc-family call; returns the app's
        address. Here it logs nothing."""
        return addr

    def _log_run(self, op: str, nbytes: int, addrs: Sequence[int], device: int):
        """Hook after the runtime made ``len(addrs)`` ``op`` calls in
        bulk; returns the app's addresses. It counts and charges them as
        one :meth:`malloc` or :meth:`free` each would: here with one
        :meth:`_dispatch` each (a proxy's RPC)."""
        name, payload = _RUN_CALLS[op]
        for _ in addrs:
            self._dispatch(name, payload_bytes=payload)
        return addrs

    def _log_churn(self, nbytes: int, addrs: Sequence[int], device: int):
        """Hook after :meth:`malloc_free_run` made a pair at each of
        ``addrs``; returns them. Here it logs nothing."""
        return addrs

    def _to_real(self, addr):
        """The library's address for app pointer ``addr``."""
        return self._v2r.get(addr, addr) if isinstance(addr, int) else addr

    def malloc(self, nbytes: int) -> int:
        """cudaMalloc: allocate device memory."""
        self._dispatch("cudaMalloc", payload_bytes=16)
        runtime = self.runtime
        addr = runtime.cudaMalloc(nbytes)
        return self._log("malloc", nbytes, addr, runtime.current_device)

    def free(self, addr: int) -> None:
        """cudaFree: release device (or managed) memory."""
        v2r = self._v2r
        real = v2r.get(addr, addr) if v2r else addr
        runtime = self.runtime
        # Managed pointers route through cudaFree as in real CUDA; the log
        # names them apart (the managed arena holds the live ones).
        active = runtime._managed_alloc.active
        is_managed = real in active.rows or active.pieces and real in active
        self._dispatch("cudaFree", payload_bytes=8)
        runtime.cudaFree(real)
        if v2r:
            v2r.pop(addr, None)
        self._log("free_managed" if is_managed else "free", 0, real, 0)

    def malloc_run(self, nbytes: int, n: int) -> Sequence[int]:
        """``n`` back-to-back cudaMalloc(nbytes) calls; their addresses.

        The same calls, counts, virtual time, state and errors as ``n``
        :meth:`malloc` calls. The runtime makes the run in bulk (a
        ``range`` when one free block held it) and :meth:`_log_run`
        accounts it; a call the bulk path does not take (the one an
        armed checkpoint fires at, or one that raises) goes through
        :meth:`malloc`.
        """
        parts: list[Sequence[int]] = []
        done = 0
        while done < n:
            # A run stops short of the call an armed checkpoint fires at.
            k = n - done
            coordinator = self.coordinator
            if coordinator is not None and coordinator.trigger_at_call is not None:
                k = min(k, coordinator.calls_before_trigger())
            runtime = self.runtime
            made = runtime.malloc_run(nbytes, k) if k else []
            parts.append(self._log_run("malloc", nbytes, made, runtime.current_device))
            done += len(made)
            if done < n:
                parts.append([self.malloc(nbytes)])
                done += 1
        if len(parts) == 1:
            return parts[0]
        return [addr for part in parts for addr in part]

    def free_run(self, addrs: Sequence[int]) -> None:
        """Back-to-back cudaFree calls on ``addrs``, in order: the same
        as one :meth:`free` per address (see :meth:`malloc_run`);
        managed and pinned pointers, and anything cudaFree rejects, go
        through :meth:`free`."""
        if type(addrs) is not range:
            addrs = list(addrs)
        v2r = self._v2r
        done, n = 0, len(addrs)
        while done < n:
            k = n - done
            coordinator = self.coordinator
            if coordinator is not None and coordinator.trigger_at_call is not None:
                k = min(k, coordinator.calls_before_trigger())
            part = addrs[done:done + k]
            reals = [v2r.get(a, a) for a in part] if v2r else part
            freed = self.runtime.free_run(reals) if k else 0
            if v2r:
                for addr in part[:freed]:
                    v2r.pop(addr, None)
            self._log_run("free", 0, reals if freed == k else reals[:freed], 0)
            done += freed
            if done < n:
                self.free(addrs[done])
                done += 1

    def malloc_free_run(self, nbytes: int, n: int) -> Sequence[int]:
        """The state of ``n`` back-to-back cudaMalloc(nbytes) + cudaFree
        pairs, each freeing the pointer its malloc returned; the address
        of each pair.

        The pairs are a fast-forwarded loop's churn, whose count and
        cost were extrapolated with the rest of the loop, so nothing is
        counted or charged here: the library ends as the pairs made
        through its entry points leave it, and :meth:`_log_churn` logs
        them. The pairs are made all at once or not at all; where the
        first would raise, ``cudaMalloc`` raises its error.
        """
        runtime = self.runtime
        addrs = runtime.malloc_free_run(nbytes, n)
        if not addrs and n > 0:
            runtime.cudaMalloc(nbytes)  # raises the first pair's error
        return self._log_churn(nbytes, addrs, runtime.current_device)

    def malloc_host(self, nbytes: int) -> int:
        """cudaMallocHost: allocate pinned host memory."""
        self._dispatch("cudaMallocHost", payload_bytes=16)
        addr = self.runtime.cudaMallocHost(nbytes)
        return self._log("malloc_host", nbytes, addr, 0)

    def host_alloc(self, nbytes: int, flags: int = 0) -> int:
        """cudaHostAlloc: allocate pinned host memory (re-registered, not replayed, at restart)."""
        self._dispatch("cudaHostAlloc", payload_bytes=16)
        addr = self.runtime.cudaHostAlloc(nbytes, flags)
        return self._log("host_alloc", nbytes, addr, 0)

    def free_host(self, addr: int) -> None:
        """cudaFreeHost: release pinned host memory."""
        v2r = self._v2r
        real = v2r.get(addr, addr) if v2r else addr
        self._dispatch("cudaFreeHost", payload_bytes=8)
        self.runtime.cudaFreeHost(real)
        if v2r:
            v2r.pop(addr, None)
        self._log("free_host", 0, real, 0)

    def malloc_managed(self, nbytes: int) -> int:
        """cudaMallocManaged: allocate UVM managed memory."""
        self._dispatch("cudaMallocManaged", payload_bytes=16)
        addr = self.runtime.cudaMallocManaged(nbytes)
        return self._log("malloc_managed", nbytes, addr, 0)

    def memcpy(
        self,
        dst,
        src,
        nbytes: int,
        kind: str,
        *,
        stream: Stream | None = None,
        async_: bool = False,
        dst_offset: int = 0,
        src_offset: int = 0,
    ) -> None:
        """cudaMemcpy(Async): copy between host and device ends."""
        if self._v2r:
            dst, src = self._to_real(dst), self._to_real(src)
        name = "cudaMemcpyAsync" if async_ else "cudaMemcpy"
        # Host-side payload crosses the dispatch boundary for h2d/d2h.
        payload = nbytes if kind in ("h2d", "d2h") else 32
        self._dispatch(name, payload_bytes=payload)
        if self.recovery is None:  # no fault domain: no thunk to build
            self.runtime.cudaMemcpy(
                dst, src, nbytes, kind, stream=stream, async_=async_,
                dst_offset=dst_offset, src_offset=src_offset,
            )
            return
        self._invoke("copy", lambda: self.runtime.cudaMemcpy(
            dst, src, nbytes, kind, stream=stream, async_=async_,
            dst_offset=dst_offset, src_offset=src_offset,
        ))

    def memset(
        self,
        addr: int,
        value: int,
        nbytes: int,
        *,
        stream: Stream | None = None,
        async_: bool = False,
    ) -> None:
        """cudaMemset(Async): fill a buffer with a byte value."""
        if self._v2r:
            addr = self._to_real(addr)
        self._dispatch("cudaMemsetAsync" if async_ else "cudaMemset", payload_bytes=24)
        if self.recovery is None:
            self.runtime.cudaMemset(
                addr, value, nbytes, stream=stream, async_=async_
            )
            return
        self._invoke("copy", lambda: self.runtime.cudaMemset(
            addr, value, nbytes, stream=stream, async_=async_
        ))

    # -- kernels ------------------------------------------------------------------

    def launch(
        self,
        name: str,
        fn: Callable[..., None] | None = None,
        *,
        args: Sequence = (),
        flop: float = 0.0,
        bytes_touched: float = 0.0,
        stream: Stream | None = None,
        managed: Iterable[ManagedUse] = (),
        duration_ns: int | None = None,
        arg_bytes: int = LAUNCH_ARG_BYTES,
    ) -> int:
        """Launch a kernel. Counts as three upper→lower calls (eq. 2)."""
        managed = [
            ManagedUse(self._to_real(u.addr), u.offset, u.nbytes, u.mode)
            for u in managed
        ] if self._v2r else list(managed)
        ship = self._launch_ship_buffers(managed)
        self._dispatch_batch((
            ("cudaPushCallConfiguration", 32, (), ()),
            ("cudaPopCallConfiguration", 32, (), ()),
            ("cudaLaunchKernel", arg_bytes, ship, ship),
        ))
        if self.recovery is None:
            return self.runtime.cudaLaunchKernel(
                name, fn, args=args, flop=flop, bytes_touched=bytes_touched,
                stream=stream, managed=managed, duration_ns=duration_ns,
            )
        return self._invoke("kernel", lambda: self.runtime.cudaLaunchKernel(
            name, fn, args=args, flop=flop, bytes_touched=bytes_touched,
            stream=stream, managed=managed, duration_ns=duration_ns,
        ))

    def _launch_ship_buffers(self, managed: Iterable[ManagedUse]) -> Sequence[int]:
        """Buffers a (naive) proxy would have to ship for this launch; the
        single-address-space backends ship nothing."""
        return ()

    # -- streams ------------------------------------------------------------------

    def stream_create(self) -> Stream:
        """cudaStreamCreate on the current device."""
        self._dispatch("cudaStreamCreate", payload_bytes=8)
        return self.runtime.cudaStreamCreate()

    def stream_destroy(self, stream: Stream) -> None:
        """cudaStreamDestroy."""
        self._dispatch("cudaStreamDestroy", payload_bytes=8)
        self.runtime.cudaStreamDestroy(stream)

    def stream_synchronize(self, stream: Stream | None = None) -> None:
        """cudaStreamSynchronize: block until the stream drains."""
        self._dispatch("cudaStreamSynchronize", payload_bytes=8)
        self._invoke(
            "sync", lambda: self.runtime.cudaStreamSynchronize(stream),
            sync_scope=stream if stream is not None else "device",
        )

    def device_synchronize(self) -> None:
        """cudaDeviceSynchronize: block until the current GPU drains."""
        self._dispatch("cudaDeviceSynchronize", payload_bytes=0)
        self._invoke(
            "sync", lambda: self.runtime.cudaDeviceSynchronize(),
            sync_scope="device",
        )

    # -- events --------------------------------------------------------------------

    def event_create(self) -> Event:
        """cudaEventCreate."""
        self._dispatch("cudaEventCreate", payload_bytes=8)
        return self.runtime.cudaEventCreate()

    def event_destroy(self, event: Event) -> None:
        """cudaEventDestroy."""
        self._dispatch("cudaEventDestroy", payload_bytes=8)
        self.runtime.cudaEventDestroy(event)

    def event_record(self, event: Event, stream: Stream | None = None) -> None:
        """cudaEventRecord into a stream."""
        self._dispatch("cudaEventRecord", payload_bytes=16)
        self.runtime.cudaEventRecord(event, stream)

    def event_synchronize(self, event: Event) -> None:
        """cudaEventSynchronize: block until the event completes."""
        self._dispatch("cudaEventSynchronize", payload_bytes=8)
        self._invoke(
            "sync", lambda: self.runtime.cudaEventSynchronize(event),
            sync_scope="device",
        )

    def event_elapsed_ms(self, start: Event, end: Event) -> float:
        """cudaEventElapsedTime in milliseconds."""
        self._dispatch("cudaEventElapsedTime", payload_bytes=16)
        return self.runtime.cudaEventElapsedTime(start, end)

    def stream_wait_event(self, stream: Stream, event: Event) -> None:
        """cudaStreamWaitEvent: order future stream work after the event."""
        self._dispatch("cudaStreamWaitEvent", payload_bytes=16)
        self.runtime.cudaStreamWaitEvent(stream, event)

    # -- fat binaries ------------------------------------------------------------------

    def register_fatbin(self, fatbin: FatBinary) -> int:
        """__cudaRegisterFatBinary: returns a registration handle."""
        self._dispatch("__cudaRegisterFatBinary", payload_bytes=4096)
        return self.runtime.cudaRegisterFatBinary(fatbin)

    def register_function(self, handle: int, kernel_name: str) -> None:
        """__cudaRegisterFunction: register one device function."""
        self._dispatch("__cudaRegisterFunction", payload_bytes=64)
        self.runtime.cudaRegisterFunction(handle, kernel_name)

    def unregister_fatbin(self, handle: int) -> None:
        """__cudaUnregisterFatBinary."""
        self._dispatch("__cudaUnregisterFatBinary", payload_bytes=8)
        self.runtime.cudaUnregisterFatBinary(handle)

    def register_app_binary(self, fatbin: FatBinary) -> int:
        """Convenience: register a fat binary and all its kernels."""
        handle = self.register_fatbin(fatbin)
        for k in fatbin.kernels:
            self.register_function(handle, k)
        return handle

    # -- misc -----------------------------------------------------------------------------

    def get_device_properties(self) -> dict:
        """cudaGetDeviceProperties of the current GPU."""
        self._dispatch("cudaGetDeviceProperties", payload_bytes=640)
        return self.runtime.cudaGetDeviceProperties()

    def set_device(self, index: int) -> None:
        """cudaSetDevice: select the current GPU."""
        self._dispatch("cudaSetDevice", payload_bytes=8)
        self.runtime.cudaSetDevice(index)

    def get_device(self) -> int:
        """cudaGetDevice."""
        self._dispatch("cudaGetDevice", payload_bytes=8)
        return self.runtime.cudaGetDevice()

    def get_device_count(self) -> int:
        """cudaGetDeviceCount."""
        self._dispatch("cudaGetDeviceCount", payload_bytes=8)
        return self.runtime.cudaGetDeviceCount()

    def memcpy_peer(self, dst: int, src: int, nbytes: int, *, stream=None) -> None:
        """cudaMemcpyPeer: cross-GPU device copy."""
        if self._v2r:
            dst, src = self._to_real(dst), self._to_real(src)
        self._dispatch("cudaMemcpyPeer", payload_bytes=40)
        self.runtime.cudaMemcpyPeer(dst, src, nbytes, stream=stream)

    def mem_get_info(self) -> tuple[int, int]:
        """cudaMemGetInfo: (free, total) on the current GPU."""
        self._dispatch("cudaMemGetInfo", payload_bytes=16)
        return self.runtime.cudaMemGetInfo()

    def pointer_get_attributes(self, addr: int) -> dict:
        """cudaPointerGetAttributes: UVA pointer introspection."""
        if self._v2r:
            addr = self._to_real(addr)
        self._dispatch("cudaPointerGetAttributes", payload_bytes=48)
        return self.runtime.cudaPointerGetAttributes(addr)

    def stream_query(self, stream: Stream | None = None) -> bool:
        """cudaStreamQuery: has the stream drained?"""
        self._dispatch("cudaStreamQuery", payload_bytes=8)
        return self.runtime.cudaStreamQuery(stream)

    def event_query(self, event: Event) -> bool:
        """cudaEventQuery: has the event completed?"""
        self._dispatch("cudaEventQuery", payload_bytes=8)
        return self.runtime.cudaEventQuery(event)

    def mem_prefetch(
        self,
        addr: int,
        nbytes: int,
        *,
        to_device: bool = True,
        stream: Stream | None = None,
        offset: int = 0,
    ) -> None:
        """cudaMemPrefetchAsync: migrate managed pages ahead of use."""
        if self._v2r:
            addr = self._to_real(addr)
        self._dispatch("cudaMemPrefetchAsync", payload_bytes=32)
        self._invoke("copy", lambda: self.runtime.cudaMemPrefetchAsync(
            addr, nbytes, to_device=to_device, stream=stream, offset=offset
        ))

    # -- simulation accessors (zero-cost, not CUDA entry points) ----------------------------

    def device_view(self, addr: int, nbytes: int, dtype=np.uint8, offset: int = 0):
        """Simulation accessor: writable numpy view of a buffer's bytes."""
        if self._v2r:
            addr = self._to_real(addr)
        return self.runtime.device_view(addr, nbytes, dtype, offset)

    def managed_view(self, addr: int, nbytes: int, dtype=np.uint8, offset: int = 0):
        """Simulation accessor: host-side view of managed memory (faults pages back)."""
        if self._v2r:
            addr = self._to_real(addr)
        return self.runtime.managed_view(addr, nbytes, dtype, offset)


class NativeBackend(CudaDispatchBase):
    """Ordinary in-process call into the CUDA library — the baseline."""

    mode = "native"

    def _charge_call(
        self,
        name: str,
        *,
        payload_bytes: int = 0,
        ship_in: Sequence[int] = (),
        ship_out: Sequence[int] = (),
    ) -> None:
        self.process.advance(self.costs.native_dispatch_ns)

    def _charge_batch(self, calls) -> None:
        self.process.advance(len(calls) * self.costs.native_dispatch_ns)

    def _log_run(self, op, nbytes, addrs, device):
        # One n * per_call charge; traced, each call gets its own span.
        if self.tracer is not None:
            return super()._log_run(op, nbytes, addrs, device)
        if addrs:
            self.call_counter[_RUN_CALLS[op][0]] += len(addrs)
            self.process.clock_ns += len(addrs) * self.costs.native_dispatch_ns
        return addrs
