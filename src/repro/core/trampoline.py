"""The CRAC dispatch backend: trampoline + interposition.

Every upper-half CUDA call jumps through the entry-point table into the
lower half (Figure 1). Crossing the boundary switches the x86-64 ``fs``
register to the lower half's TLS and back — one kernel call each way on
an unpatched kernel, one ``wrfsbase`` instruction each way under the
FSGSBASE patch (§4.4.5) — plus a small table-indirection cost.

The backend also implements CRAC's interposition (§3.2):

- the **cudaMalloc family** is logged into the replay log (allocation
  order and addresses), and *active* allocations are tracked for
  checkpoint draining. The family's entry points are
  :class:`~repro.cuda.interface.CudaDispatchBase`'s; this backend gives
  only the log hooks they call, which also hand out virtual pointers
  while it virtualizes addresses (§3.2.4);
- **fat-binary registration** is virtualized: the application holds
  virtual handles, so CRAC can re-register with a fresh lower half at
  restart and patch the mapping (§3.2.5);
- **streams and events** the application creates are tracked so they can
  be recreated and re-adopted at restart;
- each call notifies the DMTCP coordinator while a checkpoint is armed
  at a call index, which fires it there.

A crossing is one Python frame on the host: :meth:`CracBackend._dispatch`
(or ``_dispatch_batch`` for a launch's three calls) counts, charges one
precomputed crossing cost (both fs switches, the table indirection and
the call) inline and notifies only an armed coordinator, and
:meth:`CracBackend._log` appends and charges the log record itself. A
run of allocation calls crosses once: the runtime makes it in bulk, and
:meth:`CracBackend._log_run` logs and accounts every call of it in one
frame. The log keeps the run as it crossed: one
:class:`~repro.cuda.api.RunRecord` holding its addresses as ranges, so a
run costs the log the same whatever its length. Costs are whole,
non-negative ns (:class:`HostCosts` rejects anything else when built),
so a charge of ``n`` equal calls is one ``n * per_call`` addition. A
fast-forwarded loop's churn (``malloc_free_run``) is state only:
:meth:`CracBackend._log_churn` appends one
:class:`~repro.cuda.api.ChurnRecord` per stretch of pairs at one
address, and nothing is counted or charged.
"""

from __future__ import annotations

from itertools import groupby
from typing import Sequence

from repro.core.replay_log import LogEntry, ReplayLog
from repro.cuda.api import ChurnRecord, CudaRuntime, FatBinary, RunRecord
from repro.cuda.interface import _RUN_CALLS, CudaDispatchBase
from repro.gpu.rows import as_ranges
from repro.gpu.streams import Event, Stream
from repro.gpu.timing import DEFAULT_HOST_COSTS, HostCosts
from repro.linux.process import SYSCALL_NS, WRFSBASE_NS

#: builds a log record from a tuple in C, without its Python ``__new__``
_new_tuple = tuple.__new__
#: the ops whose app pointer is virtual while virtualizing addresses
_ALLOC_OPS = frozenset(("malloc", "malloc_host", "host_alloc", "malloc_managed"))


class CracBackend(CudaDispatchBase):
    """Upper→lower trampoline dispatch with CRAC interposition."""

    mode = "crac"

    #: base of the virtual-pointer range handed to the application when
    #: address virtualization is enabled (disjoint from both halves).
    VIRT_BASE = 0x0000_5000_0000_0000
    #: fs register values of the lower and upper halves' threads
    _lower_fs = 0x1000
    _upper_fs = 0x2000

    def __init__(
        self,
        runtime: CudaRuntime,
        host_costs: HostCosts = DEFAULT_HOST_COSTS,
        *,
        virtualize_addresses: bool = False,
    ) -> None:
        super().__init__(runtime, host_costs)
        body_ns = host_costs.trampoline_body_ns + host_costs.native_dispatch_ns
        #: one crossing, indexed by the process's ``fsgsbase``: the fs
        #: switch into the lower half's TLS, the table indirection and
        #: the call itself, and the switch back
        self._crossing_ns = (2 * SYSCALL_NS + body_ns, 2 * WRFSBASE_NS + body_ns)
        self.log = ReplayLog()
        #: §3.2.4 future-work mode: the app holds stable *virtual*
        #: pointers; the trampoline translates to the library's real
        #: addresses, so restart tolerates allocator divergence (no
        #: same-platform / no-ASLR requirement).
        self.virtualize_addresses = virtualize_addresses
        self._virt_cursor = self.VIRT_BASE
        # Fat-binary virtualization: app-visible handle -> (real handle,
        # FatBinary, registered function names).
        self._next_virtual_handle = 1
        self.fatbin_registry: dict[int, dict] = {}
        # Live handles the app holds, for restart recreation.
        self.live_streams: dict[int, Stream] = {}
        self.live_events: dict[int, Event] = {}
        #: repro.spec.HandleTable tracking handle versions for
        #: speculative checkpoints; None until a session wires one
        self.handle_table = None

    # -- dispatch cost ---------------------------------------------------------

    def _dispatch(
        self,
        name: str,
        *,
        payload_bytes: int = 0,
        ship_in: Sequence[int] = (),
        ship_out: Sequence[int] = (),
    ) -> None:
        # One frame per crossing: count the call, charge the crossing
        # inline, and notify the coordinator only while a checkpoint is
        # armed (notify_call is a no-op otherwise, and arming resets its
        # call count, so skipping it is exact). ship_in/ship_out are
        # ignored: the single address space passes pointers directly to
        # the lower half (the paper's key win).
        self.call_counter[name] += 1
        proc = self.process
        t0 = proc.clock_ns
        thread = self.current_thread
        if thread is None:
            thread = proc.threads[0]
        proc.fs_switch_count += 2
        if not proc.fsgsbase:
            proc.syscall_count += 2
        proc.clock_ns = t0 + self._crossing_ns[proc.fsgsbase]
        thread.fs_base = self._upper_fs
        coordinator = self.coordinator
        if coordinator is not None and coordinator.trigger_at_call is not None:
            coordinator.notify_call()
        tracer = self.tracer
        if tracer is not None:
            t1 = proc.clock_ns
            tracer.on_api_call(
                name, t0, t1, trampoline_ns=self._trampoline_ns(t1 - t0),
                mode=self.mode,
            )

    def _dispatch_batch(self, calls) -> None:
        # Untraced, and with no checkpoint armed to fire inside it, the
        # batch is one frame and one charge of len(calls) crossings.
        # Traced, every call keeps its own span; armed to fire at one of
        # its calls, every call notifies the coordinator alone.
        n = len(calls)
        coordinator = self.coordinator
        armed = coordinator is not None and coordinator.trigger_at_call is not None
        if self.tracer is not None or armed and coordinator.calls_before_trigger() < n:
            for name, _, _, _ in calls:
                self._dispatch(name)
            return
        counter = self.call_counter
        for name, _, _, _ in calls:
            counter[name] += 1
        proc = self.process
        thread = self.current_thread
        if thread is None:
            thread = proc.threads[0]
        proc.fs_switch_count += 2 * n
        if not proc.fsgsbase:
            proc.syscall_count += 2 * n
        proc.clock_ns += n * self._crossing_ns[proc.fsgsbase]
        thread.fs_base = self._upper_fs
        if armed:
            coordinator.notify_calls(n)

    def _trampoline_ns(self, dispatch_ns: int) -> int:
        # Everything beyond the bare library call is trampoline cost:
        # the two fs switches, table indirection, coordinator notify.
        return max(0, dispatch_ns - self.costs.native_dispatch_ns)

    def _log(self, op: str, nbytes: int, addr: int, device: int) -> int:
        """Append one allocation-family call to the replay log and charge
        ``log_record_ns``, in one frame: the entry is built by
        ``tuple.__new__`` (no NamedTuple ``__new__`` frame) and the cost
        is added inline. An allocation's app pointer is ``addr``, or
        while virtualizing a fresh virtual one mapped to it."""
        self.log.records.append(_new_tuple(LogEntry, (op, nbytes, addr, device)))
        self.process.clock_ns += self.costs.log_record_ns
        if self.virtualize_addresses and op in _ALLOC_OPS:
            vaddr = self._virt_cursor
            self._virt_cursor += (nbytes + 0xFFF) & ~0xFFF
            self._v2r[vaddr] = addr
            return vaddr
        return addr

    def _log_run(self, op: str, nbytes: int, addrs: Sequence[int], device: int):
        """Log and account ``len(addrs)`` calls of one allocation-family
        entry point made in bulk, in one frame: what one :meth:`_dispatch`
        and one :meth:`_log` per call leave, but the log gets one
        :class:`RunRecord` for the run.

        The calls are counted (and counted toward an armed checkpoint,
        which they must stop short of) and charged as ``n`` crossings
        and log records. Traced, each call crosses through
        :meth:`_dispatch` for its own span and hook charge, and then
        pays its log record. A malloc run's app pointers are ``addrs``,
        or fresh virtual ones while virtualizing."""
        n = len(addrs)
        if not n:
            return addrs
        vaddrs = addrs
        if self.virtualize_addresses and op == "malloc":
            vaddrs = self._expose_run(addrs, nbytes)
        log = self.log
        log.records.append(_new_tuple(RunRecord, (
            op, nbytes, (addrs,) if type(addrs) is range else as_ranges(addrs),
            device,
        )))
        log.extra_calls += n - 1
        name = _RUN_CALLS[op][0]
        proc = self.process
        log_ns = self.costs.log_record_ns
        if self.tracer is not None:
            for _ in range(n):
                self._dispatch(name)
                proc.clock_ns += log_ns
            return vaddrs
        self.call_counter[name] += n
        proc.fs_switch_count += 2 * n
        if not proc.fsgsbase:
            proc.syscall_count += 2 * n
        proc.clock_ns += n * (self._crossing_ns[proc.fsgsbase] + log_ns)
        thread = self.current_thread
        if thread is None:
            thread = proc.threads[0]
        thread.fs_base = self._upper_fs
        coordinator = self.coordinator
        if coordinator is not None and coordinator.trigger_at_call is not None:
            coordinator.notify_calls(n)
        return vaddrs

    def _log_churn(self, nbytes: int, addrs: Sequence[int], device: int):
        """Log the churn pairs of :meth:`malloc_free_run`, one at each of
        ``addrs``: one :class:`ChurnRecord` per stretch of pairs at one
        address. The log alone: the pairs were counted and charged with
        the fast-forwarded loop they stand for. While virtualizing, each
        pair's malloc takes a fresh virtual pointer that its free drops."""
        records = [
            _new_tuple(ChurnRecord, (nbytes, addr, device, len(list(pairs))))
            for addr, pairs in groupby(addrs)
        ]
        log = self.log
        log.records += records
        log.extra_calls += 2 * len(addrs) - len(records)
        if self.virtualize_addresses:
            self._virt_cursor += len(addrs) * ((nbytes + 0xFFF) & ~0xFFF)
        return addrs

    # -- address virtualization (§3.2.4 future work) -------------------------

    def _expose_run(self, real_addrs: Sequence[int], nbytes: int) -> range:
        """Hand the app a fresh virtual pointer for each of a run of
        equal allocations (called only with :attr:`virtualize_addresses`
        on), as :meth:`_log` does for one."""
        step = (nbytes + 0xFFF) & ~0xFFF
        start = self._virt_cursor
        self._virt_cursor += step * len(real_addrs)
        vaddrs = range(start, self._virt_cursor, step)
        self._v2r.update(zip(vaddrs, real_addrs))
        return vaddrs

    def patch_translation(self, moved: dict[int, int]) -> None:
        """Rebind virtual pointers after a non-strict replay moved the
        underlying real allocations ("patching application locations
        containing the addresses", §3.2.4)."""
        for v, r in list(self._v2r.items()):
            self._v2r[v] = moved.get(r, r)

    # -- interposed registration (§3.2.5) -------------------------------------------

    def register_fatbin(self, fatbin: FatBinary) -> int:
        real = super().register_fatbin(fatbin)
        virtual = self._next_virtual_handle
        self._next_virtual_handle += 1
        self.fatbin_registry[virtual] = {
            "real": real,
            "fatbin": fatbin,
            "functions": [],
        }
        if self.handle_table is not None:
            self.handle_table.add("module", virtual)
        return virtual

    def register_function(self, handle: int, kernel_name: str) -> None:
        entry = self.fatbin_registry[handle]
        super().register_function(entry["real"], kernel_name)
        entry["functions"].append(kernel_name)

    def unregister_fatbin(self, handle: int) -> None:
        entry = self.fatbin_registry.pop(handle)
        super().unregister_fatbin(entry["real"])
        if self.handle_table is not None:
            self.handle_table.remove("module", handle)

    # -- stream / event tracking ----------------------------------------------------

    def stream_create(self) -> Stream:
        s = super().stream_create()
        self.live_streams[s.sid] = s
        if self.handle_table is not None:
            self.handle_table.add("stream", s.sid)
        return s

    def stream_destroy(self, stream: Stream) -> None:
        super().stream_destroy(stream)
        self.live_streams.pop(stream.sid, None)
        if self.handle_table is not None:
            self.handle_table.remove("stream", stream.sid)

    def event_create(self) -> Event:
        e = super().event_create()
        self.live_events[e.eid] = e
        if self.handle_table is not None:
            self.handle_table.add("event", e.eid)
        return e

    def event_destroy(self, event: Event) -> None:
        super().event_destroy(event)
        self.live_events.pop(event.eid, None)
        if self.handle_table is not None:
            self.handle_table.remove("event", event.eid)

    # -- restart support --------------------------------------------------------------

    def swap_runtime(self, runtime: CudaRuntime) -> None:
        """Point the trampoline at a freshly loaded lower half.

        Called by the restart orchestrator after the new helper program
        re-initialized the entry-point table (Figure 1, restart path).
        """
        self.runtime = runtime
        self.process = runtime.process

    def reregister_fatbins(self) -> dict[int, tuple[int, int]]:
        """Re-register every live fat binary with the fresh library and
        patch the handle mapping (§3.2.5). Returns {virtual: (old, new)}."""
        patches: dict[int, tuple[int, int]] = {}
        for virtual, entry in self.fatbin_registry.items():
            old = entry["real"]
            new = self.runtime.cudaRegisterFatBinary(entry["fatbin"])
            for fname in entry["functions"]:
                self.runtime.cudaRegisterFunction(new, fname)
            entry["real"] = new
            patches[virtual] = (old, new)
            self.process.advance(
                self.costs.reregister_ns * (1 + len(entry["functions"]))
            )
        return patches
