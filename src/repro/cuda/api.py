"""``CudaRuntime``: the closed-source CUDA library stand-in.

One instance of this class *is* "libcuda + libcudart" resident in a
process half. It owns everything the paper says the CUDA library owns:

- the deterministic allocation arenas for ``cudaMalloc`` /
  ``cudaMallocHost`` / ``cudaHostAlloc`` / ``cudaMallocManaged``
  (created through the half's interposed ``mmap`` — §3.2.1);
- stream and event registries;
- the fat-binary registration table (``__cudaRegisterFatBinary`` family,
  §3.2.5) — launching a kernel whose fat binary is not registered with
  *this* library instance fails, which is why CRAC must re-register at
  restart;
- **opaque internal state entangled with the driver**: creating UVA/UVM
  mappings advances an internal epoch in lock-step with the driver
  context. Restoring a *saved copy* of library memory into a fresh
  context desynchronizes the epochs and every later call fails — the
  observed reason CheCUDA-era approaches died with CUDA 4.0 (§2.2/§3.1).

Timing convention: methods here charge *device-side* and *blocking* time
only (a synchronous memcpy advances the host clock to completion). The
per-call *dispatch* cost — native call vs CRAC trampoline vs proxy IPC —
is charged by the dispatch backend, not by the library.
"""

from __future__ import annotations

import itertools
import zlib
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, NoReturn, Sequence

import numpy as np

from repro.errors import CudaError, ReplayDivergenceError
from repro.cuda.errors import CudaErrorCode, cuda_check, cuda_error
from repro.gpu.device import GpuDevice
from repro.gpu.memory import ALLOC_ALIGN, ArenaAllocator, DeviceBuffer
from repro.gpu.rows import RowTable, as_ranges
from repro.gpu.streams import Event, Stream
from repro.gpu.uvm import ManagedBuffer, UvmManager
from repro.linux.process import SimProcess

#: Managed-memory oversubscription factor (UVM may exceed device memory).
MANAGED_CAPACITY_FACTOR = 4

#: Throughput efficiency of DMA from *pageable* host memory relative to
#: pinned memory (the driver stages through a bounce buffer).
PAGEABLE_COPY_EFFICIENCY = 0.65

#: Host-side latency of a blocking synchronization (driver polling /
#: wakeup), ns. Dominates the native time of short blocking calls like
#: the Table 3 cuBLAS loops (~26 µs/call for a 1 MB Sdot in the paper).
SYNC_POLL_NS = 10_000


@dataclass(frozen=True)
class FatBinary:
    """An embedded device-code image: the CUDA kernels of one executable."""

    name: str
    kernels: tuple[str, ...]


class ReplayResult(NamedTuple):
    """What :meth:`CudaRuntime.replay_allocations` did."""

    #: calls replayed: every entry but ``cudaHostAlloc`` ones and their
    #: frees
    replayed: int
    #: original -> replayed address of every allocation (translating
    #: mode; empty in strict mode)
    translation: dict[int, int]
    #: the log's still-active ``cudaHostAlloc`` entries, in log order
    host_allocs: list


class RunRecord(NamedTuple):
    """A run of equal ``op`` calls (``"malloc"`` or ``"free"``) that
    crossed the trampoline at once: one replay-log record for all of
    them. ``addrs`` lists their addresses in call order as ranges, at
    most one per free block the run's carve crossed."""

    op: str
    nbytes: int  # 0 for frees
    addrs: tuple[range, ...]
    device: int

    def entries(self) -> Iterator[tuple]:
        """The ``(op, nbytes, addr, device)`` entry of each call."""
        return zip(repeat(self.op), repeat(self.nbytes),
                   chain.from_iterable(self.addrs), repeat(self.device))


class ChurnRecord(NamedTuple):
    """``pairs`` back-to-back ``cudaMalloc(nbytes)`` + ``cudaFree`` pairs
    that each landed at ``addr``: one replay-log record for all of them."""

    nbytes: int
    addr: int
    device: int
    pairs: int

    def entries(self) -> Iterator[tuple]:
        """The ``(op, nbytes, addr, device)`` entries of each pair."""
        pair = (("malloc", self.nbytes, self.addr, self.device),
                ("free", 0, self.addr, 0))
        return chain.from_iterable(repeat(pair, self.pairs))


def _diverged(entry: tuple, got: int) -> NoReturn:
    """Raise the error of a replayed allocation that landed at ``got``,
    not at the log's address."""
    op, nbytes, addr, _ = entry
    raise ReplayDivergenceError(
        f"replayed {op}({nbytes}) landed at {got:#x}, original was "
        f"{addr:#x} — allocator nondeterminism or changed platform/ASLR"
    )


class RowWatch:
    """The allocations a cut recorded as never built, as they become
    objects: what a background write compares at its finish.

    ``uids`` is the cut's record (address -> uid). ``found`` starts with
    the recorded allocations that were already objects at the cut, and
    the runtime appends each other one when it becomes an object, so the
    allocations still rows cost nothing. The watch stays open until
    :meth:`close`.
    """

    __slots__ = ("uids", "found", "_open")

    def __init__(self, runtime: "CudaRuntime", uids: RowTable) -> None:
        self.uids = uids
        objects = runtime._objects
        self.found: list[DeviceBuffer | ManagedBuffer] = [
            objects[addr] for addr in sorted(uids.common_keys(objects))
        ]
        self._open = runtime._row_watches
        self._open.append(self)

    def built(self) -> list[DeviceBuffer | ManagedBuffer]:
        """The recorded allocations that have built their contents since
        the cut (freed ones too): every byte they hold dirty was written
        after it."""
        return [buf for buf in self.found if buf.unbuilt is None]

    def close(self) -> None:
        """Stop collecting (idempotent)."""
        if self in self._open:
            self._open.remove(self)


@dataclass
class _DriverContext:
    """Driver-side per-process context state (lives *outside* the library
    memory image — restoring saved library bytes cannot restore this)."""

    uva_epoch: int = 0


@dataclass
class ManagedUse:
    """Declares a kernel's access to a managed buffer."""

    addr: int
    offset: int
    nbytes: int
    mode: str = "r"  # 'r', 'w', or 'rw'


class CudaRuntime:
    """One loaded instance of the CUDA library (see module docstring)."""

    def __init__(
        self,
        process: SimProcess,
        device: GpuDevice | list[GpuDevice],
        mem_source: Callable[[int, str], int],
    ) -> None:
        self.process = process
        #: all GPUs visible to this library (the paper's nodes carry four
        #: V100s); ``cudaSetDevice`` selects the current one.
        self.devices: list[GpuDevice] = (
            list(device) if isinstance(device, (list, tuple)) else [device]
        )
        self.current_device = 0
        self._mem_source = mem_source
        self.ctx = _DriverContext()
        self._lib_uva_epoch = 0
        self.destroyed = False
        #: True while :meth:`_entry` cannot raise (library alive, library
        #: and driver epochs in step): the allocation family's prologue
        #: then only counts the call. Cleared by :meth:`destroy`,
        #: recomputed by :meth:`restore_library_memory`.
        self._entry_ok = True

        # One deterministic arena allocator per device, each with its own
        # VA sub-window tag (UVA carves device memory per GPU).
        self._device_allocs = [
            ArenaAllocator(
                (lambda i: lambda size: mem_source(
                    size, f"cuda-device-arena-dev{i}"
                ))(idx),
                capacity=dev.spec.memory_bytes,
            )
            for idx, dev in enumerate(self.devices)
        ]
        self._pinned_alloc = ArenaAllocator(
            lambda size: mem_source(size, "cuda-pinned-arena"),
            capacity=64 << 30,
        )
        # cudaHostAlloc gets its own arena: CRAC replays cudaMallocHost
        # fully but re-registers cudaHostAlloc buffers without allocating
        # (§3.2.4); sharing one arena would break replay determinism.
        self._hostalloc_alloc = ArenaAllocator(
            lambda size: mem_source(size, "cuda-hostalloc-arena"),
            capacity=64 << 30,
        )
        #: which allocator owns each pinned buffer ("pinned" | "hostalloc"
        #: | "registered")
        self._host_origin: dict[int, str] = {}
        self._managed_alloc = ArenaAllocator(
            lambda size: mem_source(size, "cuda-managed-arena"),
            capacity=self.devices[0].spec.memory_bytes * MANAGED_CAPACITY_FACTOR,
        )
        self.uvm = UvmManager(self.devices[0])
        #: address -> size of every live allocation, in allocation order.
        #: An allocation is a *row* (this entry and its uid in a
        #: never-built table) until :meth:`buffer` first looks it up and
        #: makes its object, which :attr:`_objects` then keeps. A run of
        #: equal allocations made at once (:meth:`malloc_run`) is one row
        #: of each table (:class:`~repro.gpu.rows.RowTable`).
        self.allocations = RowTable()
        self._objects: dict[int, DeviceBuffer | ManagedBuffer] = {}
        #: address -> uid of the live device, pinned and managed
        #: allocations that never built their contents (nor, managed, their
        #: residency): one enters at allocation and leaves on that first
        #: build or at free, so a cut records the allocations nothing ever
        #: touched in bulk. Plain ints, so an object referring to its
        #: table makes no reference cycle.
        self.unbuilt_device = RowTable()
        self.unbuilt_pinned = RowTable()
        self.unbuilt_managed = RowTable()
        #: the open :class:`RowWatch` es of background cuts
        self._row_watches: list[RowWatch] = []
        #: allocation ids: arena addresses get reused after a free, so a
        #: checkpoint delta chain keys buffers by (addr, uid), never addr
        #: alone
        self._buffer_uids = itertools.count(1)

        # The legacy default stream lives on device 0; launches on other
        # devices must name an explicit stream (a documented simulation
        # constraint matching per-thread-stream usage on multi-GPU code).
        self.default_stream = Stream(sid=0)
        self.devices[0].register_stream(self.default_stream)
        self.streams: dict[int, Stream] = {0: self.default_stream}
        self.events: dict[int, Event] = {}

        self._fatbin_handles = itertools.count(1)
        self.fatbins: dict[int, FatBinary] = {}
        self._registered_kernels: set[str] = set()

        #: per-entry-point call counts (library-side bookkeeping)
        self.api_log: Counter[str] = Counter()

        #: optional :class:`repro.sanitizer.Sanitizer` (attached via its
        #: ``attach()``); when present, the entry points below feed it
        #: vector-clock and access events. None = zero overhead.
        self.sanitizer = None

    # ------------------------------------------------------------------ utils

    def _entry(self, name: str) -> None:
        """Common prologue of every CUDA entry point."""
        cuda_check(
            not self.destroyed,
            CudaErrorCode.INITIALIZATION_ERROR,
            "CUDA library has been destroyed",
        )
        cuda_check(
            self._lib_uva_epoch == self.ctx.uva_epoch,
            CudaErrorCode.LIBRARY_STATE_INCONSISTENT,
            "library UVA/UVM state inconsistent with driver context "
            "(restored library memory cannot be reconciled — §2.2)",
        )
        self.api_log[name] += 1

    def buffer(self, addr: int) -> DeviceBuffer | ManagedBuffer | None:
        """The live allocation at ``addr`` as an object, or ``None``. A
        row becomes its object here, on first lookup, and later lookups
        return the same object."""
        buf = self._objects.get(addr)
        if buf is None:
            # A lone row is a dict entry; only a run's member needs the
            # table's bisect (here and in the lookups below).
            table = self.allocations
            if addr in table.rows or table.pieces and addr in table:
                buf = self._make_object(addr)
        return buf

    def _make_object(self, addr: int) -> DeviceBuffer | ManagedBuffer:
        """Build the object of the row at ``addr``."""
        allocations = self.allocations
        size = allocations.rows.get(addr)
        if size is None:
            size = allocations[addr]
        # The row is in exactly one kind's table: a lone row is a dict
        # entry there, so every table's dict is tried before any run's
        # bisect.
        tables = (self.unbuilt_device, self.unbuilt_pinned, self.unbuilt_managed)
        for unbuilt in tables:
            uid = unbuilt.rows.get(addr)
            if uid is not None:
                break
        else:
            for unbuilt in tables:
                if unbuilt.pieces and (uid := unbuilt.get(addr)) is not None:
                    break
            else:
                raise KeyError(addr)
        if unbuilt is self.unbuilt_device:
            buf = DeviceBuffer(
                addr, size, "device", self._row_device(addr), uid, unbuilt
            )
        elif unbuilt is self.unbuilt_pinned:
            buf = DeviceBuffer(addr, size, "host-pinned", 0, uid, unbuilt)
        else:
            buf = ManagedBuffer(addr, size, uid, unbuilt)
            self.uvm.register(buf)
        self._objects[addr] = buf
        for watch in self._row_watches:
            if watch.uids.get(addr) == uid:
                watch.found.append(buf)
        return buf

    def _row_device(self, addr: int) -> int:
        """The GPU of a device row: the one whose arena holds it."""
        allocs = self._device_allocs
        if len(allocs) > 1:
            for index, arena in enumerate(allocs):
                if addr in arena.active:
                    return index
        return 0

    def kind_of(self, addr: int) -> str | None:
        """``"device"``, ``"host-pinned"`` or ``"managed"`` for the live
        allocation at ``addr``, ``None`` if there is none; makes no
        object."""
        buf = self._objects.get(addr)
        if buf is not None:
            return buf.kind
        device = self.unbuilt_device
        if addr in device.rows or device.pieces and addr in device:
            return "device"
        if addr in self.unbuilt_pinned:
            return "host-pinned"
        if addr in self.unbuilt_managed:
            return "managed"
        return None

    def _buffer(self, addr: int) -> DeviceBuffer | ManagedBuffer:
        """:meth:`buffer`, raising the classified error if ``addr`` is not
        live."""
        buf = self._objects.get(addr)
        if buf is None:
            table = self.allocations
            if addr not in table.rows and not (table.pieces and addr in table):
                raise cuda_error(
                    CudaErrorCode.INVALID_DEVICE_POINTER,
                    f"unknown or freed pointer {addr:#x}",
                )
            buf = self._make_object(addr)
        return buf

    def _forget(self, addr: int, unbuilt: RowTable) -> None:
        """Drop a freed allocation: its size, its row and its object."""
        allocations = self.allocations
        if allocations.rows.pop(addr, None) is None:
            del allocations[addr]  # a run's member
        if unbuilt.rows.pop(addr, None) is None and unbuilt.pieces:
            unbuilt.pop(addr, None)
        buf = self._objects.pop(addr, None)
        if buf is not None:
            buf.freed = True

    def _stream(self, stream: Stream | None) -> Stream:
        return stream if stream is not None else self.default_stream

    @property
    def device(self) -> GpuDevice:
        """The current device (selected by ``cudaSetDevice``)."""
        return self.devices[self.current_device]

    @property
    def _device_alloc(self) -> ArenaAllocator:
        """The current device's allocation arena."""
        return self._device_allocs[self.current_device]

    def _device_for(self, stream: Stream | None, addr: int | None = None) -> GpuDevice:
        """Resolve which GPU an operation runs on: the stream's device if
        an explicit stream is given, else the device owning ``addr``,
        else the legacy default (device 0)."""
        if stream is not None and stream.sid != 0:
            return self.devices[stream.device_index]
        if addr is not None:
            buf = self._objects.get(addr)
            if buf is not None:
                return self.devices[buf.device_index]
            device = self.unbuilt_device
            if addr in device.rows or device.pieces and addr in device:
                return self.devices[self._row_device(addr)]
        return self.devices[0]

    @property
    def now(self) -> int:
        return self.process.clock_ns

    # ---------------------------------------------------------------- memory

    def cudaMalloc(self, nbytes: int) -> int:
        """Allocate device memory from the deterministic arena."""
        if self._entry_ok:
            self.api_log["cudaMalloc"] += 1
        else:
            self._entry("cudaMalloc")  # raises the classified error
        addr = self._device_allocs[self.current_device].alloc(nbytes)
        # Fresh keys: plain dict inserts.
        self.unbuilt_device.rows[addr] = next(self._buffer_uids)
        self.allocations.rows[addr] = nbytes
        return addr

    def cudaFree(self, addr: int) -> None:
        """Free device or managed memory (real cudaFree handles both)."""
        # kind_of and _forget inlined for a device buffer: the free hot
        # path makes no call but the arena's (a lone row is a dict entry;
        # only a run's member needs the table's bisect).
        buf = self._objects.get(addr)
        unbuilt = self.unbuilt_device
        managed = self.unbuilt_managed
        if buf is not None:
            kind = buf.kind
        elif addr in unbuilt.rows or unbuilt.pieces and addr in unbuilt:
            kind = "device"
        elif addr in managed.rows or managed.pieces and addr in managed:
            kind = "managed"
        else:  # pinned or not live: rare
            kind = self.kind_of(addr)
        if kind is None:
            if self.sanitizer is not None:
                # Double-free / wild free: record before _buffer raises.
                self.sanitizer.on_invalid_free(None, addr)
            self._buffer(addr)  # raises the classified error
        if kind == "managed":
            self.cudaFreeManaged(addr)
            return
        if self._entry_ok:
            self.api_log["cudaFree"] += 1
        else:
            self._entry("cudaFree")
        if kind != "device":
            raise cuda_error(
                CudaErrorCode.INVALID_DEVICE_POINTER,
                "cudaFree of a non-device pointer",
            )
        if buf is not None:
            device = buf.device_index
        elif len(self._device_allocs) == 1:
            device = 0
        else:
            device = self._row_device(addr)
        self._device_allocs[device].free(addr)
        allocations = self.allocations
        if allocations.rows.pop(addr, None) is None:
            del allocations[addr]  # a run's member
        if unbuilt.rows.pop(addr, None) is None and unbuilt.pieces:
            unbuilt.pop(addr, None)
        if buf is not None:
            buf.freed = True
            del self._objects[addr]

    def malloc_run(
        self, nbytes: int, n: int, expected: Sequence[int] | None = None
    ) -> Sequence[int]:
        """Make up to ``n`` :meth:`cudaMalloc` calls of ``nbytes`` at once.

        The runtime ends as the same calls made one by one leave it (the
        arena, allocations, never-built table, uids and ``api_log``),
        with one :meth:`ArenaAllocator.alloc_run` carve and one row per
        free block the carve took in each table: its addresses, sizes
        and consecutive uids. The run stops before the first call that
        would raise (a library that takes no calls, a bad size, out of
        memory): the caller re-issues that call through
        :meth:`cudaMalloc`. With ``expected`` (replay's logged
        addresses), it also stops right after the first call that lands
        elsewhere. Returns the addresses made: a ``range`` when one free
        block held them all.
        """
        if not self._entry_ok:
            return []
        addrs = self._device_allocs[self.current_device].alloc_run(
            nbytes, n, expected
        )
        made = len(addrs)
        if made:
            self.api_log["cudaMalloc"] += made
            uid = next(self._buffer_uids)
            self._buffer_uids = itertools.count(uid + made)
            need = (nbytes + ALLOC_ALIGN - 1) & ~(ALLOC_ALIGN - 1)
            for part in (
                (addrs,) if type(addrs) is range else as_ranges(addrs, need)
            ):
                k = len(part)
                self.unbuilt_device.insert_run(part.start, part.step, k, uid, 1)
                self.allocations.insert_run(part.start, part.step, k, nbytes)
                uid += k
        return addrs

    def malloc_free_run(self, nbytes: int, n: int) -> list[int]:
        """Make up to ``n`` back-to-back :meth:`cudaMalloc` (``nbytes``) +
        :meth:`cudaFree` pairs at once; the address of each pair.

        A pair leaves no row behind, so the runtime ends as the same
        calls made one by one leave it with the arena's
        :meth:`ArenaAllocator.alloc_free_run`, the ``api_log``
        increments and the uids the mallocs took. No pair is made where
        the first call would raise: the caller makes it through
        :meth:`cudaMalloc`.
        """
        if not self._entry_ok:
            return []
        addrs = self._device_allocs[self.current_device].alloc_free_run(
            nbytes, n
        )
        made = len(addrs)
        if made:
            api_log = self.api_log
            api_log["cudaMalloc"] += made
            api_log["cudaFree"] += made
            self._buffer_uids = itertools.count(next(self._buffer_uids) + made)
        return addrs

    def free_run(self, addrs: Sequence[int]) -> int:
        """Make :meth:`cudaFree` calls on ``addrs``, in order.

        ``addrs`` goes as the ranges that list it (a ``range`` is one).
        A range of never-built device allocations in one piece of a run
        (a whole ``malloc_run``, the common case) leaves each table as
        one row and the arena as one block
        (:meth:`ArenaAllocator.free_run`). Anything else goes through
        :meth:`cudaFree` one address at a time. Either way the run stops
        before the first address that is not a live device allocation
        (or on a library that takes no calls): the caller re-issues that
        call through :meth:`cudaFree`. Returns how many it freed.
        """
        if not self._entry_ok:
            return 0
        freed = 0
        for part in (addrs,) if type(addrs) is range else as_ranges(addrs):
            n = len(part)
            if n > 1 and self.unbuilt_device.pop_run(part):
                self.allocations.pop_run(part)
                objects = self._objects
                if objects:  # looked up, never built: freed objects
                    for addr in (
                        list(filter(part.__contains__, objects))
                        if len(objects) < n
                        else list(filter(objects.__contains__, part))
                    ):
                        objects.pop(addr).freed = True
                allocs = self._device_allocs
                if len(allocs) == 1:
                    allocs[0].free_run(part)
                else:  # each stretch in its GPU's arena
                    done = 0
                    while done < n:
                        done += allocs[self._row_device(part[done])
                                       ].free_run(part[done:])
                self.api_log["cudaFree"] += n
                freed += n
                continue
            for addr in part:
                if self.kind_of(addr) != "device":
                    return freed
                self.cudaFree(addr)
                freed += 1
        return freed

    def cudaMallocHost(self, nbytes: int) -> int:
        """Allocate pinned host memory (library-allocated! — §3.2.1)."""
        if self._entry_ok:
            self.api_log["cudaMallocHost"] += 1
        else:
            self._entry("cudaMallocHost")
        addr = self._pinned_alloc.alloc(nbytes)
        self.unbuilt_pinned.rows[addr] = next(self._buffer_uids)
        self.allocations.rows[addr] = nbytes
        self._host_origin[addr] = "pinned"
        return addr

    def cudaHostAlloc(self, nbytes: int, flags: int = 0) -> int:
        """Like cudaMallocHost but via the cudaHostAlloc entry point; CRAC
        treats the two differently at restart (§3.2.4)."""
        if self._entry_ok:
            self.api_log["cudaHostAlloc"] += 1
        else:
            self._entry("cudaHostAlloc")
        addr = self._hostalloc_alloc.alloc(nbytes)
        self.unbuilt_pinned.rows[addr] = next(self._buffer_uids)
        self.allocations.rows[addr] = nbytes
        self._host_origin[addr] = "hostalloc"
        return addr

    def cudaFreeHost(self, addr: int) -> None:
        """Release pinned host memory (arena-aware; see cudaHostRegister)."""
        if self._entry_ok:
            self.api_log["cudaFreeHost"] += 1
        else:
            self._entry("cudaFreeHost")
        kind = self.kind_of(addr)
        if kind is None:
            self._buffer(addr)  # raises the classified error
        if kind != "host-pinned":
            raise cuda_error(
                CudaErrorCode.INVALID_DEVICE_POINTER,
                "cudaFreeHost of a non-pinned pointer",
            )
        origin = self._host_origin.pop(addr, "pinned")
        if origin == "pinned":
            self._pinned_alloc.free(addr)
        elif origin == "hostalloc":
            self._hostalloc_alloc.free(addr)
        elif addr in self._hostalloc_alloc.active:
            # "registered" buffers were never arena-allocated, but a
            # restart may have *reserved* their range in the fresh arena;
            # release the reservation so the address becomes reusable.
            self._hostalloc_alloc.free(addr)
        self._forget(addr, self.unbuilt_pinned)

    def cudaMallocManaged(self, nbytes: int) -> int:
        """Allocate UVM managed memory; perturbs library⇄driver state."""
        if self._entry_ok:
            self.api_log["cudaMallocManaged"] += 1
        else:
            self._entry("cudaMallocManaged")
        addr = self._managed_alloc.alloc(nbytes)
        self.unbuilt_managed.rows[addr] = next(self._buffer_uids)
        self.allocations.rows[addr] = nbytes
        self.uvm.ever_used = True
        # UVA/UVM mappings entangle library and driver state (§2.2).
        self._lib_uva_epoch += 1
        self.ctx.uva_epoch += 1
        return addr

    def cudaHostRegister(self, addr: int, nbytes: int) -> None:
        """Register existing host memory as pinned (``cudaHostRegister``).

        CRAC uses this at restart to re-register still-active
        ``cudaHostAlloc`` buffers whose bytes were already restored with
        the upper half (§3.2.4) — no arena allocation happens.
        """
        self._entry("cudaHostRegister")
        cuda_check(
            addr not in self.allocations,
            CudaErrorCode.INVALID_VALUE,
            "cudaHostRegister of an already-registered pointer",
        )
        self.unbuilt_pinned.rows[addr] = next(self._buffer_uids)
        self.allocations.rows[addr] = nbytes
        self._host_origin[addr] = "registered"

    def cudaFreeManaged(self, addr: int) -> None:
        """Free managed memory (dispatched from cudaFree in real CUDA; a
        separate entry point here for log clarity)."""
        if self._entry_ok:
            self.api_log["cudaFree"] += 1
        else:
            self._entry("cudaFree")
        buf = self._objects.get(addr)
        managed = self.unbuilt_managed
        if (
            addr not in managed.rows
            and not (managed.pieces and addr in managed)
            if buf is None else buf.kind != "managed"
        ):
            if self.kind_of(addr) is None:
                self._buffer(addr)  # raises the classified error
            raise cuda_error(
                CudaErrorCode.INVALID_DEVICE_POINTER,
                "managed free of a non-managed pointer",
            )
        self._managed_alloc.free(addr)
        self.uvm.unregister(addr)
        self._forget(addr, self.unbuilt_managed)
        self._lib_uva_epoch += 1
        self.ctx.uva_epoch += 1

    # ------------------------------------------------------------ log replay

    def replay_allocations(
        self, records: Iterable[tuple], *, strict: bool = True
    ) -> ReplayResult:
        """Re-execute a cudaMalloc-family log in one pass: its records as
        :mod:`repro.core.replay_log` keeps them, ``(op, nbytes, addr,
        device)`` entries of one call each and the run records of calls
        that crossed at once.

        Every record goes through the entry points, so the runtime ends
        exactly as calling them one call at a time leaves it, down to
        dict orders, uids and ``api_log``, and raises the same errors at
        the same call. A :class:`RunRecord` of mallocs is one
        :meth:`malloc_run` that stops right after a call that lands off
        the log. A :class:`ChurnRecord` is replayed a pair at a time
        through :meth:`cudaMalloc` and :meth:`cudaFree` until its arena
        holds, and the rest of its pairs are one :meth:`malloc_free_run`.
        A :class:`RunRecord` of frees is one :meth:`free_run` per range,
        which frees a whole run's rows at once. A ``cudaSetDevice`` and
        every lone free call their entry point. Only a lone malloc is
        inlined: the entry point's counting, one arena call and the row
        it writes. ``cudaHostAlloc`` entries and their
        frees are not replayed: the caller re-registers the still-active
        ones, which the result lists.

        In strict mode an allocation landing at another address than the
        log's raises :class:`ReplayDivergenceError`; otherwise the result
        maps each original address to the replayed one, and frees follow
        that map (empty in strict mode, where every call lands as logged).
        """
        api_log = self.api_log
        allocations = self.allocations
        translation: dict[int, int] = {}
        #: every ``cudaHostAlloc`` address of the log, and the entries
        #: still active
        hostalloc_addrs: set[int] = set()
        host_allocs: dict[int, tuple] = {}
        replayed = 0
        for record in records:
            kind = type(record)
            if kind is RunRecord:
                if record.op == "free":
                    for part in record.addrs:
                        if translation:
                            part = [translation.get(a, a) for a in part]
                        done, n = 0, len(part)
                        while done < n:
                            done += self.free_run(part[done:])
                            if done < n:  # the call free_run stops at
                                self.cudaFree(part[done])
                                done += 1
                        replayed += n
                    continue
                _, nbytes, addrs, device = record
                if device != self.current_device:
                    self.cudaSetDevice(device)
                logged = (addrs[0] if len(addrs) == 1
                          else list(chain.from_iterable(addrs)))
                made = self.malloc_run(
                    nbytes, len(logged), logged if strict else None
                )
                taken = len(made)
                replayed += taken
                if not strict:
                    translation.update(zip(logged, made))
                elif taken and made[-1] != logged[taken - 1]:
                    _diverged(("malloc", nbytes, logged[taken - 1], device),
                              made[-1])
                if taken < len(logged):
                    self.cudaMalloc(nbytes)  # raises the run's next error
                continue
            if kind is ChurnRecord:
                nbytes, addr, device, pairs = record
                if device != self.current_device:
                    self.cudaSetDevice(device)
                arena = self._device_allocs[device]
                done = 0
                while done < pairs:
                    before = arena.free_spans()
                    got = self.cudaMalloc(nbytes)
                    if not strict:
                        translation[addr] = got
                    elif got != addr:
                        _diverged(("malloc", nbytes, addr, device), got)
                    self.cudaFree(got)
                    done += 1
                    if arena.free_spans() == before:
                        break
                # Every later pair lands where the last one did.
                self.malloc_free_run(nbytes, pairs - done)
                replayed += 2 * pairs
                continue
            op, nbytes, addr, device = record
            if op == "free":
                self.cudaFree(translation.get(addr, addr))
            elif op == "free_managed":
                self.cudaFreeManaged(translation.get(addr, addr))
            elif op == "free_host":
                if addr in hostalloc_addrs:
                    host_allocs.pop(addr, None)  # never replayed
                    continue
                self.cudaFreeHost(translation.get(addr, addr))
            elif op == "host_alloc":
                hostalloc_addrs.add(addr)
                host_allocs[addr] = record
                continue
            else:
                # A lone malloc: its entry point, inlined, so that the
                # arena call is its one Python call
                # (RESTART_MALLOC_CALL_BUDGET in test_alloc_path_cost).
                if op == "malloc":
                    if device != self.current_device:
                        self.cudaSetDevice(device)
                    name, arena, table = (
                        "cudaMalloc", self._device_allocs[device],
                        self.unbuilt_device,
                    )
                elif op == "malloc_host":
                    name, arena, table = (
                        "cudaMallocHost", self._pinned_alloc,
                        self.unbuilt_pinned,
                    )
                else:
                    name, arena, table = (
                        "cudaMallocManaged", self._managed_alloc,
                        self.unbuilt_managed,
                    )
                if self._entry_ok:
                    api_log[name] += 1
                else:
                    self._entry(name)  # raises the classified error
                got = arena.alloc(nbytes)
                table.rows[got] = next(self._buffer_uids)
                allocations.rows[got] = nbytes
                if op == "malloc_host":
                    self._host_origin[got] = "pinned"
                elif op == "malloc_managed":
                    self.uvm.ever_used = True
                    self._lib_uva_epoch += 1
                    self.ctx.uva_epoch += 1
                if not strict:
                    translation[addr] = got
                elif got != addr:
                    _diverged(record, got)
            replayed += 1
        return ReplayResult(replayed, translation, list(host_allocs.values()))

    # -------------------------------------------------------------- memcpy etc.

    def cudaMemcpy(
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
        """Copy memory; ``kind`` is ``"h2d"``, ``"d2h"`` or ``"d2d"``.

        Host ends may be numpy arrays (the app's data) or plain ints
        (simulated host VAS addresses). Synchronous copies block the host
        until the DMA completes; async copies only enqueue.
        """
        if self._entry_ok:
            self.api_log["cudaMemcpyAsync" if async_ else "cudaMemcpy"] += 1
        else:  # raises the classified error
            self._entry("cudaMemcpyAsync" if async_ else "cudaMemcpy")
        if kind not in ("h2d", "d2h", "d2d"):
            raise cuda_error(
                CudaErrorCode.INVALID_VALUE, f"bad memcpy kind {kind!r}"
            )
        s = stream if stream is not None else self.default_stream
        dev_addr = dst if kind == "h2d" else src
        dev = self._device_for(stream, dev_addr if isinstance(dev_addr, (int, np.integer)) else None)
        # Pageable host memory cannot be DMA'd directly: the driver stages
        # through a pinned bounce buffer, costing ~35% of the PCIe rate.
        # (Pinned memory — cudaMallocHost/cudaHostAlloc — goes full rate,
        # which is why simpleStreams allocates its destination pinned.)
        effective = nbytes
        if kind != "d2d":
            # Resolved once: nothing below allocates or frees a buffer.
            host_buf, host_off = self._resolve_host_ptr(
                src if kind == "h2d" else dst
            )
            if host_buf is None:  # numpy array or plain VAS memory
                effective = int(nbytes / PAGEABLE_COPY_EFFICIENCY)
        if self.sanitizer is not None:
            # Before the enqueue and the _buffer lookups below, so
            # memcheck records wild/freed pointers before the raise.
            self.sanitizer.on_copy(
                self, s, kind, dst, src, nbytes, dst_offset, src_offset,
                async_,
            )
        end = dev.enqueue_copy(s, effective, kind, at_ns=self.process.clock_ns)
        if kind != "d2d" and dev.fault_injector is not None:
            self._xfer_crc_trip(dev, s, kind, dst, src, nbytes,
                                dst_offset, src_offset)
        if kind == "h2d":
            buf = self._buffer(dst)
            if host_buf is not None:
                buf.contents.copy_from(
                    host_buf.contents, host_off + src_offset, dst_offset, nbytes
                )
            else:
                data = self._host_bytes(src, src_offset, nbytes)
                buf.contents.write_bytes(dst_offset, data)
            if isinstance(buf, ManagedBuffer):
                self.uvm.device_access(buf, dst_offset, nbytes)
        elif kind == "d2h":
            buf = self._buffer(src)
            if isinstance(buf, ManagedBuffer):
                self.uvm.host_access(buf, src_offset, nbytes, write=False)
            if host_buf is not None:
                host_buf.contents.copy_from(
                    buf.contents, src_offset, host_off + dst_offset, nbytes
                )
            else:
                data = buf.contents.read_bytes(src_offset, nbytes)
                self._host_store(dst, dst_offset, data)
        elif kind == "d2d":
            sbuf = self._buffer(src)
            dbuf = self._buffer(dst)
            dbuf.contents.copy_from(sbuf.contents, src_offset, dst_offset, nbytes)
        if not async_:
            self.process.advance_to(end)

    #: bytes of a transfer protected by one CRC word (per-region CRCs in
    #: the style of the checkpoint image's integrity check)
    XFER_CRC_WINDOW = 4096

    def _xfer_crc_trip(self, dev, stream, kind, dst, src, nbytes,
                       dst_offset, src_offset) -> None:
        """Injected PCIe transfer corruption, caught by a CRC check.

        Fires *after* the DMA is scheduled (the wire time was spent) but
        *before* any content lands at the destination, so a retried
        memcpy is a clean retransfer. The check is genuine: the source
        window's CRC is compared against the CRC of the in-flight bytes
        with one flipped bit, and the mismatch — not the injector —
        raises the retryable error.
        """
        if dev.fault_injector.trip("xfer-corrupt", f"memcpy-{kind}") is None:
            return
        window = min(nbytes, self.XFER_CRC_WINDOW)
        if kind == "h2d":
            host_buf, host_off = self._resolve_host_ptr(src)
            if host_buf is not None:
                data = host_buf.contents.read_bytes(
                    host_off + src_offset, window
                )
            else:
                data = self._host_bytes(src, src_offset, window)
        else:
            data = self._buffer(src).contents.read_bytes(src_offset, window)
        expected = zlib.crc32(data)
        wire = bytearray(data)
        if wire:
            wire[len(wire) // 2] ^= 0x40  # the in-flight bit flip
        got = zlib.crc32(bytes(wire))
        if got != expected or not wire:
            raise cuda_error(
                CudaErrorCode.TRANSFER_CRC_MISMATCH,
                f"memcpy-{kind} of {nbytes} B: region CRC {got:#010x} != "
                f"expected {expected:#010x}",
                stream_sid=stream.sid,
            )

    def _resolve_host_ptr(self, ptr):
        """If ``ptr`` is an address inside a pinned/managed buffer this
        library manages, return (buffer, offset-of-ptr-within-buffer);
        otherwise (None, 0) — the address is plain host (VAS) memory."""
        if not isinstance(ptr, (int, np.integer)):
            return None, 0
        addr = int(ptr)
        allocations = self.allocations
        if addr in allocations:
            return self._buffer(addr), 0
        # The allocation that would hold it starts at the greatest
        # address at or below it: only that one becomes an object.
        base = allocations.floor(addr)
        if (base is not None and addr < base + allocations[base]
                and self.kind_of(base) != "device"):
            return self._buffer(base), addr - base
        return None, 0

    def _host_bytes(self, src, offset: int, nbytes: int) -> bytes:
        if isinstance(src, (int, np.integer)):
            return self.process.vas.read(int(src) + offset, nbytes)
        arr = np.ascontiguousarray(src).view(np.uint8).ravel()
        return arr[offset : offset + nbytes].tobytes()

    def _host_store(self, dst, offset: int, data: bytes) -> None:
        if isinstance(dst, (int, np.integer)):
            self.process.vas.write(int(dst) + offset, data)
            return
        if not dst.flags["C_CONTIGUOUS"]:
            cuda_check(
                False, CudaErrorCode.INVALID_VALUE, "d2h into non-contiguous host array"
            )
        arr = dst.view(np.uint8).reshape(-1)
        arr[offset : offset + len(data)] = np.frombuffer(data, dtype=np.uint8)

    def cudaMemset(
        self,
        addr: int,
        value: int,
        nbytes: int,
        *,
        stream: Stream | None = None,
        async_: bool = False,
    ) -> None:
        """Fill ``nbytes`` of a buffer with ``value``."""
        if self._entry_ok:
            self.api_log["cudaMemsetAsync" if async_ else "cudaMemset"] += 1
        else:  # raises the classified error
            self._entry("cudaMemsetAsync" if async_ else "cudaMemset")
        s = stream if stream is not None else self.default_stream
        if self.sanitizer is not None:
            # Before _buffer, so memcheck records freed/wild pointers
            # before the raise.
            self.sanitizer.on_memset(self, s, addr, nbytes, async_)
        buf = self._buffer(addr)
        dev = self._device_for(stream, addr)
        end = dev.enqueue_copy(s, nbytes, "d2d", at_ns=self.process.clock_ns)
        if nbytes >= buf.size:
            buf.contents.fill(value)
        else:
            buf.contents.write_bytes(0, bytes([value & 0xFF]) * nbytes)
        if not async_:
            self.process.advance_to(end)

    # --------------------------------------------------------------- kernels

    def cudaLaunchKernel(
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
    ) -> int:
        """Launch a kernel asynchronously; returns its completion time.

        ``fn(*args)`` is executed eagerly for *content* (kernels mutate
        the numpy views the app obtained from :meth:`device_view`), while
        *timing* is scheduled on the stream. ``duration_ns`` overrides the
        roofline cost model when given. Managed-buffer use is declared via
        ``managed`` so UVM migration and write tracking apply.

        The kernel's fat binary must be registered with *this* library
        instance — the §3.2.5 invariant CRAC re-establishes at restart.
        """
        if self._entry_ok:
            self.api_log["cudaLaunchKernel"] += 1
        else:
            self._entry("cudaLaunchKernel")  # raises the classified error
        if name not in self._registered_kernels:
            raise cuda_error(
                CudaErrorCode.INITIALIZATION_ERROR,
                f"kernel {name!r} launched but its fat binary is not "
                "registered with this CUDA library instance",
            )
        if stream is None:
            if self.current_device != 0:
                raise cuda_error(
                    CudaErrorCode.NOT_SUPPORTED,
                    "default-stream launch on a non-zero device: create a "
                    "stream with cudaStreamCreate after cudaSetDevice",
                )
            s = self.default_stream
        else:
            s = stream
        dev = self._device_for(stream)
        migration = 0
        uses = list(managed)
        for use in uses:
            buf = self._buffer(use.addr)
            if not isinstance(buf, ManagedBuffer):
                raise cuda_error(
                    CudaErrorCode.INVALID_DEVICE_POINTER,
                    "managed= declared on a non-managed pointer",
                )
            migration += self.uvm.device_access(buf, use.offset, use.nbytes)
        if duration_ns is None:
            duration_ns = dev.spec.kernel_cost_ns(flop, bytes_touched)
        duration_ns += migration
        process = self.process
        end = dev.enqueue_kernel(s, duration_ns, at_ns=process.clock_ns, label=name)
        start = end - duration_ns
        for use in uses:
            if "w" in use.mode:
                self.uvm.record_device_write(
                    self._objects[use.addr], use.offset, use.nbytes, s,
                    start, end, now_ns=process.clock_ns,
                )
        san_op = None
        if self.sanitizer is not None:
            # device_view calls inside fn() attribute to this kernel op.
            san_op = self.sanitizer.on_kernel_begin(self, s, name, uses)
        if fn is not None:
            fn(*args)
        if san_op is not None:
            self.sanitizer.on_kernel_end(san_op)
        return end

    # ---------------------------------------------------------------- streams

    def cudaStreamCreate(self) -> Stream:
        """Create a stream on the current device."""
        self._entry("cudaStreamCreate")
        s = Stream(device_index=self.current_device)
        s.ready_ns = self.now
        self.device.register_stream(s)
        self.streams[s.sid] = s
        if self.sanitizer is not None:
            self.sanitizer.on_stream_created(s)
        return s

    def cudaStreamDestroy(self, stream: Stream) -> None:
        """Destroy a non-default stream."""
        self._entry("cudaStreamDestroy")
        cuda_check(
            stream.sid in self.streams and stream.sid != 0,
            CudaErrorCode.INVALID_VALUE,
            "destroying unknown or default stream",
        )
        stream.destroyed = True
        self.devices[stream.device_index].unregister_stream(stream)
        del self.streams[stream.sid]

    def cudaStreamSynchronize(self, stream: Stream | None = None) -> None:
        """Block the host until the stream drains."""
        self._entry("cudaStreamSynchronize")
        self.process.advance(SYNC_POLL_NS)
        s = self._stream(stream)
        self.process.advance_to(self._device_for(stream).stream_ready(s))
        if self.sanitizer is not None:
            self.sanitizer.on_sync(self, s)

    def cudaDeviceSynchronize(self) -> None:
        """Drain the whole device — the checkpoint-time quiesce step."""
        self._entry("cudaDeviceSynchronize")
        self.process.advance(SYNC_POLL_NS)
        self.process.advance_to(self.device.synchronize_all())
        if self.sanitizer is not None:
            self.sanitizer.on_sync(self)

    def cudaSetDevice(self, index: int) -> None:
        """Select the current GPU (allocation/launch/sync target)."""
        self._entry("cudaSetDevice")
        cuda_check(
            0 <= index < len(self.devices),
            CudaErrorCode.INVALID_VALUE,
            f"cudaSetDevice({index}) with {len(self.devices)} device(s)",
        )
        self.current_device = index

    def cudaGetDevice(self) -> int:
        """Index of the current GPU."""
        self._entry("cudaGetDevice")
        return self.current_device

    def cudaGetDeviceCount(self) -> int:
        """Number of GPUs visible to this library."""
        self._entry("cudaGetDeviceCount")
        return len(self.devices)

    def cudaMemcpyPeer(
        self, dst: int, src: int, nbytes: int, *, stream: Stream | None = None
    ) -> None:
        """Device-to-device copy across GPUs (PCIe/NVLink path): occupies
        both GPUs' copy engines for the transfer."""
        self._entry("cudaMemcpyPeer")
        s = self._stream(stream)
        if self.sanitizer is not None:
            # Before the _buffer lookups, so memcheck records wild/freed
            # peer pointers before the raise (same order as cudaMemcpy).
            self.sanitizer.on_copy(self, s, "d2d", dst, src, nbytes, 0, 0, False)
        sbuf = self._buffer(src)
        dbuf = self._buffer(dst)
        src_dev = self.devices[sbuf.device_index]
        dst_dev = self.devices[dbuf.device_index]
        end = src_dev.enqueue_copy(s, nbytes, "d2h", at_ns=self.now)
        end = max(end, dst_dev.enqueue_copy(s, nbytes, "h2d", at_ns=self.now))
        dbuf.contents.copy_from(sbuf.contents, 0, 0, nbytes)
        self.process.advance_to(end)

    # ----------------------------------------------------------------- events

    def cudaEventCreate(self) -> Event:
        """Create an event handle."""
        self._entry("cudaEventCreate")
        e = Event()
        self.events[e.eid] = e
        return e

    def cudaEventDestroy(self, event: Event) -> None:
        """Destroy an event handle."""
        self._entry("cudaEventDestroy")
        event.destroyed = True
        self.events.pop(event.eid, None)

    def cudaEventRecord(self, event: Event, stream: Stream | None = None) -> None:
        """Record the event at the stream's current tail."""
        self._entry("cudaEventRecord")
        self._device_for(stream).record_event(
            event, self._stream(stream), at_ns=self.now
        )
        if self.sanitizer is not None:
            self.sanitizer.on_event_record(event, self._stream(stream))

    def cudaEventSynchronize(self, event: Event) -> None:
        """Block the host until the event completes."""
        self._entry("cudaEventSynchronize")
        cuda_check(event.recorded, CudaErrorCode.INVALID_VALUE, "event not recorded")
        self.process.advance(SYNC_POLL_NS)
        self.process.advance_to(event.timestamp_ns)
        if self.sanitizer is not None:
            self.sanitizer.on_event_sync(event)

    def cudaEventElapsedTime(self, start: Event, end: Event) -> float:
        """Elapsed milliseconds between two recorded events."""
        self._entry("cudaEventElapsedTime")
        return end.elapsed_ms_since(start)

    def cudaStreamWaitEvent(self, stream: Stream, event: Event) -> None:
        """Order future stream work after the event."""
        self._entry("cudaStreamWaitEvent")
        self._device_for(stream).stream_wait_event(stream, event)
        if self.sanitizer is not None:
            self.sanitizer.on_stream_wait_event(stream, event)

    # ------------------------------------------------------------- fat binaries

    def cudaRegisterFatBinary(self, fatbin: FatBinary) -> int:
        """``__cudaRegisterFatBinary``: returns a registration handle."""
        self._entry("__cudaRegisterFatBinary")
        handle = next(self._fatbin_handles)
        self.fatbins[handle] = fatbin
        return handle

    def cudaRegisterFunction(self, handle: int, kernel_name: str) -> None:
        """``__cudaRegisterFunction``: register one device function."""
        self._entry("__cudaRegisterFunction")
        fatbin = self.fatbins.get(handle)
        cuda_check(
            fatbin is not None and kernel_name in fatbin.kernels,
            CudaErrorCode.INVALID_VALUE,
            f"kernel {kernel_name!r} not in fat binary handle {handle}",
        )
        self._registered_kernels.add(kernel_name)

    def cudaUnregisterFatBinary(self, handle: int) -> None:
        """``__cudaUnregisterFatBinary``: cleanup at process exit."""
        self._entry("__cudaUnregisterFatBinary")
        fatbin = self.fatbins.pop(handle, None)
        if fatbin is not None:
            self._registered_kernels.difference_update(fatbin.kernels)

    # ------------------------------------------------------------ device info

    def cudaGetDeviceProperties(self) -> dict:
        """Properties of the current GPU (name, CC, memory, ...)."""
        self._entry("cudaGetDeviceProperties")
        spec = self.device.spec
        return {
            "name": spec.name,
            "major": spec.compute_capability[0],
            "minor": spec.compute_capability[1],
            "totalGlobalMem": spec.memory_bytes,
            "concurrentKernels": spec.max_concurrent_kernels,
            "multiProcessorCount": spec.sm_count,
        }

    def cudaMemGetInfo(self) -> tuple[int, int]:
        """(free, total) device memory in bytes."""
        self._entry("cudaMemGetInfo")
        total = self.device.spec.memory_bytes
        return total - self._device_alloc.active_bytes, total

    def cudaPointerGetAttributes(self, addr: int) -> dict:
        """UVA pointer introspection (memory type + owning buffer base)."""
        self._entry("cudaPointerGetAttributes")
        allocations = self.allocations
        base = allocations.floor(addr)
        if base is not None and addr < base + allocations[base]:
            return {
                "type": self.kind_of(base), "devicePointer": base,
                "size": allocations[base],
            }
        return {"type": "unregistered", "devicePointer": 0, "size": 0}

    def cudaStreamQuery(self, stream: Stream | None = None) -> bool:
        """True if all work enqueued on the stream has completed."""
        self._entry("cudaStreamQuery")
        return self.device.stream_ready(self._stream(stream)) <= self.now

    def cudaEventQuery(self, event: Event) -> bool:
        """True if the event has been recorded and completed."""
        self._entry("cudaEventQuery")
        return event.recorded and event.timestamp_ns <= self.now

    def cudaMemPrefetchAsync(
        self,
        addr: int,
        nbytes: int,
        *,
        to_device: bool = True,
        stream: Stream | None = None,
        offset: int = 0,
    ) -> None:
        """UVM prefetch (CUDA 8.0): migrate managed pages ahead of use so
        kernels don't pay demand-fault costs. The migration occupies the
        copy engine like a normal DMA instead of stalling the kernel."""
        self._entry("cudaMemPrefetchAsync")
        buf = self._buffer(addr)
        cuda_check(
            isinstance(buf, ManagedBuffer),
            CudaErrorCode.INVALID_DEVICE_POINTER,
            "prefetch of a non-managed pointer",
        )
        s = self._stream(stream)
        if self.sanitizer is not None:
            self.sanitizer.on_prefetch(self, s, buf, offset, nbytes, to_device)
        if to_device:
            cost = self.uvm.device_access(buf, offset, nbytes)
        else:
            cost = self.uvm.host_access(buf, offset, nbytes, write=False)
        if cost > 0:
            # Bulk migration rides the copy engine (cheaper per byte than
            # demand faulting, which pays per-page latency).
            self.device.enqueue_copy(s, nbytes, "h2d" if to_device else "d2h",
                                     at_ns=self.now)

    # --------------------------------------------------- simulation accessors
    # (not CUDA entry points; not dispatched, not counted)

    def device_view(self, addr: int, nbytes: int, dtype=np.uint8, offset: int = 0):
        """Writable numpy view of a device/pinned buffer's contents."""
        if self.sanitizer is not None:
            buf = self.buffer(addr)
            if buf is not None:
                self.sanitizer.on_device_view(self, buf, offset, nbytes)
            else:
                # Freed/wild pointer: record the hazard before _buffer
                # raises below.
                self.sanitizer.on_pointer_miss(self, addr)
        return self._buffer(addr).contents.view(offset, nbytes, dtype)

    def managed_view(self, addr: int, nbytes: int, dtype=np.uint8, offset: int = 0):
        """Host-side access to managed memory: faults pages back to the
        host (advancing the host clock) and returns a writable view."""
        buf = self._buffer(addr)
        cuda_check(
            isinstance(buf, ManagedBuffer),
            CudaErrorCode.INVALID_DEVICE_POINTER,
            "managed_view of non-managed pointer",
        )
        cost = self.uvm.host_access(buf, offset, nbytes, write=True)
        self.process.advance(cost)
        if self.sanitizer is not None:
            self.sanitizer.on_managed_view(self, buf, offset, nbytes)
        return buf.contents.view(offset, nbytes, dtype)

    def active_allocations(self) -> list:
        """Live (not freed) buffers by address, each made an object —
        what CRAC saves at checkpoint."""
        return list(map(self._buffer, sorted(self.allocations)))

    def rows(self) -> list[tuple[int, int, str, int]]:
        """``(addr, size, kind, uid)`` of every live allocation, by
        address; makes no object."""
        objects = self._objects
        tables = (
            ("device", self.unbuilt_device),
            ("host-pinned", self.unbuilt_pinned),
            ("managed", self.unbuilt_managed),
        )
        out = []
        for addr in sorted(self.allocations):
            buf = objects.get(addr)
            if buf is not None:
                out.append((addr, buf.size, buf.kind, buf.uid))
                continue
            for kind, table in tables:
                uid = table.get(addr)
                if uid is not None:
                    out.append((addr, self.allocations[addr], kind, uid))
                    break
        return out

    def built_allocations(self) -> list:
        """The live buffers that built their contents (a managed one: or
        its residency), by address; the rest are never built. A buffer
        leaves its never-built table when it builds (``unbuilt`` is then
        ``None``), so only the objects are read."""
        objects = self._objects
        return [objects[addr] for addr in sorted(objects)
                if objects[addr].unbuilt is None]

    # ------------------------------------------------------- restart adoption
    # CRAC recreates streams/events in the fresh lower half and virtualizes
    # the application's handles onto them; adopting the original handle
    # objects models that virtualization (process-level virtualization is
    # DMTCP's plugin mechanism, §3/[20]).

    def adopt_stream(self, stream: Stream) -> None:
        """Attach an application-held stream handle to this fresh library."""
        stream.ready_ns = max(stream.ready_ns, self.process.clock_ns)
        stream.destroyed = False
        self.devices[stream.device_index].register_stream(stream)
        self.streams[stream.sid] = stream

    def adopt_event(self, event: Event) -> None:
        """Attach an application-held event handle to this fresh library."""
        event.destroyed = False
        self.events[event.eid] = event

    # ---------------------------------------------------------- CheCUDA hooks

    def destroy(self) -> None:
        """Tear down all CUDA resources (CheCUDA step (c), §2.2)."""
        self.destroyed = True
        self._entry_ok = False
        for s in list(self.streams.values()):
            self.device.unregister_stream(s)
        self.streams.clear()
        self.allocations.clear()
        self._objects.clear()
        self.unbuilt_device.clear()
        self.unbuilt_pinned.clear()
        self.unbuilt_managed.clear()

    def library_memory_snapshot(self) -> dict:
        """What a pre-CUDA-4.0 checkpointer would save: the library's
        in-memory state, including the (UVA-entangled) internal epoch."""
        return {
            "uva_epoch": self._lib_uva_epoch,
            "buffer_meta": {
                a: (size, self.kind_of(a)) for a, size in self.allocations.items()
            },
            "registered_kernels": set(self._registered_kernels),
            "fatbins": dict(self.fatbins),
        }

    def restore_library_memory(self, snap: dict) -> None:
        """CheCUDA-style restore of saved library memory into a *fresh*
        runtime. Works pre-UVA; with UVA/UVM state it leaves the library
        inconsistent with the driver context, and the next entry point
        fails (§2.2: "the restored CUDA library was then inconsistent
        when called after restart")."""
        self._lib_uva_epoch = snap["uva_epoch"]
        self._entry_ok = (
            not self.destroyed and self._lib_uva_epoch == self.ctx.uva_epoch
        )
        self._registered_kernels = set(snap["registered_kernels"])
        self.fatbins = dict(snap["fatbins"])
