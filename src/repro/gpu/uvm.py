"""Unified Virtual Memory (UVM): page-granular managed memory.

CUDA 6.0's UVM lets host and device touch the same pointer; the
hardware/driver migrates pages on demand (hardware page faults on Pascal
and later — §2.3). The model tracks per-page residency, charges
fault + migration costs on access from the "wrong" side, and records
device-side writes per kernel so the CRUM baseline's shadow-page failure
mode (two concurrent streams writing the same page, §1 contribution 2)
is detectable.

The UVM mapping is part of the CUDA library's *irrecoverable* internal
state: once created, it cannot be destroyed and later restored through
any public API — the historical reason CheCUDA-era checkpointing died
with CUDA 4.0 (§2.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.errors import CudaError
from repro.gpu.device import GpuDevice
from repro.gpu.memory import PagedContents, leave_unbuilt
from repro.gpu.rows import RowTable
from repro.gpu.streams import Stream
from repro.gpu.timing import transfer_ns


def _retryable_error(code_name: str, msg: str) -> CudaError:
    # Deferred import: repro.gpu must not pull in repro.cuda at module
    # load time (cuda/api.py imports this module).
    from repro.cuda.errors import CudaErrorCode

    return CudaError(
        f"{code_name}: {msg}", code=CudaErrorCode[code_name],
        severity="retryable",
    )

#: UVM migration granularity. Real UVM uses 4 KiB–2 MiB chunks; 64 KiB is
#: the driver's common prefetch granule and keeps page tables small.
UVM_PAGE = 64 * 1024


class PageLocation(enum.IntEnum):
    """Residency of one UVM page."""

    HOST = 0
    DEVICE = 1


@dataclass
class DeviceWriteRecord:
    """One kernel's write footprint on a managed buffer."""

    page_lo: int
    page_hi: int  # inclusive
    stream_sid: int
    start_ns: int
    end_ns: int

    def overlaps_pages(self, other: "DeviceWriteRecord") -> bool:
        """True if the two write footprints share a page."""
        return self.page_lo <= other.page_hi and other.page_lo <= self.page_hi

    def overlaps_time(self, other: "DeviceWriteRecord") -> bool:
        """True if the two kernels were in flight simultaneously."""
        return self.start_ns < other.end_ns and other.start_ns < self.end_ns


@dataclass(slots=True, eq=False)
class ManagedBuffer:
    """A cudaMallocManaged allocation, as an object.

    Like a :class:`~repro.gpu.memory.DeviceBuffer`, the runtime makes
    it on first lookup, and it builds its :class:`PagedContents` and its
    residency (host-resident: first touch on the CPU) on first use.
    Until either is built it sits in its runtime's never-built table
    (:attr:`unbuilt`), which it leaves on that first build.
    """

    kind: ClassVar[str] = "managed"
    #: managed memory is charged to device 0 (see :class:`UvmManager`)
    device_index: ClassVar[int] = 0

    addr: int
    size: int
    #: runtime-unique allocation id (see :class:`DeviceBuffer.uid`)
    uid: int = 0
    #: the runtime's never-built managed table while this buffer is in
    #: it; ``None`` once built
    unbuilt: RowTable | None = field(default=None, repr=False)
    freed: bool = False
    device_writes: list[DeviceWriteRecord] = field(default_factory=list)
    #: conflict pairs whose records were compacted out of
    #: ``device_writes`` before any overlap query observed them — kept so
    #: :meth:`UvmManager.concurrent_same_page_writes` never misses a real
    #: CRUM failure. Bounded by the number of actual conflicts.
    stashed_conflicts: list[tuple[DeviceWriteRecord, DeviceWriteRecord]] = field(
        default_factory=list, repr=False
    )
    _contents: PagedContents | None = field(
        default=None, init=False, repr=False
    )
    _residency: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def contents(self) -> PagedContents:
        """The buffer's bytes, built (fresh: zero-filled, clean) on first
        use."""
        contents = self._contents
        if contents is None:
            contents = self._contents = PagedContents(self.size)
            leave_unbuilt(self)
        return contents

    @property
    def residency(self) -> np.ndarray:
        """Per-page :class:`PageLocation`, built host-resident on first
        use."""
        residency = self._residency
        if residency is None:
            residency = self._residency = np.zeros(self.num_pages, dtype=np.uint8)
            leave_unbuilt(self)
        return residency

    @property
    def write_seq(self) -> int:
        """The contents' :attr:`PagedContents.write_seq`; 0 while unbuilt."""
        contents = self._contents
        return 0 if contents is None else contents.write_seq

    def dirty_bytes_since(self, epoch: int) -> int:
        """The contents' :meth:`PagedContents.dirty_bytes_since`; 0 while
        unbuilt."""
        contents = self._contents
        return 0 if contents is None else contents.dirty_bytes_since(epoch)

    @property
    def num_pages(self) -> int:
        return (self.size + UVM_PAGE - 1) // UVM_PAGE

    def page_range(self, offset: int, nbytes: int) -> tuple[int, int]:
        """Inclusive page index range covering ``[offset, offset+nbytes)``."""
        if nbytes <= 0:
            nbytes = 1
        return offset // UVM_PAGE, (offset + nbytes - 1) // UVM_PAGE


class UvmManager:
    """Tracks the managed buffers of one CUDA library instance."""

    def __init__(self, device: GpuDevice) -> None:
        self.device = device
        #: the managed buffers made as objects (a row the runtime never
        #: looked up has no page state or writes to track)
        self.buffers: dict[int, ManagedBuffer] = {}
        self.fault_count = 0
        self.migrated_bytes = 0
        #: Creating any managed mapping permanently perturbs the CUDA
        #: library's internal state (see module docstring); the CUDA
        #: runtime consults this to refuse naive restore-after-destroy.
        self.ever_used = False

    def register(self, buf: ManagedBuffer) -> None:
        """Track a new managed allocation (perturbs library state)."""
        self.buffers[buf.addr] = buf
        self.ever_used = True

    def unregister(self, addr: int) -> None:
        """Stop tracking a freed managed allocation."""
        self.buffers.pop(addr, None)

    # -- access paths --------------------------------------------------------

    def _migrate(self, buf: ManagedBuffer, lo: int, hi: int, to: PageLocation) -> int:
        """Migrate pages [lo, hi] to ``to``; returns the cost in ns."""
        pages = buf.residency[lo : hi + 1]
        wrong = int(np.count_nonzero(pages != int(to)))
        if wrong == 0:
            return 0
        # Runtime faults fire before residency mutates, so a retried
        # migration starts from the same page state.
        injector = self.device.fault_injector
        if injector is not None:
            ctx = f"uvm@{buf.addr:#x}[{lo}:{hi}]"
            if injector.trip("uvm-storm", ctx) is not None:
                raise _retryable_error(
                    "UVM_FAULT_STORM",
                    f"fault storm migrating {wrong} page(s) ({ctx})",
                )
            if injector.trip("xfer-corrupt", ctx) is not None:
                raise _retryable_error(
                    "TRANSFER_CRC_MISMATCH",
                    f"UVM migration CRC mismatch ({ctx})",
                )
        spec = self.device.spec
        cost = wrong * spec.uvm_fault_ns + transfer_ns(
            wrong * UVM_PAGE, spec.uvm_migrate_bw
        )
        pages[:] = int(to)
        self.fault_count += wrong
        self.migrated_bytes += wrong * UVM_PAGE
        tracer = self.device.tracer
        if tracer is not None:
            tracer.on_uvm_migration(
                buf.addr,
                pages=wrong,
                nbytes=wrong * UVM_PAGE,
                cost_ns=cost,
                to="device" if to == PageLocation.DEVICE else "host",
            )
        return cost

    def host_access(
        self, buf: ManagedBuffer, offset: int, nbytes: int, *, write: bool
    ) -> int:
        """CPU touches managed memory; returns the stall cost in ns.

        Device-resident pages fault back to the host. (Write vs read only
        matters for bookkeeping; both migrate under the pre-Volta model.)
        """
        lo, hi = buf.page_range(offset, nbytes)
        return self._migrate(buf, lo, hi, PageLocation.HOST)

    def device_access(
        self, buf: ManagedBuffer, offset: int, nbytes: int
    ) -> int:
        """Kernel will touch managed memory; returns migration cost in ns
        to be folded into the kernel's duration."""
        lo, hi = buf.page_range(offset, nbytes)
        return self._migrate(buf, lo, hi, PageLocation.DEVICE)

    #: ``record_device_write`` opportunistically compacts once a buffer's
    #: log exceeds this many records, so the log stays bounded even on
    #: checkpoint-free runs.
    COMPACT_THRESHOLD = 512

    def record_device_write(
        self,
        buf: ManagedBuffer,
        offset: int,
        nbytes: int,
        stream: Stream,
        start_ns: int,
        end_ns: int,
        *,
        now_ns: int | None = None,
    ) -> None:
        """Log a kernel's write footprint (used by the CRUM failure check).

        ``now_ns`` (the enqueue-time clock) enables opportunistic
        compaction: a record that ended before *now* can never overlap a
        future enqueue (kernel start times are bounded below by their
        enqueue time), so once the log grows past ``COMPACT_THRESHOLD``
        those dead records are dropped — after stashing any conflict
        pairs they participate in (see :meth:`compact_writes`).
        """
        lo, hi = buf.page_range(offset, nbytes)
        buf.device_writes.append(
            DeviceWriteRecord(lo, hi, stream.sid, start_ns, end_ns)
        )
        if (
            now_ns is not None
            and len(buf.device_writes) > self.COMPACT_THRESHOLD
        ):
            self.compact_writes(buf, before_ns=now_ns)

    @staticmethod
    def _sweep_conflicts(
        records: list[DeviceWriteRecord],
    ) -> list[tuple[DeviceWriteRecord, DeviceWriteRecord]]:
        """Cross-stream same-page time-overlap pairs among ``records``.

        A sweep over records sorted by start time with an active set of
        still-in-flight records: O(n log n + conflicts) instead of the
        naive O(n²) pairwise scan.
        """
        writes = sorted(records, key=lambda r: (r.start_ns, r.end_ns))
        out: list[tuple[DeviceWriteRecord, DeviceWriteRecord]] = []
        active: list[DeviceWriteRecord] = []
        for rec in writes:
            active = [a for a in active if a.end_ns > rec.start_ns]
            for a in active:
                if (
                    a.stream_sid != rec.stream_sid
                    and a.overlaps_pages(rec)
                    and a.overlaps_time(rec)
                ):
                    out.append((a, rec))
            active.append(rec)
        return out

    def compact_writes(self, buf: ManagedBuffer, *, before_ns: int) -> int:
        """Drop write records that finished at or before ``before_ns``.

        Any conflict pair involving a to-be-dropped record could never be
        observed again once the record is gone, so those pairs are
        stashed on the buffer first — compaction is therefore safe at any
        point, including opportunistically at enqueue time. Returns the
        number of records dropped.
        """
        kept = [r for r in buf.device_writes if r.end_ns > before_ns]
        dropped = len(buf.device_writes) - len(kept)
        if dropped:
            kept_ids = {id(r) for r in kept}
            buf.stashed_conflicts.extend(
                (a, b)
                for a, b in self._sweep_conflicts(buf.device_writes)
                if id(a) not in kept_ids or id(b) not in kept_ids
            )
            buf.device_writes = kept
        return dropped

    def concurrent_same_page_writes(
        self, buf: ManagedBuffer, *, compact_before_ns: int | None = None
    ) -> list[tuple[DeviceWriteRecord, DeviceWriteRecord]]:
        """Pairs of writes from *different streams* that overlapped in time
        on the *same page* — the pattern CRUM's shadow-page strategy cannot
        synchronize (paper §1, contribution 2).

        Reports conflicts found in the live log *plus* any pairs stashed
        by earlier compactions, so compacting the log never hides a real
        conflict. Pass ``compact_before_ns`` (typically the current
        clock, after a synchronize) to also drop drained records — and
        the just-reported stash — once they are reported.

        Drain semantics are *exact*: a compacting query removes from the
        stash only what this call reported — the stash prefix it read
        plus the pairs its own compaction stashed that also appeared in
        the live sweep. A pair stashed but *not* reported (e.g. one a
        bounded ``compact_before_ns`` dropped without the sweep pairing
        it) survives for the next query, and a non-compacting query
        never observes — or leaves behind — a half-drained stash.
        """
        reported_stash = len(buf.stashed_conflicts)
        out = list(buf.stashed_conflicts)
        live = self._sweep_conflicts(buf.device_writes)
        out.extend(live)
        if compact_before_ns is not None:
            live_ids = {(id(a), id(b)) for a, b in live}
            self.compact_writes(buf, before_ns=compact_before_ns)
            buf.stashed_conflicts = [
                pair
                for pair in buf.stashed_conflicts[reported_stash:]
                if (id(pair[0]), id(pair[1])) not in live_ids
            ]
        return out

    # -- checkpoint support -------------------------------------------------------

    def total_managed_bytes(self) -> int:
        """Sum of the sizes of the tracked managed buffers."""
        return sum(b.size for b in self.buffers.values())
