"""The cudaMalloc-family log and the restart-time replay engine.

CRAC logs every allocation/free in the cudaMalloc family (§3.2.3) — *not*
every mmap, which the paper shows is impractical — and replays the entire
sequence at restart so the deterministic CUDA allocator reproduces every
active allocation at its original address (§3.2.4). The memory *content*
of only the *active* allocations is saved; the full call sequence is
replayed purely for address determinism.

``cudaHostAlloc`` is the exception: its buffers are already present in
the restored upper-half memory, so only still-active ones are replayed —
as ``cudaHostRegister`` — to re-register them with the fresh library.

Replay verifies determinism: if a replayed allocation lands at a
different address (e.g. ASLR was left enabled, or the restart runs on a
different CUDA/GPU platform), every pointer held by the restored upper
half would dangle, so replay aborts with ``ReplayDivergenceError``.

The log holds what the trampoline crossed: a :class:`LogEntry` per call
made one at a time, and one record per run of calls that crossed at once
(a :class:`RunRecord` of equal mallocs or frees, a :class:`ChurnRecord`
of malloc/free pairs at one address). :attr:`ReplayLog.entries` expands
the records into one entry per call, and ``len`` counts calls. A record
never straddles a checkpoint cut (the call an armed checkpoint fires at
crosses alone), so the log an image keeps is a prefix of the live log's
records. The lower-half library replays the records as they are, in one
pass (``CudaRuntime.replay_allocations``) that calls its own entry points:
a run of mallocs is one ``malloc_run``, a churn is replayed a pair at a
time until its arena holds and the rest is one ``malloc_free_run``, a
run of frees is one ``free_run``, and every other free and device
switch is its entry point. Every allocation is a row (its size and its
uid in a never-built table; a run's allocations one row of each): no
buffer object is built, live at the end or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Literal, NamedTuple

from repro.cuda.api import CudaRuntime, ReplayResult

Op = Literal[
    "malloc",
    "free",
    "malloc_host",
    "free_host",
    "malloc_managed",
    "free_managed",
    "host_alloc",
]


class LogEntry(NamedTuple):
    """One logged cudaMalloc-family call (an immutable tuple)."""

    op: Op
    nbytes: int  # 0 for frees
    addr: int  # result for allocs, argument for frees
    #: cudaSetDevice state at call time (multi-GPU replay must restore it)
    device: int = 0


def _expand(record) -> Iterable[LogEntry]:
    """The entry of each call ``record`` holds."""
    if type(record) is LogEntry:
        return (record,)
    return map(LogEntry._make, record.entries())


@dataclass(repr=False)
class ReplayLog:
    """Ordered log of allocation-family calls, as the records the
    trampoline wrote (module docstring). Its ``repr`` lists the calls,
    however they are recorded."""

    records: list = field(default_factory=list)
    #: calls the records hold beyond one each (a run record holds many)
    extra_calls: int = 0

    def record(self, op: Op, nbytes: int, addr: int, device: int = 0) -> None:
        """Append one allocation-family call to the log."""
        self.records.append(LogEntry(op, nbytes, addr, device))

    def __len__(self) -> int:
        return len(self.records) + self.extra_calls

    def __repr__(self) -> str:
        return f"ReplayLog(entries={self.entries!r})"

    @property
    def entries(self) -> list[LogEntry]:
        """One entry per logged call, in call order (a new list)."""
        return list(chain.from_iterable(map(_expand, self.records)))

    def copy(self) -> ReplayLog:
        """The log as it stands, apart from later appends to this one."""
        return ReplayLog(list(self.records), self.extra_calls)

    def since(self, prefix: ReplayLog) -> ReplayLog:
        """The records appended after ``prefix``, a log whose records
        begin this one's (a copy taken earlier, or an image's)."""
        k = len(prefix.records)
        return ReplayLog(
            self.records[k:],
            self.extra_calls - prefix.extra_calls,
        )

    def extend(self, other: ReplayLog) -> None:
        """Append ``other``'s records."""
        self.records += other.records
        self.extra_calls += other.extra_calls

    # -- queries ----------------------------------------------------------------

    def active_allocations(self) -> dict[int, LogEntry]:
        """Allocations not freed by the end of the log, keyed by address."""
        live: dict[int, LogEntry] = {}
        for e in self.entries:
            if e.op in ("malloc", "malloc_host", "malloc_managed", "host_alloc"):
                live[e.addr] = e
            else:
                live.pop(e.addr, None)
        return live

    # -- replay -------------------------------------------------------------------

    def replay(
        self, runtime: CudaRuntime, *, strict: bool = True
    ) -> ReplayResult:
        """Re-execute the log against a lower-half CUDA library (a fresh
        one at restart), in one pass of
        :meth:`CudaRuntime.replay_allocations` over its records.

        In the default strict mode, an allocation that lands at a
        different address than in the original run raises
        :class:`~repro.errors.ReplayDivergenceError` — the paper's
        baseline design, which requires disabled ASLR and the same
        CUDA/GPU platform.

        With ``strict=False`` (the §3.2.4 future-work *address
        virtualization* mode) divergence is tolerated: the result's
        ``{original_addr: new_addr}`` translation map lets the caller
        patch its virtual-address table. Either way the result carries
        the number of calls replayed and the still-active
        ``cudaHostAlloc`` entries to re-register.
        """
        return runtime.replay_allocations(self.records, strict=strict)


# -- stream-op log (fault-domain rung 2) --------------------------------------


@dataclass
class StreamOpRecord:
    """One device operation enqueued on a stream, for timing replay.

    The fault domain's stream-reset rung must *re-issue* the work a
    poisoned stream had in flight. Content effects are applied eagerly
    at enqueue time (simulation convention), so replay is timing-only:
    the op is re-enqueued on the reset stream to re-charge its device
    occupancy, not re-executed.
    """

    stream_sid: int
    kind: str  # "kernel" | "copy"
    label: str
    duration_ns: int
    #: copy engine ("h2d"/"d2h"/"d2d") for kind="copy", else ""
    copy_kind: str = ""
    nbytes: int = 0
    replayed: bool = False


class StreamOpLog:
    """Ring of recently enqueued, not-yet-synchronized stream ops.

    The device appends a record per enqueue; a successful stream/device
    synchronization marks everything up to that point as retired. After
    a sticky fault, ``replay_unsynced`` re-enqueues the surviving window
    for the affected stream(s) through ``device.requeue`` — which
    bypasses fault injection and logging, so replay cannot recurse.
    """

    #: records kept; past it, the oldest retired ones are trimmed
    MAX_ENTRIES = 4096

    def __init__(self) -> None:
        self.records: list[StreamOpRecord] = []
        #: total ops ever recorded (diagnostics; survives trimming)
        self.total_recorded = 0

    def record(self, stream_sid: int, kind: str, label: str,
               duration_ns: int, *, copy_kind: str = "",
               nbytes: int = 0) -> None:
        """Append one enqueued op (trims the oldest retired records)."""
        self.records.append(StreamOpRecord(
            stream_sid, kind, label, duration_ns,
            copy_kind=copy_kind, nbytes=nbytes,
        ))
        self.total_recorded += 1
        if len(self.records) > self.MAX_ENTRIES:
            keep = [r for r in self.records if not r.replayed]
            self.records = keep[-self.MAX_ENTRIES:]

    def mark_synced(self, stream_sid: int | None = None) -> int:
        """Retire ops confirmed complete by a successful synchronization.

        ``stream_sid=None`` retires every stream (device-wide sync);
        otherwise only that stream's ops. Returns the number retired.
        """
        n = 0
        for r in self.records:
            if r.replayed:
                continue
            if stream_sid is None or r.stream_sid == stream_sid:
                r.replayed = True
                n += 1
        return n

    def unsynced(self, stream_sid: int | None = None) -> list[StreamOpRecord]:
        """Ops enqueued but not yet confirmed by a synchronization."""
        return [
            r for r in self.records
            if not r.replayed
            and (stream_sid is None or r.stream_sid == stream_sid)
        ]

    def replay_unsynced(self, device, streams_by_sid, *,
                        stream_sid: int | None = None) -> int:
        """Re-enqueue unsynchronized ops on their (reset) streams.

        Timing-only: goes through ``device.requeue`` so neither fault
        injection nor this log observes the replayed ops. Records stay
        live (not retired) — the ops are once again in flight and only
        the next successful synchronization retires them.
        """
        n = 0
        for r in self.unsynced(stream_sid):
            stream = streams_by_sid.get(r.stream_sid)
            if stream is None or stream.destroyed:
                continue
            device.requeue(stream, r)
            n += 1
        return n
