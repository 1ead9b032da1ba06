"""The dynamic hazard detector (compute-sanitizer's racecheck family).

The :class:`Sanitizer` attaches to a :class:`~repro.cuda.api.CudaRuntime`
(``runtime.sanitizer``) and to its allocation arenas; the instrumented
paths call the ``on_*`` hooks below. Four checkers, individually
selectable:

======== ==================================================================
checker   fires when
======== ==================================================================
racecheck two device ops on *different streams* touch overlapping bytes
          of one buffer (≥1 write) with **no happens-before edge** —
          vector clocks concurrent (see :mod:`.vector_clock`). Managed
          buffers are checked at UVM page granularity, the CRUM
          shadow-page failure mode.
synccheck a checkpoint cut (plugin precheckpoint) or an image's
          ``mark_committed`` happens while some stream still has
          unsynced work in flight (``ready_ns`` past the host clock).
memcheck  use-after-free / wild pointers, out-of-bounds accesses against
          the arena, double frees, and a leak report at
          :meth:`Sanitizer.finish`.
initcheck a device read covers bytes never written by any h2d copy,
          memset, kernel view, or managed write.
======== ==================================================================

Host-side ``device_view``/``managed_view`` accesses outside a kernel mark
bytes *written* (feeding initcheck) but never race: the simulation lets
the host peek at device contents freely between launches, and flagging
that would drown real cross-stream hazards.

Every hook charges :data:`~repro.gpu.timing.SANITIZER_CHECK_NS` of
virtual time, so instrumentation overhead is measurable (a tier-1
test bounds it).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.gpu.intervals import SpanSet
from repro.gpu.timing import SANITIZER_CHECK_NS
from repro.gpu.uvm import UVM_PAGE
from repro.sanitizer.hazards import HazardReport, SanitizerReport
from repro.sanitizer.vector_clock import ClockMatrix, VectorClock

#: All checkers, in report order.
CHECKERS = ("racecheck", "synccheck", "memcheck", "initcheck")

#: Per-buffer access-history bound; beyond it, accesses dominated by
#: every stream's clock (can never race future ops) are pruned.
HISTORY_LIMIT = 256


@dataclass(frozen=True)
class _Access:
    """One recorded device-op access to a buffer."""

    lo: int
    hi: int
    write: bool
    sid: int
    clock: VectorClock
    op_id: int
    label: str


@dataclass
class _OpCtx:
    """One instrumented device operation (clock snapshot at issue)."""

    sid: int
    clock: VectorClock
    op_id: int
    label: str


class _AccessIndex:
    """Vectorized mirror of a buffer's access history.

    Byte ranges, stream ids, and write flags live in growable numpy
    arrays aligned row-for-row with ``_BufState.accesses``; clocks live
    in a :class:`ClockMatrix`. :meth:`race_rows` answers "which recorded
    accesses race this op" with a handful of array reductions instead of
    the legacy per-access Python scan — same rows, same order.
    """

    __slots__ = ("_lo", "_hi", "_sid", "_write", "_clocks", "_n")

    def __init__(self) -> None:
        self._lo = np.zeros(16, dtype=np.int64)
        self._hi = np.zeros(16, dtype=np.int64)
        self._sid = np.zeros(16, dtype=np.int64)
        self._write = np.zeros(16, dtype=bool)
        self._clocks = ClockMatrix()
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def add(self, a: _Access) -> None:
        """Append one access (row index == position in the list)."""
        if self._n >= self._lo.size:
            for name in ("_lo", "_hi", "_sid", "_write"):
                arr = getattr(self, name)
                grown = np.zeros(2 * arr.size, dtype=arr.dtype)
                grown[: self._n] = arr[: self._n]
                setattr(self, name, grown)
        self._lo[self._n] = a.lo
        self._hi[self._n] = a.hi
        self._sid[self._n] = a.sid
        self._write[self._n] = a.write
        self._clocks.append(a.clock)
        self._n += 1

    def rebuild(self, accesses: list[_Access]) -> None:
        """Re-index after a prune rewrote the access list."""
        self._n = 0
        self._clocks.clear()
        for a in accesses:
            self.add(a)

    def race_rows(
        self, r_lo: int, r_hi: int, sid: int, write: bool, clock: VectorClock
    ) -> list[int]:
        """Row indices of recorded accesses racing the given op, in
        recording order: overlapping bytes, different stream, ≥1 write,
        concurrent clocks."""
        n = self._n
        if n == 0:
            return []
        mask = (self._hi[:n] > r_lo) & (self._lo[:n] < r_hi)
        mask &= self._sid[:n] != sid
        if not write:
            mask &= self._write[:n]
        if not mask.any():
            return []
        row_leq, q_leq = self._clocks.versus(clock)
        mask &= ~row_leq & ~q_leq
        return np.flatnonzero(mask).tolist()

    def dominated_rows(self, frontier: VectorClock) -> np.ndarray:
        """Bool array: rows whose clock is ≤ ``frontier``."""
        return self._clocks.versus(frontier)[0]


@dataclass
class _BufState:
    """Sanitizer-side shadow state of one live buffer."""

    addr: int
    uid: int
    size: int
    kind: str
    paged: bool  # managed: race at UVM page granularity
    accesses: list[_Access] = field(default_factory=list)
    #: vectorized index over ``accesses`` (kept in lockstep)
    index: _AccessIndex = field(default_factory=_AccessIndex)
    #: byte spans ever written (initcheck coverage)
    written: SpanSet = field(default_factory=SpanSet)


class Sanitizer:
    """Vector-clock hazard detector for one runtime (see module doc)."""

    def __init__(self, checkers: tuple[str, ...] = CHECKERS) -> None:
        unknown = set(checkers) - set(CHECKERS)
        if unknown:
            raise ValueError(f"unknown checker(s): {sorted(unknown)}")
        self.checkers = frozenset(checkers)
        self.report = SanitizerReport()
        self._runtime = None
        self._op_ids = itertools.count(1)
        self._host_clock = VectorClock()
        self._stream_clocks: dict[int, VectorClock] = {}
        self._event_clocks: dict[int, VectorClock] = {}
        #: clock published by the last default-stream op; streams created
        #: later start ordered after it (mirrors the device engine's
        #: ``_default_barrier_ns`` in ``register_stream``)
        self._default_barrier = VectorClock()
        self._buffers: dict[tuple[int, int], _BufState] = {}
        #: freed-not-yet-reused arena ranges: addr -> freed size
        self._freed: dict[int, int] = {}
        #: (addr, uid) live when the sanitizer attached — never leaks
        self._preexisting: set[tuple[int, int]] = set()
        self._hazard_keys: set = set()
        self._kernel_ctx: _OpCtx | None = None

    @property
    def hazards(self) -> list[HazardReport]:
        """All hazards found so far (shorthand for ``report.hazards``)."""
        return self.report.hazards

    # -- lifecycle -----------------------------------------------------------

    def attach(self, runtime) -> None:
        """Wire this sanitizer into ``runtime`` and its arenas.

        Idempotent and restart-safe: re-attaching to a fresh runtime
        (after :meth:`CracSession.restart`) keeps all clocks and shadow
        state — the app's logical timeline continues across the restart.
        """
        first = self._runtime is None
        self._runtime = runtime
        runtime.sanitizer = self
        for arena in (
            *runtime._device_allocs,
            runtime._pinned_alloc,
            runtime._hostalloc_alloc,
            runtime._managed_alloc,
        ):
            arena.sanitizer = self
        if first:
            # Read as rows: attaching makes no buffer object.
            for addr, size, kind, uid in runtime.rows():
                self._preexisting.add((addr, uid))
                st = self._state(addr, uid, size, kind)
                # Pre-attach history is unknown: assume initialized.
                st.written = SpanSet([(0, size)])

    def detach(self) -> None:
        """Unhook from the current runtime (shadow state is kept)."""
        runtime = self._runtime
        if runtime is None:
            return
        runtime.sanitizer = None
        for arena in (
            *runtime._device_allocs,
            runtime._pinned_alloc,
            runtime._hostalloc_alloc,
            runtime._managed_alloc,
        ):
            arena.sanitizer = None
        self._runtime = None

    def finish(self, runtime=None) -> SanitizerReport:
        """End-of-run pass: the memcheck leak report.

        Call once the application has completed (not at ``kill()`` — a
        killed-for-restart process legitimately holds live allocations).
        """
        runtime = runtime if runtime is not None else self._runtime
        if runtime is not None and "memcheck" in self.checkers:
            for addr, size, kind, uid in runtime.rows():
                if (addr, uid) in self._preexisting:
                    continue
                self._emit(
                    "memcheck", "leak",
                    f"{kind} allocation of {size} bytes at {addr:#x} never "
                    "freed",
                    addr=addr, byte_range=(0, size),
                )
        return self.report

    # -- internals -----------------------------------------------------------

    def _charge(self) -> None:
        self.report.ops_instrumented += 1
        if self._runtime is not None:
            self._runtime.process.advance(SANITIZER_CHECK_NS)

    def _emit(self, checker: str, kind: str, message: str, *, addr: int = 0,
              byte_range=None, stream_sids=(), op_ids=(),
              missing_edge=None) -> None:
        if checker not in self.checkers:
            return
        key = (checker, kind, addr, tuple(stream_sids), byte_range)
        if key in self._hazard_keys:
            return
        self._hazard_keys.add(key)
        self.report.hazards.append(HazardReport(
            checker=checker, kind=kind, message=message, addr=addr,
            byte_range=byte_range, stream_sids=tuple(stream_sids),
            op_ids=tuple(op_ids), missing_edge=missing_edge,
        ))

    def _stream_clock(self, sid: int) -> VectorClock:
        vc = self._stream_clocks.get(sid)
        if vc is None:
            vc = VectorClock()
            # A stream discovered now was created now: ordered after the
            # host and after the default-stream barrier.
            vc.join(self._host_clock)
            vc.join(self._default_barrier)
            self._stream_clocks[sid] = vc
        return vc

    def _begin_op(self, stream, label: str) -> _OpCtx:
        """Clock bookkeeping for one device op issued on ``stream``."""
        sid = stream.sid
        vc = self._stream_clock(sid)
        vc.join(self._host_clock)  # enqueue is ordered after the host
        if sid == 0:
            # Legacy default stream: waits for all streams...
            for osid, ovc in self._stream_clocks.items():
                if osid != 0:
                    vc.join(ovc)
            vc.join(self._default_barrier)
        vc.tick(sid)
        snap = vc.copy()
        if sid == 0:
            # ...and all streams wait for it.
            self._default_barrier = vc.copy()
            for osid, ovc in self._stream_clocks.items():
                if osid != 0:
                    ovc.join(vc)
        return _OpCtx(sid, snap, next(self._op_ids), label)

    def _state(self, addr: int, uid: int, size: int, kind: str) -> _BufState:
        key = (addr, uid)
        st = self._buffers.get(key)
        if st is None:
            st = _BufState(
                addr=addr, uid=uid, size=size, kind=kind,
                paged=kind == "managed",
            )
            self._buffers[key] = st
        return st

    def _resolve_buf(self, runtime, addr, op: _OpCtx | None):
        """Device-side pointer lookup with memcheck (use-after-free /
        wild pointer) — fires *before* the runtime raises, so the hazard
        is recorded even though the call still fails."""
        buf = runtime.buffer(addr)
        if buf is not None:
            return buf
        if addr in self._freed:
            self._emit(
                "memcheck", "use-after-free",
                f"access to freed pointer {addr:#x} "
                f"({self._freed[addr]} bytes at free time)",
                addr=addr,
                stream_sids=(op.sid,) if op else (),
                op_ids=(op.op_id,) if op else (),
            )
        else:
            self._emit(
                "memcheck", "invalid-pointer",
                f"access to pointer {addr:#x} never returned by any "
                "allocator", addr=addr,
                stream_sids=(op.sid,) if op else (),
            )
        return None

    def _record_access(
        self, buf, offset: int, nbytes: int, *, write: bool,
        op: _OpCtx | None, label: str,
    ) -> None:
        """Record one access; run memcheck/racecheck/initcheck on it.

        ``op=None`` marks a host-side access: it feeds initcheck's
        written-coverage but neither races nor is race-checked.
        """
        st = self._state(buf.addr, buf.uid, buf.size, buf.kind)
        lo, hi = offset, offset + nbytes
        if lo < 0 or hi > st.size:
            self._emit(
                "memcheck", "out-of-bounds",
                f"{label}: access [{lo}, {hi}) outside {st.kind} buffer "
                f"of {st.size} bytes",
                addr=st.addr, byte_range=(lo, hi),
                stream_sids=(op.sid,) if op else (),
                op_ids=(op.op_id,) if op else (),
            )
            lo, hi = max(lo, 0), min(hi, st.size)
        if hi <= lo:
            return
        # Managed buffers race at page granularity: two streams writing
        # different offsets of one UVM page is the CRUM failure mode.
        if st.paged:
            r_lo = (lo // UVM_PAGE) * UVM_PAGE
            r_hi = min(st.size, ((hi - 1) // UVM_PAGE + 1) * UVM_PAGE)
        else:
            r_lo, r_hi = lo, hi
        if op is not None and "racecheck" in self.checkers:
            for i in st.index.race_rows(r_lo, r_hi, op.sid, write, op.clock):
                a = st.accesses[i]
                kind = (
                    "write-write" if (write and a.write) else "read-write"
                )
                unit = "page" if st.paged else "byte"
                self._emit(
                    "racecheck", kind,
                    f"{a.label} (stream {a.sid}, op #{a.op_id}) and "
                    f"{label} (stream {op.sid}, op #{op.op_id}) touch "
                    f"overlapping {unit} range "
                    f"[{max(a.lo, r_lo)}, {min(a.hi, r_hi)}) "
                    f"with no ordering edge",
                    addr=st.addr,
                    byte_range=(max(a.lo, r_lo), min(a.hi, r_hi)),
                    stream_sids=(a.sid, op.sid),
                    op_ids=(a.op_id, op.op_id),
                    missing_edge=(
                        f"cudaEventRecord on stream {a.sid} after op "
                        f"#{a.op_id} + cudaStreamWaitEvent on stream "
                        f"{op.sid} before op #{op.op_id}"
                    ),
                )
        if not write and "initcheck" in self.checkers:
            missing = st.written.holes(lo, hi)
            if missing:
                self._emit(
                    "initcheck", "uninitialized-read",
                    f"{label} reads {sum(h - l for l, h in missing)} "
                    f"never-written byte(s) of {st.kind} buffer "
                    f"(first hole [{missing[0][0]}, {missing[0][1]}))",
                    addr=st.addr, byte_range=missing[0],
                    stream_sids=(op.sid,) if op else (),
                    op_ids=(op.op_id,) if op else (),
                )
        if write:
            st.written.add(lo, hi)
        if op is not None:
            a = _Access(r_lo, r_hi, write, op.sid, op.clock, op.op_id, label)
            st.accesses.append(a)
            st.index.add(a)
            if len(st.accesses) > HISTORY_LIMIT:
                self._prune(st)

    def _prune_frontier(self) -> VectorClock:
        """The clock every *future* device op is guaranteed to dominate.

        Componentwise min over all live stream clocks **and** the birth
        clock of a hypothetical not-yet-created stream (host ⊔
        default-stream barrier, the state ``_stream_clock`` seeds new
        streams with). Without the birth clock the frontier over-prunes:
        an access dominated by every *existing* stream — say its writer
        plus one event-joined peer — is still concurrent with the first
        op of a stream created later, because that op starts from the
        host/barrier clocks, which may never have absorbed the access.
        """
        birth = self._host_clock.copy()
        birth.join(self._default_barrier)
        clocks = [*self._stream_clocks.values(), birth]
        keys = set()
        for c in clocks:
            keys.update(c.clocks)
        return VectorClock({
            k: m for k in keys
            if (m := min(c.clocks.get(k, 0) for c in clocks)) > 0
        })

    def _prune(self, st: _BufState) -> None:
        """Bound a buffer's access history without losing live races.

        Three stages, mildest first:

        1. **Frontier drop** (exact): discard accesses dominated by
           :meth:`_prune_frontier` — every future op's clock dominates
           the frontier, so ``a ≤ frontier ≤ c`` means ``a`` can never
           be concurrent with a future ``c``.
        2. **Coverage compaction** (exact): drop an access whose bytes
           are fully covered by *later same-stream* accesses of at least
           the same strength (writes need write coverage; reads any).
           Same-stream clocks are totally ordered, so for the dropped
           ``a``, a covering later ``b`` satisfies ``a ≤ b``; if ``a``
           would race a future ``c`` then ``b ⋠ c`` (else ``a ≤ c``)
           and ``c ⋠ b`` (a future op ticks its own component past
           anything recorded), so ``b`` reports the race.
        3. **Span summarization** (detection-sound): collapse what
           remains into one access per (stream, write, merged span)
           carrying the group's *newest* clock. Any race a summarized
           access would hit still fires (same argument as 2 — the
           newest same-stream clock dominates the group), but the
           summary clock may claim concurrency an older member had
           already lost, so pre-summary ops can over-report; counted in
           ``report.history_summarized`` and only reachable with
           hundreds of live never-synchronized accesses per buffer.
           A group whose merged spans are still too fragmented (a
           strided writer leaves one span per write, so merging alone
           bounds nothing) is collapsed to its convex hull — also
           detection-sound, over-approximating only in the hull's gaps,
           which keeps the history hard-bounded per (stream, write).
        """
        dominated = st.index.dominated_rows(self._prune_frontier())
        if dominated.any():
            st.accesses = [
                a for a, d in zip(st.accesses, dominated.tolist()) if not d
            ]
            st.index.rebuild(st.accesses)
        if len(st.accesses) <= 4 * HISTORY_LIMIT:
            return
        self.report.history_compactions += 1
        cover_any: dict[int, SpanSet] = {}
        cover_write: dict[int, SpanSet] = {}
        kept: list[_Access] = []
        for a in reversed(st.accesses):
            cov = (cover_write if a.write else cover_any).get(a.sid)
            if cov is not None and cov.covers(a.lo, a.hi):
                continue
            kept.append(a)
            cover_any.setdefault(a.sid, SpanSet()).add(a.lo, a.hi)
            if a.write:
                cover_write.setdefault(a.sid, SpanSet()).add(a.lo, a.hi)
        kept.reverse()
        st.accesses = kept
        if len(st.accesses) > 4 * HISTORY_LIMIT:
            self.report.history_summarized += 1
            groups: dict[tuple[int, bool], tuple[SpanSet, _Access]] = {}
            for a in st.accesses:
                spans, newest = groups.get(
                    (a.sid, a.write), (SpanSet(), a)
                )
                spans.add(a.lo, a.hi)
                groups[(a.sid, a.write)] = (
                    spans, a if a.op_id >= newest.op_id else newest
                )
            st.accesses = []
            for (sid, write), (spans, newest) in sorted(groups.items()):
                merged = spans.spans()
                if len(merged) > HISTORY_LIMIT // 4:
                    merged = [(merged[0][0], merged[-1][1])]
                st.accesses.extend(
                    _Access(
                        lo, hi, write, sid, newest.clock, newest.op_id,
                        f"history-summary:{newest.label}",
                    )
                    for lo, hi in merged
                )
        st.index.rebuild(st.accesses)

    # -- hooks: copies / memset / kernels ------------------------------------

    def on_copy(self, runtime, stream, kind: str, dst, src, nbytes: int,
                dst_offset: int, src_offset: int, async_: bool) -> None:
        """cudaMemcpy[Async]: device ends are read/write accesses."""
        self._charge()
        op = self._begin_op(stream, f"memcpy-{kind}")
        if kind in ("h2d", "d2d"):
            buf = self._resolve_buf(runtime, dst, op)
            if buf is not None:
                self._record_access(
                    buf, dst_offset, nbytes, write=True, op=op,
                    label=f"memcpy-{kind}",
                )
        if kind in ("d2h", "d2d"):
            buf = self._resolve_buf(runtime, src, op)
            if buf is not None:
                self._record_access(
                    buf, src_offset, nbytes, write=False, op=op,
                    label=f"memcpy-{kind}",
                )
        if not async_:
            # Synchronous copy: the host blocks until the DMA completes.
            self._host_clock.join(self._stream_clocks[op.sid])
            self._host_clock.tick("host")

    def on_memset(self, runtime, stream, addr: int, nbytes: int,
                  async_: bool) -> None:
        """cudaMemset[Async]: a device-side write."""
        self._charge()
        op = self._begin_op(stream, "memset")
        buf = self._resolve_buf(runtime, addr, op)
        if buf is not None:
            # The runtime clamps an oversized memset to a full fill;
            # record the requested range so memcheck still sees the OOB.
            self._record_access(
                buf, 0, nbytes, write=True, op=op, label="memset"
            )
            if nbytes >= buf.size:
                self._record_access(
                    buf, 0, buf.size, write=True, op=None, label="memset"
                )
        if not async_:
            self._host_clock.join(self._stream_clocks[op.sid])
            self._host_clock.tick("host")

    def on_kernel_begin(self, runtime, stream, name: str, uses) -> _OpCtx:
        """cudaLaunchKernel: one op; ManagedUse declarations become page
        accesses; ``device_view`` calls inside the kernel body attribute
        to this op (see :meth:`on_device_view`)."""
        self._charge()
        op = self._begin_op(stream, name)
        for use in uses:
            buf = runtime.buffer(use.addr)
            if buf is None:
                self._resolve_buf(runtime, use.addr, op)
                continue
            if "r" in use.mode:
                self._record_access(
                    buf, use.offset, use.nbytes, write=False, op=op,
                    label=name,
                )
            if "w" in use.mode:
                self._record_access(
                    buf, use.offset, use.nbytes, write=True, op=op,
                    label=name,
                )
        self._kernel_ctx = op
        return op

    def on_kernel_end(self, op: _OpCtx) -> None:
        """The kernel body returned: stop attributing views to it."""
        self._kernel_ctx = None

    def on_device_view(self, runtime, buf, offset: int, nbytes: int) -> None:
        """A writable content view. Inside a kernel body this is the
        kernel's access (attributed to its stream/clock); outside it is a
        host-side peek — marks bytes written, never races."""
        self._charge()
        self._record_access(
            buf, offset, nbytes, write=True, op=self._kernel_ctx,
            label=(
                self._kernel_ctx.label if self._kernel_ctx is not None
                else "device_view"
            ),
        )

    def on_prefetch(self, runtime, stream, buf, offset: int, nbytes: int,
                    to_device: bool) -> None:
        """cudaMemPrefetchAsync: bulk page migration reads the range on
        the prefetching stream, so it orders against concurrent writers
        exactly like an async copy's source end."""
        self._charge()
        op = self._begin_op(stream, "prefetch")
        self._record_access(
            buf, offset, nbytes, write=False, op=op,
            label=f"prefetch-{'to-device' if to_device else 'to-host'}",
        )

    def on_pointer_miss(self, runtime, addr: int) -> None:
        """Host-side dereference of a pointer the runtime no longer (or
        never) knows — ``device_view`` on a freed/wild address."""
        self._charge()
        self._resolve_buf(runtime, addr, None)

    def on_managed_view(self, runtime, buf, offset: int, nbytes: int) -> None:
        """Host-side managed access (faults pages home): a host write."""
        self._charge()
        self._record_access(
            buf, offset, nbytes, write=True, op=None, label="managed_view"
        )

    # -- hooks: streams / events / sync --------------------------------------

    def on_stream_created(self, stream) -> None:
        """cudaStreamCreate: start the stream's clock after the current
        default-stream barrier."""
        self._charge()
        self._stream_clock(stream.sid)

    def on_sync(self, runtime, stream=None) -> None:
        """cudaStreamSynchronize (one stream) or cudaDeviceSynchronize
        (``stream=None``): the host clock absorbs the drained scope."""
        self._charge()
        if stream is None:
            for vc in self._stream_clocks.values():
                self._host_clock.join(vc)
        else:
            self._host_clock.join(self._stream_clock(stream.sid))
        self._host_clock.tick("host")

    def on_event_record(self, event, stream) -> None:
        """cudaEventRecord: snapshot the stream's clock into the event —
        the edge a later ``cudaStreamWaitEvent`` joins."""
        self._charge()
        op = self._begin_op(stream, f"event-record-{event.eid}")
        self._event_clocks[event.eid] = op.clock.copy()

    def on_stream_wait_event(self, stream, event) -> None:
        """cudaStreamWaitEvent: the waiting stream joins the event."""
        self._charge()
        evc = self._event_clocks.get(event.eid)
        if evc is not None:
            self._stream_clock(stream.sid).join(evc)

    def on_event_sync(self, event) -> None:
        """cudaEventSynchronize: the host joins the event."""
        self._charge()
        evc = self._event_clocks.get(event.eid)
        if evc is not None:
            self._host_clock.join(evc)
            self._host_clock.tick("host")

    # -- hooks: arena lifecycle (memcheck) -----------------------------------

    def on_arena_alloc(self, arena, addr: int, size: int) -> None:
        """Arena handed out ``addr``: it is no longer a freed pointer."""
        self._freed.pop(addr, None)

    def on_arena_free(self, arena, addr: int, size: int) -> None:
        """Arena reclaimed ``addr``: later uses are use-after-free."""
        self._freed[addr] = size

    def on_invalid_free(self, arena, addr: int) -> None:
        """Arena rejected a free: classify double-free vs wild free."""
        if addr in self._freed:
            self._emit(
                "memcheck", "double-free",
                f"free of already-freed pointer {addr:#x}", addr=addr,
            )
        else:
            self._emit(
                "memcheck", "invalid-free",
                f"free of pointer {addr:#x} never returned by this arena",
                addr=addr,
            )

    # -- hooks: checkpoint synchronization (synccheck) -----------------------

    def _unsynced_streams(self, runtime) -> list:
        now = runtime.process.clock_ns
        return [
            s for _, s in sorted(runtime.streams.items())
            if s.ready_ns > now
        ]

    def on_checkpoint_cut(self, runtime) -> None:
        """Plugin precheckpoint entry, *before* the drain: the paper's
        replay argument assumes the cut sees a quiescent device."""
        self.report.ops_instrumented += 1
        for s in self._unsynced_streams(runtime):
            self._emit(
                "synccheck", "unsynced-cut",
                f"checkpoint cut with work in flight on stream {s.sid} "
                f"(ready {s.ready_ns / 1e9:.4f}s > host "
                f"{runtime.process.clock_ns / 1e9:.4f}s) — missing "
                "cudaDeviceSynchronize before the cut",
                stream_sids=(s.sid,),
            )

    def watch_image(self, image) -> None:
        """Arm synccheck on ``image.mark_committed``."""
        image.sync_hook = self.on_mark_committed

    def on_mark_committed(self, image) -> None:
        """An image committed: in-flight work at commit means the commit
        point races application progress — except for forked images,
        whose commit legitimately lands mid-run (COW protects them)."""
        self.report.ops_instrumented += 1
        if self._runtime is None or image.forked_writer is not None:
            return
        for s in self._unsynced_streams(self._runtime):
            self._emit(
                "synccheck", "early-commit",
                f"mark_committed with work in flight on stream {s.sid} "
                "— dirty-state clearing may race device writes",
                stream_sids=(s.sid,),
            )
