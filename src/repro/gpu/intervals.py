"""Vectorized interval structures for the capture/sanitize hot path.

Two data structures back the per-write bookkeeping that used to be pure
Python span-list rebuilds (the O(pages)/O(history) hot loops the ROADMAP
calls out):

- :class:`EpochIntervalIndex` — sorted disjoint ``(start, end, epoch)``
  byte intervals held in numpy arrays, where ``epoch`` is the monotone
  write-sequence number of the range's *last* write. Writes append to a
  pending buffer in O(1); queries flush the buffer with one vectorized
  boundary sweep. Byte-exact: observationally identical to the legacy
  per-write span-list rebuild (``tests/gpu/test_dirty_vector_equivalence``
  proves it with Hypothesis), so the epoch-bounded-commit semantics of
  the forked checkpoint path are preserved bit-for-bit.
- :class:`SpanSet` — a sorted disjoint interval set (no epochs) with the
  same lazy-append design, used for the sanitizer's written-byte
  coverage (initcheck) and access-summary footprints.

Both structures expose a *page-granular epoch/coverage view*
(:meth:`EpochIntervalIndex.page_epochs`) so page-oriented consumers (UVM
residency accounting, perf reporting) can read one numpy array instead
of walking spans.

Flush preconditions: ``mark()`` must be called with non-decreasing
epochs (the caller's write counter is monotone), which makes
"last write wins" equal to "max epoch wins" and keeps the sweep exact.
"""

from __future__ import annotations

import numpy as np

_EMPTY = np.empty(0, dtype=np.int64)


def _program_error(code_name: str, msg: str):
    """Classified program-severity error (deferred import: this module
    sits below ``repro.cuda`` in the import graph)."""
    from repro.cuda.errors import CudaErrorCode
    from repro.errors import CudaError

    return CudaError(
        f"{code_name}: {msg}", code=CudaErrorCode[code_name], severity="program"
    )


def _normalize(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort + merge (possibly overlapping/touching) intervals, vectorized."""
    keep = ends > starts
    starts, ends = starts[keep], ends[keep]
    if starts.size == 0:
        return _EMPTY, _EMPTY
    order = np.argsort(starts, kind="stable")
    s, e = starts[order], ends[order]
    cm = np.maximum.accumulate(e)
    # A new merged group starts where the interval begins past the
    # running maximum end of everything before it.
    new_group = np.empty(s.size, dtype=bool)
    new_group[0] = True
    np.greater(s[1:], cm[:-1], out=new_group[1:])
    gidx = np.flatnonzero(new_group)
    out_s = s[gidx]
    last = np.empty(gidx.size, dtype=np.int64)
    last[:-1] = gidx[1:] - 1
    last[-1] = s.size - 1
    return out_s, cm[last]


class SpanSet:
    """Sorted disjoint byte intervals with O(1) lazy insertion.

    ``add`` appends to a pending list; any query first folds the pending
    intervals into the committed arrays with one vectorized merge. This
    replaces the sanitizer's per-write ``merge_spans(written + [(lo,
    hi)])`` full rebuild with amortized O(1) inserts.
    """

    __slots__ = ("_starts", "_ends", "_pending")

    def __init__(self, spans=()) -> None:
        self._starts = _EMPTY
        self._ends = _EMPTY
        self._pending: list[tuple[int, int]] = [
            (lo, hi) for lo, hi in spans if hi > lo
        ]

    def add(self, lo: int, hi: int) -> None:
        """Insert ``[lo, hi)`` (amortized O(1))."""
        if hi > lo:
            self._pending.append((lo, hi))

    def _flush(self) -> None:
        if not self._pending:
            return
        p = np.asarray(self._pending, dtype=np.int64)
        self._pending.clear()
        self._starts, self._ends = _normalize(
            np.concatenate([self._starts, p[:, 0]]),
            np.concatenate([self._ends, p[:, 1]]),
        )

    def spans(self) -> list[tuple[int, int]]:
        """The merged intervals as a list of ``(lo, hi)`` tuples."""
        self._flush()
        return list(zip(self._starts.tolist(), self._ends.tolist()))

    def holes(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Sub-ranges of ``[lo, hi)`` not covered by the set."""
        if hi <= lo:
            return []
        self._flush()
        # Committed intervals overlapping the query window.
        i = int(np.searchsorted(self._ends, lo, side="right"))
        j = int(np.searchsorted(self._starts, hi, side="left"))
        gap_lo = np.concatenate([[lo], self._ends[i:j]])
        gap_hi = np.concatenate([self._starts[i:j], [hi]])
        gap_lo = np.clip(gap_lo, lo, hi)
        gap_hi = np.clip(gap_hi, lo, hi)
        keep = gap_hi > gap_lo
        return list(zip(gap_lo[keep].tolist(), gap_hi[keep].tolist()))

    def covers(self, lo: int, hi: int) -> bool:
        """True iff ``[lo, hi)`` is entirely inside the set."""
        if hi <= lo:
            return True
        self._flush()
        i = int(np.searchsorted(self._starts, lo, side="right")) - 1
        return i >= 0 and self._ends[i] >= hi

    @property
    def byte_count(self) -> int:
        self._flush()
        return int((self._ends - self._starts).sum())

    def __bool__(self) -> bool:
        return bool(self._pending) or self._starts.size > 0


class EpochIntervalIndex:
    """Disjoint ``(start, end, epoch)`` intervals; epoch = last write.

    The committed state lives in three parallel numpy arrays (sorted by
    start, disjoint, non-empty). :meth:`mark` is an O(1) append to a
    pending buffer; queries call :meth:`_flush`, which folds the pending
    writes in with a single boundary sweep over only the *window* of
    committed intervals the pending writes overlap — later writes
    supersede earlier epochs byte-for-byte, exactly like the legacy
    per-write rebuild. Queries and :meth:`clear` on an empty index
    return at once without touching numpy: a checkpoint cut asks every
    never-written buffer of a process, and most of them are empty.
    """

    __slots__ = ("_starts", "_ends", "_epochs", "_pending", "_last_epoch")

    def __init__(self) -> None:
        self._starts = _EMPTY
        self._ends = _EMPTY
        self._epochs = _EMPTY
        self._pending: list[tuple[int, int, int]] = []
        self._last_epoch = 0

    # -- write path ----------------------------------------------------------

    def mark(self, lo: int, hi: int, epoch: int) -> None:
        """Record a write of ``[lo, hi)`` at ``epoch`` (amortized O(1)).

        Epochs must be non-decreasing across calls — the flush sweep
        relies on "last write wins" coinciding with "max epoch wins".
        """
        if hi <= lo:
            return
        if epoch < self._last_epoch:
            raise _program_error(
                "INVALID_VALUE",
                f"mark() epoch went backwards ({epoch} < {self._last_epoch})",
            )
        self._last_epoch = epoch
        self._pending.append((lo, hi, epoch))

    # -- flush ---------------------------------------------------------------

    @staticmethod
    def _sweep(
        los: np.ndarray, his: np.ndarray, eps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Boundary sweep: paint intervals in order (later wins), then
        compress equal-epoch contiguous segments. ``los/his/eps`` must be
        ordered so that a later entry supersedes any earlier overlap."""
        bounds = np.unique(np.concatenate([los, his]))
        seg_ep = np.zeros(bounds.size - 1, dtype=np.int64)
        il = np.searchsorted(bounds, los)
        ih = np.searchsorted(bounds, his)
        for k in range(los.size):
            seg_ep[il[k] : ih[k]] = eps[k]
        keep = np.flatnonzero(seg_ep)
        if keep.size == 0:
            return _EMPTY, _EMPTY, _EMPTY
        s = bounds[keep]
        e = bounds[keep + 1]
        ep = seg_ep[keep]
        new_group = np.empty(keep.size, dtype=bool)
        new_group[0] = True
        np.logical_or(s[1:] != e[:-1], ep[1:] != ep[:-1], out=new_group[1:])
        gidx = np.flatnonzero(new_group)
        last = np.empty(gidx.size, dtype=np.int64)
        last[:-1] = gidx[1:] - 1
        last[-1] = keep.size - 1
        return s[gidx], e[last], ep[gidx]

    def _flush(self) -> None:
        if not self._pending:
            return
        p = np.asarray(self._pending, dtype=np.int64)
        self._pending.clear()
        p_lo = int(p[:, 0].min())
        p_hi = int(p[:, 1].max())
        # Only committed intervals inside the pending window participate
        # in the sweep; the untouched prefix/suffix pass through.
        i = int(np.searchsorted(self._ends, p_lo, side="right"))
        j = int(np.searchsorted(self._starts, p_hi, side="left"))
        s, e, ep = self._sweep(
            np.concatenate([self._starts[i:j], p[:, 0]]),
            np.concatenate([self._ends[i:j], p[:, 1]]),
            np.concatenate([self._epochs[i:j], p[:, 2]]),
        )
        s = np.concatenate([self._starts[:i], s, self._starts[j:]])
        e = np.concatenate([self._ends[:i], e, self._ends[j:]])
        ep = np.concatenate([self._epochs[:i], ep, self._epochs[j:]])
        # Seam repair: a swept interval may now touch an untouched
        # neighbour with the same epoch; re-merge contiguity groups.
        if s.size > 1:
            new_group = np.empty(s.size, dtype=bool)
            new_group[0] = True
            np.logical_or(s[1:] != e[:-1], ep[1:] != ep[:-1], out=new_group[1:])
            if not new_group.all():
                gidx = np.flatnonzero(new_group)
                last = np.empty(gidx.size, dtype=np.int64)
                last[:-1] = gidx[1:] - 1
                last[-1] = s.size - 1
                s, e, ep = s[gidx], e[last], ep[gidx]
        self._starts, self._ends, self._epochs = s, e, ep

    # -- queries -------------------------------------------------------------

    def intervals(self) -> list[tuple[int, int, int]]:
        """All ``(start, end, epoch)`` triples (sorted, disjoint)."""
        self._flush()
        return list(zip(
            self._starts.tolist(), self._ends.tolist(), self._epochs.tolist()
        ))

    def spans(self) -> list[tuple[int, int]]:
        """Dirty byte ranges, merged across epochs."""
        if not self:
            return []
        self._flush()
        new_group = np.empty(self._starts.size, dtype=bool)
        new_group[0] = True
        np.greater(self._starts[1:], self._ends[:-1], out=new_group[1:])
        gidx = np.flatnonzero(new_group)
        last = np.empty(gidx.size, dtype=np.int64)
        last[:-1] = gidx[1:] - 1
        last[-1] = self._starts.size - 1
        return list(zip(
            self._starts[gidx].tolist(), self._ends[last].tolist()
        ))

    @property
    def byte_count(self) -> int:
        """Total dirty bytes."""
        if not self:
            return 0
        self._flush()
        return int((self._ends - self._starts).sum())

    def bytes_since(self, epoch: int) -> int:
        """Bytes whose last write came strictly after ``epoch``."""
        if not self:
            return 0
        self._flush()
        sel = self._epochs > epoch
        return int((self._ends[sel] - self._starts[sel]).sum())

    def page_epochs(self, page_size: int, size: int) -> np.ndarray:
        """Page-granular epoch array: max last-write epoch per page
        (0 = clean). The coarse view page-oriented consumers read."""
        self._flush()
        n_pages = (size + page_size - 1) // page_size
        out = np.zeros(n_pages, dtype=np.int64)
        starts, ends, epochs = self._starts, self._ends, self._epochs
        for k in range(starts.size):
            p0 = starts[k] // page_size
            p1 = (ends[k] - 1) // page_size + 1
            np.maximum(out[p0:p1], epochs[k], out=out[p0:p1])
        return out

    # -- clearing ------------------------------------------------------------

    def clear_all(self) -> None:
        """Forget everything (a full-image commit)."""
        self._starts = self._ends = self._epochs = _EMPTY
        self._pending.clear()

    def clear(self, spans, up_to_epoch: int | None = None) -> None:
        """Remove ``spans`` from the index, epoch-bounded.

        With ``up_to_epoch`` only bytes whose last write is at or before
        that epoch are cleared — bytes re-written while a (forked) image
        was still flushing stay dirty for the next incremental cut.
        """
        if not self:
            return
        self._flush()
        c = np.asarray(
            [(lo, hi) for lo, hi in spans if hi > lo], dtype=np.int64
        ).reshape(-1, 2)
        if c.size == 0 or self._starts.size == 0:
            return
        c_lo, c_hi = _normalize(c[:, 0], c[:, 1])
        bounds = np.unique(np.concatenate([
            self._starts, self._ends, c_lo, c_hi
        ]))
        seg_ep = np.zeros(bounds.size - 1, dtype=np.int64)
        il = np.searchsorted(bounds, self._starts)
        ih = np.searchsorted(bounds, self._ends)
        for k in range(self._starts.size):
            seg_ep[il[k] : ih[k]] = self._epochs[k]
        cleared = np.zeros(bounds.size - 1, dtype=bool)
        jl = np.searchsorted(bounds, c_lo)
        jh = np.searchsorted(bounds, c_hi)
        for k in range(c_lo.size):
            cleared[jl[k] : jh[k]] = True
        if up_to_epoch is not None:
            cleared &= seg_ep <= up_to_epoch
        seg_ep[cleared] = 0
        keep = np.flatnonzero(seg_ep)
        if keep.size == 0:
            self._starts = self._ends = self._epochs = _EMPTY
            return
        s, e, ep = bounds[keep], bounds[keep + 1], seg_ep[keep]
        new_group = np.empty(keep.size, dtype=bool)
        new_group[0] = True
        np.logical_or(s[1:] != e[:-1], ep[1:] != ep[:-1], out=new_group[1:])
        gidx = np.flatnonzero(new_group)
        last = np.empty(gidx.size, dtype=np.int64)
        last[:-1] = gidx[1:] - 1
        last[-1] = keep.size - 1
        self._starts, self._ends, self._epochs = s[gidx], e[last], ep[gidx]

    def __bool__(self) -> bool:
        return bool(self._pending) or self._starts.size > 0
